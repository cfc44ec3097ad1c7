"""The package's public surface: declared names exist, removed ones stay gone."""

import ast
import collections
import dataclasses
import functools
import importlib
import inspect
import pathlib
import pkgutil
import types

import pytest

import symgame

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(symgame.__path__, prefix="symgame.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_declared_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["symmetrize_3to2", "reduce_once", "reduce_to", "evaluate_rates"])
def test_removed_builders_are_not_exported(name):
    assert not hasattr(symgame, name)


@pytest.mark.parametrize("name", ["enumerate_states", "unconstrained_joint", "lattice_grid"])
def test_removed_lattice_paths_stay_gone(name):
    modules = [importlib.import_module(module_name) for module_name in MODULES]
    assert [m.__name__ for m in (symgame, *modules) if hasattr(m, name)] == []


# every name `import symgame` offers, submodules aside
PUBLIC_NAMES = [
    "BirthDeathSpec", "BirthDeathWeights", "ComparisonMetrics", "ConfigError",
    "DerivedPopulation", "DetailedBalanceReport", "EmptySupportError", "FiniteChain",
    "GridSizeError", "IntegrationDivergedError", "PathResult", "PopulationGame",
    "ProtocolError", "ReducibleChainError", "RevisionProtocol", "SocialState", "SolverError",
    "StateGrid",
    "StationaryTable", "SymgameError", "Trajectory", "TransformedGame", "ValidationReport",
    "birth_death_weights", "build_generator", "build_grid", "check_detailed_balance",
    "compare", "constant_protocol", "custom_protocol", "decompose", "derived_block",
    "deviation_vs_ode", "exact_stationary", "integrate_mean_dynamic", "invert_3to2",
    "make_linear_game", "make_separable_game", "marginal_from_exact", "mean_dynamic_rhs",
    "product_form_joint", "rest_point", "sample_states", "simulate_path", "simulate_paths",
    "specs_from_transform", "sum_exponential_protocol", "table_protocol",
    "validate_hypotheses",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(symgame).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_removed_methods_stay_gone():
    for name in ("rate_pair", "reconstruct", "derived_payoff", "_padded_payoff"):
        assert not hasattr(symgame.TransformedGame, name), name
    assert not hasattr(symgame.DerivedPopulation, "is_passthrough")
    for name in ("index", "states", "social_state"):
        assert not hasattr(symgame.StateGrid, name), name
    for name in ("flat", "from_counts", "counts", "denominators", "num_populations"):
        assert not hasattr(symgame.SocialState, name), name
    assert "params" not in {f.name for f in dataclasses.fields(symgame.RevisionProtocol)}
    assert {f.name for f in dataclasses.fields(symgame.FiniteChain)}.isdisjoint({"pop", "from_strategy", "to_strategy"})
    assert not hasattr(importlib.import_module("symgame.config").ExperimentConfig, "num_populations")
    assert not hasattr(symgame.Trajectory, "state_at")
    assert "solver" not in inspect.signature(symgame.exact_stationary).parameters


def _imported_names(node: ast.AST) -> list[str]:
    """The names an import statement binds, ``from __future__`` aside; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


# the package's own imports are its re-exports, pinned by PUBLIC_NAMES;
# an import inside a function must be read in that function
@pytest.mark.parametrize("module_name", MODULES)
def test_every_import_is_used_or_exported(module_name):
    module = importlib.import_module(module_name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    top_level = [name for node in tree.body for name in _imported_names(node)]
    unused = [name for name in top_level if name not in used | set(getattr(module, "__all__", ()))]
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{func.name}: {name}" for node in ast.walk(func) for name in _imported_names(node)
                       if name not in read]
    assert unused == []


# receivers named so hold these classes, as a bare name or as an attribute (``model.grid``)
_RECEIVERS = {"chain": "FiniteChain", "grid": "StateGrid"}


def _annotated_classes(node: ast.AST) -> frozenset[str] | None:
    """The classes an annotation names (``A``, ``m.A``, ``"A"``, ``A | B``), or None if any part is none."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotated_classes(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _annotated_classes(node.left), _annotated_classes(node.right)
        return None if left is None or right is None else left | right
    if isinstance(node, (ast.Name, ast.Attribute)):
        return frozenset({node.id if isinstance(node, ast.Name) else node.attr})
    return None


def _field_classes(trees) -> dict[tuple[str, str], frozenset[str] | None]:
    """``(class, attribute)`` -> the classes its annotation in the class body names."""
    return {
        (cls.name, item.target.id): _annotated_classes(item.annotation)
        for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _receiver_classes(node: ast.AST, env: dict, fields: dict) -> frozenset[str] | None:
    """The classes of what ``node`` evaluates to, or None where they cannot be named.

    A name takes them from ``env``, an attribute from its field's annotation on the classes of its
    own receiver; either falls back to :data:`_RECEIVERS`.  Any other expression has none.
    """
    if isinstance(node, ast.Name):
        classes, name = env.get(node.id), node.id
    elif isinstance(node, ast.Attribute):
        owners = [fields.get((c, node.attr)) for c in _receiver_classes(node.value, env, fields) or ()]
        classes, name = (frozenset().union(*owners) if owners and None not in owners else None), node.attr
    else:
        return None
    return classes if classes is not None or name not in _RECEIVERS else frozenset({_RECEIVERS[name]})


def _local_classes(func: ast.FunctionDef, env: dict, fields: dict) -> dict:
    """``env`` with each name that ``func`` binds given the classes of all its bindings, or None.

    A binding names classes when it is the single name target of an assignment whose value
    :func:`_receiver_classes` resolves in ``env`` (``q = chain.generator``) or of an annotated
    assignment; a name bound any other way (a loop, unpacking, ``+=``) has none.  A parameter's
    annotation counts as one more binding.
    """
    stores = collections.Counter(
        node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    )
    bound = collections.defaultdict(list)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound[node.target.id].append(_annotated_classes(node.annotation))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            bound[node.targets[0].id].append(_receiver_classes(node.value, env, fields))
    env = dict(env)
    for name, count in stores.items():
        classes = bound[name] + ([env[name]] if name in env else [])
        env[name] = frozenset().union(*classes) if len(bound[name]) == count and None not in classes else None
    return env


def _attribute_reads(tree: ast.AST, skip: set[str], fields: dict) -> set[tuple[str | None, str]]:
    """``(receiver class, attribute)`` for each attribute loaded in ``tree`` outside the functions named in ``skip``.

    The receiver's class is the enclosing class for ``self``, a parameter's annotation, the
    classes of a local's bindings (:func:`_local_classes`), a field's annotation on a resolved
    receiver, or :data:`_RECEIVERS`; it is None where none of these names one.
    """
    reads = set()

    def walk(node, cls, env):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            if node.name in skip:
                return
            args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            env = {**env, **{a.arg: a.annotation and _annotated_classes(a.annotation) for a in args}}
            if cls is not None and args and args[0].arg == "self":
                env["self"] = frozenset({cls})
            env = _local_classes(node, env, fields)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.update((c, node.attr) for c in _receiver_classes(node.value, env, fields) or [None])
        for child in ast.iter_child_nodes(node):
            walk(child, cls, env)

    walk(tree, None, {})
    return reads


# the dataclasses `import symgame` offers, and the config that the CLI reads
DATACLASSES = [
    value for value in vars(symgame).values() if isinstance(value, type) and dataclasses.is_dataclass(value)
] + [importlib.import_module("symgame.config").ExperimentConfig]


@functools.cache
def _package_reads() -> frozenset[tuple[str | None, str]]:
    """Attribute reads in the package and in perfbench, outside parse_config and render_config."""
    files = [pathlib.Path(importlib.import_module(name).__file__) for name in MODULES]
    files += sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(f.read_text()) for f in files]
    fields = _field_classes(trees)
    return frozenset().union(*(_attribute_reads(tree, {"parse_config", "render_config"}, fields) for tree in trees))


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: cls.__name__)
def test_every_dataclass_field_is_read(cls):
    # some code of the package or of perfbench must load each field as an attribute, apart from
    # parse_config, which fills the config, and render_config, which writes it back.  A load
    # counts when its receiver is of this class or of no class _attribute_reads can name, so a
    # field named like an attribute read off a receiver of no class still passes unread.  A
    # field ``data`` fails: each ``.data`` in ``symgame.chain`` reads a ``csr_matrix``.
    reads = _package_reads()
    assert [f.name for f in dataclasses.fields(cls) if not {(cls.__name__, f.name), (None, f.name)} & reads] == []
