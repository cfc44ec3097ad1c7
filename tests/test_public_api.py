"""The package's public surface: declared names exist, removed ones stay gone."""

import importlib
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
    "ProtocolError", "ReducibleChainError", "RevisionProtocol", "SocialState", "StateGrid",
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
    assert not hasattr(symgame.TransformedGame, "rate_pair")
    assert not hasattr(symgame.StateGrid, "index")
    assert not hasattr(symgame.StateGrid, "states")
    assert not hasattr(symgame.SocialState, "flat")
