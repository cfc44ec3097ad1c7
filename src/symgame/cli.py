"""Command-line surface: config-driven runs with diffable text artifacts.

Commands: validate, mean-dynamic, simulate, exact-stationary, transform,
predict, compare, and the full experiment pipeline.  All outputs are CSV or
``key: value`` report blocks with full decimal precision and no timestamps,
so identical configs and seeds reproduce byte-identical files.  On any error
the partial artifacts of the failed command are removed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from .config import ExperimentConfig, parse_config, render_config
from .dynamics import integrate_mean_dynamic
from .errors import ConfigError, GridSizeError, SymgameError
from .games import (
    ENUMERATION_LIMIT,
    SocialState,
    count_states,
    grid_rates,
    sample_states,
    validate_hypotheses,
)
from .stationary import (
    birth_death_weights,
    compare,
    product_form_joint,
    specs_from_transform,
)
from .transform import decompose

__all__ = ["main", "run_command", "COMMANDS"]

COMMANDS = (
    "validate",
    "mean-dynamic",
    "simulate",
    "exact-stationary",
    "transform",
    "predict",
    "compare",
    "experiment",
)

CHAIN_STATE_BUDGET = 20_000  # write path occupancy tables below this many states


class ArtifactWriter:
    """Tracks written files so a failed command can remove its partial output."""

    def __init__(self, directory: str):
        self.directory = Path(directory)
        self.written: list[Path] = []

    def write(self, name: str, text: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        path.write_text(text, newline="\n")
        self.written.append(path)
        return path

    def discard_all(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass
        self.written.clear()


def _provenance(config: ExperimentConfig, command: str, seed: int | None = None) -> str:
    lines = [
        f"# command: {command}",
        f"# config_hash: {config.config_hash}",
        f"# variant_factor: {config.variant_factor}",
        f"# variant_orientation: {config.variant_orientation}",
        f"# fstar: {config.fstar}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return "\n".join(lines) + "\n"


class _Model:
    """Game, protocols, and initial state resolved from a config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.base_game = config.build_game()
        self.base_protocols = config.build_protocols(self.base_game)
        self.transformed = None
        if config.transform_lineage is not None:
            self.transformed = decompose(
                self.base_game, self.base_protocols, fstar=config.fstar
            )
            self.game, self.protocols = self.transformed.as_population_game()
        else:
            self.game, self.protocols = self.base_game, self.base_protocols

    @property
    def base_resolutions(self) -> tuple[int, ...]:
        res = self.config.resolutions
        n_pop = self.base_game.num_populations
        return tuple(res) if len(res) == n_pop else (res[0],) * n_pop

    @property
    def resolutions(self) -> tuple[int, ...]:
        if self.transformed is None:
            return self.base_resolutions
        return tuple(self.base_resolutions[pop.base_population] for pop in self.transformed.populations)

    def initial_state(self) -> SocialState:
        parts = self.config.initial_state_parts(self.base_game)
        state = SocialState(parts=tuple(parts))
        self.base_game.require_valid_state(state, tol=1e-9)
        if self.transformed is not None:
            return self.transformed.embed(state)
        return state

    def lattice_counts(self) -> tuple[tuple[int, ...], ...]:
        state = self.initial_state()
        counts = []
        for part, res, m in zip(state.parts, self.resolutions, self.game.masses):
            scaled = part * res
            k = np.floor(scaled).astype(int)
            target = int(round(res * m))
            remainder = scaled - k
            while k.sum() < target:
                k[int(np.argmax(remainder))] += 1
                remainder[int(np.argmax(remainder))] = -1.0
            while k.sum() > target:
                k[int(np.argmin(remainder))] -= 1
                remainder[int(np.argmin(remainder))] = 2.0
            counts.append(tuple(int(v) for v in k))
        return tuple(counts)


def _require_base(model: _Model, command: str) -> None:
    if model.transformed is not None:
        raise SymgameError(
            f"command '{command}' expects an untransformed game config "
            "(this one carries a [transform] section)"
        )


def _check_hypotheses(model: _Model):
    """Exhaustive check on a lattice small enough to enumerate, else 1000 random states.

    Returns the report and, for the exhaustive check, the per-state rate
    tensors for :func:`chain.build_generator`.
    """
    try:
        grid = chain_mod.build_grid(model.game, model.resolutions, limit=ENUMERATION_LIMIT)
    except GridSizeError:
        states = sample_states(model.game, n_random=1000, seed=0)
        return validate_hypotheses(model.game, model.protocols, states), None
    rates = grid_rates(model.game, model.protocols, grid)
    return validate_hypotheses(model.game, model.protocols, grid, rates=rates), rates


def _cmd_validate(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    report, _ = _check_hypotheses(model)
    lines = [_provenance(config, "validate"), "[validate]"]
    lines.extend(report.as_lines())
    writer.write("validate_report.txt", "\n".join(lines) + "\n")
    return 0 if (report.symmetric and report.fully_supported) else 1


def _cmd_mean_dynamic(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    traj = integrate_mean_dynamic(
        model.game, model.protocols, model.initial_state(), config.horizon, config.dt
    )
    writer.write("trajectory.csv", _provenance(config, "mean-dynamic") + traj.to_csv())
    return 0


def _build_chain(model: _Model, rates=None):
    return chain_mod.build_generator(model.game, model.protocols, model.resolutions, rates=rates)


def _simulate_seeds(model: _Model, writer: ArtifactWriter, command: str):
    """Simulate one path per config seed, write its path and occupancy CSVs and yield it.

    Occupancy tables are written only for lattices of at most
    ``CHAIN_STATE_BUDGET`` states.
    """
    config = model.config
    if not config.seeds:
        raise SymgameError(f"{command} needs a nonempty seed list (run section, 'seeds')")
    x0 = model.lattice_counts()
    sizes = [sum(part) for part in x0]
    occupancy = count_states(model.game.strategy_counts, sizes) <= CHAIN_STATE_BUDGET
    for seed in config.seeds:
        path = chain_mod.simulate_path(
            (model.game, model.protocols, model.resolutions), x0, config.horizon, seed,
            burn_in=config.burn_in,
            collect_occupancy=occupancy,
        )
        header = _provenance(config, command, seed)
        writer.write(f"path_{seed}.csv", header + path.to_csv())
        if path.occupancy is not None:
            writer.write(f"occupancy_{seed}.csv", header + path.occupancy.to_csv())
        yield path


def _cmd_simulate(model: _Model, writer: ArtifactWriter) -> int:
    for _ in _simulate_seeds(model, writer, "simulate"):
        pass
    return 0


def _cmd_exact_stationary(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    chain = _build_chain(model)
    exact = chain_mod.exact_stationary(chain)
    header = _provenance(config, "exact-stationary")
    header += f"# solver: {exact.metadata['solver']}\n"
    header += f"# residual: {exact.metadata['residual']:.17g}\n"
    writer.write("exact_stationary.csv", header + exact.to_csv())
    return 0


def _cmd_transform(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    _require_base(model, "transform")
    transformed = decompose(model.base_game, model.base_protocols, fstar=config.fstar)
    writer.write("transformed_game.cfg", render_config(config, lineage=transformed.lineage))
    lines = [_provenance(config, "transform"), "[transform]"]
    lines.append(f"derived_populations: {len(transformed.populations)}")
    lines.append("arities: " + ", ".join(str(a) for a in transformed.arities))
    lines.append("lineage: " + ", ".join(transformed.lineage))
    for i, pop in enumerate(transformed.populations):
        lines.append(f"population_{i}_labels: " + ", ".join(pop.labels))
    writer.write("transform_report.txt", "\n".join(lines) + "\n")
    return 0


def _degenerate_line(results) -> str:
    degenerate = [str(i) for i, r in enumerate(results) if r.degenerate]
    return "degenerate_marginals: " + (", ".join(degenerate) or "none")


def _predict_table(model: _Model):
    config = model.config
    transformed = decompose(model.base_game, model.base_protocols, fstar=config.fstar)
    grid = chain_mod.build_grid(model.base_game, model.base_resolutions)
    specs = specs_from_transform(
        transformed,
        [grid.sizes[pop.base_population] for pop in transformed.populations],
        factor_variant=config.variant_factor,
        orientation_variant=config.variant_orientation,
    )
    results = [birth_death_weights(spec) for spec in specs]
    marginals = [r.normalized() for r in results]
    table = product_form_joint(
        marginals,
        grid,
        metadata={
            "variant_factor": config.variant_factor,
            "variant_orientation": config.variant_orientation,
        },
    )
    return transformed, results, marginals, table


def _cmd_predict(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    _require_base(model, "predict")
    _, results, marginals, table = _predict_table(model)
    for i, marginal in enumerate(marginals):
        text = _provenance(config, "predict") + "count,probability\n"
        text += "".join(f"{k},{v:.17g}\n" for k, v in enumerate(marginal))
        writer.write(f"predicted_marginal_{i}.csv", text)
    header = _provenance(config, "predict") + f"# {_degenerate_line(results)}\n"
    writer.write("predicted.csv", header + table.to_csv())
    return 0


def _cmd_compare(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    _require_base(model, "compare")
    _, results, _, predicted = _predict_table(model)
    exact = chain_mod.exact_stationary(_build_chain(model))
    metrics = compare(predicted, exact)
    lines = [_provenance(config, "compare"), "[compare]"]
    lines.extend(metrics.as_lines("predicted_vs_exact"))
    lines.append(_degenerate_line(results))
    writer.write("compare_report.txt", "\n".join(lines) + "\n")
    return 0


def _cmd_experiment(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    _require_base(model, "experiment")
    if not config.seeds:
        raise SymgameError("experiment needs a nonempty seed list (run section, 'seeds')")
    report: list[str] = [_provenance(config, "experiment")]
    report.append("[experiment]")
    report.append("seeds: " + ", ".join(str(s) for s in config.seeds))

    # hypothesis checks; their rate tensors are reused by the generator
    hyp, rates = _check_hypotheses(model)
    report.append("")
    report.append("[validate]")
    report.extend(hyp.as_lines())
    if not (hyp.symmetric and hyp.fully_supported):
        raise SymgameError(
            "hypotheses fail: the protocol must be symmetric and fully supported "
            f"(max_asymmetry={hyp.max_asymmetry:.6g}, min_rate={hyp.min_rate:.6g})"
        )

    # reference trajectory
    traj = integrate_mean_dynamic(
        model.game, model.protocols, model.initial_state(), config.horizon, config.dt
    )
    writer.write("trajectory.csv", _provenance(config, "experiment") + traj.to_csv())

    # transformation and prediction
    transformed, results, marginals, predicted = _predict_table(model)
    writer.write("transformed_game.cfg", render_config(config, lineage=transformed.lineage))
    report.append("")
    report.append("[transform]")
    report.append(f"derived_populations: {len(transformed.populations)}")
    report.append("arities: " + ", ".join(str(a) for a in transformed.arities))
    report.append("lineage: " + ", ".join(transformed.lineage))
    writer.write("predicted.csv", _provenance(config, "experiment") + predicted.to_csv())
    report.append("")
    report.append("[predict]")
    report.append(_degenerate_line(results))

    # exact stationary law
    chain = _build_chain(model, rates)
    exact = chain_mod.exact_stationary(chain)
    writer.write("exact_stationary.csv", _provenance(config, "experiment") + exact.to_csv())
    report.append("")
    report.append("[exact]")
    report.append(f"states: {len(chain.grid)}")
    report.append(f"edges: {len(chain.src)}")
    report.append(f"solver: {exact.metadata['solver']}")
    report.append(f"residual: {exact.metadata['residual']:.17g}")

    # headline gap
    metrics = compare(predicted, exact)
    report.append("")
    report.append("[compare]")
    report.extend(metrics.as_lines("predicted_vs_exact"))

    # reversibility measurements
    balance = chain_mod.check_detailed_balance(chain, exact)
    report.append("")
    report.append("[detailed_balance]")
    report.append(f"original_max_imbalance: {balance.max_imbalance:.17g}")
    report.append(f"original_worst_edge: {balance.worst_edge[0]} -> {balance.worst_edge[1]}")
    derived_imbalance = 0.0
    for i in range(len(transformed.populations)):
        mg, mp = transformed.marginal_game(i)
        size = results[i].weights.shape[0] - 1
        mchain = chain_mod.build_generator(mg, mp, size)
        mexact = chain_mod.exact_stationary(mchain)
        mbalance = chain_mod.check_detailed_balance(mchain, mexact)
        derived_imbalance = max(derived_imbalance, mbalance.max_imbalance)
    report.append(f"derived_max_imbalance: {derived_imbalance:.17g}")

    # stochastic paths against the trajectory
    report.append("")
    report.append("[simulate]")
    for path in _simulate_seeds(model, writer, "experiment"):
        deviation = chain_mod.deviation_vs_ode(path, traj)
        report.append(f"seed_{path.seed}_events: {len(path.times) - 1}")
        report.append(f"seed_{path.seed}_deviation_vs_ode: {deviation:.17g}")

    writer.write("experiment_report.txt", "\n".join(report) + "\n")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "mean-dynamic": _cmd_mean_dynamic,
    "simulate": _cmd_simulate,
    "exact-stationary": _cmd_exact_stationary,
    "transform": _cmd_transform,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
}


def run_command(command: str, config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute one command; returns the exit status, removing partial output on error."""
    if command not in _HANDLERS:
        raise ValueError(f"unknown command '{command}'")
    writer = ArtifactWriter(out_dir or config.output_directory)
    model = _Model(config)
    try:
        return _HANDLERS[command](model, writer)
    except Exception:
        writer.discard_all()
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symgame",
        description="Finite-population game dynamics and product-form stationary predictions.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--seed-override", default=None, help="comma list replacing the config seeds")
    parser.add_argument("--variant-factor", choices=["paper", "standard"], default=None)
    parser.add_argument("--variant-orientation", choices=["paper", "standard"], default=None)
    parser.add_argument("--fstar", choices=["zero", "weighted"], default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed_override is not None:
            config.seeds = [int(v.strip()) for v in args.seed_override.split(",") if v.strip()]
        if args.variant_factor is not None:
            config.variant_factor = args.variant_factor
        if args.variant_orientation is not None:
            config.variant_orientation = args.variant_orientation
        if args.fstar is not None:
            config.fstar = args.fstar
        return run_command(args.command, config, out_dir=args.out)
    except (SymgameError, ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
