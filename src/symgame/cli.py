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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from .config import ExperimentConfig, parse_config, parse_seeds, render_config
from .dynamics import integrate_mean_dynamic
from .errors import ConfigError, SymgameError
from .games import (
    ENUMERATION_LIMIT,
    _lattice_sizes,
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
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return "\n".join(lines) + "\n"


class _Model:
    """One run: the game, protocols and initial state of a config, and each stage's result.

    Every stage is an attribute computed on first use and at most once, so
    the commands and the experiment that reads them all share one lattice,
    one rate evaluation and one decomposition.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.base_game = config.build_game()
        self.base_protocols = config.build_protocols(self.base_game)
        self.transformed = config.transform_lineage is not None
        if self.transformed:
            lineage = self.decomposition.lineage
            if config.transform_lineage != lineage:
                raise SymgameError(
                    f"[transform] lineage '{', '.join(config.transform_lineage)}' does not match "
                    f"the game's decomposition '{', '.join(lineage)}'"
                )
            self.game, self.protocols = self.decomposition.as_population_game()
        else:
            self.game, self.protocols = self.base_game, self.base_protocols

    @property
    def resolutions(self) -> tuple[int, ...]:
        base = tuple(self.config.resolutions)  # one N per base population
        if not self.transformed:
            return base
        return tuple(base[pop.base_population] for pop in self.decomposition.populations)

    def initial_state(self) -> tuple[np.ndarray, ...]:
        state = self.base_game.require_valid_state(self.config.initial_state_parts(self.base_game))
        return self.decomposition.embed(state) if self.transformed else state

    def lattice_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per population: floors of ``N * x``, one more agent on each largest remainder (ties low) to ``N * mass``."""
        counts = []
        for part, res, m in zip(self.initial_state(), self.resolutions, self.game.masses):
            scaled = part * res
            k = np.floor(scaled).astype(int)
            # sum(k) <= sum(scaled) < N * mass + 1, as initial_state holds the mass to MASS_TOL
            k[np.argsort(k - scaled, kind="stable")[: int(round(res * m)) - k.sum()]] += 1
            counts.append(tuple(int(v) for v in k))
        return tuple(counts)

    @cached_property
    def decomposition(self):
        return decompose(self.base_game, self.base_protocols)

    @cached_property
    def grid(self):
        return chain_mod.build_grid(self.game, self.resolutions)

    @cached_property
    def num_states(self) -> int:
        """States of the lattice, counted without enumerating them."""
        _, sizes = _lattice_sizes(self.game, self.resolutions)
        return count_states(self.game.strategy_counts, sizes)

    @cached_property
    def rates(self):
        return grid_rates(self.game, self.protocols, self.grid)

    @cached_property
    def hypotheses(self):
        """Exhaustive check on :attr:`grid` with :attr:`rates`, or on 1000 random states when
        :attr:`num_states` exceeds ``ENUMERATION_LIMIT``, so that such a lattice is never enumerated."""
        if self.num_states > ENUMERATION_LIMIT:
            return validate_hypotheses(self.game, self.protocols, sample_states(self.game))
        return validate_hypotheses(self.game, self.protocols, self.grid, rates=self.rates)

    @cached_property
    def trajectory(self):
        config = self.config
        return integrate_mean_dynamic(
            self.game, self.protocols, self.initial_state(), config.horizon, config.dt
        )

    @cached_property
    def prediction(self):
        """Birth-death weights, their normalized marginals and the product-form table on the grid."""
        config = self.config
        transformed = self.decomposition
        specs = specs_from_transform(
            transformed,
            [self.grid.sizes[pop.base_population] for pop in transformed.populations],
            config.variant_factor,
            config.variant_orientation,
        )
        results = [birth_death_weights(spec) for spec in specs]
        marginals = [r.normalized() for r in results]
        return results, marginals, product_form_joint(marginals, self.grid)

    @cached_property
    def chain(self):
        return chain_mod.build_generator(self.game, self.protocols, self.grid, rates=self.rates)

    @cached_property
    def exact(self):
        return chain_mod.exact_stationary(self.chain)


def _require_base(model: _Model, command: str) -> None:
    if model.transformed:
        raise SymgameError(
            f"command '{command}' expects an untransformed game config "
            "(this one carries a [transform] section)"
        )


def _write(writer: ArtifactWriter, model: _Model, command: str, name: str, body: str, *comments):
    """Write a table under the provenance header and one ``# `` line per comment."""
    header = _provenance(model.config, command) + "".join(f"# {c}\n" for c in comments)
    writer.write(name, header + body)


def _write_report(writer: ArtifactWriter, model: _Model, command: str, *sections) -> None:
    """Write ``<command>_report.txt``: blank-line separated sections of ``key: value`` lines."""
    body = "\n\n".join("\n".join(section) for section in sections)
    writer.write(f"{command}_report.txt", _provenance(model.config, command) + "\n" + body + "\n")


def _validate_section(model: _Model) -> list[str]:
    return ["[validate]", *model.hypotheses.as_lines()]


def _transform_section(model: _Model, writer: ArtifactWriter) -> list[str]:
    """Write transformed_game.cfg and return the [transform] section."""
    transformed = model.decomposition
    writer.write("transformed_game.cfg", render_config(model.config, lineage=transformed.lineage))
    return [
        "[transform]",
        f"derived_populations: {len(transformed.populations)}",
        "arities: " + ", ".join(str(a) for a in transformed.arities),
        "lineage: " + ", ".join(transformed.lineage),
    ]


def _degenerate_line(model: _Model) -> str:
    results, _, _ = model.prediction
    degenerate = [str(i) for i, r in enumerate(results) if r.degenerate]
    return "degenerate_marginals: " + (", ".join(degenerate) or "none")


def _solver_lines(model: _Model) -> list[str]:
    metadata = model.exact.metadata
    return [
        f"solver: {metadata['solver']}",
        f"orbits: {metadata['orbits']}",
        f"symmetry_defect: {metadata['symmetry_defect']:.17g}",
        f"residual: {metadata['residual']:.17g}",
    ]


def _compare_section(model: _Model) -> list[str]:
    _, _, predicted = model.prediction
    metrics = compare(predicted, model.exact)
    return ["[compare]", *metrics.as_lines("predicted_vs_exact")]


def _cmd_validate(model: _Model, writer: ArtifactWriter) -> int:
    _write_report(writer, model, "validate", _validate_section(model))
    return 1 if model.hypotheses.problems() else 0


def _cmd_mean_dynamic(model: _Model, writer: ArtifactWriter) -> int:
    _write(writer, model, "mean-dynamic", "trajectory.csv", model.trajectory.to_csv())
    return 0


def _simulate_seeds(model: _Model, writer: ArtifactWriter, command: str) -> list[chain_mod.PathResult]:
    """Simulate one path per config seed in one batch, write each path and occupancy CSV, return the paths.

    Occupancy tables are written only for lattices of at most
    ``CHAIN_STATE_BUDGET`` states.
    """
    config = model.config
    if not config.seeds:
        raise SymgameError(f"{command} needs a nonempty seed list (run section, 'seeds')")
    x0 = model.lattice_counts()
    lattice = model.grid if model.num_states <= CHAIN_STATE_BUDGET else model.resolutions
    paths = chain_mod.simulate_paths(
        (model.game, model.protocols, lattice), x0, config.horizon, config.seeds, burn_in=config.burn_in
    )
    for path in paths:
        header = _provenance(config, command, path.seed)
        writer.write(f"path_{path.seed}.csv", header + path.to_csv())
        if path.occupancy is not None:
            writer.write(f"occupancy_{path.seed}.csv", header + path.occupancy.to_csv())
    return paths


def _cmd_simulate(model: _Model, writer: ArtifactWriter) -> int:
    _simulate_seeds(model, writer, "simulate")
    return 0


def _cmd_exact_stationary(model: _Model, writer: ArtifactWriter) -> int:
    body = model.exact.to_csv()
    _write(writer, model, "exact-stationary", "exact_stationary.csv", body, *_solver_lines(model))
    return 0


def _cmd_transform(model: _Model, writer: ArtifactWriter) -> int:
    _require_base(model, "transform")
    section = _transform_section(model, writer)
    for i, pop in enumerate(model.decomposition.populations):
        section.append(f"population_{i}_labels: " + ", ".join(pop.labels))
    _write_report(writer, model, "transform", section)
    return 0


def _cmd_predict(model: _Model, writer: ArtifactWriter) -> int:
    _require_base(model, "predict")
    _, marginals, table = model.prediction
    for i, marginal in enumerate(marginals):
        rows = "".join(f"{k},{v:.17g}\n" for k, v in enumerate(marginal))
        _write(writer, model, "predict", f"predicted_marginal_{i}.csv", "count,probability\n" + rows)
    _write(writer, model, "predict", "predicted.csv", table.to_csv(), _degenerate_line(model))
    return 0


def _cmd_compare(model: _Model, writer: ArtifactWriter) -> int:
    _require_base(model, "compare")
    _write_report(writer, model, "compare", _compare_section(model) + [_degenerate_line(model)])
    return 0


def _cmd_experiment(model: _Model, writer: ArtifactWriter) -> int:
    config = model.config
    _require_base(model, "experiment")
    if not config.seeds:
        raise SymgameError("experiment needs a nonempty seed list (run section, 'seeds')")
    seeds = "seeds: " + ", ".join(str(s) for s in config.seeds)
    sections = [["[experiment]", seeds], _validate_section(model)]
    if problems := model.hypotheses.problems():
        raise SymgameError("hypotheses fail: " + "; ".join(problems))
    _write(writer, model, "experiment", "trajectory.csv", model.trajectory.to_csv())
    sections.append(_transform_section(model, writer))
    _, _, predicted = model.prediction
    _write(writer, model, "experiment", "predicted.csv", predicted.to_csv())
    sections.append(["[predict]", _degenerate_line(model)])
    chain = model.chain
    _write(writer, model, "experiment", "exact_stationary.csv", model.exact.to_csv())
    exact = ["[exact]", f"states: {len(chain.grid)}", f"edges: {len(chain.src)}", *_solver_lines(model)]
    sections += [exact, _compare_section(model)]

    # reversibility of the original chain; each derived chain is birth-death, so reversible
    balance = chain_mod.check_detailed_balance(chain, model.exact)
    sections.append([
        "[detailed_balance]",
        f"original_max_imbalance: {balance.max_imbalance:.17g}",
        f"original_worst_edge: {balance.worst_edge[0]} -> {balance.worst_edge[1]}",
    ])

    # stochastic paths against the trajectory
    simulate = ["[simulate]"]
    for path in _simulate_seeds(model, writer, "experiment"):
        deviation = chain_mod.deviation_vs_ode(path, model.trajectory)
        simulate.append(f"seed_{path.seed}_events: {len(path.times) - 1}")
        simulate.append(f"seed_{path.seed}_deviation_vs_ode: {deviation:.17g}")
    sections.append(simulate)
    _write_report(writer, model, "experiment", *sections)
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
COMMANDS = tuple(_HANDLERS)


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
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed_override is not None:
            config.seeds = parse_seeds(args.seed_override, "--seed-override (seeds)")
        for key in ("variant_factor", "variant_orientation"):
            if getattr(args, key) is not None:
                setattr(config, key, getattr(args, key))
        return run_command(args.command, config, out_dir=args.out)
    except (SymgameError, ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
