"""Experiment configuration: strict sectioned key-value text.

Sections are ``[game]``, ``[protocol]``, ``[run]``, ``[output]`` and the
optional ``[transform]`` marker written by the transform command.  Arrays are
comma lists, matrices one whitespace-separated row per line.  Unknown
sections or keys are rejected with a nearest-match hint, and all problems are
reported together rather than one at a time.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .games import (
    PopulationGame,
    RevisionProtocol,
    constant_protocol,
    make_linear_game,
    make_separable_game,
    sum_exponential_protocol,
    table_protocol,
)

__all__ = ["ExperimentConfig", "parse_config", "render_config"]

_SECTION_KEYS = {
    "game": {"type", "payoff_matrix", "mass", "populations", "masses"},
    "protocol": {"kind", "c", "eta", "matrix", "support_floor"},
    "run": {
        "N",
        "horizon",
        "dt",
        "burn_in",
        "seeds",
        "x0",
        "variant_factor",
        "variant_orientation",
        "fstar",
    },
    "output": {"directory", "formats"},
    "transform": {"lineage", "fstar"},
}
_REQUIRED_SECTIONS = ("game", "protocol", "run")
_MATRIX_KEY_PREFIXES = ("payoff_matrix_", "matrix_")


@dataclass
class ExperimentConfig:
    """Validated experiment description plus the canonical source text."""

    game_type: str
    payoff_matrices: list[np.ndarray]
    masses: list[float]
    protocol_kind: str
    protocol_params: dict
    support_floor: float
    resolutions: list[int]
    horizon: float
    dt: float
    burn_in: float
    seeds: list[int]
    x0: list[list[float]] | None
    variant_factor: str
    variant_orientation: str
    fstar: str
    output_directory: str
    output_formats: list[str]
    transform_lineage: tuple[str, ...] | None
    source_text: str = ""
    config_hash: str = ""
    protocol_matrices: list[np.ndarray] = field(default_factory=list)

    @property
    def num_populations(self) -> int:
        return len(self.payoff_matrices)

    def build_game(self) -> PopulationGame:
        if self.game_type == "linear":
            return make_linear_game(self.payoff_matrices[0], mass=self.masses[0])
        return make_separable_game(self.payoff_matrices, masses=self.masses)

    def build_protocols(self, game: PopulationGame) -> tuple[RevisionProtocol, ...]:
        kind = self.protocol_kind
        if kind == "constant":
            proto = constant_protocol(self.protocol_params["c"])
            return (proto,) * game.num_populations
        if kind == "sum_exponential":
            proto = sum_exponential_protocol(
                self.protocol_params["eta"], support_floor=self.support_floor
            )
            return (proto,) * game.num_populations
        return tuple(
            table_protocol(M, support_floor=self.support_floor if self.support_floor else None)
            for M in self.protocol_matrices
        )

    def initial_state_parts(self, game: PopulationGame) -> list[np.ndarray]:
        if self.x0 is None:
            return [np.asarray(p, dtype=float) for p in game.barycenter().parts]
        return [np.asarray(p, dtype=float) for p in self.x0]


def _parse_matrix(text: str, label: str, problems: list[str]) -> np.ndarray | None:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.replace(",", " ").split()])
        except ValueError:
            problems.append(f"{label}: cannot parse matrix row {line!r}")
            return None
    if not rows:
        problems.append(f"{label}: empty matrix")
        return None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        problems.append(f"{label}: ragged matrix rows with widths {sorted(widths)}")
        return None
    matrix = np.array(rows, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        problems.append(
            f"{label}: matrix must be square, got {matrix.shape[0]}x{matrix.shape[1]}"
        )
        return None
    return matrix


def _parse_list(text: str, conv, label: str, problems: list[str]):
    try:
        return [conv(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        problems.append(f"{label}: cannot parse list {text!r}")
        return None


def _parse_number(text: str, conv, label: str, problems: list[str]):
    """``conv(text)`` if it is a finite number; else a labelled problem and NaN, which fails no later check."""
    try:
        value = conv(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    problems.append(f"{label}: expected a finite number, got {text!r}")
    return math.nan


def _get(parser, section, key, default=None):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return default


def _hint(name: str, known) -> str:
    matches = difflib.get_close_matches(name, sorted(known), n=1)
    return f" (did you mean '{matches[0]}'?)" if matches else ""


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text; raises ConfigError listing all problems."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    matrix_keys_seen: dict[str, list[str]] = {"game": [], "protocol": []}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            problems.append(f"unknown section '{section}'{_hint(section, _SECTION_KEYS)}")
            continue
        for key in parser.options(section):
            if key in _SECTION_KEYS[section]:
                continue
            if section in ("game", "protocol") and key.startswith(_MATRIX_KEY_PREFIXES):
                matrix_keys_seen[section].append(key)
                continue
            known = set(_SECTION_KEYS[section])
            problems.append(f"section '{section}': unknown key '{key}'{_hint(key, known)}")
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            problems.append(f"missing required section '{section}'")
    if problems:
        raise ConfigError(problems)

    # --- game section ---
    game_type = _get(parser, "game", "type", "linear")
    matrices: list[np.ndarray] = []
    masses: list[float] = []
    if game_type == "linear":
        raw = _get(parser, "game", "payoff_matrix")
        if raw is None:
            problems.append("game section: linear games need 'payoff_matrix'")
        else:
            M = _parse_matrix(raw, "game section", problems)
            if M is not None:
                matrices = [M]
        raw = _get(parser, "game", "mass", "1.0")
        masses = [_parse_number(raw, float, "game section (mass)", problems)]
    elif game_type == "table-payoff":
        raw = _get(parser, "game", "populations", "1")
        count = _parse_number(raw, int, "game section (populations)", problems)
        if math.isnan(count):  # go on with one population per matrix given
            count = len(matrix_keys_seen["game"])
        for p in range(1, count + 1):
            raw = _get(parser, "game", f"payoff_matrix_{p}")
            if raw is None:
                problems.append(f"game section: missing 'payoff_matrix_{p}'")
                continue
            M = _parse_matrix(raw, f"game section (payoff_matrix_{p})", problems)
            if M is not None:
                matrices.append(M)
        raw_masses = _get(parser, "game", "masses")
        masses = (
            _parse_list(raw_masses, float, "game section (masses)", problems)
            if raw_masses
            else [1.0] * count
        ) or []
        if masses and len(masses) != count:
            problems.append(
                f"game section: {len(masses)} masses for {count} populations"
            )
    else:
        problems.append(f"game section: unknown type '{game_type}'")

    # --- protocol section ---
    kind = _get(parser, "protocol", "kind")
    params: dict = {}
    protocol_matrices: list[np.ndarray] = []
    support_floor = _parse_number(
        _get(parser, "protocol", "support_floor", "0.0"), float, "protocol section (support_floor)", problems
    )
    if kind == "constant":
        c = _parse_number(_get(parser, "protocol", "c", "1.0"), float, "protocol section (c)", problems)
        params["c"] = c
        if support_floor == 0.0:
            support_floor = c
    elif kind == "sum_exponential":
        raw = _get(parser, "protocol", "eta")
        if raw is None:
            problems.append("protocol section: sum_exponential needs 'eta'")
        else:
            params["eta"] = _parse_number(raw, float, "protocol section (eta)", problems)
    elif kind == "table":
        keys = ["matrix"] if parser.has_option("protocol", "matrix") else sorted(
            matrix_keys_seen["protocol"]
        )
        if not keys:
            problems.append("protocol section: table protocols need 'matrix'")
        for key in keys:
            M = _parse_matrix(parser.get("protocol", key), f"protocol section ({key})", problems)
            if M is not None:
                protocol_matrices.append(M)
    else:
        problems.append(f"protocol section: unknown kind '{kind}'")

    # --- run section ---
    raw_n = _get(parser, "run", "N", "2")
    resolutions = _parse_list(raw_n, int, "run section (N)", problems) or []
    horizon = _parse_number(_get(parser, "run", "horizon", "10.0"), float, "run section (horizon)", problems)
    dt = _parse_number(_get(parser, "run", "dt", "0.01"), float, "run section (dt)", problems)
    raw = _get(parser, "run", "burn_in")
    burn_in = horizon / 10.0 if raw is None else _parse_number(raw, float, "run section (burn_in)", problems)
    seeds = _parse_list(_get(parser, "run", "seeds", ""), int, "run section (seeds)", problems) or []
    x0_raw = _get(parser, "run", "x0")
    x0 = None
    if x0_raw is not None:
        x0 = []
        for block in x0_raw.split("|"):
            parsed = _parse_list(block, float, "run section (x0)", problems)
            if parsed:
                x0.append(parsed)
    variant_factor = _get(parser, "run", "variant_factor", "standard")
    variant_orientation = _get(parser, "run", "variant_orientation", "standard")
    fstar = _get(parser, "run", "fstar", "zero")
    for name, value in (
        ("variant_factor", variant_factor),
        ("variant_orientation", variant_orientation),
    ):
        if value not in ("standard", "paper"):
            problems.append(f"run section: {name} must be 'standard' or 'paper', got '{value}'")
    if fstar not in ("zero", "weighted"):
        problems.append(f"run section: fstar must be 'zero' or 'weighted', got '{fstar}'")
    if horizon <= 0:
        problems.append(f"run section: horizon must be positive, got {horizon}")
    if dt <= 0 or (horizon > 0 and dt > horizon):
        problems.append(f"run section: need 0 < dt <= horizon, got dt={dt}")
    if burn_in < 0 or burn_in >= max(horizon, 1e-300):
        problems.append(f"run section: burn_in must lie in [0, horizon), got {burn_in}")
    for N in resolutions:
        if N < 1:
            problems.append(f"run section: N must be at least 1, got {N}")

    # --- output section ---
    directory = _get(parser, "output", "directory", "out") if parser.has_section("output") else "out"
    formats_raw = (
        _get(parser, "output", "formats", "csv, report") if parser.has_section("output") else "csv, report"
    )
    formats = [f.strip() for f in formats_raw.split(",") if f.strip()]

    # --- transform marker ---
    lineage = None
    if parser.has_section("transform"):
        raw = _get(parser, "transform", "lineage", "")
        lineage = tuple(v.strip() for v in raw.split(",") if v.strip())
        fstar = _get(parser, "transform", "fstar", fstar)

    # --- cross-section consistency ---
    if matrices:
        n_pops = len(matrices)
        if resolutions and len(resolutions) not in (1, n_pops):
            problems.append(
                f"run section: {len(resolutions)} values of N for {n_pops} populations"
            )
        elif len(resolutions) == 1:
            resolutions = resolutions * n_pops
        if kind == "table":
            if protocol_matrices and len(protocol_matrices) not in (1, n_pops):
                problems.append(
                    f"protocol section: {len(protocol_matrices)} rate tables for {n_pops} populations"
                )
            elif len(protocol_matrices) == 1:
                protocol_matrices = protocol_matrices * n_pops
            for p, (A, M) in enumerate(zip(matrices, protocol_matrices)):
                if M.shape != A.shape:
                    problems.append(
                        f"protocol section: rate table {p + 1} is {M.shape[0]}x{M.shape[1]}, "
                        f"game has {A.shape[0]} strategies"
                    )
        if x0 is not None:
            if len(x0) != n_pops:
                problems.append(
                    f"run section: x0 has {len(x0)} population blocks, game has {n_pops}"
                )
            else:
                for p, (block, A) in enumerate(zip(x0, matrices)):
                    if len(block) != A.shape[0]:
                        problems.append(
                            f"run section: x0 block {p + 1} has {len(block)} entries, "
                            f"population has {A.shape[0]} strategies"
                        )

    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(
        game_type=game_type,
        payoff_matrices=matrices,
        masses=masses,
        protocol_kind=kind,
        protocol_params=params,
        support_floor=support_floor,
        resolutions=resolutions,
        horizon=horizon,
        dt=dt,
        burn_in=burn_in,
        seeds=seeds,
        x0=x0,
        variant_factor=variant_factor,
        variant_orientation=variant_orientation,
        fstar=fstar,
        output_directory=directory,
        output_formats=formats,
        transform_lineage=lineage,
        source_text=text,
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16],
        protocol_matrices=protocol_matrices,
    )


def _format_matrix(matrix: np.ndarray) -> str:
    return "\n".join("    " + " ".join(f"{v:.17g}" for v in row) for row in matrix)


def render_config(config: ExperimentConfig, lineage: tuple[str, ...] | None = None) -> str:
    """Canonical config text; with a lineage this serializes a transformed game."""
    buf = io.StringIO()
    buf.write("[game]\n")
    buf.write(f"type = {config.game_type}\n")
    if config.game_type == "linear":
        buf.write(f"payoff_matrix =\n{_format_matrix(config.payoff_matrices[0])}\n")
        buf.write(f"mass = {config.masses[0]:.17g}\n")
    else:
        buf.write(f"populations = {len(config.payoff_matrices)}\n")
        buf.write("masses = " + ", ".join(f"{m:.17g}" for m in config.masses) + "\n")
        for p, M in enumerate(config.payoff_matrices, start=1):
            buf.write(f"payoff_matrix_{p} =\n{_format_matrix(M)}\n")
    buf.write("\n[protocol]\n")
    buf.write(f"kind = {config.protocol_kind}\n")
    if config.protocol_kind == "constant":
        buf.write(f"c = {config.protocol_params['c']:.17g}\n")
    elif config.protocol_kind == "sum_exponential":
        buf.write(f"eta = {config.protocol_params['eta']:.17g}\n")
    elif config.protocol_kind == "table":
        if len(config.protocol_matrices) == 1:
            buf.write(f"matrix =\n{_format_matrix(config.protocol_matrices[0])}\n")
        else:
            for p, M in enumerate(config.protocol_matrices, start=1):
                buf.write(f"matrix_{p} =\n{_format_matrix(M)}\n")
    buf.write(f"support_floor = {config.support_floor:.17g}\n")
    buf.write("\n[run]\n")
    buf.write("N = " + ", ".join(str(n) for n in config.resolutions) + "\n")
    buf.write(f"horizon = {config.horizon:.17g}\n")
    buf.write(f"dt = {config.dt:.17g}\n")
    buf.write(f"burn_in = {config.burn_in:.17g}\n")
    if config.seeds:
        buf.write("seeds = " + ", ".join(str(s) for s in config.seeds) + "\n")
    if config.x0 is not None:
        buf.write(
            "x0 = "
            + " | ".join(", ".join(f"{v:.17g}" for v in block) for block in config.x0)
            + "\n"
        )
    buf.write(f"variant_factor = {config.variant_factor}\n")
    buf.write(f"variant_orientation = {config.variant_orientation}\n")
    buf.write(f"fstar = {config.fstar}\n")
    buf.write("\n[output]\n")
    buf.write(f"directory = {config.output_directory}\n")
    buf.write("formats = " + ", ".join(config.output_formats) + "\n")
    if lineage:
        buf.write("\n[transform]\n")
        buf.write("lineage = " + ", ".join(lineage) + "\n")
        buf.write(f"fstar = {config.fstar}\n")
    return buf.getvalue()
