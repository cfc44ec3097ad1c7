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
import re
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

__all__ = ["ExperimentConfig", "parse_config", "parse_seeds", "render_config"]

# section -> key -> (kind, default text[, the one game type or protocol kind that reads the key]).
# A tuple kind lists the allowed texts; a None default leaves an absent key to a rule in parse_config.
_KEYS = {
    "game": {
        "type": ("text", "linear"),
        "payoff_matrix": ("matrix", None, "linear"),
        "mass": ("float", "1.0", "linear"),
        "populations": ("int", "1", "table-payoff"),
        "masses": ("floats", None, "table-payoff"),
    },
    "protocol": {
        "kind": ("text", None),
        "c": ("float", "1.0", "constant"),
        "eta": ("float", None, "sum_exponential"),
        "matrix": ("matrix", None, "table"),
        "support_floor": ("float", "0.0"),
    },
    "run": {
        "N": ("ints", "2"),
        "horizon": ("float", "10.0"),
        "dt": ("float", "0.01"),
        "burn_in": ("float", None),
        "seeds": ("seeds", ""),
        "x0": ("blocks", None),
        "variant_factor": (("standard", "paper"), "standard"),
        "variant_orientation": (("standard", "paper"), "standard"),
    },
    "output": {"directory": ("text", "out")},
    "transform": {"lineage": ("texts", "")},
}
# per-population matrix keys <prefix><p>: section -> (prefix, key, the value of that key that reads them)
_NUMBERED = {"game": ("payoff_matrix_", "type", "table-payoff"), "protocol": ("matrix_", "kind", "table")}


@dataclass
class ExperimentConfig:
    """Validated experiment description and the hash of its source text."""

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
    output_directory: str
    transform_lineage: tuple[str, ...] | None
    config_hash: str = ""
    protocol_matrices: list[np.ndarray] = field(default_factory=list)

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
    for line in filter(None, map(str.strip, text.splitlines())):
        try:
            rows.append([float(v) for v in line.replace(",", " ").split()])
        except ValueError:
            problems.append(f"{label}: cannot parse matrix row {line!r}")
            return None
    widths = sorted({len(row) for row in rows})
    if not rows:
        problems.append(f"{label}: empty matrix")
    elif len(widths) != 1:
        problems.append(f"{label}: ragged matrix rows with widths {widths}")
    elif widths[0] != len(rows):
        problems.append(f"{label}: matrix must be square, got {len(rows)}x{widths[0]}")
    else:
        return np.array(rows, dtype=float)
    return None


def _parse_list(text: str, conv, label: str, problems: list[str]):
    try:
        values = [conv(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        problems.append(f"{label}: cannot parse list {text!r}")
        return None
    if conv is not float or all(map(math.isfinite, values)):
        return values
    problems.append(f"{label}: expected finite numbers, got {text!r}")
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


def _parse(kind: str, text: str, label: str, problems: list[str]):
    """``text`` read as a value of ``kind``; a bad value is a labelled problem and NaN or None."""
    if kind == "blocks":  # population blocks separated by '|'; empty and bad ones are dropped
        return [block for part in text.split("|") if (block := _parse_list(part, float, label, problems))]
    if kind == "matrix":
        return _parse_matrix(text, label, problems)
    if kind == "text":
        return text
    if kind == "seeds":  # SeedSequence takes non-negative integers only; a seed names its path files
        seeds = _parse_list(text, int, label, problems)
        if seeds and min(seeds) < 0:
            problems.append(f"{label}: expected non-negative integers, got {text!r}")
        if seeds and len(set(seeds)) < len(seeds):
            problems.append(f"{label}: expected distinct seeds, got {text!r}")
        return seeds
    conv = {"float": float, "int": int, "text": str}[kind.removesuffix("s")]
    return (_parse_list if kind.endswith("s") else _parse_number)(text, conv, label, problems)


def parse_seeds(text: str, label: str) -> list[int]:
    """A comma list of seeds, checked as ``[run] seeds`` is; a bad one raises ConfigError under ``label``."""
    problems: list[str] = []
    seeds = _parse("seeds", text, label, problems)
    if problems:
        raise ConfigError(problems)
    return seeds


def _numbered_keys(parser, section: str) -> list[str]:
    """The section's per-population matrix keys in population order, if its type or kind reads them."""
    prefix, switch, reader = _NUMBERED[section]
    if parser.get(section, switch, fallback=None) != reader:
        return []
    keys = [key for key in parser.options(section) if re.fullmatch(prefix + "[1-9][0-9]*", key)]
    return sorted(keys, key=lambda key: int(key[len(prefix):]))


def _per_population(values: list, n_pops: int, message: str, problems: list[str]) -> list:
    """One value repeated for every population, or one per population; any other count is a problem."""
    if len(values) == 1:
        return values * n_pops
    if values and len(values) != n_pops:
        problems.append(message.format(len(values), n_pops))
    return values


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

    def get(section: str, key: str, label: str | None = None, required: str | None = None):
        """The key's value read by its kind, or None if absent with no default (a problem if ``required``)."""
        kind, default = _KEYS[section].get(key, ("matrix", None))[:2]
        raw = parser.get(section, key, fallback=default)
        if raw is None:
            if required:
                problems.append(f"{section} section: {required}")
        elif isinstance(kind, tuple):  # the allowed texts
            if raw not in kind:
                problems.append(f"{section} section: {key} must be {' or '.join(map(repr, kind))}, got '{raw}'")
        else:
            return _parse(kind, raw, label or f"{section} section ({key})", problems)
        return raw

    numbered = {section: _numbered_keys(parser, section) for section in _NUMBERED}
    if parser.has_option("protocol", "matrix"):  # one table for all populations: no numbered one is read
        numbered["protocol"] = []
    unread = 0  # keys that the game type or protocol kind does not read: the values can still be checked
    for section in parser.sections():
        if section not in _KEYS:
            problems.append(f"unknown section '{section}'{_hint(section, _KEYS)}")
            continue
        readers = {spec[2] for spec in _KEYS[section].values() if len(spec) > 2}
        switch = _NUMBERED[section][1] if readers else None
        value = parser.get(section, switch, fallback=_KEYS[section][switch][1]) if readers else None
        for key in parser.options(section):
            if key not in _KEYS[section] and key not in numbered.get(section, ()):
                problems.append(f"section '{section}': unknown key '{key}'{_hint(key, _KEYS[section])}")
            elif value in readers and _KEYS[section].get(key, ())[2:] not in ((), (value,)):
                problems.append(f"section '{section}': unknown key '{key}' ({switch} '{value}' does not read it)")
                unread += 1
    missing = [section for section in ("game", "protocol", "run") if not parser.has_section(section)]
    problems += [f"missing required section '{section}'" for section in missing]
    if len(problems) > unread:
        raise ConfigError(problems)

    # --- game section ---
    game_type = get("game", "type")
    matrices: list[np.ndarray] = []
    masses: list[float] = []
    if game_type == "linear":
        required = "linear games need 'payoff_matrix'"
        matrices = [M for M in [get("game", "payoff_matrix", "game section", required)] if M is not None]
        masses = [get("game", "mass")]
    elif game_type == "table-payoff":
        count = get("game", "populations")
        if math.isnan(count):  # go on with one population per matrix given
            count = len(numbered["game"])
        if count < 1:
            problems.append(f"game section: populations must be at least 1, got {count}")
        else:
            # keys past the population count are read by nothing; no list here grows with the count
            keys = [key for key in numbered["game"] if int(key.removeprefix("payoff_matrix_")) <= count]
            problems += [
                f"section 'game': unknown key '{key}'{_hint(key, _KEYS['game'])}"
                for key in numbered["game"][len(keys):]
            ]
            matrices = [M for key in keys if (M := get("game", key)) is not None]
            if len(keys) < count:
                first = next(p for p, key in enumerate([*keys, None], start=1) if key != f"payoff_matrix_{p}")
                more = f" ({count - len(keys)} payoff matrices missing)" if count - len(keys) > 1 else ""
                problems.append(f"game section: missing 'payoff_matrix_{first}'{more}")
            masses = get("game", "masses")
            if masses and len(masses) != count:
                problems.append(f"game section: {len(masses)} masses for {count} populations")
            masses = masses or [1.0] * len(matrices)
    else:
        problems.append(f"game section: unknown type '{game_type}'")

    # --- protocol section ---
    params: dict = {}
    protocol_matrices: list[np.ndarray] = []
    support_floor = get("protocol", "support_floor")
    kind = get("protocol", "kind", required="missing 'kind'")
    if kind == "constant":
        params["c"] = get("protocol", "c")
        if support_floor == 0.0:  # constant rates are their own floor
            support_floor = params["c"]
    elif kind == "sum_exponential":
        params["eta"] = get("protocol", "eta", required="sum_exponential needs 'eta'")
    elif kind == "table":
        keys = numbered["protocol"] or ["matrix"]
        found = (get("protocol", key, required="table protocols need 'matrix'") for key in keys)
        protocol_matrices = [M for M in found if M is not None]
    elif kind is not None:
        problems.append(f"protocol section: unknown kind '{kind}'")

    # --- run section: every key, in table order, named as its ExperimentConfig field ---
    run = {key: get("run", key) for key in _KEYS["run"]}
    if run["N"] == []:
        problems.append("run section (N): expected at least one value")
    resolutions = run.pop("N") or []
    if run["burn_in"] is None:
        run["burn_in"] = run["horizon"] / 10.0
    horizon, dt, burn_in, x0 = (run[key] for key in ("horizon", "dt", "burn_in", "x0"))
    if horizon <= 0:
        problems.append(f"run section: horizon must be positive, got {horizon}")
    if dt <= 0 or (horizon > 0 and dt > horizon):
        problems.append(f"run section: need 0 < dt <= horizon, got dt={dt}")
    if burn_in < 0 or burn_in >= max(horizon, 1e-300):
        problems.append(f"run section: burn_in must lie in [0, horizon), got {burn_in}")
    problems += [f"run section: N must be at least 1, got {N}" for N in resolutions if N < 1]

    # --- cross-section consistency ---
    if matrices:
        n_pops = len(matrices)
        resolutions = _per_population(
            resolutions, n_pops, "run section: {} values of N for {} populations", problems
        )
        if kind == "table":
            protocol_matrices = _per_population(
                protocol_matrices, n_pops, "protocol section: {} rate tables for {} populations", problems
            )
            problems += [
                f"protocol section: rate table {p} is {M.shape[0]}x{M.shape[1]}, "
                f"game has {A.shape[0]} strategies"
                for p, (A, M) in enumerate(zip(matrices, protocol_matrices), start=1)
                if M.shape != A.shape
            ]
        if x0 is not None and len(x0) != n_pops:
            problems.append(f"run section: x0 has {len(x0)} population blocks, game has {n_pops}")
        elif x0 is not None:
            problems += [
                f"run section: x0 block {p} has {len(block)} entries, "
                f"population has {A.shape[0]} strategies"
                for p, (block, A) in enumerate(zip(x0, matrices), start=1)
                if len(block) != A.shape[0]
            ]

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
        **run,
        output_directory=get("output", "directory"),
        transform_lineage=tuple(get("transform", "lineage")) if parser.has_section("transform") else None,
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
    buf.write("\n[output]\n")
    buf.write(f"directory = {config.output_directory}\n")
    if lineage:
        buf.write("\n[transform]\n")
        buf.write("lineage = " + ", ".join(lineage) + "\n")
    return buf.getvalue()
