"""Decomposition of multi-strategy populations into coupled 2-strategy ones.

A population with symmetric switch rates (``rho_ij = rho_ji``) can be traded
for one derived population per strategy, each playing "use strategy i" vs
"don't".  For three strategies the derived 2x2 rate blocks are

    rho*_{i,i}   = rho_ii
    rho*_{i,~i}  = sum_{j != i} rho_ij
    rho*_{~i,i}  = (1/2) sum_{j != i} rho_ji
    rho*_{~i,~i} = (1/2) (sum of the remaining cross and diagonal rates)

and the construction inverts exactly: rho_ij = (rho*_{i,~i} + rho*_{j,~j}
- 2 rho*_{~k,k}) / 2 for the third strategy k.  Larger populations are
reduced one strategy at a time: population i keeps strategies i, i+1, ...
(cyclically) and lumps the last two into an aggregate whose incoming rates
sum the two columns, whose outgoing rates average the two rows, and whose
self-rate sums the aggregated 2x2 block.  The final step down to two
strategies always uses the half-weighted 3-to-2 rules above.

:func:`decompose` is the one builder: it checks the hypotheses once and
reduces every population of a game to at most ``target`` strategies (two by
default); :func:`invert_3to2` undoes the 3-to-2 split.

Derived rate blocks are functions of the base (payoff, state) pair.  When a
derived population must be evaluated standalone (its siblings' states
unknown), the base state is filled in from its own coordinates, splitting
any aggregate mass across members proportionally to the mean-dynamic rest
point; this keeps the derived populations mutually independent and only
matters for payoff- or state-dependent protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import rest_point
from .errors import SymgameError
from .games import (
    SYMMETRY_TOL,
    PopulationGame,
    RevisionProtocol,
    SocialState,
    _checked_rates,
    protocol_tuple,
    sample_states,
    validate_hypotheses,
)

__all__ = [
    "DerivedPopulation",
    "TransformedGame",
    "derived_block",
    "invert_3to2",
    "decompose",
]


@dataclass(frozen=True)
class DerivedPopulation:
    """One derived population: a rotation of the base strategies plus lumping stages.

    ``members[t]`` lists the base strategies represented by derived strategy
    t; all are singletons except a trailing aggregate.  ``stages`` records
    the collapse rules applied: "sum" for intermediate reduction steps,
    "half" for the final split to two strategies, whose churn corner
    averages the lumped block instead of summing it.
    """

    base_population: int
    leading: int
    labels: tuple[str, ...]
    members: tuple[tuple[int, ...], ...]
    rotation: tuple[int, ...]
    stages: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.members)

    @property
    def is_passthrough(self) -> bool:
        return not self.stages


def _collapse_last_two(M: np.ndarray, mode: str) -> np.ndarray:
    a = M.shape[-1]
    out = np.empty((*M.shape[:-2], a - 1, a - 1))
    out[..., : a - 2, : a - 2] = M[..., : a - 2, : a - 2]
    out[..., : a - 2, a - 2] = M[..., : a - 2, a - 2] + M[..., : a - 2, a - 1]
    out[..., a - 2, : a - 2] = 0.5 * (M[..., a - 2, : a - 2] + M[..., a - 1, : a - 2])
    # row by row, left to right: the order of ``M[a-2:, a-2:].sum()`` on one matrix
    corner = M[..., a - 2, a - 2] + M[..., a - 2, a - 1] + M[..., a - 1, a - 2] + M[..., a - 1, a - 1]
    out[..., a - 2, a - 2] = 0.5 * corner if mode == "half" else corner
    return out


def derived_block(population: DerivedPopulation, base_rates: np.ndarray) -> np.ndarray:
    """Evaluate a derived population's rate block from a base rate matrix or a ``[..., n, n]`` stack of them."""
    M = np.asarray(base_rates, dtype=float)[(..., *np.ix_(population.rotation, population.rotation))]
    for mode in population.stages:
        M = _collapse_last_two(M, mode)
    return M


def _reduced_population(base_population: int, leading: int, n: int, target: int) -> DerivedPopulation:
    rotation = tuple((leading + t) % n for t in range(n))
    members: list[tuple[int, ...]] = [(s,) for s in rotation]
    stages: list[str] = []
    while len(members) > target:
        stages.append("half" if len(members) == 3 else "sum")
        members = members[:-2] + [members[-2] + members[-1]]
    labels = [str(m[0] + 1) for m in members[:-1]]
    last = members[-1]
    if len(last) == 1:
        labels.append(str(last[0] + 1))
    elif len(last) == n - 1:
        labels.append(f"not_{leading + 1}")
    else:
        labels.append(f"a_{leading + 1}")
    return DerivedPopulation(
        base_population=base_population,
        leading=leading,
        labels=tuple(labels),
        members=tuple(members),
        rotation=rotation,
        stages=tuple(stages),
    )


@dataclass(frozen=True)
class TransformedGame:
    """A base game together with its derived 2-strategy (or reduced) populations.

    Derived rate blocks are block-diagonal by construction: population i's
    rates never depend on another derived population's coordinates.  The
    embedding of a base state assigns each derived strategy the total mass of
    its member strategies.
    """

    base_game: PopulationGame
    base_protocols: tuple[RevisionProtocol, ...]
    populations: tuple[DerivedPopulation, ...]
    lineage: tuple[str, ...]
    fstar: str = "zero"

    def __post_init__(self):
        if self.fstar not in ("zero", "weighted"):
            raise ValueError(f"unknown payoff padding variant '{self.fstar}'")

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(pop.arity for pop in self.populations)

    @cached_property
    def _rest_parts(self) -> tuple[np.ndarray, ...]:
        return rest_point(self.base_game, self.base_protocols).parts

    # -- state maps ------------------------------------------------------

    def embed(self, state: SocialState) -> SocialState:
        """Image of a base state: derived coordinates are member mass sums."""
        self.base_game.require_valid_state(state, tol=1e-9)
        parts = []
        for pop in self.populations:
            x = state.parts[pop.base_population]
            parts.append(np.array([x[list(mem)].sum() for mem in pop.members]))
        return SocialState(parts=tuple(parts))

    def reconstruct(self, derived_parts: Sequence[np.ndarray]) -> SocialState:
        """Base state read off the derived leading coordinates, of one state or of an ``(S, arity)`` stack."""
        stack = np.shape(derived_parts[0])[:-1]
        base_parts = [np.zeros((*stack, n)) for n in self.base_game.strategy_counts]
        for pop, part in zip(self.populations, derived_parts, strict=True):
            if pop.is_passthrough:
                base_parts[pop.base_population] = np.array(part, dtype=float)
            else:
                base_parts[pop.base_population][..., pop.leading] = np.asarray(part)[..., 0]
        # a stack is not validated here; the checked evaluation screens its values
        return SocialState._unchecked(tuple(base_parts)) if stack else SocialState(parts=tuple(base_parts))

    def fill_base_state(self, population: DerivedPopulation, part: np.ndarray) -> SocialState:
        """Base state inferred from one derived population's coordinates alone.

        Singleton members take their coordinate directly; aggregate mass is
        split across members in rest-point proportions.  Other base
        populations sit at the rest point.  A stack of derived states, one
        per row, gives the stack of their base states.
        """
        part = np.asarray(part, dtype=float)
        stack = part.shape[:-1]
        parts = [np.tile(r, (*stack, 1)) for r in self._rest_parts]
        bp = population.base_population
        vec = np.zeros((*stack, self.base_game.strategy_counts[bp]))
        for t, mem in enumerate(population.members):
            if len(mem) == 1:
                vec[..., mem[0]] = part[..., t]
            else:
                idx = list(mem)
                ref = self._rest_parts[bp][idx]
                total = float(ref.sum())
                share = ref / total if total > 0 else np.full(len(idx), 1.0 / len(idx))
                vec[..., idx] = part[..., t, None] * share
        parts[bp] = vec
        return SocialState._unchecked(tuple(parts)) if stack else SocialState(parts=tuple(parts))

    # -- payoffs and rates ----------------------------------------------

    def _padded_payoff(self, population: DerivedPopulation, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # derived payoffs from base state x and base payoffs y of the population, one state or a stack
        out = np.empty((*y.shape[:-1], population.arity))
        for t, mem in enumerate(population.members):
            if len(mem) == 1:
                out[..., t] = y[..., mem[0]]
            elif self.fstar == "zero":
                out[..., t] = 0.0
            else:
                xs, ys = np.take(x, mem, axis=-1), np.take(y, mem, axis=-1)
                mass = xs.sum(axis=-1)
                # C-contiguous rows take one BLAS dot per state, as ``x[idx] @ y[idx]`` does
                dot = np.matmul(xs[..., None, :], ys[..., :, None])[..., 0, 0]
                out[..., t] = np.divide(dot, mass, out=np.zeros_like(mass), where=mass > 0)
        return out

    def derived_payoff(self, derived_state: SocialState) -> tuple[np.ndarray, ...]:
        """Payoffs of the derived game: member payoffs, aggregates padded; one state or a stack."""
        base_state = self.reconstruct(derived_state.parts)
        payoffs = _checked_rates(self.base_game, (), base_state.parts)[0]
        return tuple(
            self._padded_payoff(pop, base_state.parts[pop.base_population], payoffs[pop.base_population])
            for pop in self.populations
        )

    def marginal_block(self, index: int, part: np.ndarray) -> np.ndarray:
        """Rate block of derived population ``index`` at its own state, or the blocks of an ``(S, arity)`` stack.

        A stack costs one base payoff call and one call of each base ``rate_fn`` when all are ``vectorized``,
        else one per state; invalid values raise the validating path's error at the first offending state.
        """
        pop = self.populations[index]
        base_state = self.fill_base_state(pop, part)
        rates = _checked_rates(self.base_game, self.base_protocols, base_state.parts)[1]
        return derived_block(pop, rates[pop.base_population])

    def marginal_game(self, index: int) -> tuple[PopulationGame, RevisionProtocol]:
        """Standalone single-population game for one derived population."""
        pop = self.populations[index]
        bp = pop.base_population

        def payoff(state: SocialState) -> tuple[np.ndarray, ...]:
            base = self.fill_base_state(pop, state.parts[0])
            payoffs = _checked_rates(self.base_game, (), base.parts)[0]
            return (self._padded_payoff(pop, base.parts[bp], payoffs[bp]),)

        stacked = self.base_game.vectorized and all(proto.vectorized for proto in self.base_protocols)
        game = PopulationGame((self.base_game.masses[bp],), (pop.arity,), payoff, vectorized=stacked)
        protocol = RevisionProtocol(
            kind="derived",
            rate_fn=lambda pi, x: self.marginal_block(index, x),
            support_floor=self.base_protocols[bp].support_floor,
            symmetric=None,
            vectorized=stacked,
        )
        return game, protocol

    def as_population_game(self) -> tuple[PopulationGame, tuple[RevisionProtocol, ...]]:
        """The derived game as a plain multi-population game.

        Each derived population's protocol reads only its own coordinates
        (via the fill-in rule), so the populations evolve independently.
        Both are ``vectorized`` exactly when the base game and every base protocol are.
        """
        masses = tuple(self.base_game.masses[pop.base_population] for pop in self.populations)
        protocols = tuple(self.marginal_game(i)[1] for i in range(len(self.populations)))
        game = PopulationGame(masses, self.arities, self.derived_payoff, vectorized=protocols[0].vectorized)
        return game, protocols


def invert_3to2(transformed: TransformedGame) -> RevisionProtocol:
    """Recover the base 3x3 rates from the derived 2x2 blocks.

    ``rho_ij = (rho*_{i,~i} + rho*_{j,~j} - 2 rho*_{~k,k}) / 2`` for the
    remaining strategy k, and ``rho_ii = rho*_{ii}``; exact (two-term affine)
    whenever the base rates were symmetric.
    """
    pops = transformed.populations
    if len(pops) != 3 or any(p.arity != 2 for p in pops) or any(p.stages != ("half",) for p in pops):
        raise ValueError(
            f"expected three 2-strategy blocks from a 3-strategy base, got arities "
            f"{transformed.arities}"
        )
    by_lead = {pop.leading: pop for pop in pops}
    protocols = transformed.base_protocols

    def rate_fn(pi: np.ndarray, x: np.ndarray) -> np.ndarray:
        state = SocialState(parts=(np.asarray(x, dtype=float),))
        rho = protocols[0].rates(np.asarray(pi, dtype=float), state.parts[0])
        blocks = {lead: derived_block(pop, rho) for lead, pop in by_lead.items()}
        out = np.empty((3, 3))
        for i in range(3):
            out[i, i] = blocks[i][0, 0]
            for j in range(3):
                if j == i:
                    continue
                k = 3 - i - j
                out[i, j] = (blocks[i][0, 1] + blocks[j][0, 1] - 2.0 * blocks[k][1, 0]) / 2.0
        return out

    return RevisionProtocol(
        kind="recovered",
        rate_fn=rate_fn,
        support_floor=protocols[0].support_floor,
        symmetric=True,
    )


def decompose(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    target: int = 2,
    fstar: str = "zero",
) -> TransformedGame:
    """Reduce every population to at most ``target`` strategies.

    A population with at most ``target`` strategies passes through unchanged;
    a larger one of n strategies splits into n derived populations of
    ``target`` strategies, one per leading strategy, lumping trailing
    strategies one stage at a time (lineage ``n->n-1 ... target+1->target``).
    The final step down to two strategies uses the half-weighted 3-to-2
    rules, so reducing to 3 and then splitting agrees with reducing straight
    to 2.  Symmetry is required wherever a reduction happens; full support is
    required everywhere.  Both are checked on seeded random states: 16 when
    every protocol declares symmetry (structurally, or exactly from a rate
    table), 1000 otherwise.  All failures are reported together.
    """
    if target < 2:
        raise ValueError(f"target arity must be at least 2, got {target}")
    protocols = protocol_tuple(protocol, game)
    declared = all(proto.symmetric for proto in protocols)
    samples = sample_states(game, n_random=16 if declared else 1000, seed=0)
    report = validate_hypotheses(game, protocols, samples)
    problems = []
    for p, (asym, min_rate) in enumerate(report.per_population):
        if game.strategy_counts[p] > target and asym > SYMMETRY_TOL:
            problems.append(f"population {p}: max asymmetry {asym:.6g} exceeds {SYMMETRY_TOL}")
        floor = protocols[p].support_floor
        if floor <= 0:
            problems.append(f"population {p}: support floor {floor} is not positive")
        elif min_rate < floor:
            problems.append(
                f"population {p}: sampled rate {min_rate:.6g} falls below the floor {floor:.6g}"
            )
    if problems:
        raise SymgameError("decomposition preconditions failed: " + "; ".join(problems))

    populations: list[DerivedPopulation] = []
    lineage: list[str] = []
    for p, n in enumerate(game.strategy_counts):
        prefix = "" if game.num_populations == 1 else f"p{p + 1}:"
        if n <= target:
            populations.append(_reduced_population(p, 0, n, n))
            if prefix:
                lineage.append(f"{prefix}id")
        else:
            populations.extend(_reduced_population(p, lead, n, target) for lead in range(n))
            lineage.extend(f"{prefix}{a}->{a - 1}" for a in range(n, target, -1))
    return TransformedGame(
        base_game=game,
        base_protocols=protocols,
        populations=tuple(populations),
        lineage=tuple(lineage),
        fstar=fstar,
    )
