"""Decomposition of multi-strategy populations into coupled 2-strategy ones.

A population with symmetric switch rates (``rho_ij = rho_ji``) can be traded
for one derived population per strategy, each playing "use strategy i" vs
"don't".  For three strategies the derived 2x2 rate blocks are

    rho*_{i,i}   = rho_ii
    rho*_{i,~i}  = sum_{j != i} rho_ij
    rho*_{~i,i}  = (1/2) sum_{j != i} rho_ji
    rho*_{~i,~i} = (1/2) (sum of the remaining cross and diagonal rates)

and the construction inverts exactly: rho_ij = (rho*_{i,~i} + rho*_{j,~j}
- 2 rho*_{~k,k}) / 2 for the third strategy k.  A derived population is its
member lists: population i holds strategies i, i+1, ... (cyclically) as
singletons and one trailing aggregate.  Its block gathers the base rates in
member order and lumps the last two strategies until the arity is reached:
incoming rates sum the two columns, outgoing rates average the two rows, and
the self-rate sums the lumped 2x2 block, halved on the final step from three
strategies to two (the 3-to-2 rules above).

:func:`decompose` is the one builder: it checks the hypotheses once and
reduces every population of a game to at most ``target`` strategies (two by
default); :func:`invert_3to2` undoes the 3-to-2 split.

Derived rate blocks are functions of the base (payoff, state) pair, so the
derived game's own payoff enters no rate and is zero.  Each derived
population is evaluated standalone (its siblings' states unknown): the base
state is filled in from its own coordinates, splitting any aggregate mass
across members proportionally to the mean-dynamic rest point.  This keeps the
derived populations mutually independent and only matters for payoff- or
state-dependent protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import rest_point
from .errors import SymgameError
from .games import (
    PopulationGame,
    RevisionProtocol,
    _check_masses,
    _checked_rates,
    _frozen,
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
    """One derived population: the base strategies each derived strategy holds.

    ``members[t]`` lists the base strategies of derived strategy t, in the
    order their rates are gathered; all are singletons except a trailing
    aggregate.
    """

    base_population: int
    labels: tuple[str, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.members)


def _collapse_last_two(M: np.ndarray) -> np.ndarray:
    # lump the last two strategies; the churn corner is halved from three to two and summed above
    a = M.shape[-1]
    out = np.empty((*M.shape[:-2], a - 1, a - 1))
    out[..., : a - 2, : a - 2] = M[..., : a - 2, : a - 2]
    out[..., : a - 2, a - 2] = M[..., : a - 2, a - 2] + M[..., : a - 2, a - 1]
    out[..., a - 2, : a - 2] = 0.5 * (M[..., a - 2, : a - 2] + M[..., a - 1, : a - 2])
    # row by row, left to right: the order of ``M[a-2:, a-2:].sum()`` on one matrix
    corner = M[..., a - 2, a - 2] + M[..., a - 2, a - 1] + M[..., a - 1, a - 2] + M[..., a - 1, a - 1]
    out[..., a - 2, a - 2] = 0.5 * corner if a == 3 else corner
    return out


def derived_block(population: DerivedPopulation, base_rates: np.ndarray) -> np.ndarray:
    """A derived population's rate block from a base rate matrix or a ``[..., n, n]`` stack of them:
    the base rates gathered in member order, the last two strategies lumped until the arity is reached."""
    order = np.array(sum(population.members, ()))
    M = np.asarray(base_rates, dtype=float)[..., order[:, None], order]
    for _ in range(order.size - population.arity):
        M = _collapse_last_two(M)
    return M


def _reduced_population(base_population: int, leading: int, n: int, target: int) -> DerivedPopulation:
    order = [(leading + t) % n for t in range(n)]
    members = tuple((s,) for s in order[: target - 1]) + (tuple(order[target - 1 :]),)
    size = len(members[-1])
    tail = str(order[-1] + 1) if size == 1 else f"not_{leading + 1}" if size == n - 1 else f"a_{leading + 1}"
    labels = tuple(str(s + 1) for s in order[: target - 1]) + (tail,)
    return DerivedPopulation(base_population=base_population, labels=labels, members=members)


def _zero_payoff(parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    # the derived payoff, of one state or a stack: no derived rate reads it
    return tuple(np.zeros(np.shape(x)) for x in parts)


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

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(pop.arity for pop in self.populations)

    @property
    def lineage(self) -> tuple[str, ...]:
        """The steps ``n->n-1 ... a+1->a`` of each base population cut from n strategies to arity a; with
        several base populations each step is prefixed ``pK:``, and a population kept whole reads ``pK:id``."""
        counts = self.base_game.strategy_counts
        arity = {pop.base_population: pop.arity for pop in self.populations}
        steps: list[str] = []
        for p, n in enumerate(counts):
            prefix = "" if len(counts) == 1 else f"p{p + 1}:"
            if arity[p] < n:
                steps += [f"{prefix}{a}->{a - 1}" for a in range(n, arity[p], -1)]
            elif prefix:
                steps.append(f"{prefix}id")
        return tuple(steps)

    @cached_property
    def _rest_parts(self) -> tuple[np.ndarray, ...]:
        return rest_point(self.base_game, self.base_protocols)

    @cached_property
    def _gathers(self) -> dict[DerivedPopulation, tuple[np.ndarray, np.ndarray]]:
        # per derived population: the derived coordinate that owns each base strategy, and its rest-point share
        gathers = {}
        for pop in self.populations:
            rest = self._rest_parts[pop.base_population]
            owner, share = np.empty(rest.size, dtype=np.intp), np.empty(rest.size)
            for t, mem in enumerate(pop.members):
                idx = list(mem)
                total = float(rest[idx].sum())
                owner[idx] = t
                share[idx] = rest[idx] / total if total > 0 else 1.0 / len(idx)  # 1.0 for a singleton
            gathers[pop] = owner, share
        return gathers

    # -- state maps ------------------------------------------------------

    def embed(self, state: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """Image of a base state, as read-only parts: derived coordinates are member mass sums."""
        base = self.base_game.require_valid_state(state)
        return _frozen(
            [np.array([base[pop.base_population][list(mem)].sum() for mem in pop.members]) for pop in self.populations]
        )

    def fill_base_state(self, population: DerivedPopulation, part: np.ndarray) -> tuple[np.ndarray, ...]:
        """Base state parts inferred from one derived population's coordinates alone.

        Singleton members take their coordinate directly; aggregate mass is
        split across members in rest-point proportions.  Other base
        populations sit at the rest point.  A stack of derived states, one
        per row, gives the stack of their base states.  A state of the wrong
        length raises ValueError, and so does a filled-in state with a
        non-finite or negative mass, at the first such row of a stack.
        """
        part = np.asarray(part, dtype=float)
        if part.shape[-1:] != (population.arity,):
            index, length = self.populations.index(population), part.shape[-1] if part.ndim else 1
            raise ValueError(
                f"derived population {index} has {population.arity} strategies, got a state of length {length}"
            )
        owner, share = self._gathers[population]
        bp = population.base_population
        vec = part[..., owner] * share
        _check_masses(bp, vec)
        stack = part.shape[:-1]
        return tuple(vec if p == bp else np.broadcast_to(r, (*stack, r.size)) for p, r in enumerate(self._rest_parts))

    # -- rates -----------------------------------------------------------

    def marginal_block(self, index: int, part: np.ndarray) -> np.ndarray:
        """Rate block of derived population ``index`` at its own state, or the blocks of an ``(S, arity)`` stack.

        A stack costs one base payoff call and one call of each base ``rate_fn`` when all are ``vectorized``,
        else one per state; invalid values raise the validating path's error at the first offending state.
        """
        pop = self.populations[index]
        rates = _checked_rates(self.base_game, self.base_protocols, self.fill_base_state(pop, part))
        return derived_block(pop, rates[pop.base_population])

    def _derived_protocol(self, index: int) -> RevisionProtocol:
        return RevisionProtocol(
            kind="derived",
            rate_fn=lambda pi, x: self.marginal_block(index, x),
            support_floor=self.base_protocols[self.populations[index].base_population].support_floor,
            vectorized=self.base_game.vectorized and all(proto.vectorized for proto in self.base_protocols),
        )

    def marginal_game(self, index: int) -> tuple[PopulationGame, RevisionProtocol]:
        """Standalone single-population game for one derived population, with a zero payoff."""
        pop, protocol = self.populations[index], self._derived_protocol(index)
        mass = self.base_game.masses[pop.base_population]
        return PopulationGame((mass,), (pop.arity,), _zero_payoff, vectorized=protocol.vectorized), protocol

    def as_population_game(self) -> tuple[PopulationGame, tuple[RevisionProtocol, ...]]:
        """The derived game as a plain multi-population game, with a zero payoff.

        Each derived population's protocol reads only its own coordinates
        (via the fill-in rule), so the populations evolve independently.
        Both are ``vectorized`` exactly when the base game and every base protocol are.
        """
        masses = tuple(self.base_game.masses[pop.base_population] for pop in self.populations)
        protocols = tuple(self._derived_protocol(i) for i in range(len(self.populations)))
        game = PopulationGame(masses, self.arities, _zero_payoff, vectorized=protocols[0].vectorized)
        return game, protocols


def invert_3to2(transformed: TransformedGame) -> RevisionProtocol:
    """Recover the base 3x3 rates from the derived 2x2 blocks.

    ``rho_ij = (rho*_{i,~i} + rho*_{j,~j} - 2 rho*_{~k,k}) / 2`` for the
    remaining strategy k, and ``rho_ii = rho*_{ii}``; exact (two-term affine)
    whenever the base rates were symmetric.
    """
    pops = transformed.populations
    if len(pops) != 3 or any(p.arity != 2 or sum(map(len, p.members)) != 3 for p in pops):
        raise ValueError(f"expected three 2-strategy blocks from a 3-strategy base, got arities {transformed.arities}")
    by_lead = {pop.members[0][0]: pop for pop in pops}
    protocols = transformed.base_protocols

    def rate_fn(pi: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _check_masses(0, x)
        rho = protocols[0].rates(np.asarray(pi, dtype=float), x)
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

    return RevisionProtocol(kind="recovered", rate_fn=rate_fn, support_floor=protocols[0].support_floor)


def decompose(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    target: int = 2,
) -> TransformedGame:
    """Reduce every population to at most ``target`` strategies.

    A population with at most ``target`` strategies passes through unchanged;
    a larger one of n strategies splits into n derived populations of
    ``target`` strategies, one per leading strategy i: singletons i, i+1, ...
    (cyclically) and one aggregate of the remaining strategies (lineage
    ``n->n-1 ... target+1->target``).  The lumping halves the churn corner
    only from three strategies to two, so reducing to 3 and then splitting
    agrees with reducing straight to 2.  The hypotheses, symmetry wherever a reduction happens and full
    support everywhere, are ``ValidationReport.problems(target)`` on ``sample_states(game)``, 1000 seeded
    random states; all failures are reported together.
    """
    if target < 2:
        raise ValueError(f"target arity must be at least 2, got {target}")
    protocols = protocol_tuple(protocol, game)
    if problems := validate_hypotheses(game, protocols, sample_states(game)).problems(target):
        raise SymgameError("decomposition preconditions failed: " + "; ".join(problems))

    populations = tuple(
        _reduced_population(p, lead, n, min(n, target))
        for p, n in enumerate(game.strategy_counts)
        for lead in (range(n) if n > target else [0])
    )
    return TransformedGame(base_game=game, base_protocols=protocols, populations=populations)
