"""Finite-population game dynamics with two-strategy decompositions.

Build a population game and a revision protocol, construct the exact jump
process on the lattice of social states, decompose symmetric-rate games into
independent 2-strategy birth-death populations, and compare the resulting
product-form stationary prediction against the exact distribution.
"""

from .chain import (
    DetailedBalanceReport,
    FiniteChain,
    PathResult,
    StateGrid,
    StationaryTable,
    build_generator,
    build_grid,
    check_detailed_balance,
    deviation_vs_ode,
    exact_stationary,
    simulate_path,
    simulate_paths,
)
from .dynamics import Trajectory, integrate_mean_dynamic, mean_dynamic_rhs, rest_point
from .errors import (
    ConfigError,
    EmptySupportError,
    GridSizeError,
    IntegrationDivergedError,
    ProtocolError,
    ReducibleChainError,
    SolverError,
    SymgameError,
)
from .games import (
    PopulationGame,
    RevisionProtocol,
    ValidationReport,
    constant_protocol,
    custom_protocol,
    make_linear_game,
    make_separable_game,
    sample_states,
    sum_exponential_protocol,
    table_protocol,
    validate_hypotheses,
)
from .stationary import (
    BirthDeathSpec,
    BirthDeathWeights,
    ComparisonMetrics,
    birth_death_weights,
    compare,
    marginal_from_exact,
    product_form_joint,
    specs_from_transform,
)
from .transform import (
    DerivedPopulation,
    TransformedGame,
    decompose,
    derived_block,
    invert_3to2,
)

__version__ = "0.1.0"
