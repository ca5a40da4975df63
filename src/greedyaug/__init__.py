"""Greedy approximability toolkit.

Exact-rational greedy solvers and ratio measurement, exhaustive auditors for
submodularity-ratio / augmentability / rank-quotient function classes, the
explicit worst-case objective families, and a multi-sink commodity-flow
objective evaluated by an exact LP.
"""

from .core import (
    Blocks,
    GreedyTrace,
    GroundSet,
    GroundSetTooLarge,
    InvalidCardinality,
    OptimumRecord,
    ParameterError,
    SetFunctionOracle,
    approximation_ratio,
    brute_force_optimum,
    format_rational,
    greedy_adaptive,
    greedy_nonadaptive,
    indices_of,
    mask_of,
    optimum_profile,
    optimum_value,
    parse_rational,
    saturation_cardinality,
)
from .audit import (
    AuditReport,
    BoundRecord,
    RatioResult,
    Witness,
    certify_greedy_bound,
    check_alpha_augmentable,
    check_gamma_alpha_augmentable,
    min_alpha_for,
    weak_submodularity_ratio,
)
from .independence import (
    ExchangeReport,
    IndependenceSystem,
    MalformedSystem,
    RankQuotientResult,
    check_exchange_equivalences,
    downward_closure_system,
    free_system,
    random_downward_closed_system,
    rank_quotient,
    uniform_matroid,
    weighted_rank_oracle,
)
from .families import (
    CriticalParams,
    critical_ratio_closed_form,
    limit_ratio,
    make_critical_function,
    make_modular,
    make_rank_separator,
    make_ratio_separator,
    make_square_cardinality,
    oracle_from_descriptor,
)
from .flows import (
    FlowInstance,
    LPSizeError,
    capacity_scale,
    default_tie_epsilon,
    evaluate_objective,
    excess_upper_bound,
    lower_bound_ratio_closed_form,
    make_lower_bound_instance,
    make_two_sink_instance,
    make_zero_ratio_instance,
    max_flow,
    objective_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
