"""Capacity toolkit for Gaussian 1-2-1 relay networks.

Models networks where every node owns one steerable transmit beam and
one steerable receive beam, so information flows only over links whose
endpoints point at each other.  The package computes the scheduling
capacity of the ideal and imperfect-beamforming models, a practical
schedule-then-nullify rate, and certified additive gaps between them.
"""

from .bounds import (
    AssumptionReport,
    GapReport,
    RatioCondition,
    TheoremViolationError,
    check_assumptions,
    constant_gap_condition,
    tsn_gap_bound,
    verify_instance,
)
from .capacity import (
    CapacityResult,
    LinkRates,
    capacity_ideal,
    capacity_imperfect,
    imperfect_value_table,
    linear_value_table,
    link_rates,
    rate_tsn,
)
from .enumeration import (
    CAP_ENV_VAR,
    EnumerationCapError,
    StateSpace,
    build_state_space,
)
from .instancegen import GenSpec, friis_amplitude, generate, platooning_instance
from .matrices import (
    CutBlockTables,
    cut_block_tables,
    cut_dominance_ratio,
    cut_state_matrix,
    dominance_ratio,
    gram_matrix,
    log_det_capacity,
)
from .model import (
    EMPTY_PATTERN,
    MAX_RELAYS,
    AlignmentPattern,
    Cut,
    InvalidPatternError,
    NetworkInstance,
    admissible_links,
    effective_channel,
    max_degree,
    validate_pattern,
)
from .optimize import (
    MaxMinProblem,
    SolverError,
    decompose_edge_fractions,
    solve_maxmin,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentPattern",
    "AssumptionReport",
    "CAP_ENV_VAR",
    "CapacityResult",
    "Cut",
    "CutBlockTables",
    "EMPTY_PATTERN",
    "EnumerationCapError",
    "GapReport",
    "GenSpec",
    "InvalidPatternError",
    "LinkRates",
    "MAX_RELAYS",
    "MaxMinProblem",
    "NetworkInstance",
    "RatioCondition",
    "SolverError",
    "StateSpace",
    "TheoremViolationError",
    "admissible_links",
    "build_state_space",
    "capacity_ideal",
    "capacity_imperfect",
    "check_assumptions",
    "constant_gap_condition",
    "cut_block_tables",
    "cut_dominance_ratio",
    "cut_state_matrix",
    "decompose_edge_fractions",
    "dominance_ratio",
    "effective_channel",
    "friis_amplitude",
    "generate",
    "gram_matrix",
    "imperfect_value_table",
    "linear_value_table",
    "link_rates",
    "log_det_capacity",
    "max_degree",
    "platooning_instance",
    "rate_tsn",
    "solve_maxmin",
    "tsn_gap_bound",
    "validate_pattern",
    "verify_instance",
]
