"""Quantum association-rule mining, simulated exactly, with classical baselines."""

from .classical import (
    AprioriResult,
    AssociationRule,
    IterationStats,
    apriori,
    cand_gen,
    fre_exam,
    gamma_metric,
    generate_rules,
    sampling_estimate,
)
from .data import (
    ExactSupport,
    FimiParseError,
    Itemset,
    TransactionDB,
    exact_support,
    parse_fimi,
    serialize_fimi,
    support_threshold,
    synth_db,
)
from .mining import (
    MinedItemset,
    MiningResult,
    NoFrequentCandidatesError,
    amplitude_amplify,
    good_set,
    qarm_full,
    qarm_mine_k,
)
from .oracle import QueryCounter, build_layout
from .qpe import (
    SupportEstimate,
    analytic_phase_distribution,
    apply_grover_operator,
    decode_support,
    grid_steps_between,
    parallel_amplitude_estimation,
)
from .qsim import QubitBudgetError, RegisterLayout, Statevector

__version__ = "0.1.0"

__all__ = [
    "AprioriResult",
    "AssociationRule",
    "ExactSupport",
    "FimiParseError",
    "Itemset",
    "IterationStats",
    "MinedItemset",
    "MiningResult",
    "NoFrequentCandidatesError",
    "QueryCounter",
    "QubitBudgetError",
    "RegisterLayout",
    "Statevector",
    "SupportEstimate",
    "amplitude_amplify",
    "analytic_phase_distribution",
    "apply_grover_operator",
    "apriori",
    "build_layout",
    "cand_gen",
    "decode_support",
    "exact_support",
    "fre_exam",
    "gamma_metric",
    "generate_rules",
    "good_set",
    "grid_steps_between",
    "parallel_amplitude_estimation",
    "parse_fimi",
    "qarm_full",
    "qarm_mine_k",
    "sampling_estimate",
    "serialize_fimi",
    "support_threshold",
    "synth_db",
]
