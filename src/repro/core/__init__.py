"""Core Privacy-MaxEnt API: the engine, posteriors, accuracy and metrics."""

from repro.core.accuracy import estimation_accuracy
from repro.core.invariants import (
    bucket_constraint_matrix,
    build_qi_invariants,
    build_sa_invariants,
    build_zero_invariants,
    is_invariant,
)
from repro.core.metrics import (
    bayes_vulnerability,
    distinct_l_diversity,
    entropy_l_diversity,
    k_anonymity,
    max_disclosure,
    t_closeness,
)
from repro.core.privacy_maxent import PrivacyMaxEnt, ReleaseModel, assess
from repro.core.quantifier import PosteriorTable, person_posterior
from repro.core.report import PrivacyAssessment
from repro.core.utility import (
    AggregateQuery,
    UtilityReport,
    estimate_count,
    query_workload,
    relative_query_error,
    true_count,
)

__all__ = [
    "AggregateQuery",
    "PosteriorTable",
    "PrivacyAssessment",
    "PrivacyMaxEnt",
    "ReleaseModel",
    "UtilityReport",
    "assess",
    "estimate_count",
    "query_workload",
    "relative_query_error",
    "true_count",
    "bayes_vulnerability",
    "bucket_constraint_matrix",
    "build_qi_invariants",
    "build_sa_invariants",
    "build_zero_invariants",
    "distinct_l_diversity",
    "entropy_l_diversity",
    "estimation_accuracy",
    "is_invariant",
    "k_anonymity",
    "max_disclosure",
    "person_posterior",
    "t_closeness",
]
