"""Privacy-MaxEnt: integrating background knowledge in privacy quantification.

A full reproduction of Du, Teng & Zhu (SIGMOD 2008).  The public API
re-exports the pieces a typical analysis needs:

>>> from repro import (
...     load_adult_synthetic, anatomize, mine_association_rules,
...     TopKBound, PrivacyMaxEnt, PosteriorTable, estimation_accuracy,
... )
>>> table = load_adult_synthetic(n_records=2000, seed=7)
>>> published = anatomize(table, l=5)
>>> rules = mine_association_rules(table)
>>> engine = PrivacyMaxEnt(
...     published, knowledge=TopKBound(50, 50).statements(rules)
... )
>>> posterior = engine.posterior()
>>> truth = PosteriorTable.from_table(table)
>>> estimation_accuracy(truth, posterior)  # the paper's y-axis
"""

from repro.anonymize import (
    Bucket,
    BucketizedTable,
    anatomize,
    mondrian_anonymize,
    randomized_response,
)
from repro.core import (
    PosteriorTable,
    PrivacyAssessment,
    PrivacyMaxEnt,
    ReleaseModel,
    assess,
    bayes_vulnerability,
    estimation_accuracy,
    k_anonymity,
    max_disclosure,
    person_posterior,
    t_closeness,
)
from repro.core.privacy_maxent import baseline_posterior
from repro.data import (
    Attribute,
    Schema,
    SyntheticConfig,
    Table,
    adult_schema,
    generate_synthetic,
    load_adult_synthetic,
    read_csv,
    write_csv,
)
from repro.errors import (
    InfeasibleKnowledgeError,
    KnowledgeError,
    ReproError,
    SolverError,
)
from repro.baselines import enumeration_posterior, worst_case_disclosure
from repro.knowledge import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    GroupCount,
    GroupCountAtLeast,
    GroupCountAtMost,
    IndividualDisjunction,
    IndividualProbability,
    JointProbability,
    MiningConfig,
    PseudonymTable,
    TopKBound,
    mine_association_rules,
)
from repro.engine import PrivacyEngine
from repro.maxent import MaxEntConfig, MaxEntSolution, solve_maxent

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "Bucket",
    "BucketizedTable",
    "Comparison",
    "ConditionalInterval",
    "ConditionalProbability",
    "GroupCount",
    "GroupCountAtLeast",
    "GroupCountAtMost",
    "IndividualDisjunction",
    "IndividualProbability",
    "InfeasibleKnowledgeError",
    "JointProbability",
    "KnowledgeError",
    "MaxEntConfig",
    "MaxEntSolution",
    "MiningConfig",
    "PosteriorTable",
    "PrivacyAssessment",
    "PrivacyEngine",
    "PrivacyMaxEnt",
    "PseudonymTable",
    "ReleaseModel",
    "ReproError",
    "Schema",
    "SolverError",
    "SyntheticConfig",
    "Table",
    "TopKBound",
    "adult_schema",
    "anatomize",
    "assess",
    "baseline_posterior",
    "bayes_vulnerability",
    "enumeration_posterior",
    "estimation_accuracy",
    "generate_synthetic",
    "k_anonymity",
    "load_adult_synthetic",
    "max_disclosure",
    "mine_association_rules",
    "mondrian_anonymize",
    "person_posterior",
    "randomized_response",
    "read_csv",
    "t_closeness",
    "worst_case_disclosure",
    "write_csv",
]
