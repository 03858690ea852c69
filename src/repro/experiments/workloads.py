"""Shared workload construction for the experiment drivers.

Every figure starts from the same pipeline — generate the Adult-shaped
table, bucketize it to 5-diversity, mine the rule universe — so this module
builds those pieces once per configuration and caches them within a run.
Problem sizes are scaled-down by default (the paper used 14,210 records /
2,842 buckets on 2008 hardware; our defaults keep the benchmark suite in
CI-friendly time) and every driver accepts explicit sizes to run at paper
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymize.anatomy import anatomize
from repro.anonymize.buckets import BucketizedTable
from repro.core.quantifier import PosteriorTable
from repro.data.adult import load_adult_synthetic
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.data.table import Table
from repro.knowledge.mining import MiningConfig, RuleSet, mine_association_rules
from repro.knowledge.statements import ConditionalProbability, Statement


@dataclass(frozen=True)
class AdultWorkload:
    """One prepared instance of the paper's evaluation setup."""

    table: Table
    published: BucketizedTable
    rules: RuleSet
    truth: PosteriorTable


def build_adult_workload(
    *,
    n_records: int = 2000,
    l: int = 5,
    max_antecedent: int = 3,
    min_support_count: int = 3,
    antecedent_sizes: tuple[int, ...] | None = None,
    seed: int = 20080609,
) -> AdultWorkload:
    """Generate, bucketize and mine one Adult-shaped workload.

    Mirrors the paper's setup: buckets of ``l`` records satisfying distinct
    l-diversity with the most frequent education value(s) exempted
    (footnote 3), rules mined at minimum support ``min_support_count``.
    """
    table = load_adult_synthetic(n_records=n_records, seed=seed)
    published = anatomize(table, l=l, exempt="auto", seed=seed)
    mining = MiningConfig(
        min_support_count=min_support_count,
        max_antecedent=max_antecedent,
        antecedent_sizes=antecedent_sizes,
    )
    rules = mine_association_rules(table, mining)
    truth = PosteriorTable.from_table(table)
    return AdultWorkload(
        table=table, published=published, rules=rules, truth=truth
    )


def build_synthetic_release(
    n_records: int,
    *,
    qi_domain_sizes: tuple[int, ...] = (6, 5, 4, 3),
    n_sa_values: int = 10,
    l: int = 5,
    seed: int = 20080609,
) -> BucketizedTable:
    """One synthetic bucketized release (the scaling-benchmark workload).

    The construction benchmarks use the default small QI domains; the
    solver benchmarks widen them (unique QI tuples keep per-bucket
    knowledge from coupling buckets into one giant component).
    """
    table = generate_synthetic(
        SyntheticConfig(
            n_records=n_records,
            qi_domain_sizes=qi_domain_sizes,
            n_sa_values=n_sa_values,
            seed=seed,
        )
    )
    return anatomize(table, l=l, seed=seed)


def per_bucket_statements(
    published: BucketizedTable,
    *,
    low: float = 0.05,
    high: float = 0.30,
) -> list[Statement]:
    """One distinct conditional-probability statement per bucket.

    Models the worst-case background-knowledge sweeps of Martin et al.
    (an adversary with a separate belief about every group): each bucket
    gets ``P(first SA value | first QI tuple) = p`` with a bucket-unique
    ``p`` swept across ``[low, high]``.  Every bucket becomes a distinct
    *relevant* component — no two solve to the same fingerprint — which
    is exactly the shape that stresses the batched dual.  The
    probabilities stay small enough to be feasible against the bucket
    invariants, and a bucket whose first QI tuple another bucket already
    claimed is skipped: at large scales QI tuples collide across buckets
    (and the collision couples those buckets into one component), so a
    second statement on the same left side would contradict the first.
    """
    n = max(len(published.buckets), 1)
    qi_attributes = published.schema.qi_attributes
    statements: list[Statement] = []
    claimed: set[tuple] = set()
    for index, bucket in enumerate(published.buckets):
        given_tuple = bucket.qi_tuples[0]
        if given_tuple in claimed:
            continue
        claimed.add(given_tuple)
        statements.append(
            ConditionalProbability(
                given=dict(zip(qi_attributes, given_tuple)),
                sa_value=bucket.sa_values[0],
                probability=round(low + (high - low) * index / n, 6),
            )
        )
    return statements


def k_grid(max_k: int, points: int = 8) -> list[int]:
    """A 0-anchored, roughly geometric grid of K values up to ``max_k``.

    The paper's x-axes span 0 to ~150k rules; a geometric grid captures the
    same "fast drop then flatten" shape with far fewer solves.
    """
    if max_k <= 0:
        return [0]
    grid = [0]
    value = max(1, max_k // (2 ** (points - 2)))
    while value < max_k:
        grid.append(value)
        value *= 2
    grid.append(max_k)
    return sorted(set(grid))
