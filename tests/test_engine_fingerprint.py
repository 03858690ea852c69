"""Canonical fingerprint semantics: what must and must not change the key."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.paper_example import paper_published
from repro.engine import PrivacyEngine
from repro.engine.fingerprint import (
    component_fingerprint,
    component_keys,
    fingerprint_system,
    structure_fingerprint,
    structure_keys,
)
from repro.experiments.workloads import (
    build_adult_workload,
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.decompose import decompose
from repro.maxent.indexing import GroupVariableSpace
from tests import legacy


def build_system(rows, n_vars=6, inequalities=()):
    system = ConstraintSystem(n_vars)
    for indices, coefficients, rhs in rows:
        system.add_equality(indices, coefficients, rhs, kind="qi")
    for indices, coefficients, rhs in inequalities:
        system.add_inequality(indices, coefficients, rhs, kind="bk")
    return system


ROWS = [
    ([0, 1, 2], [1.0, 1.0, 1.0], 0.5),
    ([3, 4], [1.0, 2.0], 0.25),
    ([1, 3, 5], [0.5, -1.0, 1.0], 0.1),
]


class TestCanonicalization:
    def test_row_permutation_is_invariant(self):
        base = build_system(ROWS)
        permuted = build_system([ROWS[2], ROWS[0], ROWS[1]])
        assert fingerprint_system(base) == fingerprint_system(permuted)

    def test_within_row_index_order_is_invariant(self):
        base = build_system([([0, 1, 2], [1.0, 2.0, 3.0], 0.5)])
        shuffled = build_system([([2, 0, 1], [3.0, 1.0, 2.0], 0.5)])
        assert fingerprint_system(base) == fingerprint_system(shuffled)

    def test_kind_and_label_are_ignored(self):
        a = ConstraintSystem(4)
        a.add_equality([0, 1], [1.0, 1.0], 0.5, kind="qi", label="one")
        b = ConstraintSystem(4)
        b.add_equality([0, 1], [1.0, 1.0], 0.5, kind="bk", label="two")
        assert fingerprint_system(a) == fingerprint_system(b)

    def test_family_is_not_ignored(self):
        eq = build_system([([0, 1], [1.0, 1.0], 0.5)], n_vars=4)
        ineq = build_system(
            [], n_vars=4, inequalities=[([0, 1], [1.0, 1.0], 0.5)]
        )
        assert fingerprint_system(eq) != fingerprint_system(ineq)


class TestSensitivity:
    def test_rhs_changes_the_key(self):
        base = build_system(ROWS)
        changed = build_system(
            [ROWS[0], (ROWS[1][0], ROWS[1][1], 0.26), ROWS[2]]
        )
        assert fingerprint_system(base) != fingerprint_system(changed)

    def test_coefficient_changes_the_key(self):
        base = build_system(ROWS)
        changed = build_system(
            [ROWS[0], ([3, 4], [1.0, 2.0000001], 0.25), ROWS[2]]
        )
        assert fingerprint_system(base) != fingerprint_system(changed)

    def test_mass_changes_the_key(self):
        system = build_system(ROWS)
        assert fingerprint_system(system, 1.0) != fingerprint_system(system, 0.5)

    def test_n_vars_changes_the_key(self):
        assert fingerprint_system(build_system(ROWS, 6)) != fingerprint_system(
            build_system(ROWS, 7)
        )

    def test_extra_row_changes_the_key(self):
        assert fingerprint_system(build_system(ROWS)) != fingerprint_system(
            build_system(ROWS + [([0], [1.0], 0.1)])
        )


class TestStructureFingerprint:
    def test_ignores_rhs_and_mass(self):
        base = build_system(ROWS)
        changed = build_system(
            [(i, c, rhs + 0.01) for i, c, rhs in ROWS]
        )
        assert structure_fingerprint(base) == structure_fingerprint(changed)

    def test_sensitive_to_rows(self):
        assert structure_fingerprint(build_system(ROWS)) != structure_fingerprint(
            build_system(ROWS[:2])
        )


class TestComponentFingerprint:
    def test_solve_key_separates_entries(self):
        system = build_system(ROWS)
        assert component_fingerprint(
            system, 1.0, ("lbfgs", True, 1e-6, 1000)
        ) != component_fingerprint(system, 1.0, ("gis", True, 1e-6, 1000))

    def test_deterministic_across_builds(self):
        assert component_fingerprint(
            build_system(ROWS), 1.0, ("lbfgs",)
        ) == component_fingerprint(build_system(ROWS), 1.0, ("lbfgs",))


class TestPinnedIdentity:
    """Cache identity must survive refactors of the config.

    Persisted solve-cache snapshots and the service's result cache are
    keyed by these values; if either changes, every stored entry silently
    goes cold.
    """

    def test_default_solve_key(self):
        assert MaxEntConfig().solve_key() == ("lbfgs", True, 1e-06, 1000)

    def test_paper_example_request_fingerprint(self):
        space = GroupVariableSpace(paper_published())
        system = data_constraints(space)
        system.extend(
            compile_statements(
                [
                    ConditionalProbability(
                        given={"gender": "male"}, sa_value="Flu", probability=0.3
                    )
                ],
                space,
            )
        )
        assert PrivacyEngine().request_fingerprint(system) == (
            "20996ab240ec0b930886c8b96e12e6eee549c47a9fe2166acc893491354684c5"
        )


# -- the stack encoder against the row-wise oracle ----------------------------

#: Floats whose bytes sort differently from their values, plus round-off
#: neighbours, so the byte order of rows matters.
_FLOATS = (
    1.0, -1.0, 0.5, 2.0, -0.25, 0.1, 3.0000000000000004, 1.0000000000000002,
    256.0, -0.0, 1e-300, 7.5,
)


class _Space:
    """The part of a variable space decomposition reads."""

    mass_partition_kind = "qi"

    def __init__(self, var_bucket):
        self.var_bucket = var_bucket
        self.n_vars = int(var_bucket.size)


@st.composite
def bucketed_systems(draw):
    """``(space, system)``: buckets of 1-5 variables, each with its mass row,
    plus knowledge rows (equalities and inequalities, often spanning
    buckets, entries in arbitrary order) and near-duplicates of long rows
    that agree on their first bytes."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    var_bucket = np.array(
        draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist())),
        dtype=np.int64,
    )
    n_vars = var_bucket.size
    system = ConstraintSystem(n_vars)
    for bucket in range(len(sizes)):
        members = np.flatnonzero(var_bucket == bucket)
        system.add_equality(
            members, np.ones(members.size),
            draw(st.sampled_from((0.25, 0.5, 1.0))), kind="qi",
        )
    floats = st.sampled_from(_FLOATS)
    for _ in range(draw(st.integers(0, 8))):
        variables = draw(
            st.lists(
                st.integers(0, n_vars - 1), min_size=1,
                max_size=min(n_vars, 7), unique=True,
            )
        )
        coefficients = [draw(floats) for _ in variables]
        add = draw(st.sampled_from((system.add_equality, system.add_inequality)))
        add(variables, coefficients, draw(floats), kind="bk")
        if len(variables) >= 5 and draw(st.booleans()):
            # Variants past the sort prefix: same indices and leading
            # coefficients, other trailing coefficients or rhs.
            order = np.argsort(variables)
            for _ in range(draw(st.integers(1, 3))):
                changed = list(coefficients)
                for position in order[3:]:
                    if draw(st.booleans()):
                        changed[position] = draw(floats)
                add(variables, changed, draw(floats), kind="bk")
    return _Space(var_bucket), system


class TestStackEncoder:
    """Every component's keys from one pass over the stack equal the
    row-wise encoding of that component's own system."""

    SOLVE_KEY = MaxEntConfig().solve_key()

    @settings(max_examples=200, deadline=None)
    @given(bucketed_systems(), st.data())
    def test_keys_equal_the_rowwise_oracle(self, case, data):
        space, system = case
        stack = decompose(space, system)
        positions = range(len(stack))
        keys = component_keys(stack, positions, self.SOLVE_KEY)
        structures = structure_keys(stack, positions)
        suffix = repr(self.SOLVE_KEY).encode()
        for component, key, structure in zip(stack, keys, structures):
            alone = component.system
            digest = legacy.fingerprint_system_rowwise(alone, component.mass)
            assert key == hashlib.sha256(digest.encode() + suffix).hexdigest()
            assert structure == legacy.fingerprint_system_rowwise(alone, None)
        # Against the row-wise decomposition too, matched by buckets.
        rowwise = {
            c.buckets: legacy.fingerprint_system_rowwise(c.system, c.mass)
            for c in legacy.decompose_rowwise(space, system)
        }
        assert {
            c.buckets: fingerprint_system(c.system, c.mass) for c in stack
        } == rowwise
        # A gathered subset keys each component as the whole pass does.
        subset = data.draw(
            st.lists(st.sampled_from(list(positions)), unique=True)
        )
        assert component_keys(stack, subset, self.SOLVE_KEY) == [
            keys[k] for k in subset
        ]
        assert structure_keys(stack, subset) == [structures[k] for k in subset]
        # The whole system is the one-segment case.
        assert fingerprint_system(system) == legacy.fingerprint_system_rowwise(
            system
        )
        assert structure_fingerprint(system) == (
            legacy.fingerprint_system_rowwise(system, None)
        )


def _system_with(space, statements):
    system = ConstraintSystem(space.n_vars)
    system.extend(data_constraints(space))
    system.extend(compile_statements(list(statements), space))
    return system


def _keys_digest(space, system):
    stack = decompose(space, system)
    positions = range(len(stack))
    keys = component_keys(stack, positions, MaxEntConfig().solve_key())
    keys += structure_keys(stack, positions)
    return len(stack), hashlib.sha256("\n".join(keys).encode()).hexdigest()


class TestPinnedComponentKeys:
    """Every component's solve-cache and warm-start key, pinned: a change
    to the encoding turns persisted caches cold and must fail here."""

    def test_per_bucket_statements(self):
        published = build_synthetic_release(
            480, qi_domain_sizes=(40, 30, 20, 10), n_sa_values=6, l=5, seed=3
        )
        space = GroupVariableSpace(published)
        system = _system_with(space, per_bucket_statements(published))
        assert _keys_digest(space, system) == (
            95,
            "cbc95f5b1bab01d2c9e19445fafb74bb1a100f68ac7edeed80c4647185bfd124",
        )

    def test_cross_bucket_topk(self):
        workload = build_adult_workload(n_records=400, max_antecedent=2)
        space = GroupVariableSpace(workload.published)
        system = _system_with(space, TopKBound(10, 10).statements(workload.rules))
        assert _keys_digest(space, system) == (
            46,
            "c9e1b002b08446f1fa65b2d8bf9835c797a23f0d49370b32ad2ec10991908730",
        )
