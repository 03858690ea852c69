"""Old-vs-new equivalence: row-wise reference vs array-native pipeline.

The array-native construction pipeline (grouped invariant build, csgraph
decomposition, one-pass CSR fingerprinting) must be *indistinguishable*
from the historical row-wise path: identical systems row by row, identical
canonical fingerprints (bit-for-bit — persisted solve caches survive the
rewrite), identical component partitions, and identical posteriors.  The
row-wise reference lives in ``tests/legacy.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantifier import PosteriorTable
from repro.data.paper_example import paper_published
from repro.engine.component import solve_component
from repro.engine.fingerprint import fingerprint_system, structure_fingerprint
from repro.maxent.closed_form import closed_form_batch
from repro.experiments.workloads import build_adult_workload
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.individuals import PseudonymTable
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.decompose import decompose, drop_redundant_data_rows
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from tests import legacy


@pytest.fixture(scope="module")
def paper_space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def person_space():
    return PersonVariableSpace(PseudonymTable(paper_published()))


@pytest.fixture(scope="module")
def adult():
    workload = build_adult_workload(n_records=400, max_antecedent=2)
    space = GroupVariableSpace(workload.published)
    statements = TopKBound(10, 10).statements(workload.rules)
    return space, statements


def build_systems(space, statements=()):
    """(array-native, row-wise) full systems over the same space."""
    new = data_constraints(space)
    old = legacy.data_constraints_rowwise(space)
    if statements:
        knowledge = compile_statements(list(statements), space)
        new.extend(knowledge)
        old.extend(knowledge)
    return new, old


def assert_rows_identical(new, old):
    assert new.n_vars == old.n_vars
    assert new.n_equalities == old.n_equalities
    assert new.n_inequalities == old.n_inequalities
    for family in ("equalities", "inequalities"):
        for a, b in zip(getattr(new, family), getattr(old, family)):
            assert np.array_equal(a.indices, b.indices), (a.label, b.label)
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.rhs == b.rhs
            assert a.kind == b.kind
            assert a.label == b.label


def assert_partitions_identical(space, new_components, old_components):
    assert len(new_components) == len(old_components)
    by_buckets = lambda c: c.buckets  # noqa: E731
    for a, b in zip(
        sorted(new_components, key=by_buckets),
        sorted(old_components, key=by_buckets),
    ):
        assert a.buckets == b.buckets
        assert np.array_equal(a.var_indices, b.var_indices)
        assert a.mass == b.mass  # bit-identical: same summation order
        assert a.knowledge_rows == b.knowledge_rows
        assert a.inequality_rows == b.inequality_rows
        assert fingerprint_system(a.system, a.mass) == fingerprint_system(
            b.system, b.mass
        )


class TestDataConstraints:
    def test_paper_group_rows_identical(self, paper_space):
        assert_rows_identical(*build_systems(paper_space))

    def test_paper_person_rows_identical(self, person_space):
        assert_rows_identical(*build_systems(person_space))

    def test_adult_rows_identical(self, adult):
        space, _ = adult
        assert_rows_identical(*build_systems(space))


class TestFingerprints:
    """Both paths, both encoders — four ways to the same digest."""

    def test_paper_group(self, paper_space):
        new, old = build_systems(paper_space)
        digests = {
            fingerprint_system(new),
            fingerprint_system(old),
            legacy.fingerprint_system_rowwise(new),
            legacy.fingerprint_system_rowwise(old),
        }
        assert len(digests) == 1

    def test_paper_person(self, person_space):
        new, old = build_systems(person_space)
        assert fingerprint_system(new) == legacy.fingerprint_system_rowwise(
            old
        )

    def test_adult_with_knowledge(self, adult):
        space, statements = adult
        new, old = build_systems(space, statements)
        assert fingerprint_system(new) == legacy.fingerprint_system_rowwise(
            old
        )
        assert structure_fingerprint(new) == structure_fingerprint(old)

    def test_drop_redundant_matches(self, adult):
        space, _ = adult
        new, old = build_systems(space)
        a = drop_redundant_data_rows(space, new)
        b = legacy.drop_redundant_data_rows_rowwise(space, old)
        assert_rows_identical(a, b)
        assert fingerprint_system(a) == legacy.fingerprint_system_rowwise(b)


class TestDecomposition:
    def test_paper_group_partition(self, paper_space):
        new, old = build_systems(paper_space)
        assert_partitions_identical(
            paper_space,
            decompose(paper_space, new),
            legacy.decompose_rowwise(paper_space, old),
        )

    def test_paper_person_partition(self, person_space):
        new, old = build_systems(person_space)
        assert_partitions_identical(
            person_space,
            decompose(person_space, new),
            legacy.decompose_rowwise(person_space, old),
        )

    def test_adult_partition_with_knowledge(self, adult):
        space, statements = adult
        new, old = build_systems(space, statements)
        assert_partitions_identical(
            space,
            decompose(space, new),
            legacy.decompose_rowwise(space, old),
        )

    def test_disabled_single_component(self, adult):
        space, statements = adult
        new, old = build_systems(space, statements)
        assert_partitions_identical(
            space,
            decompose(space, new, enabled=False),
            legacy.decompose_rowwise(space, old, enabled=False),
        )


class TestPosteriors:
    """End-to-end: solving the row-wise pipeline's components reproduces
    the array-native engine's posterior to 1e-10."""

    @pytest.mark.parametrize("with_knowledge", [False, True])
    def test_adult_posterior(self, adult, with_knowledge):
        space, statements = adult
        statements = statements if with_knowledge else ()
        new, old = build_systems(space, statements)
        config = MaxEntConfig(cache_size=0, raise_on_infeasible=False)

        from repro.engine.engine import PrivacyEngine

        with PrivacyEngine(cache_size=0) as engine:
            solution = engine.solve(space, new, config)

        p_old = np.zeros(space.n_vars)
        for component in legacy.decompose_rowwise(space, old):
            if component.is_irrelevant:
                # Mirror the engine's Theorem 5 classification so both
                # paths take the same closed form on irrelevant buckets.
                p_old[component.var_indices] = closed_form_batch(
                    space, component.var_indices
                )
            else:
                result = solve_component(component, config)
                p_old[component.var_indices] = result.p

        np.testing.assert_allclose(solution.p, p_old, atol=1e-10)
        new_posterior = PosteriorTable.from_solution(solution)
        assert new_posterior.matrix == pytest.approx(
            PosteriorTable.from_solution(
                type(solution)(space, p_old, solution.stats)
            ).matrix,
            abs=1e-10,
        )

    def test_paper_person_posterior(self, person_space):
        new, old = build_systems(person_space)
        config = MaxEntConfig(cache_size=0)

        from repro.engine.engine import PrivacyEngine

        with PrivacyEngine(cache_size=0) as engine:
            solution = engine.solve(person_space, new, config)

        p_old = np.zeros(person_space.n_vars)
        for component in legacy.decompose_rowwise(person_space, old):
            result = solve_component(component, config)
            p_old[component.var_indices] = result.p
        np.testing.assert_allclose(solution.p, p_old, atol=1e-10)


@st.composite
def row_blocks(draw):
    """Random CSR row blocks over a small variable space."""
    n_vars = draw(st.integers(min_value=1, max_value=12))
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for _ in range(n_rows):
        size = draw(st.integers(min_value=1, max_value=n_vars))
        indices = draw(
            st.permutations(range(n_vars)).map(lambda p: list(p)[:size])
        )
        coefficients = draw(
            st.lists(
                st.floats(
                    min_value=-8, max_value=8, allow_nan=False, width=32
                ),
                min_size=size,
                max_size=size,
            )
        )
        rhs = draw(
            st.floats(min_value=-4, max_value=4, allow_nan=False, width=32)
        )
        kind = draw(st.sampled_from(["qi", "sa", "bk", "custom"]))
        rows.append((indices, coefficients, rhs, kind))
    return n_vars, rows


class TestBatchAppendProperty:
    @given(row_blocks())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_row(self, block):
        """Batch append and per-row append produce bit-identical CSR."""
        n_vars, rows = block

        per_row = ConstraintSystem(n_vars)
        for indices, coefficients, rhs, kind in rows:
            per_row.add_equality(indices, coefficients, rhs, kind=kind)

        batched = ConstraintSystem(n_vars)
        if rows:
            lengths = np.array([len(r[0]) for r in rows], dtype=np.int64)
            indptr = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            batched.add_equalities(
                indptr,
                np.concatenate(
                    [np.asarray(r[0], dtype=np.int64) for r in rows]
                ),
                np.concatenate([np.asarray(r[1], float) for r in rows]),
                np.array([r[2] for r in rows]),
                kinds=[r[3] for r in rows],
            )

        a, c_a = per_row.equality_matrix()
        b, c_b = batched.equality_matrix()
        assert a.shape == b.shape
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(c_a, c_b)
        assert fingerprint_system(per_row) == fingerprint_system(batched)
        # Auto-generated labels and kinds also line up row for row.
        assert [r.label for r in per_row.equalities] == [
            r.label for r in batched.equalities
        ]
        assert [r.kind for r in per_row.equalities] == [
            r.kind for r in batched.equalities
        ]


class TestKindInternPickling:
    """Kind codes index a process-local table; pickles must survive a
    receiving process whose table is empty or differently ordered (spawn
    pool workers, forked workers predating a kind's first interning)."""

    def test_roundtrip_with_foreign_intern_table(self):
        import pickle

        from repro.maxent import constraints as c

        system = ConstraintSystem(4)
        system.add_equality([0, 1], [1.0, 1.0], 0.5, kind="qi")
        system.add_equality([2], [1.0], 0.25, kind="pickle-test-kind")
        system.add_inequality([3], [1.0], 0.75, kind="bk")
        payload = pickle.dumps(system)

        saved_codes, saved_names = dict(c._KIND_CODES), list(c._KIND_NAMES)
        try:
            # Simulate a fresh worker process: empty intern table, then
            # pre-intern unrelated kinds so the code assignment differs.
            c._KIND_CODES.clear()
            c._KIND_NAMES.clear()
            c.kind_code("unrelated-a")
            c.kind_code("unrelated-b")
            restored = pickle.loads(payload)
            assert [r.kind for r in restored.equalities] == [
                "qi",
                "pickle-test-kind",
            ]
            assert [r.kind for r in restored.inequalities] == ["bk"]
            assert len(restored.rows_of_kind("qi")) == 1
        finally:
            c._KIND_CODES.clear()
            c._KIND_CODES.update(saved_codes)
            c._KIND_NAMES.clear()
            c._KIND_NAMES.extend(saved_names)

    def test_component_roundtrip_preserves_fingerprint(self, paper_space):
        import pickle

        system = data_constraints(paper_space)
        component = decompose(paper_space, system)[0]
        clone = pickle.loads(pickle.dumps(component))
        assert fingerprint_system(
            clone.system, clone.mass
        ) == fingerprint_system(component.system, component.mass)
        assert [r.kind for r in clone.system.equalities] == [
            r.kind for r in component.system.equalities
        ]


class TestConstructionTelemetry:
    """The new SolverStats phase timers flow through engine.stats()."""

    def test_phase_timers_populated(self, paper_space):
        from repro.engine.engine import PrivacyEngine

        system = data_constraints(paper_space)
        with PrivacyEngine() as engine:
            solution = engine.solve(
                paper_space, system, MaxEntConfig(), build_seconds=0.125
            )
            stats = engine.stats()
        assert solution.stats.build_seconds == 0.125
        assert solution.stats.decompose_seconds > 0.0
        assert solution.stats.fingerprint_seconds >= 0.0
        assert stats["build_seconds"] == 0.125
        assert stats["decompose_seconds"] > 0.0
        assert "fingerprint_seconds" in stats
