"""Row labels are formatted when read, and read as the eager formats did.

``RowLabels`` keeps format strings over id arrays, statements and kind
names instead of strings.  Every way a label leaves the system — the
arrays, ``Row`` views, pickles, presolve's reduced system, the component
stack and its component views, and the errors that name a row — must
read exactly the string an eager f-string gave.
"""

import pickle

import numpy as np
import pytest

from repro.data.paper_example import S1, S2, paper_published
from repro.errors import InfeasibleKnowledgeError, ReproError
from repro.experiments.workloads import (
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.compiler import compile_statements
from repro.knowledge.individuals import PseudonymTable
from repro.knowledge.statements import ConditionalInterval, ConditionalProbability
from repro.maxent.constraints import ConstraintSystem, RowLabels, data_constraints
from repro.maxent.decompose import decompose
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.presolve import presolve


def eager_data_labels(space) -> list[str]:
    """The data rows' labels as eager f-strings, in row order: groups
    ascend by (id, bucket)."""
    def grouped(ids, name):
        pairs = sorted(set(zip(ids.tolist(), space.var_bucket.tolist())))
        return [f"{name}={a}, b={b})" for a, b in pairs]

    if isinstance(space, GroupVariableSpace):
        return grouped(space.var_qi, "QI-invariant(q") + grouped(
            space.var_sa, "SA-invariant(s"
        )
    return (
        [f"person({p.name})" for p in space.people]
        + grouped(space.person_qi_ids()[space.var_person], "slot(q")
        + grouped(space.var_sa, "SA-invariant(s")
    )


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def person_space():
    return PersonVariableSpace(PseudonymTable(paper_published()))


def _knowledge():
    return [
        ConditionalProbability(given={"gender": "male"}, sa_value=S2, probability=0.3),
        ConditionalInterval(given={"gender": "female"}, sa_value=S1, low=0.1, high=0.5),
        ConditionalProbability(given={"degree": "college"}, sa_value=S1, probability=0.0),
    ]


def _eager_knowledge():
    first, interval, zero = _knowledge()
    return (
        [first.describe(), zero.describe()],
        [f"{interval.describe()} [upper]", f"{interval.describe()} [lower]"],
    )


def _full_system(space) -> ConstraintSystem:
    system = ConstraintSystem(space.n_vars)
    system.extend(data_constraints(space))
    system.extend(compile_statements(_knowledge(), space))
    return system


class TestRowLabels:
    def labels(self):
        kinds = np.array(["bk", "qi"], dtype=object)
        return (
            RowLabels.formatted("QI-invariant(q={}, b={})", np.array([0, 3]), np.array([1, 2]))
            + RowLabels.of(["plain"])
            + RowLabels.formatted("{}[{}]", kinds, np.arange(5, 7))
        )

    EAGER = [
        "QI-invariant(q=0, b=1)", "QI-invariant(q=3, b=2)", "plain", "bk[5]", "qi[6]",
    ]

    def test_reads_like_a_list(self):
        labels = self.labels()
        assert len(labels) == 5
        assert list(labels) == self.EAGER
        assert [labels[i] for i in range(5)] == self.EAGER
        assert labels[-1] == "qi[6]"
        assert labels == self.EAGER
        assert labels != self.EAGER[:-1]
        assert "plain" in labels
        with pytest.raises(IndexError):
            labels[5]

    @pytest.mark.parametrize("seed", range(5))
    def test_take_equals_list_indexing(self, seed):
        rng = np.random.default_rng(seed)
        labels = self.labels()
        for rows in (
            np.sort(rng.choice(5, size=3, replace=False)),
            rng.permutation(5),
            rng.integers(0, 5, size=8),
            np.array([], dtype=np.int64),
        ):
            assert list(labels.take(rows)) == [self.EAGER[r] for r in rows]

    def test_pickle_round_trip(self):
        labels = self.labels()
        assert list(pickle.loads(pickle.dumps(labels))) == self.EAGER

    def test_concat_and_empty(self):
        assert list(RowLabels.concat([self.labels(), RowLabels(), self.labels()])) == (
            self.EAGER + self.EAGER
        )
        assert list(RowLabels()) == [] and len(RowLabels()) == 0


class TestSystemLabels:
    @pytest.mark.parametrize("which", ["group", "person"])
    def test_data_rows(self, which, space, person_space):
        target = space if which == "group" else person_space
        arrays = data_constraints(target).equality_arrays()
        assert isinstance(arrays.labels, RowLabels)
        assert list(arrays.labels) == eager_data_labels(target)

    def test_extend_compaction_and_row_views(self, space):
        system = _full_system(space)
        system.add_equality([0], [1.0], 0.0, kind="custom")
        system.add_inequality([1], [1.0], 1.0, kind="custom", label="named")
        eq_knowledge, ineq_knowledge = _eager_knowledge()
        n_data = len(eager_data_labels(space))
        eq = eager_data_labels(space) + eq_knowledge + [f"custom[{n_data + 2}]"]
        ineq = ineq_knowledge + ["named"]
        assert list(system.equality_arrays().labels) == eq
        assert list(system.inequality_arrays().labels) == ineq
        assert [row.label for row in system.equalities] == eq
        assert [row.label for row in system.inequalities] == ineq

    def test_pickle_round_trip(self, space):
        system = _full_system(space)
        restored = pickle.loads(pickle.dumps(system))
        for family in ("equality_arrays", "inequality_arrays"):
            assert list(getattr(restored, family)().labels) == list(
                getattr(system, family)().labels
            )
            np.testing.assert_array_equal(
                getattr(restored, family)().kinds(), getattr(system, family)().kinds()
            )

    def test_presolve_reduced_system(self, space):
        system = _full_system(space)
        reduced = presolve(system).system
        assert reduced.n_vars < system.n_vars  # the zero statement fixed variables
        # The same system with every label one eager string.
        eager = ConstraintSystem(system.n_vars)
        for family, append in (
            (system.equality_arrays(), eager.add_equalities),
            (system.inequality_arrays(), eager.add_inequalities),
        ):
            append(
                family.indptr, family.indices, family.coefficients, family.rhs,
                kinds=family.kind_codes, labels=list(family.labels),
            )
        expected = presolve(eager).system
        assert list(reduced.equality_arrays().labels) == list(
            expected.equality_arrays().labels
        )
        assert list(reduced.inequality_arrays().labels) == list(
            expected.inequality_arrays().labels
        )

    def test_component_stack_and_views(self):
        release = build_synthetic_release(
            300, qi_domain_sizes=(6, 5), n_sa_values=4, l=3, seed=2
        )
        target = GroupVariableSpace(release)
        system = ConstraintSystem(target.n_vars)
        system.extend(data_constraints(target))
        knowledge = per_bucket_statements(release)
        system.extend(compile_statements(knowledge, target))
        eager = eager_data_labels(target) + [s.describe() for s in knowledge]
        assert list(system.equality_arrays().labels) == eager
        stack = decompose(target, system)
        assert [stack.label(r) for r in range(stack.rhs.size)] == [
            eager[r] for r in stack.label_rows.tolist()
        ]
        for k in range(len(stack)):
            lo, hi = int(stack.row_indptr[k]), int(stack.row_indptr[k + 1])
            view = stack[k].system
            assert [row.label for row in view.equalities + view.inequalities] == [
                eager[r] for r in stack.label_rows[lo:hi].tolist()
            ]


class TestErrorsNameDataRows:
    def test_decompose_empty_row(self, space):
        data = data_constraints(space).equality_arrays()
        lengths = np.diff(data.indptr)
        lengths[1] = 0  # the second QI-invariant row loses its variables
        keep = np.ones(data.indices.size, dtype=bool)
        keep[data.indptr[1] : data.indptr[2]] = False
        system = ConstraintSystem(space.n_vars)
        system.add_equalities(
            np.concatenate(([0], np.cumsum(lengths))),
            data.indices[keep],
            data.coefficients[keep],
            data.rhs,
            kinds=data.kind_codes,
            labels=data.labels,
        )
        label = eager_data_labels(space)[1]
        assert label.startswith("QI-invariant(q=")
        with pytest.raises(ReproError) as caught:
            decompose(space, system)
        assert str(caught.value) == (
            f"row {label!r} references no variables and cannot be assigned "
            "to a component"
        )

    def test_presolve_zeroed_qi_row(self, space):
        system = data_constraints(space)
        data = system.equality_arrays()
        row = 0
        label = eager_data_labels(space)[row]
        for var in data.indices[data.indptr[row] : data.indptr[row + 1]].tolist():
            system.add_equality([var], [1.0], 0.0, kind="bk")
        with pytest.raises(InfeasibleKnowledgeError) as caught:
            presolve(system)
        assert str(caught.value) == (
            f"constraint {label!r} reduces to 0 = {data.rhs[row]:.3e}"
        )
