"""Unit tests for statement -> constraint-row compilation (Sections 4.1, 6)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.anonymize.anatomy import anatomize
from repro.anonymize.mondrian import mondrian_anonymize
from repro.data.paper_example import (
    Q1,
    Q3,
    Q6,
    S1,
    S2,
    S4,
    paper_published,
)
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.errors import (
    CompilationError,
    DiversityError,
    InfeasibleKnowledgeError,
    ReproError,
)
from repro.experiments.workloads import (
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.compiler import compile_statements
from repro.knowledge.individuals import (
    GroupCount,
    GroupCountAtLeast,
    GroupCountAtMost,
    IndividualDisjunction,
    IndividualProbability,
    PseudonymTable,
)
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
)
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from tests.legacy import compile_statements_per_statement


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def person_space():
    return PersonVariableSpace(PseudonymTable(paper_published()))


class TestSection41WorkedExample:
    """The paper's P(Flu | male) = 0.3 example compiles to rhs 0.18."""

    def test_rhs_is_030_times_p_male(self, space):
        stmt = ConditionalProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.3
        )
        system = compile_statements([stmt], space)
        assert system.n_equalities == 1
        row = system.equalities[0]
        # 0.3 * P(male) = 0.3 * 6/10 = 0.18 (the paper's constant).
        assert row.rhs == pytest.approx(0.18)

    def test_summation_set(self, space):
        stmt = ConditionalProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.3
        )
        system = compile_statements([stmt], space)
        row = system.equalities[0]
        triples = {space.describe_var(int(i)) for i in row.indices}
        # The paper lists four terms, one of which — P((male, college),
        # Flu, bucket 3) — is a Zero-invariant (q1 does not occur in bucket
        # 3), so the live summation set has the remaining three.
        assert triples == {(Q1, S2, 0), (Q3, S2, 0), (Q6, S2, 2)}
        assert np.all(row.coefficients == 1.0)

    def test_zero_probability_statement(self, space):
        # The Breast-Cancer rule: P(s1 | male) = 0.
        stmt = ConditionalProbability(
            given={"gender": "male"}, sa_value=S1, probability=0.0
        )
        system = compile_statements([stmt], space)
        assert system.n_equalities == 1
        assert system.equalities[0].rhs == 0.0


class TestDataStatementErrors:
    def test_unknown_attribute(self, space):
        stmt = ConditionalProbability(
            given={"zipcode": "13244"}, sa_value=S2, probability=0.5
        )
        with pytest.raises(CompilationError, match="not a QI attribute"):
            compile_statements([stmt], space)

    def test_absent_population(self, space):
        stmt = ConditionalProbability(
            given={"gender": "male", "degree": "junior"},
            sa_value=S2,
            probability=0.5,
        )
        with pytest.raises(CompilationError, match="matches no published record"):
            compile_statements([stmt], space)

    def test_structurally_impossible_positive_probability(self, space):
        # No bucket contains both q4=(female, junior) and Flu.
        stmt = ConditionalProbability(
            given={"gender": "female", "degree": "junior"},
            sa_value=S2,
            probability=0.5,
        )
        with pytest.raises(InfeasibleKnowledgeError):
            compile_statements([stmt], space)

    def test_zero_probability_on_empty_set_is_vacuous(self, space):
        stmt = ConditionalProbability(
            given={"gender": "female", "degree": "junior"},
            sa_value=S2,
            probability=0.0,
        )
        system = compile_statements([stmt], space)
        assert system.n_equalities == 0

    def test_unknown_sa_value_with_positive_probability(self, space):
        stmt = ConditionalProbability(
            given={"gender": "male"}, sa_value="Malaria", probability=0.2
        )
        with pytest.raises(InfeasibleKnowledgeError):
            compile_statements([stmt], space)


_UNKNOWN = {"zodiac": "leo"}


class TestErrorsNameTheirStatement:
    """Errors are prefixed with the failing statement's ``describe()``,
    and a list raises the error of its first failing statement."""

    @pytest.mark.parametrize(
        "stmt",
        [
            ConditionalProbability(given=_UNKNOWN, sa_value="Malaria", probability=0.2),
            JointProbability(given=_UNKNOWN, sa_value="Malaria", probability=0.0),
            JointProbability(given=_UNKNOWN, sa_value="Malaria", probability=0.2),
            ConditionalInterval(given=_UNKNOWN, sa_value="Malaria", low=0.1, high=0.3),
            Comparison(given=_UNKNOWN, more_likely="Malaria", less_likely=S2),
        ],
        ids=["conditional", "joint-zero", "joint", "interval", "comparison"],
    )
    def test_unknown_attribute_checked_before_sa_value(self, space, stmt):
        # The SA value is unknown too: the attribute must still be named.
        with pytest.raises(CompilationError, match="not a QI attribute") as caught:
            compile_statements([stmt], space)
        assert str(caught.value).startswith(f"{stmt.describe()}: 'zodiac'")

    def test_absent_population_names_statement(self, space):
        stmt = ConditionalProbability(
            given={"gender": "male", "degree": "junior"},
            sa_value=S2,
            probability=0.5,
        )
        with pytest.raises(CompilationError, match="matches no published record") as caught:
            compile_statements([stmt], space)
        assert str(caught.value).startswith(stmt.describe())

    VALID = ConditionalProbability(given={"gender": "male"}, sa_value=S2, probability=0.3)
    UNKNOWN_ATTRIBUTE = JointProbability(given=_UNKNOWN, sa_value=S2, probability=0.1)
    ABSENT = ConditionalInterval(
        given={"gender": "male", "degree": "junior"}, sa_value=S2, low=0.0, high=0.5
    )
    INFEASIBLE = ConditionalProbability(
        given={"gender": "female", "degree": "junior"}, sa_value=S2, probability=0.5
    )

    @pytest.mark.parametrize(
        "first, second, error, match",
        [
            (UNKNOWN_ATTRIBUTE, ABSENT, CompilationError, "not a QI attribute"),
            (ABSENT, UNKNOWN_ATTRIBUTE, CompilationError, "matches no published record"),
            (INFEASIBLE, UNKNOWN_ATTRIBUTE, InfeasibleKnowledgeError, "structurally empty"),
            (UNKNOWN_ATTRIBUTE, INFEASIBLE, CompilationError, "not a QI attribute"),
        ],
        ids=["unknown-then-absent", "absent-then-unknown",
             "infeasible-then-unknown", "unknown-then-infeasible"],
    )
    def test_first_failing_statement_raises(self, space, first, second, error, match):
        with pytest.raises(error, match=match) as caught:
            compile_statements([self.VALID, first, second], space)
        assert first.describe() in str(caught.value)
        assert second.describe() not in str(caught.value)

    def test_individual_error_precedes_later_unknown_attribute(
        self, space, person_space
    ):
        alice = person_space.pseudonym_table.assign(Q1)
        individual = IndividualProbability(person=alice, sa_value=S1, probability=0.2)
        statements = [self.VALID, individual, self.UNKNOWN_ATTRIBUTE]
        with pytest.raises(CompilationError, match="is about an individual"):
            compile_statements(statements, space)
        grace = person_space.pseudonym_table.assign(("female", "junior"))
        impossible = IndividualDisjunction(person=grace, sa_values=(S2,))
        with pytest.raises(InfeasibleKnowledgeError, match=grace.name):
            compile_statements(
                [self.VALID, impossible, self.UNKNOWN_ATTRIBUTE], person_space
            )


class TestJointAndInequality:
    def test_joint_probability_rhs_direct(self, space):
        stmt = JointProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.18
        )
        system = compile_statements([stmt], space)
        assert system.equalities[0].rhs == pytest.approx(0.18)

    def test_interval_two_rows(self, space):
        stmt = ConditionalInterval(
            given={"gender": "male"}, sa_value=S2, low=0.2, high=0.4
        )
        system = compile_statements([stmt], space)
        assert system.n_equalities == 0
        assert system.n_inequalities == 2
        upper, lower = system.inequalities
        assert upper.rhs == pytest.approx(0.4 * 0.6)
        # The lower bound row is negated: -sum <= -low * P(Qv).
        assert lower.rhs == pytest.approx(-0.2 * 0.6)
        assert np.all(lower.coefficients == -1.0)

    def test_interval_with_zero_low_single_row(self, space):
        stmt = ConditionalInterval(
            given={"gender": "male"}, sa_value=S2, low=0.0, high=0.4
        )
        system = compile_statements([stmt], space)
        assert system.n_inequalities == 1

    def test_comparison_mixed_signs(self, space):
        stmt = Comparison(
            given={"gender": "male"},
            more_likely=S2,
            less_likely=S4,
            margin=0.1,
        )
        system = compile_statements([stmt], space)
        assert system.n_inequalities == 1
        row = system.inequalities[0]
        assert row.rhs == pytest.approx(-0.1 * 0.6)
        assert set(np.unique(row.coefficients)) == {-1.0, 1.0}


class TestIndividualCompilation:
    def test_requires_person_space(self, space, person_space):
        alice = person_space.pseudonym_table.assign(Q1)
        stmt = IndividualProbability(person=alice, sa_value=S1, probability=0.2)
        with pytest.raises(CompilationError, match="individual"):
            compile_statements([stmt], space)

    def test_probability_rhs_is_p_over_n(self, person_space):
        alice = person_space.pseudonym_table.assign(Q1)
        stmt = IndividualProbability(person=alice, sa_value=S1, probability=0.2)
        system = compile_statements([stmt], person_space)
        assert system.equalities[0].rhs == pytest.approx(0.2 / 10)

    def test_disjunction_rhs_is_one_over_n(self, person_space):
        alice = person_space.pseudonym_table.assign(Q1)
        stmt = IndividualDisjunction(person=alice, sa_values=(S1, S4))
        system = compile_statements([stmt], person_space)
        assert system.equalities[0].rhs == pytest.approx(1 / 10)

    def test_group_count_rhs(self, person_space):
        table = person_space.pseudonym_table
        people = (table.by_name("i1"), table.by_name("i4"), table.by_name("i9"))
        stmt = GroupCount(persons=people, sa_value=S4, count=2)
        system = compile_statements([stmt], person_space)
        assert system.equalities[0].rhs == pytest.approx(2 / 10)

    def test_impossible_disjunction(self, person_space):
        # Grace (q4, bucket 2 only) can never have Flu: bucket 2 has no s2.
        table = person_space.pseudonym_table
        grace = table.assign(("female", "junior"))
        stmt = IndividualDisjunction(person=grace, sa_values=(S2,))
        with pytest.raises(InfeasibleKnowledgeError):
            compile_statements([stmt], person_space)

    def test_data_statement_on_person_space(self, person_space):
        stmt = ConditionalProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.3
        )
        system = compile_statements([stmt], person_space)
        assert system.n_equalities == 1
        assert system.equalities[0].rhs == pytest.approx(0.18)


# -- property suite: every compiled row against a brute-force oracle ---------

_TOL = 1e-12
_DISTRIBUTION = (
    ConditionalProbability, JointProbability, ConditionalInterval, Comparison,
)


@st.composite
def releases(draw):
    """A small anatomy or mondrian release over two or three QI attributes."""
    n_qi = draw(st.integers(2, 3))
    domains = [draw(st.integers(2, 3)) for _ in range(n_qi)]
    n_sa = draw(st.integers(2, 4))
    names = [f"a{j}" for j in range(n_qi)]
    schema = Schema(
        attributes=tuple(
            Attribute(name, tuple(f"v{i}" for i in range(size)))
            for name, size in zip(names, domains)
        )
        + (Attribute("s", tuple(f"s{i}" for i in range(n_sa))),),
        qi_attributes=tuple(names),
        sa_attribute="s",
    )
    records = [
        {
            **{
                name: f"v{draw(st.integers(0, size - 1))}"
                for name, size in zip(names, domains)
            },
            "s": f"s{draw(st.integers(0, n_sa - 1))}",
        }
        for _ in range(draw(st.integers(4, 16)))
    ]
    table = Table.from_records(schema, records)
    if draw(st.sampled_from(["anatomy", "mondrian"])) == "mondrian":
        return mondrian_anonymize(table, 2).to_buckets()
    try:
        return anatomize(table, l=2, exempt="auto", seed=draw(st.integers(0, 3)))
    except DiversityError:
        assume(False)


@st.composite
def compile_cases(draw, max_statements=4):
    """A release, a variable space and a statement list to compile on it.

    Antecedents come from a small pool, so they repeat; their values mix
    published values with domain values a generalized release lacks and a
    value absent everywhere, and now and then an attribute that is not a
    QI attribute.  SA values include one the release lacks.  A
    person space also gets individual statements, interleaved.
    """
    published = draw(releases())
    schema = published.schema
    qi_names = schema.qi_attributes
    published_values = [
        sorted({q[j] for q in published.qi_marginal()})
        for j in range(len(qi_names))
    ]
    # pick() takes a rare value one draw in eight, so most lists compile.
    rare_values = [
        list(schema.qi[j].domain) + ["absent"] for j in range(len(qi_names))
    ]
    sa_domain = list(schema.sa.domain)

    def pick(common, rare):
        return draw(st.sampled_from(rare if draw(st.integers(0, 7)) == 0 else common))

    def antecedent():
        subset = draw(
            st.lists(
                st.sampled_from(range(len(qi_names))),
                min_size=1, max_size=len(qi_names), unique=True,
            )
        )
        given = {
            qi_names[j]: pick(published_values[j], rare_values[j])
            for j in subset
        }
        if draw(st.integers(0, 15)) == 0:
            given["zodiac"] = "leo"
        return given

    pool = [antecedent() for _ in range(draw(st.integers(1, 4)))]
    probabilities = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])

    def distribution_statement():
        given = dict(draw(st.sampled_from(pool)))
        kind = draw(st.sampled_from(_DISTRIBUTION))
        if kind is Comparison:
            more, less = draw(st.permutations(sa_domain))[:2]
            if draw(st.integers(0, 7)) == 0:
                more = "Malaria"
            return Comparison(
                given=given, more_likely=more, less_likely=less,
                margin=draw(st.sampled_from([0.0, 0.05])),
            )
        sa_value = pick(sa_domain, ["Malaria"])
        if kind is ConditionalInterval:
            low, high = sorted(draw(probabilities) for _ in range(2))
            return ConditionalInterval(
                given=given, sa_value=sa_value, low=low, high=high
            )
        return kind(given=given, sa_value=sa_value, probability=draw(probabilities))

    if draw(st.booleans()):
        return published, GroupVariableSpace(published), [
            distribution_statement()
            for _ in range(draw(st.integers(1, max_statements)))
        ]

    pseudonyms = PseudonymTable(published)
    people = pseudonyms.pseudonyms

    def individual_statement():
        kind = draw(st.sampled_from(
            [IndividualProbability, IndividualDisjunction, GroupCount,
             GroupCountAtLeast, GroupCountAtMost]
        ))
        if kind is IndividualProbability:
            return kind(
                person=draw(st.sampled_from(people)),
                sa_value=pick(sa_domain, ["Malaria"]),
                probability=draw(probabilities),
            )
        if kind is IndividualDisjunction:
            return kind(
                person=draw(st.sampled_from(people)),
                sa_values=tuple(draw(st.lists(
                    st.sampled_from(sa_domain + ["Malaria"]), min_size=1,
                    max_size=2, unique=True,
                ))),
            )
        group = tuple(draw(st.lists(
            st.sampled_from(people), min_size=1, max_size=3, unique=True
        )))
        low = 0 if kind is GroupCountAtMost else 1
        return kind(
            persons=group,
            sa_value=pick(sa_domain, ["Malaria"]),
            count=draw(st.integers(low, len(group))),
        )

    statements = [
        distribution_statement() if draw(st.booleans()) else individual_statement()
        for _ in range(draw(st.integers(1, max_statements)))
    ]
    return published, PersonVariableSpace(pseudonyms), statements


def _scan(space, predicate):
    """Variables whose ``describe_var`` triple satisfies ``predicate``."""
    return np.array(
        [v for v in range(space.n_vars) if predicate(*space.describe_var(v))],
        dtype=np.int64,
    )


def _oracle(published, space, statements):
    """Expected ``(equalities, inequalities)`` rows, or the expected error
    type and the statement that raises it.

    ``P(Qv)`` is ``BucketizedTable.qv_count``; a summation set is a scan
    of every variable's ``describe_var``.
    """
    n = published.n_records
    position = {name: j for j, name in enumerate(published.schema.qi_attributes)}
    by_name = (
        {p.name: p for p in space.people}
        if isinstance(space, PersonVariableSpace) else None
    )

    def qi_of(owner):
        return by_name[owner].qi if by_name is not None else owner

    def summation_set(given, sa_value):
        return _scan(space, lambda owner, s, _b: s == sa_value and all(
            qi_of(owner)[position[k]] == v for k, v in given.items()
        ))

    def person_set(persons, values):
        return np.concatenate([
            _scan(space, lambda owner, s, _b, p=p, v=v: owner == p.name and s == v)
            for p in persons for v in values
        ])

    eq, ineq = [], []
    for stmt in statements:
        label = stmt.describe()
        if isinstance(stmt, _DISTRIBUTION):
            if not set(stmt.given) <= set(position):
                return CompilationError, stmt
            count = published.qv_count(stmt.given)
            if not isinstance(stmt, JointProbability) and count == 0:
                return CompilationError, stmt
            p_qv = count / n
        if isinstance(stmt, (ConditionalProbability, JointProbability)):
            indices = summation_set(stmt.given, stmt.sa_value)
            rhs = stmt.probability
            if isinstance(stmt, ConditionalProbability):
                rhs = stmt.probability * p_qv
            if indices.size == 0:
                if rhs > _TOL:
                    return InfeasibleKnowledgeError, stmt
                continue
            eq.append((indices, np.ones(indices.size), rhs, label))
        elif isinstance(stmt, ConditionalInterval):
            indices = summation_set(stmt.given, stmt.sa_value)
            if indices.size == 0:
                if stmt.low > _TOL:
                    return InfeasibleKnowledgeError, stmt
                continue
            ones = np.ones(indices.size)
            ineq.append((indices, ones, stmt.high * p_qv, f"{label} [upper]"))
            if stmt.low > 0.0:
                ineq.append(
                    (indices, -ones, -stmt.low * p_qv, f"{label} [lower]")
                )
        elif isinstance(stmt, Comparison):
            more = summation_set(stmt.given, stmt.more_likely)
            less = summation_set(stmt.given, stmt.less_likely)
            if more.size == 0 and less.size == 0:
                if stmt.margin > _TOL:
                    return InfeasibleKnowledgeError, stmt
                continue
            ineq.append((
                np.concatenate([less, more]),
                np.concatenate([np.ones(less.size), -np.ones(more.size)]),
                -stmt.margin * p_qv,
                label,
            ))
        elif isinstance(stmt, IndividualProbability):
            indices = person_set([stmt.person], [stmt.sa_value])
            if indices.size == 0:
                if stmt.probability / n > _TOL:
                    return InfeasibleKnowledgeError, stmt
                continue
            eq.append((indices, np.ones(indices.size), stmt.probability / n, label))
        elif isinstance(stmt, IndividualDisjunction):
            indices = person_set([stmt.person], stmt.sa_values)
            if indices.size == 0:
                return InfeasibleKnowledgeError, stmt
            eq.append((indices, np.ones(indices.size), 1.0 / n, label))
        else:
            indices = person_set(stmt.persons, [stmt.sa_value])
            rhs = stmt.count / n
            if indices.size == 0:
                if isinstance(stmt, GroupCountAtMost):
                    continue
                return InfeasibleKnowledgeError, stmt
            ones = np.ones(indices.size)
            if isinstance(stmt, GroupCount):
                eq.append((indices, ones, rhs, label))
            elif isinstance(stmt, GroupCountAtLeast):
                ineq.append((indices, -ones, -rhs, label))
            else:
                ineq.append((indices, ones, rhs, label))
    return eq, ineq


def _assert_rows(rows, expected):
    assert len(rows) == len(expected)
    for row, (indices, coefficients, rhs, label) in zip(rows, expected):
        assert row.label == label
        assert row.kind == "bk"
        np.testing.assert_array_equal(row.indices, indices)
        np.testing.assert_array_equal(row.coefficients, coefficients)
        assert row.rhs == rhs


class TestCompilerOracle:
    @given(case=compile_cases())
    @settings(
        deadline=None, max_examples=200,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_rows_match_brute_force(self, case):
        published, space, statements = case
        expected = _oracle(published, space, statements)
        if isinstance(expected[0], type):
            error, failing = expected
            with pytest.raises(error) as caught:
                compile_statements(statements, space)
            assert failing.describe() in str(caught.value)
            return
        system = compile_statements(statements, space)
        _assert_rows(system.equalities, expected[0])
        _assert_rows(system.inequalities, expected[1])


# -- the batched compiler against the per-statement compiler -----------------


def _outcome(compile_, statements, space):
    try:
        return compile_(statements, space)
    except ReproError as error:
        return error


def assert_same_compile(statements, space):
    """``compile_statements`` equals the per-statement compiler bit for
    bit: CSR arrays, rhs and kind codes (bytes and dtype) and labels, or
    the same error type and message."""
    batched = _outcome(compile_statements, statements, space)
    expected = _outcome(compile_statements_per_statement, statements, space)
    if isinstance(expected, ReproError):
        assert type(batched) is type(expected)
        assert str(batched) == str(expected)
        return
    assert not isinstance(batched, ReproError), batched
    for family in ("equality_arrays", "inequality_arrays"):
        new, old = getattr(batched, family)(), getattr(expected, family)()
        for name in ("indptr", "indices", "coefficients", "rhs", "kind_codes"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype, (family, name)
            assert a.tobytes() == b.tobytes(), (family, name)
        assert list(new.labels) == list(old.labels)


class TestBatchedCompilerOracle:
    """The batched compiler against the per-statement one, on lists that
    mix the four distribution kinds (interval ``low = 0``, zero
    probabilities on empty sets, SA values the release lacks, unknown
    attributes, absent antecedents) and, on person spaces, individual
    statements on either side of a failing data statement."""

    @given(case=compile_cases(max_statements=12))
    @settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_long_lists(self, case):
        _, space, statements = case
        assert_same_compile(statements, space)

    @given(case=compile_cases())
    @settings(
        deadline=None, max_examples=200,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_short_lists(self, case):
        _, space, statements = case
        assert_same_compile(statements, space)

    def test_individuals_around_a_failing_statement(self, space, person_space):
        table = person_space.pseudonym_table
        alice = table.assign(Q1)
        grace = table.assign(("female", "junior"))
        fine = IndividualProbability(person=alice, sa_value=S1, probability=0.2)
        at_least = GroupCountAtLeast(persons=(alice,), sa_value=S1, count=1)
        impossible = IndividualDisjunction(person=grace, sa_values=(S2,))
        failing = ConditionalProbability(
            given={"gender": "female", "degree": "junior"}, sa_value=S2, probability=0.5
        )
        interval = ConditionalInterval(
            given={"gender": "male"}, sa_value=S2, low=0.1, high=0.4
        )
        valid = ConditionalProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.3
        )
        for statements in (
            [valid, fine, interval, at_least, valid],
            [fine, failing, impossible],
            [impossible, failing, fine],
            [at_least, interval, failing],
        ):
            assert_same_compile(statements, person_space)
        assert_same_compile([valid, fine], space)
        assert_same_compile([valid, "not a statement", failing], space)
        assert_same_compile([failing, "not a statement"], space)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_many_small_input(self, seed):
        release = build_synthetic_release(
            3000, qi_domain_sizes=(60, 50, 40, 30), n_sa_values=6, l=5, seed=seed
        )
        assert_same_compile(
            per_bucket_statements(release), GroupVariableSpace(release)
        )
