"""Unit tests for the constraint presolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleKnowledgeError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.presolve import presolve


def system_of(n_vars, equalities=(), inequalities=()):
    system = ConstraintSystem(n_vars)
    for indices, coefficients, rhs in equalities:
        system.add_equality(indices, coefficients, rhs, kind="bk")
    for indices, coefficients, rhs in inequalities:
        system.add_inequality(indices, coefficients, rhs, kind="bk")
    return system


class TestFixing:
    def test_single_variable_row_fixes(self):
        result = presolve(system_of(3, [([0], [1.0], 0.25)]))
        assert result.fixed_values == {0: 0.25}
        assert list(result.free_vars) == [1, 2]
        assert result.system.n_equalities == 0

    def test_zero_rhs_positive_row_fixes_all(self):
        result = presolve(system_of(3, [([0, 1], [1.0, 1.0], 0.0)]))
        assert result.fixed_values == {0: 0.0, 1: 0.0}

    def test_cascade(self):
        # Row 1 fixes x0; substituting into row 2 makes it single-variable.
        result = presolve(
            system_of(
                3,
                [
                    ([0], [1.0], 0.2),
                    ([0, 1], [1.0, 1.0], 0.5),
                ],
            )
        )
        assert result.fixed_values[0] == pytest.approx(0.2)
        assert result.fixed_values[1] == pytest.approx(0.3)

    def test_restore(self):
        result = presolve(system_of(3, [([1], [2.0], 0.5)]))
        full = result.restore(np.array([0.1, 0.2]))
        assert full.tolist() == [0.1, 0.25, 0.2]

    def test_restore_shape_checked(self):
        result = presolve(system_of(3, [([1], [1.0], 0.5)]))
        with pytest.raises(ValueError):
            result.restore(np.zeros(5))

    def test_mass_removed(self):
        result = presolve(system_of(3, [([0], [1.0], 0.25)]))
        assert result.mass_removed == pytest.approx(0.25)


class TestInfeasibility:
    """Every infeasibility presolve reports names the offending row."""

    def test_contradictory_fixes(self):
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[1\]"):
            presolve(
                system_of(2, [([0], [1.0], 0.2), ([0], [1.0], 0.4)])
            )

    def test_negative_forced_value(self):
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[0\]"):
            presolve(system_of(2, [([0], [1.0], -0.2)]))

    def test_value_above_one(self):
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[0\]"):
            presolve(system_of(2, [([0], [1.0], 1.5)]))

    def test_empty_row_nonzero_rhs(self):
        # x0 = 0.2 substituted into (x0 = 0.5-with-no-other-vars).
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[1\]"):
            presolve(
                system_of(
                    2, [([0], [1.0], 0.2), ([0], [2.0], 1.0)]
                )
            )

    def test_pins_conflict_across_rows(self):
        # Two pins of x1 in one round, with different coefficients.
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[2\]"):
            presolve(
                system_of(
                    3,
                    [
                        ([0, 2], [1.0, 1.0], 0.5),
                        ([1], [1.0], 0.1),
                        ([1], [2.0], 0.6),
                    ],
                )
            )

    def test_row_emptied_by_substitution(self):
        with pytest.raises(
            InfeasibleKnowledgeError, match=r"'bk\[2\]' reduces to 0 ="
        ):
            presolve(
                system_of(
                    2,
                    [
                        ([0], [1.0], 0.2),
                        ([1], [1.0], 0.3),
                        ([0, 1], [1.0, 1.0], 0.9),
                    ],
                )
            )

    def test_duplicate_rows_conflicting(self):
        with pytest.raises(InfeasibleKnowledgeError, match=r"bk\[1\]"):
            presolve(
                system_of(
                    3,
                    [
                        ([0, 1], [1.0, 1.0], 0.5),
                        ([0, 1], [1.0, 1.0], 0.7),
                    ],
                )
            )

    def test_inequality_infeasible_after_substitution(self):
        # x0 fixed to 0.5; inequality x0 <= 0.1 becomes 0 <= -0.4.
        with pytest.raises(
            InfeasibleKnowledgeError, match=r"'bk\[0\]' reduces to 0 <="
        ):
            presolve(
                system_of(
                    2,
                    [([0], [1.0], 0.5)],
                    [([0], [1.0], 0.1)],
                )
            )

    def test_nonnegative_sum_bounded_below_zero(self):
        with pytest.raises(
            InfeasibleKnowledgeError, match=r"'bk\[1\]' bounds a non-negative"
        ):
            presolve(
                system_of(
                    3,
                    [],
                    [
                        ([0, 1], [1.0, -1.0], 0.5),
                        ([1, 2], [1.0, 2.0], -0.1),
                    ],
                )
            )


class TestReduction:
    def test_duplicate_rows_deduped(self):
        result = presolve(
            system_of(
                3,
                [
                    ([0, 1], [1.0, 1.0], 0.5),
                    ([0, 1], [1.0, 1.0], 0.5),
                ],
            )
        )
        assert result.system.n_equalities == 1

    def test_rows_reindexed(self):
        result = presolve(
            system_of(
                4,
                [
                    ([1], [1.0], 0.25),
                    ([1, 2, 3], [1.0, 1.0, 1.0], 0.75),
                ],
            )
        )
        assert list(result.free_vars) == [0, 2, 3]
        row = result.system.equalities[0]
        # Variables 2, 3 became reduced indices 1, 2.
        assert sorted(row.indices.tolist()) == [1, 2]
        assert row.rhs == pytest.approx(0.5)

    def test_inequality_substitution(self):
        result = presolve(
            system_of(
                3,
                [([0], [1.0], 0.2)],
                [([0, 1], [1.0, 1.0], 0.5)],
            )
        )
        row = result.system.inequalities[0]
        assert row.rhs == pytest.approx(0.3)

    def test_zero_rhs_positive_inequality_fixes(self):
        result = presolve(system_of(3, [], [([0, 1], [1.0, 1.0], 0.0)]))
        assert result.fixed_values == {0: 0.0, 1: 0.0}

    def test_no_op_on_clean_system(self):
        system = system_of(3, [([0, 1, 2], [1.0, 1.0, 1.0], 1.0)])
        result = presolve(system)
        assert result.fixed_values == {}
        assert result.system.n_equalities == 1
        assert result.n_free == 3


class TestPaperDeduction:
    """Presolve alone reproduces the breast-cancer chain of Section 3.1.

    With P(s1 | q2) = 0 and P(s1 or s2 | q3) = 0 known, the paper deduces
    that in bucket 1 q3 maps to s3, q2 maps to s2, and the q1 records take
    s1 and s2.  Those zero rules pin enough variables that presolve fixes
    bucket 1 almost completely.
    """

    def test_zero_rules_cascade(self):
        from repro.data.paper_example import (
            Q2,
            Q3,
            S1,
            S2,
            S3,
            paper_published,
        )
        from repro.knowledge.compiler import compile_statements
        from repro.knowledge.statements import ConditionalProbability
        from repro.maxent.constraints import data_constraints
        from repro.maxent.indexing import GroupVariableSpace

        space = GroupVariableSpace(paper_published())
        system = data_constraints(space)
        knowledge = compile_statements(
            [
                ConditionalProbability(
                    given={"gender": "female", "degree": "college"},
                    sa_value=S1,
                    probability=0.0,
                ),
                ConditionalProbability(
                    given={"gender": "male", "degree": "high school"},
                    sa_value=S1,
                    probability=0.0,
                ),
                ConditionalProbability(
                    given={"gender": "male", "degree": "high school"},
                    sa_value=S2,
                    probability=0.0,
                ),
            ],
            space,
        )
        system.extend(knowledge)
        result = presolve(system)
        # q3 -> s3 in bucket 1: P(q3, s3, 1) forced to 1/10.
        var = space.index_of(Q3, S3, 0)
        assert result.fixed_values.get(var) == pytest.approx(0.1)
        # q2 -> s2 in bucket 1: P(q2, s2, 1) forced to 1/10.
        var = space.index_of(Q2, S2, 0)
        assert result.fixed_values.get(var) == pytest.approx(0.1)


# -- fixed-point properties (hypothesis) ---------------------------------------
#
# Systems are built around a known feasible point ``p*``: every row holds
# at ``p*``, so every value presolve deduces must be ``p*``'s, and ``p*``
# restricted to the free variables must satisfy the reduced system.
# Non-zero entries of ``p*`` are at least 0.01 and coefficients at least
# 0.25 in magnitude, so no genuine right-hand side is mistaken for a
# round-off zero.

_VALUES = (0.0, 0.0, 0.01, 0.02, 0.05, 0.1, 0.125, 0.2, 0.25)
_COEFFICIENTS = (1.0, 1.0, 2.0, 0.5, -1.0, -0.25)
_SHAPES = ("pin", "sum", "sum", "zero", "cascade", "dup", "ineq", "ineq_zero")


@st.composite
def feasible_systems(draw):
    """``(p*, rows)`` with rows ``(family, indices, coefficients, rhs, kind)``.

    Shapes: single-variable pins, general rows (which cascade once their
    other variables are pinned), one-sign zero-rhs rows over ``p*``'s
    zeros, a pin plus a one-sign row over the pinned variable and some of
    ``p*``'s zeros (whose rhs substitution takes to zero), duplicates of
    earlier equalities, slack inequalities and all-positive inequalities
    with rhs 0.
    """
    n_vars = draw(st.integers(2, 10))
    p_star = np.array(
        draw(st.lists(st.sampled_from(_VALUES), min_size=n_vars, max_size=n_vars))
    )
    zeros = [int(v) for v in np.nonzero(p_star == 0.0)[0]]
    variables = st.lists(
        st.integers(0, n_vars - 1), min_size=1, max_size=n_vars, unique=True
    )
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        shape = draw(st.sampled_from(_SHAPES))
        kind = draw(st.sampled_from(("qi", "sa", "bk")))
        equalities = [row for row in rows if row[0] == "eq"]
        if shape == "dup" and equalities:
            _, indices, coefficients, rhs, _ = draw(st.sampled_from(equalities))
            rows.append(("eq", indices, coefficients, rhs, kind))
            continue
        if shape in ("zero", "ineq_zero") and zeros:
            indices = draw(st.lists(st.sampled_from(zeros), min_size=1, unique=True))
            sign = 1.0 if shape == "ineq_zero" else draw(st.sampled_from((1.0, -1.0)))
            coefficients = [sign * draw(st.sampled_from((1.0, 2.0, 0.5)))
                            for _ in indices]
            family = "ineq" if shape == "ineq_zero" else "eq"
            rows.append((family, indices, coefficients, 0.0, kind))
            continue
        if shape == "cascade" and zeros:
            pinned = draw(st.integers(0, n_vars - 1))
            rows.append(("eq", [pinned], [1.0], float(p_star[pinned]), kind))
            others = draw(st.lists(st.sampled_from(zeros), min_size=1, unique=True))
            indices = [pinned] + [v for v in others if v != pinned]
            rhs = 2.0 * float(p_star[pinned])
            rows.append(("eq", indices, [2.0] * len(indices), rhs, kind))
            continue
        if shape == "pin":
            indices = [draw(st.integers(0, n_vars - 1))]
        else:
            indices = draw(variables)
        coefficients = [draw(st.sampled_from(_COEFFICIENTS)) for _ in indices]
        rhs = float(np.dot(coefficients, p_star[indices]))
        if shape == "ineq":
            rhs += draw(st.sampled_from((0.0, 0.05)))
            rows.append(("ineq", indices, coefficients, rhs, kind))
        else:
            rows.append(("eq", indices, coefficients, rhs, kind))
    return p_star, rows


def build_system(n_vars, rows):
    system = ConstraintSystem(n_vars)
    for position, (family, indices, coefficients, rhs, kind) in enumerate(rows):
        add = system.add_equality if family == "eq" else system.add_inequality
        add(indices, coefficients, rhs, kind=kind, label=f"row{position}")
    return system


def is_subsequence(part, whole) -> bool:
    remaining = iter(whole)
    return all(any(item == candidate for candidate in remaining) for item in part)


class TestFixedPointProperties:
    @settings(max_examples=300, deadline=None)
    @given(feasible_systems())
    def test_reduction_is_sound_and_final(self, case):
        p_star, rows = case
        system = build_system(p_star.size, rows)
        result = presolve(system)

        for var, value in result.fixed_values.items():
            assert abs(value - p_star[var]) <= 1e-12
        assert sorted(result.fixed_values) == sorted(
            set(range(p_star.size)) - set(result.free_vars.tolist())
        )
        assert result.system.residual(p_star[result.free_vars]) <= 1e-9

        again = presolve(result.system)
        assert again.fixed_values == {}
        assert again.system.n_equalities == result.system.n_equalities
        assert again.system.n_inequalities == result.system.n_inequalities

        for before, after in (
            (system.equalities, result.system.equalities),
            (system.inequalities, result.system.inequalities),
        ):
            assert is_subsequence(
                [(row.label, row.kind) for row in after],
                [(row.label, row.kind) for row in before],
            )

    @settings(max_examples=200, deadline=None)
    @given(feasible_systems(), st.data())
    def test_planted_contradiction_raises(self, case, data):
        p_star, rows = case
        n_vars = p_star.size
        zeros = [int(v) for v in np.nonzero(p_star == 0.0)[0]]
        equalities = [row for row in rows if row[0] == "eq" and len(row[1]) > 0]
        plants = ["out_of_range", "conflicting_pin"]
        if equalities:
            plants.append("shifted_duplicate")
        if zeros:
            plants.append("negative_bound")
        plant = data.draw(st.sampled_from(plants))
        var = data.draw(st.integers(0, n_vars - 1))
        if plant == "out_of_range":
            bad = ("eq", [var], [1.0], data.draw(st.sampled_from((-0.5, 1.5))), "bk")
        elif plant == "conflicting_pin":
            rows = rows + [("eq", [var], [1.0], float(p_star[var]), "bk")]
            bad = ("eq", [var], [2.0], 2.0 * float(p_star[var]) + 0.2, "bk")
        elif plant == "shifted_duplicate":
            _, indices, coefficients, rhs, _ = data.draw(st.sampled_from(equalities))
            bad = ("eq", indices, coefficients, rhs + 0.3, "bk")
        else:
            indices = data.draw(st.lists(st.sampled_from(zeros), min_size=1, unique=True))
            bad = ("ineq", indices, [1.0] * len(indices), -0.1, "bk")
        position = data.draw(st.integers(0, len(rows)))
        planted = rows[:position] + [bad] + rows[position:]
        with pytest.raises(InfeasibleKnowledgeError):
            presolve(build_system(n_vars, planted))
