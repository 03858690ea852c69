"""Unit tests for the constraint presolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleKnowledgeError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.presolve import presolve, presolve_stack
from tests.helpers import stack_systems


def presolve_blocks(systems):
    """Presolve ``systems`` once, as the blocks of one component stack."""
    return presolve_stack(stack_systems(systems), range(len(systems)))


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


class TestAdultNegativeRules:
    def test_negative_heavy_knowledge_is_presolved(self):
        """Confidence-1 negative rules compile to zero rows whose
        variables presolve eliminates outright, so a negative-heavy
        Top-(K+, K-) bound on Adult leaves variables fixed."""
        from repro.core.privacy_maxent import PrivacyMaxEnt
        from repro.experiments.workloads import build_adult_workload
        from repro.knowledge.bounds import TopKBound
        from repro.maxent.config import MaxEntConfig

        workload = build_adult_workload(n_records=400, max_antecedent=2)
        solution = PrivacyMaxEnt(
            workload.published,
            knowledge=TopKBound(10, 30).statements(workload.rules),
            config=MaxEntConfig(raise_on_infeasible=False),
        ).solve()
        assert solution.stats.presolve_fixed > 0


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


def build_system(n_vars, rows, prefix=""):
    system = ConstraintSystem(n_vars)
    for position, (family, indices, coefficients, rhs, kind) in enumerate(rows):
        add = system.add_equality if family == "eq" else system.add_inequality
        add(indices, coefficients, rhs, kind=kind, label=f"{prefix}row{position}")
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
        with pytest.raises(InfeasibleKnowledgeError):
            presolve(build_system(p_star.size, plant_contradiction(case, data)))


def plant_contradiction(case, data):
    """``case``'s rows with one contradiction planted among them."""
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
    return rows[:position] + [bad] + rows[position:]


def split_block(stack, systems, k):
    """Block ``k`` of a stacked presolve, in :class:`PresolveResult` terms."""
    offset = int(stack.var_indptr[k])
    fixed = slice(stack.fixed_indptr[k], stack.fixed_indptr[k + 1])
    free = slice(stack.free_indptr[k], stack.free_indptr[k + 1])
    lo, hi = stack.row_indptr[k], stack.row_indptr[k + 1]
    row_offset = sum(s.n_equalities + s.n_inequalities for s in systems[:k])
    system = systems[k]
    labels = system.equality_arrays().labels + system.inequality_arrays().labels
    kinds = system.equality_arrays().kinds() + system.inequality_arrays().kinds()
    local_rows = (stack.kept_rows[lo:hi] - row_offset).tolist()
    start, stop = stack.indptr[lo], stack.indptr[hi]
    return {
        "fixed": list(zip(
            (stack.fixed_vars[fixed] - offset).tolist(),
            stack.fixed_values[fixed].tolist(),
        )),
        "mass_removed": stack.mass_removed[k],
        "free_vars": (stack.free_vars[free] - offset).tolist(),
        "n_equalities": int(stack.n_equalities[k]),
        "rows": [(labels[r], kinds[r]) for r in local_rows],
        "indptr": (stack.indptr[lo : hi + 1] - start).tolist(),
        "indices": (stack.indices[start:stop] - stack.free_indptr[k]).tolist(),
        "coefficients": stack.coefficients[start:stop].tobytes(),
        "rhs": stack.rhs[lo:hi].tobytes(),
        "restored": stack.lift(np.zeros(stack.free_vars.size))[
            offset : stack.var_indptr[k + 1]
        ].tobytes(),
    }


def per_block(result):
    """The same view of one block's own :func:`presolve`."""
    eq = result.system.equality_arrays()
    ineq = result.system.inequality_arrays()
    return {
        "fixed": list(result.fixed_values.items()),
        "mass_removed": result.mass_removed,
        "free_vars": result.free_vars.tolist(),
        "n_equalities": eq.n_rows,
        "rows": list(zip(eq.labels + ineq.labels, eq.kinds() + ineq.kinds())),
        "indptr": np.concatenate(
            (eq.indptr, ineq.indptr[1:] + eq.indptr[-1])
        ).tolist(),
        "indices": np.concatenate((eq.indices, ineq.indices)).tolist(),
        "coefficients": np.concatenate(
            (eq.coefficients, ineq.coefficients)
        ).tobytes(),
        "rhs": np.concatenate((eq.rhs, ineq.rhs)).tobytes(),
        "restored": result.restore(np.zeros(result.n_free)).tobytes(),
    }


class TestStackedPresolve:
    """Presolving a block-diagonal stack once equals presolving each block."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(feasible_systems(), min_size=2, max_size=6))
    def test_split_equals_per_block_bit_for_bit(self, cases):
        systems = [
            build_system(p_star.size, rows, prefix=f"b{k}.")
            for k, (p_star, rows) in enumerate(cases)
        ]
        stack = presolve_blocks(systems)
        for k, system in enumerate(systems):
            assert split_block(stack, systems, k) == per_block(presolve(system))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(feasible_systems(), min_size=2, max_size=6), st.data())
    def test_one_contradictory_block_raises_its_own_message(self, cases, data):
        bad = data.draw(st.integers(0, len(cases) - 1))
        systems = [
            build_system(
                p_star.size,
                plant_contradiction((p_star, rows), data) if k == bad else rows,
                prefix=f"b{k}.",
            )
            for k, (p_star, rows) in enumerate(cases)
        ]
        with pytest.raises(InfeasibleKnowledgeError) as own:
            presolve(systems[bad])
        with pytest.raises(InfeasibleKnowledgeError) as stacked:
            presolve_blocks(systems)
        assert str(stacked.value) == str(own.value)

    def test_mass_removed_is_each_blocks_sequential_sum(self):
        # Twelve pins whose left-to-right float sum differs from numpy's
        # pairwise one: the stack must add them the way presolve does.
        values = [0.01 * k + 0.003 for k in range(1, 13)]
        assert sum(values) != float(np.sum(values))
        pinned = system_of(13, [([k], [1.0], v) for k, v in enumerate(values)])
        clean = system_of(3, [([0, 1, 2], [1.0] * 3, 0.5)])
        stack = presolve_blocks([clean, pinned, clean])
        assert stack.mass_removed == [0.0, presolve(pinned).mass_removed, 0.0]
        assert stack.mass_removed[1] == sum(values)

    def test_conflicting_fix_names_the_block_local_variable(self):
        clean = system_of(4, [([0, 1, 2, 3], [1.0] * 4, 1.0)])
        bad = system_of(3, [([2], [1.0], 0.2), ([2], [2.0], 0.6)])
        with pytest.raises(InfeasibleKnowledgeError) as own:
            presolve(bad)
        assert "forces variable 2 " in str(own.value)
        with pytest.raises(InfeasibleKnowledgeError) as stacked:
            presolve_blocks([clean, clean, bad])
        assert str(stacked.value) == str(own.value)
