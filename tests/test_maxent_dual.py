"""Direct unit tests for the dual machinery (repro.maxent.dual)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.maxent.batch_dual import solve_batch_dual
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.dual import StackedDual, build_dual
from repro.maxent.lbfgs import solve_dual_lbfgs
from tests.legacy import (
    build_dual_problem,
    solve_dual_problem,
    stack_duals,
)


def simple_system():
    """Two variables, one constraint: p0 + p1 = 1 with p0 = 0.3 target."""
    system = ConstraintSystem(2)
    system.add_equality([0, 1], [1.0, 1.0], 1.0, kind="qi")
    system.add_equality([0], [1.0], 0.3, kind="bk")
    return system


def evaluator(system, mass):
    """The evaluation surface of ``system``'s one-block dual."""
    return StackedDual(build_dual(system, mass))


class TestBuildDual:
    def test_shapes(self):
        dual = build_dual(simple_system(), 1.0)
        assert dual.n_blocks == 1
        assert dual.row_counts.tolist() == [2]
        assert dual.var_counts.tolist() == [2]
        assert dual.n_equalities.tolist() == [2]
        assert not dual.inequality_rows().any()
        assert StackedDual(dual).n_params == 2

    def test_rejects_non_positive_mass(self):
        with pytest.raises(ReproError):
            build_dual(simple_system(), 0.0)

    def test_bounds_for_inequalities(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = evaluator(system, 1.0)
        assert dual.bounds.lb.tolist() == [-np.inf, -np.inf, 0.0]
        assert dual.bounds.ub.tolist() == [np.inf] * 3
        assert evaluator(simple_system(), 1.0).bounds is None


class TestEvaluation:
    def test_primal_at_zero_is_uniform(self):
        dual = evaluator(simple_system(), 1.0)
        p = dual.primal(np.zeros(2))
        assert np.allclose(p, [0.5, 0.5])

    def test_primal_mass_preserved_at_any_multiplier(self):
        dual = evaluator(simple_system(), 0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = dual.primal(rng.standard_normal(2) * 3)
            assert p.sum() == pytest.approx(0.7)
            assert p.min() >= 0

    def test_gradient_is_negated_residual(self):
        dual = evaluator(simple_system(), 1.0)
        x = np.array([0.4, -0.2])
        _value, grad = dual.value_and_grad(x)
        p = dual.primal(x)
        expected = dual.rhs - dual.matrix @ p
        assert np.allclose(grad, expected)

    def test_gradient_matches_finite_differences(self):
        dual = evaluator(simple_system(), 1.0)
        x = np.array([0.1, 0.5])
        value, grad = dual.value_and_grad(x)
        eps = 1e-7
        for i in range(2):
            shifted = x.copy()
            shifted[i] += eps
            value_plus, _ = dual.value_and_grad(shifted)
            assert (value_plus - value) / eps == pytest.approx(
                grad[i], abs=1e-4
            )

    def test_convexity_along_random_segments(self):
        dual = evaluator(simple_system(), 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            fa, _ = dual.value_and_grad(a)
            fb, _ = dual.value_and_grad(b)
            mid, _ = dual.value_and_grad((a + b) / 2)
            assert mid <= (fa + fb) / 2 + 1e-10

    def test_overflow_safe(self):
        dual = evaluator(simple_system(), 1.0)
        value, grad = dual.value_and_grad(np.array([1e4, -1e4]))
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestResiduals:
    def test_residuals_at_feasible_point(self):
        dual = evaluator(simple_system(), 1.0)
        p = np.array([0.3, 0.7])
        eq_res, ineq_res = dual.block_residuals(p)
        assert eq_res[0] == pytest.approx(0.0)
        assert ineq_res[0] == 0.0

    def test_inequality_residual_only_counts_excess(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = evaluator(system, 1.0)
        ok = np.array([0.3, 0.7])
        _eq, ineq = dual.block_residuals(ok)
        assert ineq[0] == 0.0  # 0.7 <= 0.8: satisfied, no penalty
        bad = np.array([0.1, 0.9])
        _eq, ineq = dual.block_residuals(bad)
        assert ineq[0] == pytest.approx(0.1)

    def test_residual_scale_positive(self):
        dual = evaluator(simple_system(), 1.0)
        assert dual.scales.tolist()[0] > 0


# -- the transpose built once ------------------------------------------------


@st.composite
def random_systems(draw, min_rows: int = 0):
    """A random system; some columns may be in no row at all."""
    n_vars = draw(st.integers(1, 8))
    system = ConstraintSystem(n_vars)
    coefficient = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda c: c != 0.0)
    for _ in range(draw(st.integers(min_rows, 6))):
        indices = draw(
            st.lists(st.integers(0, n_vars - 1), min_size=1, max_size=n_vars, unique=True)
        )
        coefficients = [draw(coefficient) for _ in indices]
        rhs = draw(st.floats(-2.0, 2.0, allow_nan=False))
        if draw(st.booleans()):
            system.add_equality(indices, coefficients, rhs, kind="bk")
        else:
            system.add_inequality(indices, coefficients, rhs, kind="bk")
    return system


def _with_csc_transpose(surface):
    """``surface`` evaluated through a fresh ``matrix.T`` (a CSC view)."""
    reference = copy.copy(surface)
    reference.transpose = surface.matrix.T
    return reference


def _assert_bitwise_equal(surface, x: np.ndarray, v: np.ndarray) -> None:
    reference = _with_csc_transpose(surface)
    value, grad = surface.value_and_grad(x)
    ref_value, ref_grad = reference.value_and_grad(x)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert surface.primal(x).tobytes() == reference.primal(x).tobytes()
    assert surface.hess_vec(x, v).tobytes() == reference.hess_vec(x, v).tobytes()


class TestTransposeOnce:
    """Evaluations read the CSR transpose built with the evaluator; each
    must be bitwise equal to the same evaluation through ``matrix.T @ x``."""

    @given(
        system=random_systems(),
        mass=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_dual_problem_is_bitwise_the_csc_form(self, system, mass, seed):
        dual = evaluator(system, mass)
        assert dual.transpose.format == "csr"
        rng = np.random.default_rng(seed)
        x = 3.0 * rng.standard_normal(dual.n_params)
        v = rng.standard_normal(dual.n_params)
        _assert_bitwise_equal(dual, x, v)

    @given(
        systems=st.lists(random_systems(), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stacks_are_bitwise_the_csc_form(self, systems, seed):
        # Blocks with no rows at all (the ConstraintSystem of a fully
        # presolved component) sit between ordinary ones.
        rng = np.random.default_rng(seed)
        duals = [build_dual(s, float(rng.uniform(0.1, 2.0))) for s in systems]
        stack = stack_duals(duals)
        x = 3.0 * rng.standard_normal(stack.rhs.size)
        v = rng.standard_normal(stack.rhs.size)
        _assert_bitwise_equal(StackedDual(stack), x, v)
        for k in range(stack.n_blocks):
            block = StackedDual(stack.select(np.arange(stack.n_blocks) == k))
            lo, hi = stack.row_indptr[k], stack.row_indptr[k + 1]
            _assert_bitwise_equal(block, x[lo:hi], v[lo:hi])

    def test_a_solve_builds_no_transpose_after_assembly(self, monkeypatch):
        system = ConstraintSystem(12)
        system.add_equality(list(range(12)), [1.0] * 12, 1.0, kind="qi")
        for k in range(11, 1, -2):
            system.add_equality(list(range(k)), [1.0] * k, 0.6 ** (12 - k), kind="bk")
        system.add_inequality([0, 1], [1.0, 1.0], 0.05, kind="bk")
        dual = build_dual(system, 1.0)
        stack = stack_duals([dual, build_dual(ConstraintSystem(3), 0.5), dual])

        surface = StackedDual(dual)
        transposes = []
        for matrix_type in {type(surface.matrix), type(surface.transpose)}:
            owner = next(c for c in matrix_type.__mro__ if "transpose" in vars(c))
            original = owner.transpose

            def spy(self, *args, _original=original, **kwargs):
                transposes.append(self.shape)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "transpose", spy)
        # Count the evaluators the ladder and the batch loop assemble,
        # and their evaluations.
        evaluations = []
        real_value_and_grad = StackedDual.value_and_grad
        builds = []
        real_init = StackedDual.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            real_init(self, *args, **kwargs)

        def counting_value_and_grad(self, x):
            evaluations.append(1)
            return real_value_and_grad(self, x)

        monkeypatch.setattr(StackedDual, "__init__", counting_init)
        monkeypatch.setattr(StackedDual, "value_and_grad", counting_value_and_grad)

        solo = solve_dual_lbfgs(dual, tol=1e-9)
        assert solo.iterations > 0
        # The ladder assembles its dual once, for every leg.
        assert len(builds) == len(transposes) == 1
        assert len(evaluations) > 1

        batch = solve_batch_dual(stack, tol=1e-9)
        assert all(batch.batched)
        # One transpose per stacked dual the loop assembles, none per
        # evaluation.
        assert len(transposes) == len(builds) > 1
        assert len(evaluations) > len(builds)


@st.composite
def feasible_systems(draw, inequalities: bool):
    """A system some point satisfies, with or without inequalities.

    Rows are random sums over a few variables; equality right-hand sides
    are their values at a random positive point, and inequality bounds
    sit a random slack above theirs (so some bind at the optimum and
    some do not).
    """
    n_vars = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = rng.dirichlet(np.ones(n_vars))
    system = ConstraintSystem(n_vars)
    system.add_equality(list(range(n_vars)), [1.0] * n_vars, 1.0, kind="qi")
    for _ in range(draw(st.integers(0, 5))):
        size = int(rng.integers(1, n_vars + 1))
        indices = sorted(rng.choice(n_vars, size=size, replace=False).tolist())
        coefficients = rng.uniform(0.2, 2.0, size=size)
        value = float(coefficients @ point[indices])
        if inequalities and rng.random() < 0.5:
            slack = float(rng.choice([0.0, 0.01, 0.2]))
            system.add_inequality(
                indices, coefficients.tolist(), value + slack, kind="bk"
            )
        else:
            system.add_equality(indices, coefficients.tolist(), value, kind="bk")
    return system


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestLoneDualOracle:
    """A one-block stack is the lone-component dual, bit for bit.

    The oracle is the dual class and L-BFGS ladder frozen in
    ``tests/legacy.py`` (:class:`~tests.legacy.DualProblem`,
    :func:`~tests.legacy.solve_dual_problem`).
    """

    @given(
        system=st.one_of(random_systems(), feasible_systems(True)),
        mass=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_evaluations_are_the_oracle_bit_for_bit(self, system, mass, seed):
        dual = evaluator(system, mass)
        oracle = build_dual_problem(system, mass)
        rng = np.random.default_rng(seed)
        x = 3.0 * rng.standard_normal(oracle.n_params)
        v = rng.standard_normal(oracle.n_params)
        value, grad = dual.value_and_grad(x)
        ref_value, ref_grad = oracle.value_and_grad(x)
        assert _same_bits(value, ref_value)
        assert _same_bits(grad, ref_grad)
        p = dual.primal(x)
        assert _same_bits(p, oracle.primal(x))
        assert _same_bits(dual.hess_vec(x, v), oracle.hess_vec(x, v))
        eq, ineq = dual.block_residuals(p)
        assert _same_bits([eq[0], ineq[0]], oracle.residuals(p))
        assert _same_bits(dual.scales, [oracle.residual_scale()])

    @given(
        system=st.one_of(feasible_systems(False), feasible_systems(True)),
        mass=st.floats(0.05, 3.0),
        start=st.sampled_from(["cold", "warm", "noise", "misfit"]),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_solves_are_the_oracle_bit_for_bit(
        self, system, mass, start, tol, seed
    ):
        # Scale the system to the mass, as a component's rows are.
        scaled = ConstraintSystem(system.n_vars)
        for family, add in (
            (system.equality_arrays(), scaled.add_equality),
            (system.inequality_arrays(), scaled.add_inequality),
        ):
            for r in range(family.n_rows):
                lo, hi = family.indptr[r], family.indptr[r + 1]
                add(
                    family.indices[lo:hi].tolist(),
                    family.coefficients[lo:hi].tolist(),
                    float(family.rhs[r]) * mass,
                    kind="bk",
                )
        stack = build_dual(scaled, mass)
        oracle = build_dual_problem(scaled, mass)
        rng = np.random.default_rng(seed)
        x0 = None
        if start == "warm":
            x0 = solve_dual_problem(oracle, tol=1e-3, max_iterations=5).multipliers
        elif start == "noise":
            x0 = rng.standard_normal(oracle.n_params)
        elif start == "misfit":
            x0 = np.zeros(oracle.n_params + 1)  # ignored: a cold start
        # A small budget also drives the polish and retry legs.
        budget = int(rng.choice([3, 20, 1000]))
        got = solve_dual_lbfgs(stack, tol=tol, max_iterations=budget, x0=x0)
        want = solve_dual_problem(oracle, tol=tol, max_iterations=budget, x0=x0)
        assert _same_bits(got.p, want.p)
        assert _same_bits(got.multipliers, want.multipliers)
        assert got.iterations == want.iterations
        assert got.message == want.message
        assert got.converged == want.converged
        assert _same_bits(
            [got.eq_residual, got.ineq_residual, got.scale],
            [want.eq_residual, want.ineq_residual, want.scale],
        )

    def test_a_one_block_batch_is_the_ladder(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        stack = build_dual(system, 1.0)
        batch = solve_batch_dual(stack, tol=1e-9, x0s=[np.ones(3)])
        alone = solve_dual_problem(
            build_dual_problem(system, 1.0), tol=1e-9, x0=np.ones(3)
        )
        assert (batch.rounds, batch.batched, batch.solo_fallbacks) == (
            0,
            [False],
            0,
        )
        assert _same_bits(batch.p, alone.p)
        assert _same_bits(batch.results[0].multipliers, alone.multipliers)
        assert batch.results[0].iterations == alone.iterations


class TestAdultConvergence:
    """A polish that stops near, but not at, ``tol`` still converges.

    These three Top-K solves on Adult releases end their Newton-CG polish
    within a small factor of the tolerance; the second L-BFGS leg must
    run rather than the outcome be returned unconverged.
    """

    @pytest.mark.parametrize(
        "seed, bound",
        [(4, (100, 100)), (17, (50, 50)), (19, (100, 100))],
    )
    def test_topk_solve_converges(self, seed, bound):
        from repro.anonymize.anatomy import anatomize
        from repro.core.privacy_maxent import PrivacyMaxEnt
        from repro.data.adult import load_adult_synthetic
        from repro.engine.engine import PrivacyEngine
        from repro.knowledge.bounds import TopKBound
        from repro.knowledge.mining import mine_association_rules
        from repro.maxent.config import MaxEntConfig

        table = load_adult_synthetic(n_records=1000, seed=seed)
        published = anatomize(table, l=5, exempt="auto", seed=seed)
        quantifier = PrivacyMaxEnt(
            published,
            TopKBound(*bound).statements(mine_association_rules(table)),
            config=MaxEntConfig(raise_on_infeasible=False),
            engine=PrivacyEngine(cache_size=0),
        )
        assert quantifier.solve().stats.converged
