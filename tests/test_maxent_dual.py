"""Direct unit tests for the dual machinery (repro.maxent.dual)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.maxent.batch_dual import _StackedDual, solve_batch_dual
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.dual import build_dual
from repro.maxent.lbfgs import solve_dual_lbfgs
from tests.legacy import stack_duals


def simple_system():
    """Two variables, one constraint: p0 + p1 = 1 with p0 = 0.3 target."""
    system = ConstraintSystem(2)
    system.add_equality([0, 1], [1.0, 1.0], 1.0, kind="qi")
    system.add_equality([0], [1.0], 0.3, kind="bk")
    return system


class TestBuildDual:
    def test_shapes(self):
        dual = build_dual(simple_system(), 1.0)
        assert dual.n_params == 2
        assert dual.n_vars == 2
        assert dual.n_equalities == 2
        assert dual.n_inequalities == 0

    def test_rejects_non_positive_mass(self):
        with pytest.raises(ReproError):
            build_dual(simple_system(), 0.0)

    def test_bounds_for_inequalities(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = build_dual(system, 1.0)
        bounds = dual.bounds()
        assert bounds[:2] == [(None, None), (None, None)]
        assert bounds[2] == (0.0, None)


class TestEvaluation:
    def test_primal_at_zero_is_uniform(self):
        dual = build_dual(simple_system(), 1.0)
        p = dual.primal(np.zeros(2))
        assert np.allclose(p, [0.5, 0.5])

    def test_primal_mass_preserved_at_any_multiplier(self):
        dual = build_dual(simple_system(), 0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = dual.primal(rng.standard_normal(2) * 3)
            assert p.sum() == pytest.approx(0.7)
            assert p.min() >= 0

    def test_gradient_is_negated_residual(self):
        dual = build_dual(simple_system(), 1.0)
        x = np.array([0.4, -0.2])
        _value, grad = dual.value_and_grad(x)
        p = dual.primal(x)
        expected = dual.rhs - dual.matrix @ p
        assert np.allclose(grad, expected)

    def test_gradient_matches_finite_differences(self):
        dual = build_dual(simple_system(), 1.0)
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
        dual = build_dual(simple_system(), 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            fa, _ = dual.value_and_grad(a)
            fb, _ = dual.value_and_grad(b)
            mid, _ = dual.value_and_grad((a + b) / 2)
            assert mid <= (fa + fb) / 2 + 1e-10

    def test_overflow_safe(self):
        dual = build_dual(simple_system(), 1.0)
        value, grad = dual.value_and_grad(np.array([1e4, -1e4]))
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestResiduals:
    def test_residuals_at_feasible_point(self):
        dual = build_dual(simple_system(), 1.0)
        p = np.array([0.3, 0.7])
        eq_res, ineq_res = dual.residuals(p)
        assert eq_res == pytest.approx(0.0)
        assert ineq_res == 0.0

    def test_inequality_residual_only_counts_excess(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = build_dual(system, 1.0)
        ok = np.array([0.3, 0.7])
        _eq, ineq = dual.residuals(ok)
        assert ineq == 0.0  # 0.7 <= 0.8: satisfied, no penalty
        bad = np.array([0.1, 0.9])
        _eq, ineq = dual.residuals(bad)
        assert ineq == pytest.approx(0.1)

    def test_residual_scale_positive(self):
        dual = build_dual(simple_system(), 1.0)
        assert dual.residual_scale() > 0


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
    """Evaluations read the CSR transpose built at assembly; each must be
    bitwise equal to the same evaluation through ``matrix.T @ x``."""

    @given(
        system=random_systems(),
        mass=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_dual_problem_is_bitwise_the_csc_form(self, system, mass, seed):
        dual = build_dual(system, mass)
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
        stacked = _StackedDual(stack)
        x = 3.0 * rng.standard_normal(stack.rhs.size)
        v = rng.standard_normal(stack.rhs.size)
        _assert_bitwise_equal(stacked, x, v)
        for k in range(stack.n_blocks):
            block = stack.block(k)
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

        transposes = []
        for matrix_type in {type(dual.matrix), type(dual.transpose)}:
            owner = next(c for c in matrix_type.__mro__ if "transpose" in vars(c))
            original = owner.transpose

            def spy(self, *args, _original=original, **kwargs):
                transposes.append(self.shape)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "transpose", spy)
        # Count the stacked duals the batch loop assembles, and their
        # evaluations.
        evaluations = []
        real_value_and_grad = _StackedDual.value_and_grad
        stacked_builds = []
        real_init = _StackedDual.__init__

        def counting_init(self, *args, **kwargs):
            stacked_builds.append(1)
            real_init(self, *args, **kwargs)

        def counting_value_and_grad(self, x):
            evaluations.append(1)
            return real_value_and_grad(self, x)

        monkeypatch.setattr(_StackedDual, "__init__", counting_init)
        monkeypatch.setattr(_StackedDual, "value_and_grad", counting_value_and_grad)

        solo = solve_dual_lbfgs(dual, tol=1e-9)
        assert solo.iterations > 0
        assert transposes == []  # the lone dual was assembled before the spy

        batch = solve_batch_dual(stack, tol=1e-9)
        assert all(batch.batched)
        # One transpose per stacked dual the loop assembles, none per
        # evaluation.
        assert len(transposes) == len(stacked_builds)
        assert len(evaluations) > len(stacked_builds)
