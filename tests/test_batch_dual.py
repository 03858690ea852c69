"""The batched block-diagonal dual solver (repro.maxent.batch_dual).

Equivalence discipline: every batched solve must agree with the
per-component :func:`solve_dual_lbfgs` results within the solver
tolerance — the batched path changes the trajectory, never the optimum.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxent.batch_dual import solve_batch_dual
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.dual import StackedDual, _Segments, _softmax_parts, build_dual
from repro.maxent.lbfgs import solve_dual_lbfgs
from tests.legacy import build_dual_problem, stack_duals

TOL = 1e-6


def segment_max(values, indptr, fill=0.0):
    return _Segments(indptr).reduce(np.maximum, values, fill)


def segment_min(values, indptr, fill=0.0):
    return _Segments(indptr).reduce(np.minimum, values, fill)


def segment_sum(values, indptr, fill=0.0):
    return _Segments(indptr).reduce(np.add, values, fill)


def simple_system(
    n_vars: int = 6, pair_value: float = 0.45, mass: float = 1.0
) -> ConstraintSystem:
    """Mass row + one two-variable row."""
    system = ConstraintSystem(n_vars)
    system.add_equality(
        list(range(n_vars)), [1.0] * n_vars, mass, kind="qi", label="mass"
    )
    system.add_equality(
        [0, 1], [1.0, 1.0], pair_value * mass, kind="stmt", label="pair"
    )
    return system


def simple_block(
    n_vars: int = 6, pair_value: float = 0.45, mass: float = 1.0
):
    """A tiny well-behaved dual: mass row + one two-variable row."""
    return build_dual(simple_system(n_vars, pair_value, mass), mass)


def straggler_block(n_vars: int = 24, with_inequality: bool = False):
    """Near-collinear nested prefix rows: many L-BFGS iterations."""
    system = ConstraintSystem(n_vars)
    system.add_equality(
        list(range(n_vars)), [1.0] * n_vars, 1.0, kind="qi", label="mass"
    )
    total = 1.0
    for k in range(n_vars - 1, 1, -2):
        total *= 0.55
        system.add_equality(
            list(range(k)), [1.0] * k, total, kind="stmt", label=f"prefix{k}"
        )
    if with_inequality:
        system.add_inequality(
            [0, 1], [1.0, 1.0], 0.02, kind="vague", label="cap"
        )
    return build_dual(system, 1.0)


class TestSegmentMax:
    def test_plain_segments(self):
        values = np.array([3.0, 1.0, 5.0, 2.0, 4.0])
        indptr = np.array([0, 2, 5])
        assert segment_max(values, indptr).tolist() == [3.0, 5.0]

    def test_empty_segments_contribute_zero(self):
        values = np.array([3.0, 1.0, 5.0])
        indptr = np.array([0, 0, 2, 2, 3, 3])
        assert segment_max(values, indptr).tolist() == [
            0.0,
            3.0,
            0.0,
            5.0,
            0.0,
        ]

    def test_all_empty(self):
        out = segment_max(np.empty(0), np.array([0, 0, 0]))
        assert out.tolist() == [0.0, 0.0]


def random_csr(rng, n_segments, empty_fraction=0.3):
    """Random segment lengths with a controllable share of empties."""
    lengths = rng.integers(1, 7, size=n_segments)
    empty = rng.random(n_segments) < empty_fraction
    lengths[empty] = 0
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.standard_normal(int(indptr[-1]))
    return values, indptr.astype(np.int64), lengths


class TestGuardedReductions:
    """The one empty-segment guard every per-block reduction runs behind."""

    def test_matches_python_loop(self):
        rng = np.random.default_rng(0)
        values, indptr, lengths = random_csr(rng, 40)
        got_max = segment_max(values, indptr)
        got_min = segment_min(values, indptr)
        got_sum = segment_sum(values, indptr)
        for k in range(40):
            seg = values[indptr[k] : indptr[k + 1]]
            if lengths[k] == 0:
                assert got_max[k] == got_min[k] == got_sum[k] == 0.0
            else:
                assert got_max[k] == seg.max()
                assert got_min[k] == seg.min()
                assert got_sum[k] == pytest.approx(seg.sum())

    def test_empty_segments_take_fill(self):
        values = np.array([2.0, -3.0])
        indptr = np.array([0, 0, 2, 2])
        assert segment_max(values, indptr, fill=-np.inf).tolist() == [
            -np.inf, 2.0, -np.inf,
        ]
        assert segment_min(values, indptr, fill=7.5).tolist() == [
            7.5, -3.0, 7.5,
        ]
        assert segment_sum(values, indptr).tolist() == [0.0, -1.0, 0.0]

    def test_all_segments_empty(self):
        values = np.empty(0)
        indptr = np.zeros(4, dtype=np.int64)
        assert segment_max(values, indptr, fill=1.0).tolist() == [1.0] * 3
        assert segment_sum(values, indptr).tolist() == [0.0] * 3

    def test_no_segments(self):
        out = segment_sum(np.empty(0), np.zeros(1, dtype=np.int64))
        assert out.shape == (0,)

    def test_trailing_empty_segment(self):
        # The classic reduceat trap: a start index == len(values).
        values = np.array([1.0, 4.0])
        indptr = np.array([0, 2, 2])
        assert segment_max(values, indptr).tolist() == [4.0, 0.0]


class TestSoftmaxParts:
    def test_matches_naive_softmax(self):
        rng = np.random.default_rng(1)
        counts = np.array([3, 1, 5])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        theta = rng.standard_normal(int(indptr[-1])) * 10
        masses = np.array([0.5, 1.0, 0.25])
        p, lse = _softmax_parts(theta, _Segments(indptr), masses)
        for k in range(3):
            seg = theta[indptr[k] : indptr[k + 1]]
            expected = masses[k] * np.exp(seg) / np.exp(seg).sum()
            np.testing.assert_allclose(
                p[indptr[k] : indptr[k + 1]], expected, rtol=1e-12
            )
            assert lse[k] == pytest.approx(
                np.log(np.exp(seg).sum()), rel=1e-12
            )

    def test_shift_stability_at_extreme_theta(self):
        theta = np.array([1000.0, 999.0, -1000.0, -1001.0])
        indptr = np.array([0, 2, 4])
        counts = np.array([2, 2])
        masses = np.ones(2)
        p, lse = _softmax_parts(theta, _Segments(indptr), masses)
        assert np.isfinite(p).all() and np.isfinite(lse).all()
        assert p[:2].sum() == pytest.approx(1.0)
        assert p[2:].sum() == pytest.approx(1.0)


class TestDualStack:
    @staticmethod
    def _systems():
        system = ConstraintSystem(5)
        system.add_equality(
            [0, 1, 2, 3, 4], [1.0] * 5, 1.0, kind="qi", label="mass"
        )
        system.add_equality([0, 2], [1.0, -0.5], 0.1, kind="stmt")
        system.add_inequality([1, 3], [1.0, 1.0], 0.4, kind="vague")
        return [(simple_system(), 1.0), (system, 0.7), (simple_system(4), 1.0)]

    def _duals(self):
        return [build_dual(system, mass) for system, mass in self._systems()]

    def test_residual_scales_match_build_dual(self):
        systems = self._systems() + [(ConstraintSystem(3), 0.6)]
        # The lone-component dual of tests.legacy is the reference.
        oracles = [build_dual_problem(s, mass) for s, mass in systems]
        stack = stack_duals([build_dual(s, mass) for s, mass in systems])
        assert stack.n_blocks == len(systems)
        assert stack.row_counts.tolist() == [d.n_params for d in oracles]
        assert stack.var_counts.tolist() == [d.n_vars for d in oracles]
        assert stack.n_equalities.tolist() == [
            d.n_equalities for d in oracles
        ]
        assert stack.residual_scales().tolist() == [
            d.residual_scale() for d in oracles
        ]
        assert np.flatnonzero(stack.inequality_rows()).tolist() == [
            oracles[0].n_params + 2
        ]

    def test_block_round_trips(self):
        # Picking one block of a stack gives back that block's own dual.
        duals = self._duals()
        stack = stack_duals(duals)
        for k, dual in enumerate(duals):
            block = stack.select(np.arange(len(duals)) == k)
            for field in (
                "indptr", "indices", "data", "rhs", "row_indptr",
                "var_indptr", "n_equalities", "masses",
            ):
                assert np.array_equal(
                    getattr(block, field), getattr(dual, field)
                ), field
            assert np.array_equal(
                StackedDual(block).matrix.toarray(),
                StackedDual(dual).matrix.toarray(),
            )

    def test_select_keeps_the_picked_blocks(self):
        duals = self._duals()
        stack = stack_duals(duals)
        picked = stack.select(np.array([True, False, True]))
        assert picked.n_blocks == 2
        for k, dual in enumerate([duals[0], duals[2]]):
            block = picked.select(np.arange(2) == k)
            assert np.array_equal(
                StackedDual(block).matrix.toarray(),
                StackedDual(dual).matrix.toarray(),
            )
        assert stack.select(np.ones(3, dtype=bool)) is stack


class TestBatchEquivalence:
    def test_empty_batch(self):
        result = solve_batch_dual(stack_duals([]))
        assert result.results == []
        assert result.rounds == 0

    def test_single_block(self):
        dual = simple_block()
        solo = solve_dual_lbfgs(dual, tol=TOL)
        batch = solve_batch_dual(stack_duals([dual]), tol=TOL)
        assert batch.results[0].converged
        assert np.abs(batch.results[0].p - solo.p).max() <= 10 * TOL

    def test_many_blocks_match_per_component(self):
        blocks = [
            simple_block(n, 0.2 + 0.05 * i, mass=0.5 + 0.1 * i)
            for i, n in enumerate([4, 6, 8, 5, 7, 9, 6, 4])
        ]
        solos = [solve_dual_lbfgs(d, tol=TOL) for d in blocks]
        batch = solve_batch_dual(stack_duals(blocks), tol=TOL)
        assert all(r.converged for r in batch.results)
        for solo, result in zip(solos, batch.results):
            assert np.abs(solo.p - result.p).max() <= 10 * TOL
            assert result.eq_residual <= TOL * result.scale

    def test_mixed_equality_and_inequality_blocks(self):
        blocks = [
            simple_block(6),
            straggler_block(12, with_inequality=True),
            simple_block(5, 0.3),
        ]
        solos = [solve_dual_lbfgs(d, tol=TOL) for d in blocks]
        batch = solve_batch_dual(stack_duals(blocks), tol=TOL)
        assert all(r.converged for r in batch.results)
        for solo, result in zip(solos, batch.results):
            assert np.abs(solo.p - result.p).max() <= 100 * TOL

    def test_zero_row_block_solves_uniform(self):
        # Presolve can reduce a component to free variables with no rows:
        # the exact solution is the uniform spread of the mass.
        empty = build_dual(ConstraintSystem(4), 0.8)
        batch = solve_batch_dual(
            stack_duals([empty, simple_block(6)]), tol=TOL
        )
        assert batch.results[0].converged
        assert np.allclose(batch.results[0].p, 0.2)
        assert batch.results[0].iterations == 0

    def test_multipliers_are_warm_startable(self):
        blocks = [simple_block(6, 0.4), simple_block(8, 0.25)]
        first = solve_batch_dual(stack_duals(blocks), tol=TOL)
        assert all(r.multipliers is not None for r in first.results)
        again = solve_batch_dual(
            stack_duals(blocks),
            tol=TOL,
            x0s=[r.multipliers for r in first.results],
        )
        # Already-optimal starts freeze before any optimizer work: the
        # per-component convergence mask runs at the round-1 boundary.
        assert all(r.iterations == 0 for r in again.results)
        assert all(r.converged for r in again.results)

    def test_partial_warm_start_freezes_only_optimal_blocks(self):
        # 0.35 on 8 variables is off-uniform, so the cold-started block
        # genuinely has to iterate while the warm one freezes.
        blocks = [simple_block(6, 0.4), simple_block(8, 0.35)]
        first = solve_batch_dual(stack_duals(blocks), tol=TOL)
        again = solve_batch_dual(
            stack_duals(blocks),
            tol=TOL,
            x0s=[first.results[0].multipliers, None],
        )
        assert again.results[0].iterations == 0
        assert again.results[1].iterations > 0
        assert all(r.converged for r in again.results)

    def test_bogus_warm_start_shapes_are_ignored(self):
        blocks = [simple_block(6)]
        batch = solve_batch_dual(
            stack_duals(blocks), tol=TOL, x0s=[np.ones(99)]
        )
        assert batch.results[0].converged


class TestStraggler:
    def test_one_block_needs_10x_the_iterations(self):
        easies = [simple_block(6, 0.2 + 0.02 * i) for i in range(8)]
        strag = straggler_block(24)
        solo_easy = [solve_dual_lbfgs(d, tol=TOL) for d in easies]
        solo_strag = solve_dual_lbfgs(strag, tol=TOL)
        assert solo_strag.iterations >= 10 * max(
            r.iterations for r in solo_easy
        )

        blocks = easies[:4] + [strag] + easies[4:]
        solos = solo_easy[:4] + [solo_strag] + solo_easy[4:]
        batch = solve_batch_dual(stack_duals(blocks), tol=TOL)
        assert all(r.converged for r in batch.results)
        for solo, result in zip(solos, batch.results):
            assert np.abs(solo.p - result.p).max() <= 1e-4

    def test_tight_budget_runs_rounds_and_falls_back(self):
        # An inequality on the straggler disables the stacked Newton
        # polish, so a tiny per-leg budget forces the round loop (and,
        # past max_rounds, the per-component fallback) to do its job.
        easies = [simple_block(6, 0.2 + 0.02 * i) for i in range(8)]
        strag = straggler_block(24, with_inequality=True)
        blocks = easies[:4] + [strag] + easies[4:]
        batch = solve_batch_dual(
            stack_duals(blocks), tol=TOL, max_iterations=25
        )
        assert batch.rounds > 1
        assert all(r.converged for r in batch.results)
        # The straggler fell off the batched path but still converged.
        assert batch.batched[4] is False
        solo = solve_dual_lbfgs(strag, tol=TOL)
        assert np.abs(solo.p - batch.results[4].p).max() <= 1e-4

    def test_iterations_accumulate_across_rounds(self):
        easies = [simple_block(6, 0.2 + 0.02 * i) for i in range(4)]
        strag = straggler_block(24, with_inequality=True)
        batch = solve_batch_dual(
            stack_duals(easies + [strag]), tol=TOL, max_iterations=10
        )
        assert batch.results[4].iterations >= batch.rounds * 1


@st.composite
def random_blocks(draw):
    """A random mix of component sizes and masses (plus a rare ineq)."""
    n_blocks = draw(st.integers(min_value=1, max_value=7))
    blocks = []
    for index in range(n_blocks):
        n_vars = draw(st.integers(min_value=2, max_value=10))
        mass = draw(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
        )
        share = draw(st.floats(min_value=0.1, max_value=0.9))
        system = ConstraintSystem(n_vars)
        system.add_equality(
            list(range(n_vars)),
            [1.0] * n_vars,
            mass,
            kind="qi",
            label=f"mass{index}",
        )
        if n_vars >= 3:
            split = draw(st.integers(min_value=1, max_value=n_vars - 1))
            system.add_equality(
                list(range(split)),
                [1.0] * split,
                share * mass * split / n_vars,
                kind="stmt",
                label=f"stmt{index}",
            )
        if draw(st.booleans()) and n_vars >= 4:
            system.add_inequality(
                [0, n_vars - 1],
                [1.0, 1.0],
                mass * 0.9,
                kind="vague",
                label=f"cap{index}",
            )
        blocks.append(build_dual(system, mass))
    return blocks


class TestBatchProperty:
    @settings(max_examples=40, deadline=None)
    @given(random_blocks())
    def test_random_size_mixes_match_per_component(self, blocks):
        solos = [solve_dual_lbfgs(d, tol=TOL) for d in blocks]
        batch = solve_batch_dual(stack_duals(blocks), tol=TOL)
        assert len(batch.results) == len(blocks)
        for solo, result in zip(solos, batch.results):
            # The batched path must never be less robust than
            # per-component dispatch (its fallback cold-retries), though
            # it may converge blocks a cold solo solve stalls on.
            if solo.converged:
                assert result.converged
                scale = max(solo.scale, 1.0)
                assert (
                    np.abs(solo.p - result.p).max() <= 100 * TOL * scale
                )
