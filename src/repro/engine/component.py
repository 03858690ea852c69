"""The numeric solve task: one engine work unit.

Every work unit the engine's solve loop runs — a batch group of small
components or a single component — takes the same task,
:func:`solve_component_group`.  It stacks the unit's systems
block-diagonally and presolves them once (presolve's eliminations are
the numerical precondition of the dual), hands the reduced stack to the
L-BFGS dual, lifts the solution back in one scatter, and unbundles
per-component results (residuals, iterations, multipliers) so everything
downstream — cache, warm starts, telemetry — sees one contract.

A unit of one component differs in one call only: its block goes to
:func:`~repro.maxent.lbfgs.solve_dual_lbfgs` on its own (as a batch's
stragglers do) instead of the vectorized loop of
:mod:`repro.maxent.batch_dual`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxent.batch_dual import DualStack, solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.decompose import Component
from repro.maxent.lbfgs import DualSolveResult, solve_dual_lbfgs
from repro.maxent.presolve import presolve_stack
from repro.maxent.solution import SolverStats
from repro.obs.trace import get_tracer
from repro.utils.timer import Timer


@dataclass
class ComponentSolve:
    """Result of one component task: local solution, stats, warm-start."""

    p: np.ndarray
    stats: SolverStats
    #: Converged dual multipliers of the *presolved* system — reusable as
    #: a warm start for structurally identical components.
    multipliers: np.ndarray | None = None


def _forced_solve(
    component: Component,
    config: MaxEntConfig,
    p_local: np.ndarray,
    fixed_count: int,
) -> ComponentSolve:
    """The everything-was-forced-by-presolve result (free variables at 0)."""
    residual = component.system.residual(p_local)
    stats = SolverStats(
        solver="presolve",
        iterations=0,
        seconds=0.0,
        n_vars=component.n_vars,
        n_equalities=component.system.n_equalities,
        n_inequalities=component.system.n_inequalities,
        eq_residual=residual,
        ineq_residual=0.0,
        converged=residual <= config.tol,
        presolve_fixed=fixed_count,
    )
    return ComponentSolve(p=p_local, stats=stats, multipliers=None)


def _package_solve(
    component: Component,
    p_local: np.ndarray,
    fixed_count: int,
    result: DualSolveResult,
    *,
    batched: bool = False,
) -> ComponentSolve:
    """Wrap a dual result, lifted to component coordinates, with stats."""
    multipliers = result.multipliers if result.converged else None
    stats = SolverStats(
        solver="lbfgs",
        iterations=result.iterations,
        seconds=0.0,
        n_vars=component.n_vars,
        n_equalities=component.system.n_equalities,
        n_inequalities=component.system.n_inequalities,
        eq_residual=result.eq_residual,
        ineq_residual=result.ineq_residual,
        converged=result.converged,
        presolve_fixed=fixed_count,
        message=result.message,
        batched_components=1 if batched else 0,
    )
    return ComponentSolve(p=p_local, stats=stats, multipliers=multipliers)


def solve_component_group(
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None] | None = None,
) -> list[ComponentSolve]:
    """Solve one engine work unit: a batch group or a single component.

    The components' systems are stacked block-diagonally and presolved
    once; the surviving reduced stack goes straight to the dual, and the
    solution is lifted onto the stack in one scatter and unbundled into
    per-component :class:`ComponentSolve` records.  A component presolve
    leaves nothing to optimize (no free variable, or no mass) is a forced
    solve.  A group's numeric blocks run one vectorized L-BFGS loop; a
    lone component runs its own L-BFGS call.  ``warm_starts`` holds one
    candidate start (or ``None``) per component; one the reduced dual
    cannot use is ignored.

    The unit's wall time is attributed across components proportionally
    to their size, so summed ``cpu_seconds`` telemetry stays meaningful.
    The ``engine.solve_group`` span nests under the caller's active span
    and carries the unit's summed phase times, its presolve fixes, and
    the stacked dual's rounds and solo fallbacks (both 0 for a lone
    component).
    """
    n = len(components)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    with get_tracer().span(
        "engine.solve_group", n_components=n, batched=n > 1
    ) as span:
        with Timer() as timer:
            with Timer() as presolve_timer:
                stack = presolve_stack(
                    [component.system for component in components]
                )
                masses = np.array(
                    [component.mass for component in components]
                ) - np.array(stack.mass_removed)
                free_counts = stack.free_counts
                numeric = (free_counts > 0) & (masses > 1e-15)
                # The numeric components' reduced blocks, as the dual stack.
                dual_stack = DualStack(
                    indptr=stack.indptr,
                    indices=stack.indices,
                    data=stack.coefficients,
                    rhs=stack.rhs,
                    row_indptr=stack.row_indptr,
                    var_indptr=stack.free_indptr,
                    n_equalities=stack.n_equalities,
                    masses=masses,
                ).select(numeric)
            positions = np.flatnonzero(numeric).tolist()
            x0s = [warm_list[index] for index in positions]

            with Timer() as dual_timer:
                rounds = solo_fallbacks = 0
                if n > 1:
                    batch = solve_batch_dual(
                        dual_stack,
                        tol=config.tol,
                        max_iterations=config.max_iterations,
                        x0s=x0s,
                    )
                    results = zip(batch.results, batch.batched)
                    p_numeric = batch.p
                    rounds = batch.rounds
                    solo_fallbacks = batch.batched.count(False)
                else:
                    # A lone component's dual (if presolve left one) on
                    # its own L-BFGS call.
                    alone = [
                        solve_dual_lbfgs(
                            dual_stack.block(k),
                            tol=config.tol,
                            max_iterations=config.max_iterations,
                            x0=x0,
                        )
                        for k, x0 in enumerate(x0s)
                    ]
                    results = zip(alone, [False] * len(alone))
                    p_numeric = alone[0].p if alone else np.zeros(0)
            p_free = np.zeros(int(stack.free_indptr[-1]))
            p_free[np.repeat(numeric, free_counts)] = p_numeric
            p = stack.lift(p_free)
            var_bounds = stack.var_indptr.tolist()
            fixed_counts = stack.fixed_counts.tolist()
            solves: list[ComponentSolve] = []
            for index, component in enumerate(components):
                p_local = p[var_bounds[index] : var_bounds[index + 1]].copy()
                if numeric[index]:
                    result, batched = next(results)
                    solves.append(
                        _package_solve(
                            component,
                            p_local,
                            fixed_counts[index],
                            result,
                            batched=batched,
                        )
                    )
                else:
                    solves.append(
                        _forced_solve(
                            component, config, p_local, fixed_counts[index]
                        )
                    )

        # Attribute the unit's wall time across components by problem
        # size (the residual per-component signal telemetry consumers sum
        # over); the presolve/dual phase breakdown is shared out the same
        # way.
        weights = np.array([max(c.n_vars, 1) for c in components], dtype=float)
        total_weight = weights.sum()
        shares = timer.seconds * weights / total_weight
        presolve_shares = presolve_timer.seconds * weights / total_weight
        for index, (solve, share) in enumerate(zip(solves, shares)):
            solve.stats.seconds = float(share)
            solve.stats.cpu_seconds = float(share)
            solve.stats.add_phase("presolve", float(presolve_shares[index]))
        if positions:
            dual_weights = weights[positions]
            dual_shares = dual_timer.seconds * dual_weights / dual_weights.sum()
            for position, index in enumerate(positions):
                solves[index].stats.add_phase(
                    "dual", float(dual_shares[position])
                )

        phases: dict[str, float] = {}
        for solve in solves:
            for name, seconds in solve.stats.phase_seconds.items():
                phases[name] = phases.get(name, 0.0) + seconds
        span.set(
            presolve_fixed=sum(solve.stats.presolve_fixed for solve in solves),
            rounds=rounds,
            solo_fallbacks=solo_fallbacks,
            **{
                f"phase.{name}_seconds": round(seconds, 6)
                for name, seconds in phases.items()
            },
        )
    return solves
