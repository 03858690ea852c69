"""The per-component numeric solve tasks.

These are the units of work the engine's solve loop runs.  Two
granularities share one module so they stay in lockstep:

- :func:`solve_component` — presolve one component, solve its L-BFGS
  dual, lift the solution back to component coordinates.
- :func:`solve_component_batch` — presolve *many* small components at
  once, as one block-diagonal stack, hand the reduced stack straight to
  the vectorized loop of :mod:`repro.maxent.batch_dual`, then unbundle
  per-component results (residuals, iterations, multipliers) so
  everything downstream — cache, warm starts, telemetry — sees the same
  contract as per-component dispatch.

:func:`solve_component_group` picks between the two for one work unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.maxent.batch_dual import DualStack, solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.decompose import Component
from repro.maxent.dual import build_dual
from repro.maxent.lbfgs import DualSolveResult, solve_dual_lbfgs
from repro.maxent.presolve import PresolveResult, presolve, presolve_stack
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


class BatchSolve(NamedTuple):
    """The per-component results of one batch group, plus its dual loop."""

    solves: list[ComponentSolve]
    #: Stacked L-BFGS rounds the batched dual ran.
    rounds: int
    #: Components re-solved on their own after the last round.
    solo_fallbacks: int


def _usable_warm_start(
    warm_start: np.ndarray | None, n_params: int
) -> np.ndarray | None:
    """Validate a candidate warm start against the presolved dual size.

    The warm-start store keys on pre-presolve structure, but presolve
    eliminations depend on right-hand sides, so a near-miss system can
    reduce to a different shape — in which case the stored vector is
    silently discarded (a cold start is always correct).
    """
    if warm_start is None:
        return None
    warm_start = np.asarray(warm_start, dtype=float)
    if warm_start.shape != (n_params,) or not np.all(np.isfinite(warm_start)):
        return None
    return warm_start


def _reduce(
    component: Component, config: MaxEntConfig
) -> tuple[ConstraintSystem, float, PresolveResult | None, int]:
    """Apply presolve per the config: (system, mass, reduction, fixed)."""
    if not config.use_presolve:
        return component.system, component.mass, None, 0
    reduction = presolve(component.system)
    return (
        reduction.system,
        component.mass - reduction.mass_removed,
        reduction,
        len(reduction.fixed_values),
    )


def _restore(
    reduction: PresolveResult | None, p_free: np.ndarray
) -> np.ndarray:
    """Lift a solution of the reduced system to component coordinates."""
    return p_free if reduction is None else reduction.restore(p_free)


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


def solve_component(
    component: Component,
    config: MaxEntConfig,
    warm_start: np.ndarray | None = None,
) -> ComponentSolve:
    """Solve one component.

    ``stats.seconds`` measures this task's own elapsed time; the engine
    sums these into ``cpu_seconds`` and reports overall wall time
    separately.
    """
    with Timer() as timer:
        with Timer() as presolve_timer:
            system, mass, reduction, fixed_count = _reduce(component, config)
        if system.n_vars == 0 or mass <= 1e-15:
            solve = _forced_solve(
                component,
                config,
                _restore(reduction, np.zeros(system.n_vars)),
                fixed_count,
            )
        else:
            with Timer() as dual_timer:
                dual = build_dual(system, mass)
                result = solve_dual_lbfgs(
                    dual,
                    tol=config.tol,
                    max_iterations=config.max_iterations,
                    x0=_usable_warm_start(warm_start, dual.n_params),
                )
            solve = _package_solve(
                component, _restore(reduction, result.p), fixed_count, result
            )
            solve.stats.add_phase("dual", dual_timer.seconds)
    solve.stats.add_phase("presolve", presolve_timer.seconds)
    solve.stats.seconds = timer.seconds
    solve.stats.cpu_seconds = timer.seconds
    return solve


def solve_component_batch(
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None] | None = None,
) -> BatchSolve:
    """Solve many components through one stacked block-diagonal dual.

    The components' systems are stacked block-diagonally and presolved
    once (its eliminations are the numerical precondition of the dual);
    the surviving reduced stack goes straight into one vectorized L-BFGS
    loop, and the solution is lifted onto the stack in one scatter and
    unbundled into per-component :class:`ComponentSolve` records whose
    contract — residuals, iterations, warm-startable multipliers,
    convergence flags — matches per-component dispatch.  A component
    presolve leaves nothing to optimize (no free variable, or no mass)
    leaves the batch as a forced solve.  The total task time is
    attributed across components proportionally to their size, so summed
    ``cpu_seconds`` telemetry stays meaningful.
    """
    n = len(components)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    with Timer() as timer:
        with Timer() as presolve_timer:
            stack = presolve_stack(
                [component.system for component in components],
                reduce=config.use_presolve,
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

        with Timer() as dual_timer:
            batch = solve_batch_dual(
                dual_stack,
                tol=config.tol,
                max_iterations=config.max_iterations,
                x0s=[warm_list[index] for index in positions],
            )
        p_free = np.zeros(int(stack.free_indptr[-1]))
        p_free[np.repeat(numeric, free_counts)] = batch.p
        p = stack.lift(p_free)
        var_bounds = stack.var_indptr.tolist()
        fixed_counts = stack.fixed_counts.tolist()
        solves: list[ComponentSolve] = []
        results = iter(zip(batch.results, batch.batched))
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

    # Attribute the batch's wall time across components by problem size
    # (the residual per-component signal telemetry consumers sum over);
    # the presolve/dual phase breakdown is shared out the same way.
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
            solves[index].stats.add_phase("dual", float(dual_shares[position]))
    return BatchSolve(
        solves=solves,
        rounds=batch.rounds,
        solo_fallbacks=batch.batched.count(False),
    )


def solve_component_group(
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None],
) -> list[ComponentSolve]:
    """Solve one engine work unit: a batch group or a single component.

    Singleton groups take the plain per-component path; larger groups
    take the stacked dual.  The ``engine.solve_group`` span nests under
    the caller's active span and carries the unit's summed phase times,
    its presolve fixes, and (for a batch) the stacked dual's rounds and
    solo fallbacks.
    """
    with get_tracer().span(
        "engine.solve_group",
        n_components=len(components),
        batched=len(components) > 1,
    ) as span:
        rounds = solo_fallbacks = 0
        if len(components) > 1:
            solves, rounds, solo_fallbacks = solve_component_batch(
                components, config, warm_starts
            )
        else:
            solves = [
                solve_component(component, config, warm)
                for component, warm in zip(components, warm_starts)
            ]
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
