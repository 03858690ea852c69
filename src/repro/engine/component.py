"""The numeric solve task: one engine work unit.

Every work unit the engine's solve loop runs — a batch group of small
components or a single component — takes the same task,
:func:`solve_component_group`.  Its components are views into one
:class:`~repro.maxent.decompose.ComponentStack`; presolve gathers their
rows straight from the stack as one block-diagonal CSR and runs once
(presolve's eliminations are the numerical precondition of the dual),
the reduced stack goes to the L-BFGS dual, and the solution is lifted
back in one scatter.  Per-component results (residuals, iterations,
multipliers) come out in one shape, so the cache, warm starts and
telemetry see one contract.  No per-component constraint system is
built: sizes and row counts come from the stack's arrays, and a
component presolve forced whole gets its residual from the stack's rows.

The dual goes to :func:`~repro.maxent.batch_dual.solve_batch_dual` for
every unit.  A unit whose presolve leaves one dual (a lone component, or
a group with one numeric block) runs the L-BFGS ladder on it directly;
several run the vectorized round loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxent.batch_dual import solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.decompose import Component, ComponentStack
from repro.maxent.dual import DualStack
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


def _stats(
    shape: tuple[int, int, int], solver: str, fixed_count: int, **fields
) -> SolverStats:
    """A component's stats; ``shape`` is (vars, equalities, inequalities)."""
    n_vars, n_equalities, n_inequalities = shape
    return SolverStats(
        solver=solver,
        iterations=fields.pop("iterations", 0),
        seconds=0.0,
        n_vars=n_vars,
        n_equalities=n_equalities,
        n_inequalities=n_inequalities,
        eq_residual=fields.pop("eq_residual"),
        ineq_residual=fields.pop("ineq_residual", 0.0),
        converged=fields.pop("converged"),
        presolve_fixed=fixed_count,
        **fields,
    )


def _residual(stack: ComponentStack, k: int, p_local: np.ndarray) -> float:
    """Worst row violation of component ``k`` at ``p_local``.

    Each row's left side is summed entry by entry in row order, as
    :meth:`ConstraintSystem.residual` does.
    """
    rows = stack.rows([k])
    lengths = np.diff(rows.indptr)
    excess = np.bincount(
        np.repeat(np.arange(rows.rhs.size), lengths),
        weights=rows.coefficients * p_local[rows.indices],
        minlength=rows.rhs.size,
    ) - rows.rhs
    split = int(rows.n_equalities[0])
    worst = float(np.abs(excess[:split]).max()) if split else 0.0
    if excess.size > split:
        worst = max(worst, float(np.clip(excess[split:], 0.0, None).max()))
    return worst


def solve_component_group(
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None] | None = None,
) -> list[ComponentSolve]:
    """Solve one engine work unit: a batch group or a single component.

    ``components`` are views into one stack; their rows are presolved
    once as a block-diagonal stack, the surviving reduced stack goes
    straight to the dual, and the
    solution is lifted onto the stack in one scatter and unbundled into
    per-component :class:`ComponentSolve` records.  A component presolve
    leaves nothing to optimize (no free variable, or no mass) is a forced
    solve.  The numeric blocks go to one
    :func:`~repro.maxent.batch_dual.solve_batch_dual` call: the
    vectorized L-BFGS loop for several, the L-BFGS ladder for one.
    ``warm_starts`` holds one candidate start (or ``None``) per
    component; one the reduced dual cannot use is ignored.

    The unit's wall time is attributed across components proportionally
    to their size, so summed ``cpu_seconds`` telemetry stays meaningful.
    The ``engine.solve_group`` span nests under the caller's active span
    and carries the unit's summed phase times, its presolve fixes, and
    the stacked dual's rounds and solo fallbacks (both 0 when presolve
    leaves at most one dual).
    """
    stack = components[0].stack
    if any(component.stack is not stack for component in components):
        raise ValueError("a work unit's components must share one stack")
    members = [component.index for component in components]
    n = len(members)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    with get_tracer().span(
        "engine.solve_group", n_components=n, batched=n > 1
    ) as span:
        with Timer() as timer:
            with Timer() as presolve_timer:
                presolved = presolve_stack(stack, members)
                masses = stack.masses[members] - np.array(
                    presolved.mass_removed
                )
                free_counts = presolved.free_counts
                numeric = (free_counts > 0) & (masses > 1e-15)
                # The numeric components' reduced blocks, as the dual stack.
                dual_stack = DualStack(
                    indptr=presolved.indptr,
                    indices=presolved.indices,
                    data=presolved.coefficients,
                    rhs=presolved.rhs,
                    row_indptr=presolved.row_indptr,
                    var_indptr=presolved.free_indptr,
                    n_equalities=presolved.n_equalities,
                    masses=masses,
                ).select(numeric)
            positions = np.flatnonzero(numeric).tolist()
            x0s = [warm_list[index] for index in positions]

            with Timer() as dual_timer:
                batch = solve_batch_dual(
                    dual_stack,
                    tol=config.tol,
                    max_iterations=config.max_iterations,
                    x0s=x0s,
                )
            results = zip(batch.results, batch.batched)
            p_free = np.zeros(int(presolved.free_indptr[-1]))
            p_free[np.repeat(numeric, free_counts)] = batch.p
            p = presolved.lift(p_free)
            var_bounds = presolved.var_indptr.tolist()
            p_blocks = [
                p[lo:hi].copy()
                for lo, hi in zip(var_bounds[:-1], var_bounds[1:])
            ]
            shapes = list(
                zip(
                    stack.var_counts[members].tolist(),
                    stack.n_equalities[members].tolist(),
                    stack.inequality_rows[members].tolist(),
                )
            )
            fixed_counts = presolved.fixed_counts.tolist()
            solves: list[ComponentSolve] = []
            for index, p_local in enumerate(p_blocks):
                if numeric[index]:
                    # Everything presolve left went through the dual.
                    result, batched = next(results)
                    stats = _stats(
                        shapes[index],
                        "lbfgs",
                        fixed_counts[index],
                        iterations=result.iterations,
                        eq_residual=result.eq_residual,
                        ineq_residual=result.ineq_residual,
                        converged=result.converged,
                        message=result.message,
                        batched_components=1 if batched else 0,
                    )
                    multipliers = (
                        result.multipliers if result.converged else None
                    )
                else:
                    # Presolve forced every variable (free ones stay 0).
                    residual = _residual(stack, members[index], p_local)
                    stats = _stats(
                        shapes[index],
                        "presolve",
                        fixed_counts[index],
                        eq_residual=residual,
                        converged=residual <= config.tol,
                    )
                    multipliers = None
                solves.append(ComponentSolve(p_local, stats, multipliers))

        # Attribute the unit's wall time across components by problem
        # size (the residual per-component signal telemetry consumers sum
        # over); the presolve/dual phase breakdown is shared out the same
        # way.
        weights = np.maximum(stack.var_counts[members], 1).astype(float)
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
            rounds=batch.rounds,
            solo_fallbacks=batch.solo_fallbacks,
            **{
                f"phase.{name}_seconds": round(seconds, 6)
                for name, seconds in phases.items()
            },
        )
    return solves
