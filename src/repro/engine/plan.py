"""Execution planning: classify decomposed components by solve path.

A plan is the engine's unit of scheduling: the decomposition's
:class:`~repro.maxent.decompose.ComponentStack`, its positions split by
array masks over the stack's per-component knowledge and inequality
counts into the *batched closed-form* path (irrelevant components of a
group space, Definition 5.6 — all solved in one vectorized Eq. (9) call)
and the *numeric* path (everything touched by knowledge, solved one
work unit at a time).  When the config allows batching
(``MaxEntConfig.batching_enabled``), the numeric path is additionally
binned into *batch groups* — sets of small components the engine solves
as one work unit through one stacked block-diagonal dual
(:mod:`repro.maxent.batch_dual`); every other numeric component is a
work unit of its own.  Both kinds of unit run the same task
(:func:`repro.engine.component.solve_component_group`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.decompose import ComponentStack, decompose
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.utils.timer import Timer

VariableSpace = GroupVariableSpace | PersonVariableSpace


@dataclass
class ExecutionPlan:
    """The scheduled shape of one MaxEnt solve."""

    components: ComponentStack
    #: Positions (into ``components``) taking the batched Eq. (9) path.
    closed_form: list[int] = field(default_factory=list)
    #: Positions solved numerically (presolve + L-BFGS dual).
    numeric: list[int] = field(default_factory=list)
    #: Disjoint subsets of ``numeric`` (small components only) scheduled
    #: as single stacked-dual work units; positions in no group solve
    #: individually.
    batch_groups: list[list[int]] = field(default_factory=list)
    #: Wall time of the Section 5.5 decomposition that produced the plan.
    decompose_seconds: float = 0.0

    @property
    def n_components(self) -> int:
        """Total number of components scheduled."""
        return len(self.components)

    def describe(self) -> str:
        """One-line summary for logs and diagnostics."""
        grouped = sum(len(group) for group in self.batch_groups)
        batching = (
            f", {grouped} batched into {len(self.batch_groups)} "
            "stacked dual(s)"
            if self.batch_groups
            else ""
        )
        return (
            f"{self.n_components} component(s): {len(self.closed_form)} "
            f"closed-form (batched), {len(self.numeric)} numeric"
            f"{batching}"
        )


def bin_batch_groups(sizes: list[int], config: MaxEntConfig) -> list[list[int]]:
    """Bin work items (given their variable counts) into batch groups.

    Returns lists of *positions into ``sizes``*: items whose size is at
    most ``config.batch_max_vars`` are grouped in order, at most
    ``config.batch_components`` per group.  Groups always hold >= 2
    items (a singleton gains nothing from stacking); ineligible or
    leftover items are simply absent.
    """
    if not config.batching_enabled:
        return []
    eligible = [
        position
        for position, size in enumerate(sizes)
        if size <= config.batch_max_vars
    ]
    if len(eligible) < 2:
        return []
    per_group = config.batch_components
    groups = [
        eligible[start : start + per_group]
        for start in range(0, len(eligible), per_group)
    ]
    return [group for group in groups if len(group) >= 2]


def build_plan(
    space: VariableSpace,
    system: ConstraintSystem,
    config: MaxEntConfig,
) -> ExecutionPlan:
    """Decompose ``system`` and classify every component's solve path.

    The closed form applies exactly where Theorem 5 proves it: irrelevant
    components of a group-level space, with ``config.use_closed_form`` on.
    """
    with Timer() as timer:
        components = decompose(space, system, enabled=config.decompose)
    plan = ExecutionPlan(
        components=components, decompose_seconds=timer.seconds
    )
    closed_form = np.zeros(len(components), dtype=bool)
    if config.use_closed_form and isinstance(space, GroupVariableSpace):
        closed_form = (components.knowledge_rows == 0) & (
            components.inequality_rows == 0
        )
    plan.closed_form = np.flatnonzero(closed_form).tolist()
    plan.numeric = np.flatnonzero(~closed_form).tolist()
    groups = bin_batch_groups(
        components.var_counts[plan.numeric].tolist(), config
    )
    plan.batch_groups = [
        [plan.numeric[index] for index in group] for group in groups
    ]
    return plan

