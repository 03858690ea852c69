"""Engine integration of the batched dual path (plan, cache, solve loop).

The acceptance discipline: batched and per-component engine solves agree
within the solver tolerance on every workload, and the *bookkeeping* —
per-component fingerprints, cache entries, warm-start records — is
identical in structure whichever path produced it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.paper_example import S1, paper_published
import repro.engine.engine as engine_module
from repro.engine import PrivacyEngine, bin_batch_groups, component_fingerprint
import repro.engine.component as component_module
from repro.engine.component import solve_component_group
from repro.engine.plan import build_plan
from repro.errors import InfeasibleKnowledgeError, ReproError
from repro.experiments.workloads import (
    build_adult_workload,
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.batch_dual import MAX_ROUNDS
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace
from repro.obs.trace import get_tracer
from tests.helpers import stack_systems
from tests.legacy import solve_component, solve_component_batch_per_component

TOL = 1e-6


def _system_with(space, statements):
    system = ConstraintSystem(space.n_vars)
    system.extend(data_constraints(space))
    if statements:
        system.extend(compile_statements(list(statements), space))
    return system


def _paper_workload():
    space = GroupVariableSpace(paper_published())
    statements = [
        ConditionalProbability(
            given={"gender": "male"}, sa_value=S1, probability=0.2
        )
    ]
    return space, _system_with(space, statements)


def _adult_workload():
    workload = build_adult_workload(n_records=600, max_antecedent=2)
    space = GroupVariableSpace(workload.published)
    statements = TopKBound(5, 5).statements(workload.rules)
    return space, _system_with(space, statements)


def _synthetic_workload(n_records=480):
    published = build_synthetic_release(
        n_records, qi_domain_sizes=(40, 30, 20, 10), n_sa_values=6, l=5
    )
    space = GroupVariableSpace(published)
    return space, _system_with(space, per_bucket_statements(published))


WORKLOADS = {
    "paper": _paper_workload,
    "adult": _adult_workload,
    "synthetic": _synthetic_workload,
}

PLAIN = MaxEntConfig(raise_on_infeasible=False, batch_components=0)
BATCHED = MaxEntConfig(
    raise_on_infeasible=False, batch_components=512, batch_max_vars=512
)


class TestConfigKnobs:
    def test_defaults_are_on(self):
        config = MaxEntConfig()
        assert config.batch_components == 1024
        assert config.batching_enabled

    def test_validation(self):
        with pytest.raises(ReproError, match="batch_components"):
            MaxEntConfig(batch_components=-1)
        with pytest.raises(ReproError, match="batch_max_vars"):
            MaxEntConfig(batch_max_vars=0)

    def test_solve_key_excludes_batching(self):
        assert MaxEntConfig().solve_key() == BATCHED.solve_key() == (
            PLAIN.solve_key()
        )


class TestBinning:
    def test_disabled_config_bins_nothing(self):
        assert bin_batch_groups([4, 5, 6], PLAIN) == []

    def test_threshold_filters_large_items(self):
        config = MaxEntConfig(batch_components=8, batch_max_vars=10)
        groups = bin_batch_groups([4, 50, 6, 8, 100], config)
        assert groups == [[0, 2, 3]]

    def test_chunking_respects_batch_components(self):
        config = MaxEntConfig(batch_components=2, batch_max_vars=10)
        groups = bin_batch_groups([1, 2, 3, 4, 5], config)
        assert groups == [[0, 1], [2, 3]]  # trailing singleton dropped

    def test_fewer_than_two_eligible(self):
        config = MaxEntConfig(batch_components=8, batch_max_vars=10)
        assert bin_batch_groups([5, 50, 60], config) == []

    def test_plan_carries_batch_groups(self):
        space, system = _synthetic_workload()
        plan = build_plan(space, system, BATCHED)
        grouped = {pos for group in plan.batch_groups for pos in group}
        assert grouped
        assert grouped <= set(plan.numeric)
        assert "stacked dual" in plan.describe()
        ungrouped_plan = build_plan(space, system, PLAIN)
        assert ungrouped_plan.batch_groups == []


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_batched_matches_per_component_within_tol(self, name):
        space, system = WORKLOADS[name]()
        baseline = PrivacyEngine(cache_size=0).solve(space, system, PLAIN)
        batched = PrivacyEngine(cache_size=0).solve(space, system, BATCHED)
        assert batched.stats.converged == baseline.stats.converged
        assert batched.stats.n_components == baseline.stats.n_components
        assert np.abs(batched.p - baseline.p).max() <= 100 * TOL
        numeric = sum(
            1
            for record in baseline.components
            if record.stats.solver == "lbfgs"
        )
        if numeric >= 2:
            # A single numeric component (the paper example) has nothing
            # to stack with; everything else must take the batched path.
            assert batched.stats.batched_components > 0
        assert baseline.stats.batched_components == 0

    def test_residuals_stay_within_tolerance(self):
        space, system = _synthetic_workload()
        solution = PrivacyEngine(cache_size=0).solve(space, system, BATCHED)
        for record in solution.components:
            if record.stats.solver == "lbfgs":
                assert record.stats.eq_residual <= TOL * 10

    def test_cache_contents_use_identical_fingerprints(self):
        space, system = _synthetic_workload()
        plain_engine = PrivacyEngine(cache_size=4096)
        batch_engine = PrivacyEngine(cache_size=4096)
        plain_engine.solve(space, system, PLAIN)
        batch_engine.solve(space, system, BATCHED)
        plain_keys = {key for key, _ in plain_engine.cache.items()}
        batch_keys = {key for key, _ in batch_engine.cache.items()}
        assert plain_keys == batch_keys
        plain_entries = dict(plain_engine.cache.items())
        for key, entry in batch_engine.cache.items():
            assert (
                np.abs(entry.p - plain_entries[key].p).max() <= 100 * TOL
            )

    def test_batched_entries_serve_per_component_solves(self):
        # The v3 contract: a cache entry is tolerance-equivalent to the
        # per-component result, so entries written by either path are
        # interchangeable.
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, BATCHED)
        assert first.stats.batched_components > 0
        replay = engine.solve(space, system, PLAIN)
        assert replay.stats.cache_hits > 0
        assert replay.stats.batched_components == 0
        assert np.array_equal(first.p, replay.p)

    def test_per_component_entries_serve_batched_solves(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, PLAIN)
        replay = engine.solve(space, system, BATCHED)
        assert replay.stats.cache_hits > 0
        assert replay.stats.batched_components == 0  # all served warm
        assert np.array_equal(first.p, replay.p)

    def test_warm_cache_replays_without_batching(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, BATCHED)
        assert first.stats.batched_components > 0
        again = engine.solve(space, system, BATCHED)
        assert again.stats.cache_hits > 0
        assert again.stats.batched_components == 0
        assert np.array_equal(first.p, again.p)

    def test_telemetry_counts_batched_components(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=0)
        assert engine.stats()["batched_components"] == 0
        solution = engine.solve(space, system, BATCHED)
        assert (
            engine.stats()["batched_components"]
            == solution.stats.batched_components
            > 0
        )


def _spy_group_solves(monkeypatch) -> list[list]:
    """Record the components of every work unit the engine solves."""
    calls: list[list] = []

    def spy(components, config, warm_starts):
        calls.append(list(components))
        return solve_component_group(components, config, warm_starts)

    monkeypatch.setattr(engine_module, "solve_component_group", spy)
    return calls


class TestFailFast:
    """A contradiction stops the solve at the first bad work unit."""

    BAD_BUCKET = 2

    def _infeasible_workload(self):
        published = build_synthetic_release(
            480, qi_domain_sizes=(40, 30, 20, 10), n_sa_values=6, l=5
        )
        space = GroupVariableSpace(published)
        statements = per_bucket_statements(published)
        bucket = published.buckets[self.BAD_BUCKET]
        # P(a | x) + P(b | x) = 1.8 over a value x of one QI attribute:
        # the rows span several variables, so presolve cannot see the
        # clash and the dual solve ends far from feasible.
        given = {published.schema.qi_attributes[0]: bucket.qi_tuples[0][0]}
        statements += [
            ConditionalProbability(
                given=given, sa_value=sa_value, probability=0.9
            )
            for sa_value in bucket.sa_values[:2]
        ]
        return space, _system_with(space, statements)

    @pytest.mark.parametrize("batch_components", [0, 2])
    def test_no_unit_after_the_bad_one_is_solved(
        self, monkeypatch, batch_components
    ):
        space, system = self._infeasible_workload()
        config = MaxEntConfig(batch_components=batch_components)
        plan = build_plan(space, system, config)
        n_units = len(plan.numeric) - sum(
            len(group) - 1 for group in plan.batch_groups
        )
        calls = _spy_group_solves(monkeypatch)
        with pytest.raises(InfeasibleKnowledgeError):
            PrivacyEngine(cache_size=0).solve(space, system, config)
        assert calls
        assert any(
            self.BAD_BUCKET in component.buckets for component in calls[-1]
        )
        for unit in calls[:-1]:
            assert all(
                self.BAD_BUCKET not in component.buckets
                for component in unit
            )
        assert len(calls) < n_units


def _largest_batch_group(workload):
    space, system = workload()
    plan = build_plan(space, system, BATCHED)
    group = max(plan.batch_groups, key=len)
    return [plan.components[pos] for pos in group]


def _vague_topk_group():
    # Top-K with epsilon > 0: interval statements, so those blocks carry
    # inequality rows after their equalities; equality-only blocks sit
    # between them.
    def workload():
        workload = build_adult_workload(n_records=1000, max_antecedent=2)
        space = GroupVariableSpace(workload.published)
        bound = TopKBound(10, 10, epsilon=0.05)
        return space, _system_with(space, bound.statements(workload.rules))

    vague = _largest_batch_group(workload)
    assert len(vague) >= 3
    assert all(c.system.n_inequalities for c in vague)
    plain = _largest_batch_group(_synthetic_workload)
    components = []
    for k, component in enumerate(vague):
        components += [component] + plain[4 * k : 4 * k + 4]
    return _restacked(components)


def _restacked(components):
    """Components of several stacks as the components of one."""
    return list(
        stack_systems(
            [component.system for component in components],
            [component.mass for component in components],
            [component.buckets for component in components],
        )
    )


def _free_component(system, mass):
    return stack_systems([system], [mass], [(-1,)])[0]


def _group_with_forced_components():
    # One component presolve pins entirely, one with no mass left: both
    # leave the batch as forced solves, around the numeric ones.
    pinned = ConstraintSystem(3)
    pinned.add_equality([0, 1, 2], [1.0] * 3, 0.3, kind="qi", label="mass")
    pinned.add_equality([0], [1.0], 0.1, kind="stmt", label="pin0")
    pinned.add_equality([1], [1.0], 0.05, kind="stmt", label="pin1")
    massless = ConstraintSystem(4)
    numeric = _largest_batch_group(_synthetic_workload)[:12]
    return _restacked(
        [_free_component(pinned, 0.3)]
        + numeric[:6]
        + [_free_component(massless, 1e-16)]
        + numeric[6:]
        + [_free_component(pinned, 0.3)]
    )


REFERENCE_GROUPS = {
    "synthetic": lambda: _largest_batch_group(_synthetic_workload),
    "vague-topk": _vague_topk_group,
    "forced": _group_with_forced_components,
}


def _untimed(stats):
    fields = dict(vars(stats))
    for key in ("seconds", "cpu_seconds", "phase_seconds"):
        fields.pop(key)
    return fields


class TestStackedPresolveReference:
    """One presolve of a group's stack vs presolving each component."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
    def test_bitwise_equal_to_per_component_presolve(self, name):
        components = REFERENCE_GROUPS[name]()
        config = MaxEntConfig(
            raise_on_infeasible=False, batch_components=512, batch_max_vars=512
        )
        solves = solve_component_group(components, config)
        reference = solve_component_batch_per_component(components, config)
        solvers = set()
        for solve, (p, stats, multipliers) in zip(
            solves, reference, strict=True
        ):
            assert solve.p.tobytes() == p.tobytes()
            assert _untimed(solve.stats) == _untimed(stats)
            solvers.add(stats.solver)
            if multipliers is None:
                assert solve.multipliers is None
            else:
                assert solve.multipliers.tobytes() == multipliers.tobytes()
        assert "lbfgs" in solvers
        if name == "forced":
            assert "presolve" in solvers

    def test_warm_started_group_is_bitwise_equal(self):
        components = _largest_batch_group(_synthetic_workload)
        cold = solve_component_group(components, BATCHED)
        warm = [solve.multipliers for solve in cold]
        warm[::3] = [None] * len(warm[::3])
        solves = solve_component_group(components, BATCHED, warm)
        reference = solve_component_batch_per_component(
            components, BATCHED, warm
        )
        for solve, (p, stats, _) in zip(solves, reference, strict=True):
            assert solve.p.tobytes() == p.tobytes()
            assert _untimed(solve.stats) == _untimed(stats)

    def test_presolve_runs_once_per_batch_group(self, monkeypatch):
        # ... and once for each component solved alone: every work unit
        # presolves its stack once.
        space, system = _adult_workload()
        config = MaxEntConfig(raise_on_infeasible=False, batch_max_vars=50)
        plan = build_plan(space, system, config)
        assert plan.batch_groups
        stacks: list[int] = []
        real_stack = component_module.presolve_stack

        def spy_stack(stack, positions):
            stacks.append(len(positions))
            return real_stack(stack, positions)

        monkeypatch.setattr(component_module, "presolve_stack", spy_stack)
        PrivacyEngine(cache_size=0).solve(space, system, config)
        grouped = sum(len(group) for group in plan.batch_groups)
        singles = len(plan.numeric) - grouped
        assert singles > 0
        assert sorted(stacks) == sorted(
            [len(group) for group in plan.batch_groups] + [1] * singles
        )


def _numeric_components(workload, limit=None):
    space, system = workload()
    plan = build_plan(space, system, PLAIN)
    return [plan.components[pos] for pos in plan.numeric[:limit]]


def _one_component_units():
    return (
        _numeric_components(_paper_workload)
        + _numeric_components(_adult_workload)
        + _numeric_components(_synthetic_workload, limit=12)
    )


class TestOneComponentUnit:
    """A lone component's unit vs the retired single-component task."""

    @staticmethod
    def _assert_same(solve, reference):
        assert solve.p.tobytes() == reference.p.tobytes()
        assert _untimed(solve.stats) == _untimed(reference.stats)
        if reference.multipliers is None:
            assert solve.multipliers is None
        else:
            assert solve.multipliers.tobytes() == (
                reference.multipliers.tobytes()
            )

    def test_cold_units_are_bitwise_equal(self):
        components = _one_component_units()
        assert len(components) > 10
        for component in components:
            (solve,) = solve_component_group([component], PLAIN)
            self._assert_same(solve, solve_component(component, PLAIN))
            assert solve.stats.solver == "lbfgs"
            assert solve.stats.batched_components == 0

    def test_warm_started_units_are_bitwise_equal(self):
        for component in _one_component_units():
            (cold,) = solve_component_group([component], PLAIN)
            assert cold.multipliers is not None
            starts = [
                0.5 * cold.multipliers,
                # Starts presolve's reduced dual cannot use are ignored.
                np.zeros(cold.multipliers.size + 1),
                np.full(cold.multipliers.size, np.nan),
            ]
            for start in starts:
                (solve,) = solve_component_group([component], PLAIN, [start])
                self._assert_same(
                    solve, solve_component(component, PLAIN, start)
                )

    def test_forced_units_are_bitwise_equal(self):
        forced = [
            component
            for component in _group_with_forced_components()
            if component.buckets == (-1,)
        ]
        assert len(forced) == 3
        for component in forced:
            (solve,) = solve_component_group([component], PLAIN, [None])
            self._assert_same(solve, solve_component(component, PLAIN))
            assert solve.stats.solver == "presolve"

    @pytest.mark.parametrize("clash", ["out-of-range", "conflicting-fixes"])
    def test_infeasible_unit_raises_the_same_message(self, clash):
        system = ConstraintSystem(3)
        system.add_equality([0, 1, 2], [1.0] * 3, 0.6, kind="qi", label="m")
        if clash == "out-of-range":
            system.add_equality([1], [1.0], 1.5, kind="stmt", label="big")
        else:
            system.add_equality([0], [1.0], 0.1, kind="stmt", label="a")
            system.add_equality([0], [1.0], 0.2, kind="stmt", label="b")
        component = _free_component(system, 0.6)
        with pytest.raises(InfeasibleKnowledgeError) as unit:
            solve_component_group([component], PLAIN)
        with pytest.raises(InfeasibleKnowledgeError) as reference:
            solve_component(component, PLAIN)
        assert str(unit.value) == str(reference.value)

    def test_span_records_an_unbatched_unit(self):
        (component,) = _numeric_components(_paper_workload)
        (solve,), trace = TestSolveGroupSpan._trace(
            lambda: solve_component_group([component], PLAIN),
            "engine.solve_group",
        )
        (span,) = trace["spans"]
        assert span["attributes"]["batched"] is False
        assert span["attributes"]["rounds"] == 0
        assert span["attributes"]["solo_fallbacks"] == 0
        assert solve.stats.batched_components == 0


class TestSolveGroupSpan:
    @staticmethod
    def _trace(solve, root):
        tracer = get_tracer()
        was_enabled, rate = tracer.enabled, tracer.sample_rate
        tracer.set_enabled(True)
        tracer.set_sample_rate(1.0)
        tracer.reset()
        try:
            result = solve()
            (trace,) = [t for t in tracer.traces() if t["root"] == root]
        finally:
            tracer.set_enabled(was_enabled)
            tracer.set_sample_rate(rate)
        return result, trace

    def _engine_trace(self, workload):
        space, system = workload()
        return self._trace(
            lambda: PrivacyEngine(cache_size=0).solve(space, system, BATCHED),
            "engine.solve",
        )

    def test_solve_group_records_presolve_fixes_and_rounds(self):
        solution, trace = self._engine_trace(_adult_workload)
        groups = [
            s["attributes"]
            for s in trace["spans"]
            if s["name"] == "engine.solve_group"
        ]
        assert solution.stats.presolve_fixed > 0
        assert sum(g["presolve_fixed"] for g in groups) == (
            solution.stats.presolve_fixed
        )
        assert any(g["batched"] for g in groups)
        for group in groups:
            if group["batched"]:
                assert 1 <= group["rounds"] <= MAX_ROUNDS
            else:
                assert group["rounds"] == group["solo_fallbacks"] == 0

    def test_solve_group_counts_solo_fallbacks(self):
        # Near-collinear nested rows plus an inequality (which rules out
        # the stacked Newton polish): a 25-iteration leg strands that
        # block past the last round.
        straggler = ConstraintSystem(24)
        straggler.add_equality(
            list(range(24)), [1.0] * 24, 1.0, kind="qi", label="mass"
        )
        total = 1.0
        for k in range(23, 1, -2):
            total *= 0.55
            straggler.add_equality(
                list(range(k)), [1.0] * k, total, kind="stmt", label=f"p{k}"
            )
        straggler.add_inequality([0, 1], [1.0, 1.0], 0.02, kind="vague")
        components = _restacked(
            _largest_batch_group(_synthetic_workload)[:8]
            + [_free_component(straggler, 1.0)]
        )
        config = MaxEntConfig(
            raise_on_infeasible=False,
            batch_components=512,
            batch_max_vars=512,
            max_iterations=25,
        )
        solves, trace = self._trace(
            lambda: solve_component_group(
                components, config, [None] * len(components)
            ),
            "engine.solve_group",
        )
        (span,) = trace["spans"]
        solo = sum(
            1
            for solve in solves
            if solve.stats.solver == "lbfgs"
            and not solve.stats.batched_components
        )
        assert solo > 0
        assert span["attributes"]["solo_fallbacks"] == solo
        assert span["attributes"]["rounds"] == MAX_ROUNDS

    def test_solve_group_is_a_child_of_dispatch(self):
        _, trace = self._engine_trace(_synthetic_workload)
        (dispatch,) = [
            s for s in trace["spans"] if s["name"] == "engine.dispatch"
        ]
        groups = [
            s for s in trace["spans"] if s["name"] == "engine.solve_group"
        ]
        assert groups
        assert all(s["parent_id"] == dispatch["span_id"] for s in groups)
        assert any(s["attributes"]["batched"] for s in groups)
        assert all("phase.dual_seconds" in s["attributes"] for s in groups)
        assert dispatch["attributes"]["n_components"] == sum(
            s["attributes"]["n_components"] for s in groups
        )
