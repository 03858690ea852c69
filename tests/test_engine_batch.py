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
from repro.engine.component import solve_component, solve_component_group
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
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace
from repro.obs.trace import get_tracer

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
        assert config.replay == "tolerance"
        assert config.batching_enabled

    def test_bitwise_replay_disables_batching(self):
        config = MaxEntConfig(replay="bitwise", batch_components=512)
        assert not config.batching_enabled

    def test_replay_validated(self):
        with pytest.raises(ReproError, match="replay"):
            MaxEntConfig(replay="exact")

    def test_replay_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY", "bitwise")
        config = MaxEntConfig()
        assert config.replay == "bitwise"
        assert not config.batching_enabled

    def test_validation(self):
        with pytest.raises(ReproError, match="batch_components"):
            MaxEntConfig(batch_components=-1)
        with pytest.raises(ReproError, match="batch_max_vars"):
            MaxEntConfig(batch_max_vars=0)

    def test_solve_key_excludes_batching(self):
        assert MaxEntConfig().solve_key() == BATCHED.solve_key() == (
            PLAIN.solve_key()
        )

    def test_bitwise_gets_its_own_solve_key(self):
        # Bitwise results come off a different (per-component) code path,
        # so they must not share cache entries with tolerance solves.
        bitwise = MaxEntConfig(replay="bitwise")
        assert bitwise.solve_key() != MaxEntConfig().solve_key()
        assert bitwise.solve_key()[-1] == "bitwise"


class TestBinning:
    def test_disabled_config_bins_nothing(self):
        assert bin_batch_groups([4, 5, 6], PLAIN) == []
        assert bin_batch_groups([4, 5, 6], MaxEntConfig(replay="bitwise")) == []

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
        # interchangeable under replay="tolerance".
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

    def test_bitwise_does_not_share_tolerance_entries(self):
        # replay="bitwise" promises bit-identical per-component results,
        # so it must never be served an entry a batched solve wrote.
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        warm = engine.solve(space, system, BATCHED)
        assert warm.stats.batched_components > 0
        bitwise = engine.solve(
            space, system, MaxEntConfig(
                raise_on_infeasible=False, replay="bitwise"
            )
        )
        assert bitwise.stats.cache_hits == 0
        assert bitwise.stats.batched_components == 0

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


class TestSolveGroupSpan:
    def test_solve_group_is_a_child_of_dispatch(self):
        space, system = _synthetic_workload()
        tracer = get_tracer()
        was_enabled, rate = tracer.enabled, tracer.sample_rate
        tracer.set_enabled(True)
        tracer.set_sample_rate(1.0)
        tracer.reset()
        try:
            PrivacyEngine(cache_size=0).solve(space, system, BATCHED)
            (trace,) = [
                t for t in tracer.traces() if t["root"] == "engine.solve"
            ]
        finally:
            tracer.set_enabled(was_enabled)
            tracer.set_sample_rate(rate)
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
