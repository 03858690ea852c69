"""The PrivacyEngine facade and its execution plan."""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.engine import PrivacyEngine, build_plan, shared_engine
from repro.errors import ReproError
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.closed_form import closed_form_solution
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import data_constraints
from repro.maxent.indexing import GroupVariableSpace
from tests.helpers import random_published


def paper_instance():
    space = GroupVariableSpace(paper_published())
    system = data_constraints(space)
    system.extend(
        compile_statements(
            [
                ConditionalProbability(
                    given={"gender": "male"}, sa_value="Flu", probability=0.3
                )
            ],
            space,
        )
    )
    return space, system


def multi_component_instance():
    """A synthetic release whose knowledge touches several components.

    Statement probabilities are read off the closed-form joint, which is a
    feasible point of the data constraints — so the knowledge is feasible
    by construction while still forcing a numeric solve per touched
    component.
    """
    rng = np.random.default_rng(7)
    _, published, _ = random_published(
        rng, n_buckets=8, max_bucket_size=4, n_qi_values=4, n_sa_values=4
    )
    space = GroupVariableSpace(published)
    system = data_constraints(space)
    baseline = closed_form_solution(space)
    statements = []
    for q, s in (("q0", "s0"), ("q1", "s1"), ("q2", "s2")):
        matching = space.vars_matching({"q": q}, s)
        if matching.size == 0:
            continue
        probability = float(
            baseline[matching].sum() / space.qv_probability({"q": q})
        )
        statements.append(
            ConditionalProbability(
                given={"q": q}, sa_value=s, probability=probability
            )
        )
    assert len(statements) >= 2, "instance must couple several components"
    system.extend(compile_statements(statements, space))
    return space, system


class TestPlan:
    def test_classifies_closed_form_and_numeric(self):
        space, system = paper_instance()
        plan = build_plan(space, system, MaxEntConfig())
        assert plan.n_components == len(plan.closed_form) + len(plan.numeric)
        assert len(plan.numeric) >= 1  # the knowledge-coupled component
        assert len(plan.closed_form) >= 1  # untouched buckets
        assert "closed-form" in plan.describe()

    def test_closed_form_disabled_goes_numeric(self):
        space, system = paper_instance()
        plan = build_plan(
            space, system, MaxEntConfig(use_closed_form=False)
        )
        assert not plan.closed_form
        assert len(plan.numeric) == plan.n_components


class TestEngineFacade:
    def test_batched_closed_form_matches_eq9(self):
        space = GroupVariableSpace(paper_published())
        system = data_constraints(space)
        solution = PrivacyEngine().solve(space, system)
        assert np.allclose(solution.p, closed_form_solution(space))
        assert solution.stats.iterations == 0

    def test_from_config_reads_knobs(self, tmp_path):
        path = tmp_path / "cache.pkl"
        engine = PrivacyEngine.from_config(
            MaxEntConfig(cache_size=5, cache_path=str(path))
        )
        assert engine.cache.max_entries == 5
        assert engine.cache_path == str(path)
        engine.close()

    def test_cpu_seconds_sum_component_times(self):
        space, system = multi_component_instance()
        with PrivacyEngine(cache_size=0) as eng:
            solution = eng.solve(space, system)
        component_cpu = sum(
            r.stats.seconds
            for r in solution.components
            if r.stats.solver not in ("closed-form",)
        )
        assert solution.stats.cpu_seconds == pytest.approx(component_cpu)
        assert solution.stats.seconds > 0.0

    def test_shared_engine_reuses_instances(self):
        a = shared_engine(MaxEntConfig())
        b = shared_engine(MaxEntConfig())
        c = shared_engine(MaxEntConfig(cache_size=7))
        assert a is b
        assert a is not c

    def test_describe_mentions_counts(self):
        space, system = paper_instance()
        engine = PrivacyEngine(cache_size=4)
        engine.solve(space, system)
        text = engine.describe()
        assert "1 solve(s)" in text
        assert "cache hits" in text

    def test_count_lookup_outside_stored_buckets_is_zero(self):
        # Regression: querying only buckets below every stored pair must
        # return zeros, not crash on an empty lookup table.
        from tests.helpers import gather_counts

        out = gather_counts({(0, 5): 3}, np.array([0]), np.array([1]))
        assert out.tolist() == [0.0]

    def test_config_validates_engine_knobs(self):
        with pytest.raises(ReproError):
            MaxEntConfig(cache_size=-1)
        # The retired executor knobs are not config fields any more.
        for retired in ("executor", "workers", "cluster_workers"):
            with pytest.raises(TypeError):
                MaxEntConfig(**{retired: None})
