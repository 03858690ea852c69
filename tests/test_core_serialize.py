"""Tests for the JSON wire forms of request/response objects."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serialize as wire
from repro.core.privacy_maxent import PrivacyMaxEnt, assess
from repro.data.paper_example import Q2, S1, paper_published, paper_table
from repro.errors import KnowledgeError, ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.individuals import IndividualProbability, Pseudonym
from repro.knowledge.mining import MiningConfig
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
)
from repro.maxent.config import MaxEntConfig


def json_round_trip(payload):
    """Force the payload through real JSON (catches non-serializable leaks)."""
    return json.loads(json.dumps(payload))


class TestSchemaAndTables:
    def test_schema_round_trip(self, paper_schema_fixture):
        payload = json_round_trip(wire.schema_to_dict(paper_schema_fixture))
        assert wire.schema_from_dict(payload) == paper_schema_fixture

    def test_table_round_trip(self):
        table = paper_table()
        rebuilt = wire.table_from_dict(
            json_round_trip(wire.table_to_dict(table))
        )
        assert rebuilt.records() == table.records()

    def test_published_round_trip(self):
        published = paper_published()
        rebuilt = wire.published_from_dict(
            json_round_trip(wire.published_to_dict(published))
        )
        assert rebuilt.n_buckets == published.n_buckets
        assert rebuilt.n_records == published.n_records
        for old, new in zip(published.buckets, rebuilt.buckets):
            assert old.qi_tuples == new.qi_tuples
            assert old.sa_values == new.sa_values

    def test_schema_rejects_unknown_keys(self, paper_schema_fixture):
        payload = wire.schema_to_dict(paper_schema_fixture)
        payload["surprise"] = 1
        with pytest.raises(ReproError, match="unknown field"):
            wire.schema_from_dict(payload)

    def test_release_needs_buckets(self, paper_schema_fixture):
        with pytest.raises(ReproError, match="non-empty"):
            wire.published_from_dict(
                {"schema": wire.schema_to_dict(paper_schema_fixture), "buckets": []}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            wire.published_from_dict([1, 2, 3])


class TestStatements:
    @pytest.mark.parametrize(
        "statement",
        [
            ConditionalProbability(
                given={"gender": "male"}, sa_value="HIV", probability=0.25
            ),
            JointProbability(
                given={"degree": "college"}, sa_value="Flu", probability=0.1
            ),
            ConditionalInterval(
                given={"gender": "female"}, sa_value="Flu", low=0.1, high=0.4
            ),
            Comparison(
                given={"gender": "male"},
                more_likely="Flu",
                less_likely="HIV",
                margin=0.05,
            ),
        ],
    )
    def test_round_trip(self, statement):
        payload = json_round_trip(wire.statement_to_dict(statement))
        assert wire.statement_from_dict(payload) == statement

    def test_unknown_type_rejected(self):
        with pytest.raises(KnowledgeError, match="unknown statement type"):
            wire.statement_from_dict({"type": "telepathy"})

    def test_unknown_field_rejected(self):
        payload = wire.statement_to_dict(
            ConditionalProbability(
                given={"gender": "male"}, sa_value="HIV", probability=0.25
            )
        )
        payload["extra"] = True
        with pytest.raises(ReproError, match="unknown field"):
            wire.statement_from_dict(payload)

    def test_individual_statements_have_no_wire_form(self):
        statement = IndividualProbability(
            Pseudonym("i1", ("male", "college")), "HIV", 0.0
        )
        with pytest.raises(KnowledgeError, match="no wire form"):
            wire.statement_to_dict(statement)

    def test_statements_from_list(self):
        statement = ConditionalProbability(
            given={"gender": "male"}, sa_value="HIV", probability=0.25
        )
        assert wire.statements_from_list(None) == []
        assert wire.statements_from_list(
            [wire.statement_to_dict(statement)]
        ) == [statement]
        with pytest.raises(ReproError, match="JSON list"):
            wire.statements_from_list({"not": "a list"})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_encoder_matches_asdict(self, data):
        """The shallow encoder gives the ``dataclasses.asdict`` form:
        equal dicts, identical JSON, and a ``given`` that is a copy."""
        statement = data.draw(statements())
        payload = wire.statement_to_dict(statement)
        reference = dataclasses.asdict(statement)
        reference["type"] = payload["type"]
        assert payload == reference
        assert json.dumps(payload) == json.dumps(reference)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert payload["given"] is not statement.given
        assert wire.statement_from_dict(json_round_trip(payload)) == statement

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("conditional_probability", {"probability": "0.3"}),
            ("conditional_probability", {"probability": True}),
            ("conditional_interval", {"low": "0.1", "high": "0.4"}),
            ("conditional_interval", {"low": False}),
            ("conditional_interval", {"high": True}),
            ("comparison", {"margin": True}),
            ("conditional_probability", {"given": [["gender", "male"]]}),
            ("conditional_probability", {"type": ["conditional_probability"]}),
        ],
    )
    def test_malformed_field_is_knowledge_error(self, kind, fields):
        """Strings, bools and non-mapping antecedents are rejected with
        a ``KnowledgeError``, never coerced or left to crash later."""
        with pytest.raises(KnowledgeError):
            wire.statement_from_dict({**VALID_STATEMENTS[kind], **fields})


#: One well-formed wire statement per type that has a numeric field.
VALID_STATEMENTS = {
    "conditional_probability": {
        "type": "conditional_probability",
        "given": {"gender": "male"},
        "sa_value": "HIV",
        "probability": 0.3,
    },
    "conditional_interval": {
        "type": "conditional_interval",
        "given": {"gender": "male"},
        "sa_value": "HIV",
        "low": 0.1,
        "high": 0.4,
    },
    "comparison": {
        "type": "comparison",
        "given": {"gender": "male"},
        "more_likely": "Flu",
        "less_likely": "HIV",
        "margin": 0.1,
    },
}

_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)
_probabilities = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0, 1]
)


@st.composite
def statements(draw):
    """Any of the four served statement types, with arbitrary labels."""
    antecedent = draw(
        st.dictionaries(_labels, _labels, min_size=1, max_size=4)
    )
    kind = draw(st.sampled_from(sorted(wire._STATEMENT_TYPES)))
    if kind in ("conditional_probability", "joint_probability"):
        return wire._STATEMENT_TYPES[kind](
            given=antecedent,
            sa_value=draw(_labels),
            probability=draw(_probabilities),
        )
    if kind == "conditional_interval":
        low, high = sorted((draw(_probabilities), draw(_probabilities)))
        return ConditionalInterval(
            given=antecedent, sa_value=draw(_labels), low=low, high=high
        )
    more, less = draw(
        st.lists(_labels, min_size=2, max_size=2, unique=True)
    )
    return Comparison(
        given=antecedent,
        more_likely=more,
        less_likely=less,
        margin=draw(_probabilities),
    )


class TestConfigsAndBounds:
    def test_config_round_trip(self):
        config = MaxEntConfig(
            use_closed_form=False, tol=1e-8, cache_path="/tmp/cache.pkl"
        )
        payload = json_round_trip(wire.config_to_dict(config))
        assert wire.config_from_dict(payload) == config
        # Older clients send the retired executor and solver knobs too:
        # the body is accepted and yields the same config as one without
        # them.
        parent_form = {
            **payload,
            "executor": "serial",
            "workers": None,
            "cluster_workers": None,
            "solver": "lbfgs",
            "kernel": "numpy",
            "drop_redundant": False,
            "use_presolve": True,
            "warm_start": True,
            "replay": "tolerance",
            "infeasibility_threshold": 0.01,
        }
        assert wire.config_from_dict(parent_form) == config
        # A retired knob that asked for a different program is rejected,
        # naming the key, rather than silently solved on L-BFGS; so is
        # an accepted value sent as another JSON type.
        for key, value in (
            ("solver", "gis"),
            ("drop_redundant", True),
            ("drop_redundant", 0),
            ("drop_redundant", 0.0),
            ("kernel", "fortran"),
            ("use_presolve", False),
            ("use_presolve", 1),
            ("warm_start", False),
            ("replay", "bitwise"),
            ("replay", None),
            ("infeasibility_threshold", 0.05),
            ("infeasibility_threshold", "0.01"),
        ):
            with pytest.raises(ReproError, match=key):
                wire.config_from_dict({**parent_form, key: value})

    def test_config_none_is_default(self):
        assert wire.config_from_dict(None) == MaxEntConfig()

    def test_config_unknown_knob_rejected(self):
        with pytest.raises(ReproError, match="unknown field"):
            wire.config_from_dict({"warp_speed": 9})

    def test_every_config_knob_has_a_wire_type(self):
        # A knob whose annotation the type check does not know would make
        # every request that sets it a 500 instead of a typed answer.
        for field in dataclasses.fields(MaxEntConfig):
            assert field.type in wire._CONFIG_VALUE_TYPES, field.name

    def test_bound_round_trip(self):
        bound = TopKBound(5, 3, epsilon=0.01)
        assert wire.bound_from_dict(
            json_round_trip(wire.bound_to_dict(bound))
        ) == bound

    def test_mining_config(self):
        assert wire.mining_config_from_dict(None) == MiningConfig()
        rebuilt = wire.mining_config_from_dict(
            {"min_support_count": 5, "max_antecedent": 1}
        )
        assert rebuilt == MiningConfig(min_support_count=5, max_antecedent=1)


class TestResults:
    def test_posterior_round_trip(self):
        posterior = PrivacyMaxEnt(paper_published()).posterior()
        rebuilt = wire.posterior_from_dict(
            json_round_trip(wire.posterior_to_dict(posterior))
        )
        assert rebuilt.qi_tuples == posterior.qi_tuples
        assert rebuilt.sa_domain == posterior.sa_domain
        np.testing.assert_allclose(rebuilt.matrix, posterior.matrix)
        assert rebuilt.prob(Q2, S1) == pytest.approx(posterior.prob(Q2, S1))

    def test_stats_dict_has_residual(self):
        solution = PrivacyMaxEnt(paper_published()).solve()
        payload = json_round_trip(wire.stats_to_dict(solution.stats))
        assert payload["solver"] == solution.stats.solver
        assert payload["residual"] == pytest.approx(solution.stats.residual)

    def test_assessment_round_trip(self):
        table = paper_table()
        published = paper_published()
        assessments = assess(
            table,
            published,
            [TopKBound(1, 1)],
            mining=MiningConfig(min_support_count=1, max_antecedent=1),
        )
        payload = json_round_trip(wire.assessment_to_dict(assessments[0]))
        rebuilt = wire.assessment_from_dict(payload)
        assert rebuilt.bound == assessments[0].bound
        assert rebuilt.max_disclosure == pytest.approx(
            assessments[0].max_disclosure
        )
        assert rebuilt.stats.solver == assessments[0].stats.solver
