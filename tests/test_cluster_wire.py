"""The shard protocol: strictness and versioning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.protocol import (
    SHARD_PROTOCOL,
    check_protocol,
    heartbeat_request_from_wire,
    heartbeat_request_to_wire,
    join_request_from_wire,
    join_request_to_wire,
)
from repro.engine.component import ComponentSolve
from repro.errors import ReproError


def _json_round_trip(payload):
    """Force the exact bytes a real HTTP hop would produce."""
    return json.loads(json.dumps(payload, separators=(",", ":")))


class TestShardProtocol:
    def test_version_mismatch_rejected(self):
        assert SHARD_PROTOCOL == "privacy-maxent-shard/6"
        # A v5 peer (one that still scatters components) is refused with
        # the designed version-mismatch error, not an unknown-key one.
        for version in ("privacy-maxent-shard/5", "privacy-maxent-shard/0"):
            payload = join_request_to_wire("shard0", "127.0.0.1", 9000)
            payload["protocol"] = version
            with pytest.raises(ReproError, match="same version"):
                join_request_from_wire(payload)
        with pytest.raises(ReproError, match="same version"):
            check_protocol({"protocol": None}, "message")


class TestMembershipWire:
    """Join/heartbeat announcements: round trips and strict decoding."""

    @pytest.mark.parametrize(
        "to_wire,from_wire",
        [
            (join_request_to_wire, join_request_from_wire),
            (heartbeat_request_to_wire, heartbeat_request_from_wire),
        ],
    )
    def test_round_trip(self, to_wire, from_wire):
        payload = _json_round_trip(to_wire("shard0", "10.0.0.5", 8731))
        assert payload["protocol"] == SHARD_PROTOCOL
        assert from_wire(payload) == ("shard0", "10.0.0.5", 8731)

    @pytest.mark.parametrize(
        "from_wire", [join_request_from_wire, heartbeat_request_from_wire]
    )
    def test_version_mismatch_rejected(self, from_wire):
        payload = join_request_to_wire("shard0", "127.0.0.1", 9000)
        payload["protocol"] = "privacy-maxent-shard/4"
        with pytest.raises(ReproError, match="same version"):
            from_wire(payload)

    def test_unknown_field_rejected(self):
        payload = join_request_to_wire("shard0", "127.0.0.1", 9000)
        payload["surprise"] = 1
        with pytest.raises(ReproError, match="unknown field"):
            join_request_from_wire(payload)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("worker_id", "", "worker_id"),
            ("worker_id", 7, "worker_id"),
            ("host", "", "host"),
            ("port", 0, "port"),
            ("port", 70000, "port"),
            ("port", True, "port"),
            ("port", "8731", "port"),
        ],
    )
    def test_malformed_membership_fields_rejected(self, field, value, match):
        payload = join_request_to_wire("shard0", "127.0.0.1", 9000)
        payload[field] = value
        with pytest.raises(ReproError, match=match):
            join_request_from_wire(payload)


class TestComponentSolveDefaults:
    def test_component_solve_is_plain_data(self):
        solve = ComponentSolve(
            p=np.zeros(2),
            stats=None,  # type: ignore[arg-type]
        )
        assert solve.multipliers is None
