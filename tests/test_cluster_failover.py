"""Worker-failure paths of the coordinator: presumed death and revival.

The test marks a live worker dead (as a failed forward would) and
asserts the coordinator's contract: a health probe that gets an answer
revives it, so dead marks are a state workers leave, not a verdict.
"""

from __future__ import annotations

from repro.cluster import ClusterCoordinator


def test_health_probe_revives_recovered_worker():
    with ClusterCoordinator.spawn_local(2) as coordinator:
        target = coordinator.handles[0]
        coordinator.mark_dead(target.worker_id)
        assert target.worker_id in coordinator.dead_ids()
        reports = coordinator.check_health()
        assert all(report["alive"] for report in reports)
        assert coordinator.dead_ids() == []
        statuses = {r["worker"]: r["health"]["status"] for r in reports}
        assert statuses[target.worker_id] == "ok"
