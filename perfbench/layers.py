"""Per-layer attribution for traced runs, taken from outside the program.

An in-process op is timed by wrapping the public names it calls (the
module attributes ``repro.core.privacy_maxent`` resolves at call time,
``PosteriorTable`` class methods and the engine instance's ``solve``).
Inside ``PrivacyEngine.solve`` the split comes from what the program
already exposes: the ``engine.plan`` / ``engine.closed_form`` /
``engine.dispatch`` spans of the finished ``engine.solve`` trace and the
solution's ``stats.phase_seconds``.  Served ops are split from the
``service.request`` traces the server returns on ``/v1/traces``.

Every ``*_s`` row of :data:`TABLE` is seconds per op, the rows are
disjoint, and ``other_s`` is what they leave of the traced op wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Disjoint time rows whose sum plus ``other_s`` is the traced op wall.
TABLE = (
    "knowledge.mine_s",
    "knowledge.compile_s",
    "maxent.space_s",
    "maxent.invariants_s",
    "engine.plan_s",
    "maxent.closed_form_s",
    "engine.fingerprint_s",
    "maxent.presolve_s",
    "maxent.dual_s",
    "maxent.component_other_s",
    "engine.dispatch_overhead_s",
    "engine.solve_other_s",
    "core.posterior_s",
    "core.metrics_s",
    "service.ingest_s",
    "service.solve_server_other_s",
    "service.solve_client_s",
    "service.hit_server_s",
    "service.hit_client_s",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "import.repro_s": "s",
    "import.scipy_eager": "count",
    "service.boot_s": "s",
    **{name: "s" for name in TABLE},
    "knowledge.rules": "count",
    "knowledge.statements": "count",
    "knowledge.rows": "count",
    "maxent.components": "count",
    "maxent.numeric_components": "count",
    "maxent.presolve_fixed": "count",
    "maxent.dual_iterations": "count",
    "maxent.batched_components": "count",
    "maxent.batched_share": "share",
    "engine.dispatch_s": "s",
    "engine.cache_hit_ratio": "share",
    "core.simplex_err_max": "abs",
    "service.chunks": "count",
    "service.journal_records": "count",
    "service.journal_bytes": "bytes",
    "service.request_bytes": "bytes",
    "service.response_bytes": "bytes",
    "trace.op_wall_s": "s",
    "other_s": "s",
    "trace.overhead_share": "share",
}


def _spans(trace: dict) -> dict[str, list[dict]]:
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in trace["spans"]:
        by_name[span["name"]].append(span)
    return by_name


def _seconds(by_name: dict, name: str) -> float:
    return sum(span["duration_seconds"] for span in by_name.get(name, ()))


def add_solve(acc: dict, trace: dict, stats: dict, solve_seconds: float) -> None:
    """Split one ``engine.solve`` into its layers.

    ``trace`` holds the solve's spans (alone, or inside a served
    request); ``stats`` is the solution's ``SolverStats`` as a dict;
    ``solve_seconds`` is the time the caller attributes to the solve.
    The rows written here sum to exactly ``solve_seconds``.
    """
    by_name = _spans(trace)
    plan = _seconds(by_name, "engine.plan")
    closed_form = _seconds(by_name, "engine.closed_form")
    dispatch = _seconds(by_name, "engine.dispatch")
    attributes: dict = {}
    for span in by_name.get("engine.dispatch", ()):
        for key, value in span["attributes"].items():
            if isinstance(value, (int, float)):
                attributes[key] = attributes.get(key, 0) + value
    cpu = float(attributes.get("cpu_seconds", 0.0))
    fingerprint = float(attributes.get("fingerprint_seconds", 0.0))
    numeric = int(attributes.get("n_components", 0))
    phases = stats.get("phase_seconds") or {}
    presolve = float(phases.get("presolve", 0.0))
    dual = float(phases.get("dual", 0.0))

    acc["engine.plan_s"] += plan
    acc["maxent.closed_form_s"] += closed_form
    acc["engine.fingerprint_s"] += fingerprint
    acc["maxent.presolve_s"] += presolve
    acc["maxent.dual_s"] += dual
    acc["maxent.component_other_s"] += cpu - presolve - dual
    acc["engine.dispatch_overhead_s"] += dispatch - cpu - fingerprint
    acc["engine.solve_other_s"] += solve_seconds - plan - closed_form - dispatch
    acc["engine.dispatch_s"] += dispatch
    acc["maxent.components"] += stats.get("n_components", 0)
    acc["maxent.numeric_components"] += numeric
    acc["maxent.presolve_fixed"] += stats.get("presolve_fixed", 0)
    acc["maxent.dual_iterations"] += stats.get("iterations", 0)
    acc["maxent.batched_components"] += stats.get("batched_components", 0)
    acc["_cache_hits"] += stats.get("cache_hits", 0)


class Wrapped:
    """Timing wrappers around public names, installed for one traced op.

    Only the outermost wrapped call is charged, so nested wrapped calls
    never count twice and the rows stay disjoint.
    """

    def __init__(self, acc: dict) -> None:
        self.acc = acc
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, row: str, *, after=None) -> None:
        """Charge calls of ``owner.name`` to ``row``.

        ``after(acc, args, result, elapsed)`` records counts taken from
        the call.  A missing name is skipped: its time lands in
        ``other_s`` instead of failing the run.
        """
        original = getattr(owner, name, None)
        if original is None:
            return

        def timed(*args, **kwargs):
            if self._active:
                return original(*args, **kwargs)
            self._active = True
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._active = False
            self.acc[row] += elapsed
            if after is not None:
                after(self.acc, args, result, elapsed)
            return result

        saved = vars(owner).get(name, original)
        if isinstance(saved, classmethod):
            replacement = classmethod(lambda cls, *a, **kw: timed(*a, **kw))
        else:
            replacement = timed
        self._restore.append((owner, name, saved))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, saved in reversed(self._restore):
            setattr(owner, name, saved)
        self._restore.clear()


def add_served(acc: dict, traces: list[dict], *, client: dict) -> None:
    """Split one served cycle from its ``service.request`` traces.

    ``client`` carries the client-observed seconds: ``ingest``,
    ``cold`` and the list ``hits``.  The cold request's engine spans and
    response ``stats`` split its server time; hits are attributed in
    request order.
    """
    cold = None
    hits = []
    for trace in sorted(traces, key=lambda t: t["started_at"]):
        if trace.get("root") != "service.request":
            continue
        root = next(s for s in trace["spans"] if s["parent_id"] is None)
        endpoint = root["attributes"].get("endpoint", "")
        if not endpoint.endswith("/posterior"):
            continue
        if any(s["name"] == "engine.solve" for s in trace["spans"]):
            cold = (trace, root)
        else:
            hits.append(root)
    acc["service.ingest_s"] += client["ingest"]
    if cold is not None:
        trace, root = cold
        solve = _spans(trace)["engine.solve"][0]
        stats = client["cold_stats"]
        compile_s = float(stats.get("build_seconds", 0.0))
        add_solve(acc, trace, stats, solve["duration_seconds"])
        acc["knowledge.compile_s"] += compile_s
        acc["service.solve_server_other_s"] += (
            root["duration_seconds"] - solve["duration_seconds"] - compile_s
        )
        acc["service.solve_client_s"] += client["cold"] - root["duration_seconds"]
    else:
        acc["service.solve_client_s"] += client["cold"]
    for seconds, root in zip(client["hits"], hits):
        acc["service.hit_server_s"] += root["duration_seconds"]
        acc["service.hit_client_s"] += seconds - root["duration_seconds"]
    for seconds in client["hits"][len(hits):]:
        acc["service.hit_client_s"] += seconds


def summarize(per_op: list[dict], op_walls: list[float]) -> dict:
    """Mean-per-op layer values, plus ``other_s`` and the traced wall."""
    n = max(len(per_op), 1)
    totals: dict[str, float] = defaultdict(float)
    for acc in per_op:
        for key, value in acc.items():
            totals[key] += value
    out = {name: totals.get(name, 0.0) / n for name in PER_LAYER}
    wall = sum(op_walls) / n
    out["trace.op_wall_s"] = wall
    out["other_s"] = wall - sum(out[name] for name in TABLE)
    numeric = totals.get("maxent.numeric_components", 0.0)
    out["maxent.batched_share"] = (
        totals.get("maxent.batched_components", 0.0) / numeric if numeric else 0.0
    )
    out["engine.cache_hit_ratio"] = (
        totals.get("_cache_hits", 0.0) / numeric if numeric else 0.0
    )
    return out
