"""JSON-ready forms of the Privacy-MaxEnt request/response objects.

The serving subsystem (:mod:`repro.service`) speaks JSON over HTTP; this
module is the single place where domain objects gain wire forms, so the
server, the client and any other transport (files, queues) agree on one
encoding.  Every ``*_to_dict`` returns plain ``dict``/``list``/scalar
structures ``json.dumps`` accepts verbatim; every ``*_from_dict`` is
strict — unknown keys, unknown statement types and malformed payloads
raise :class:`~repro.errors.ReproError` subclasses rather than guessing,
because a service must reject bad requests loudly (HTTP 400), not solve
the wrong program quietly.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.anonymize.buckets import Bucket, BucketizedTable
from repro.core.quantifier import PosteriorTable
from repro.core.report import PrivacyAssessment
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.errors import KnowledgeError, ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
    Statement,
)
from repro.maxent.config import INFEASIBILITY_THRESHOLD, MaxEntConfig
from repro.maxent.solution import SolverStats


def _require_mapping(payload, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ReproError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _check_keys(payload: Mapping, allowed: Iterable[str], what: str) -> None:
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ReproError(f"{what} has unknown field(s): {sorted(unknown)}")


# -- schema and tables ---------------------------------------------------------


def schema_to_dict(schema: Schema) -> dict:
    """Wire form of a :class:`~repro.data.schema.Schema`."""
    return {
        "attributes": [
            {"name": a.name, "domain": list(a.domain)} for a in schema.attributes
        ],
        "qi_attributes": list(schema.qi_attributes),
        "sa_attribute": schema.sa_attribute,
        "id_attributes": list(schema.id_attributes),
    }


def schema_from_dict(payload) -> Schema:
    """Rebuild a :class:`~repro.data.schema.Schema` (validating roles)."""
    payload = _require_mapping(payload, "schema")
    _check_keys(
        payload,
        ("attributes", "qi_attributes", "sa_attribute", "id_attributes"),
        "schema",
    )
    try:
        attributes = tuple(
            Attribute(name=a["name"], domain=tuple(a["domain"]))
            for a in payload["attributes"]
        )
        return Schema(
            attributes=attributes,
            qi_attributes=tuple(payload["qi_attributes"]),
            sa_attribute=payload["sa_attribute"],
            id_attributes=tuple(payload.get("id_attributes", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed schema payload: {exc!r}") from exc


def table_to_dict(table: Table) -> dict:
    """Wire form of an original table (schema + label records)."""
    return {"schema": schema_to_dict(table.schema), "records": table.records()}


def table_from_dict(payload) -> Table:
    """Rebuild a :class:`~repro.data.table.Table` from label records."""
    payload = _require_mapping(payload, "table")
    _check_keys(payload, ("schema", "records"), "table")
    schema = schema_from_dict(payload.get("schema"))
    records = payload.get("records")
    if not isinstance(records, list):
        raise ReproError("table records must be a list of objects")
    return Table.from_records(schema, records)


def published_to_dict(published: BucketizedTable) -> dict:
    """Wire form of a bucketized release: schema + per-bucket QI/SA bags."""
    return {
        "schema": schema_to_dict(published.schema),
        "buckets": [
            {
                "qi_tuples": [list(q) for q in bucket.qi_tuples],
                "sa_values": list(bucket.sa_values),
            }
            for bucket in published.buckets
        ],
    }


def published_from_dict(payload) -> BucketizedTable:
    """Rebuild a :class:`~repro.anonymize.buckets.BucketizedTable`."""
    payload = _require_mapping(payload, "release")
    _check_keys(payload, ("schema", "buckets"), "release")
    schema = schema_from_dict(payload.get("schema"))
    raw_buckets = payload.get("buckets")
    if not isinstance(raw_buckets, list) or not raw_buckets:
        raise ReproError("release needs a non-empty list of buckets")
    buckets = []
    for index, raw in enumerate(raw_buckets):
        raw = _require_mapping(raw, f"bucket {index}")
        _check_keys(raw, ("qi_tuples", "sa_values"), f"bucket {index}")
        try:
            buckets.append(
                Bucket(
                    index=index,
                    qi_tuples=tuple(tuple(q) for q in raw["qi_tuples"]),
                    sa_values=tuple(raw["sa_values"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ReproError(f"malformed bucket {index}: {exc!r}") from exc
    return BucketizedTable(schema, buckets)


# -- knowledge statements ------------------------------------------------------

#: type tag <-> statement class; extending the statement language means
#: adding one row here (both directions stay in sync by construction).
_STATEMENT_TYPES: dict[str, type] = {
    "conditional_probability": ConditionalProbability,
    "joint_probability": JointProbability,
    "conditional_interval": ConditionalInterval,
    "comparison": Comparison,
}
_TYPE_OF_STATEMENT = {cls: tag for tag, cls in _STATEMENT_TYPES.items()}
#: Field names of each statement class, in declaration order.
_STATEMENT_FIELDS = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in _STATEMENT_TYPES.values()
}


def statement_to_dict(statement: Statement) -> dict:
    """Wire form of one background-knowledge statement.

    The same dict ``dataclasses.asdict`` gives, plus the ``type`` tag,
    built shallowly: every field is a scalar except the ``given``
    mapping of strings, which is copied.
    """
    cls = type(statement)
    tag = _TYPE_OF_STATEMENT.get(cls)
    if tag is None:
        raise KnowledgeError(
            f"statement type {cls.__name__} has no wire form "
            "(individual-level statements are not served yet)"
        )
    payload = {
        name: getattr(statement, name) for name in _STATEMENT_FIELDS[cls]
    }
    payload["given"] = dict(payload["given"])
    payload["type"] = tag
    return payload


def statement_from_dict(payload) -> Statement:
    """Rebuild a statement from its wire form (strict on type and fields)."""
    payload = _require_mapping(payload, "statement")
    tag = payload.get("type")
    cls = _STATEMENT_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise KnowledgeError(
            f"unknown statement type {tag!r}; expected one of "
            f"{sorted(_STATEMENT_TYPES)}"
        )
    _check_keys(payload, {*_STATEMENT_FIELDS[cls], "type"}, f"{tag} statement")
    kwargs = {key: value for key, value in payload.items() if key != "type"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise KnowledgeError(f"malformed {tag} statement: {exc}") from exc


def statements_from_list(payload) -> list[Statement]:
    """Rebuild a whole knowledge list (the posterior-request body form)."""
    if payload is None:
        return []
    if not isinstance(payload, list):
        raise ReproError("statements must be a JSON list")
    return [statement_from_dict(item) for item in payload]


# -- configs and bounds --------------------------------------------------------


def config_to_dict(config: MaxEntConfig) -> dict:
    """Wire form of a solver/engine config."""
    return dataclasses.asdict(config)


#: Config keys older clients still send (the retired executor knobs).
#: Servers never honoured them, so they are accepted and dropped.
RETIRED_CONFIG_KEYS = frozenset({"executor", "workers", "cluster_workers"})

#: Retired solver knobs older clients still send: each with the type it
#: had and the values that asked for what every solve now runs — the
#: L-BFGS dual on the full, presolved constraint system, warm-started,
#: within ``tol``, with the fixed infeasibility threshold (any of the old
#: segment-kernel names, too: they only picked how the same reductions
#: ran).  Those values are accepted and dropped; a value of another type,
#: or any other value, asked for a different program and is rejected.
RETIRED_SOLVER_KEYS = {
    "solver": ("str", ("lbfgs",)),
    "drop_redundant": ("bool", (False,)),
    "kernel": ("str", ("auto", "numpy", "numba")),
    "use_presolve": ("bool", (True,)),
    "warm_start": ("bool", (True,)),
    "replay": ("str", ("tolerance",)),
    "infeasibility_threshold": ("float", (INFEASIBILITY_THRESHOLD,)),
}


def config_from_dict(payload) -> MaxEntConfig:
    """Rebuild a :class:`MaxEntConfig`; unknown knobs are rejected.

    Keys in :data:`RETIRED_CONFIG_KEYS` are dropped, and so are keys in
    :data:`RETIRED_SOLVER_KEYS` carrying an accepted value of the knob's
    old type, so request bodies from older clients keep working.  A
    retired solver key with any other value raises, naming the key.
    """
    if payload is None:
        return MaxEntConfig()
    payload = _require_mapping(payload, "config")
    for key, (annotation, accepted) in RETIRED_SOLVER_KEYS.items():
        if key not in payload:
            continue
        _check_config_value(key, payload[key], annotation)
        if payload[key] not in accepted:
            raise ReproError(
                f"config field {key!r} is retired and accepts only "
                f"{list(accepted)} (what every solve now runs), got "
                f"{payload[key]!r}"
            )
    payload = {
        key: value
        for key, value in payload.items()
        if key not in RETIRED_CONFIG_KEYS and key not in RETIRED_SOLVER_KEYS
    }
    fields = {f.name: f.type for f in dataclasses.fields(MaxEntConfig)}
    _check_keys(payload, fields, "config")
    for key, value in payload.items():
        _check_config_value(key, value, fields[key])
    return MaxEntConfig(**payload)


#: The JSON values each :class:`MaxEntConfig` annotation accepts.  Bools
#: are never numbers here, and numbers must be finite.
_CONFIG_VALUE_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "str | None": (str, type(None)),
}


def _check_config_value(key: str, value, annotation: str) -> None:
    """Reject a config value whose JSON type the knob cannot take."""
    accepted = _CONFIG_VALUE_TYPES[annotation]
    if (
        not isinstance(value, accepted)
        or (isinstance(value, bool) and bool not in accepted)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ReproError(
            f"config field {key!r} must be {annotation}, got "
            f"{type(value).__name__} {value!r}"
        )


def bound_to_dict(bound: TopKBound) -> dict:
    """Wire form of a Top-(K+, K-) bound."""
    return dataclasses.asdict(bound)


def bound_from_dict(payload) -> TopKBound:
    """Rebuild a :class:`TopKBound` (strict)."""
    payload = _require_mapping(payload, "bound")
    fields = {f.name for f in dataclasses.fields(TopKBound)}
    _check_keys(payload, fields, "bound")
    try:
        return TopKBound(**payload)
    except TypeError as exc:
        raise ReproError(f"malformed bound: {exc}") from exc


def mining_config_from_dict(payload) -> MiningConfig:
    """Rebuild a :class:`MiningConfig`; ``None`` means defaults."""
    if payload is None:
        return MiningConfig()
    payload = _require_mapping(payload, "mining config")
    fields = {f.name for f in dataclasses.fields(MiningConfig)}
    _check_keys(payload, fields, "mining config")
    return MiningConfig(**payload)


# -- results -------------------------------------------------------------------


def stats_to_dict(stats: SolverStats) -> dict:
    """Wire form of solver statistics (plus the derived residual)."""
    payload = dataclasses.asdict(stats)
    payload["residual"] = stats.residual
    return payload


def stats_from_dict(payload) -> SolverStats:
    """Rebuild a :class:`SolverStats` from its wire form (strict).

    The derived ``residual`` key :func:`stats_to_dict` adds is accepted
    and discarded — it is recomputed from the residual fields.
    """
    payload = dict(_require_mapping(payload, "stats"))
    payload.pop("residual", None)
    fields = {f.name for f in dataclasses.fields(SolverStats)}
    _check_keys(payload, fields, "stats")
    try:
        return SolverStats(**payload)
    except TypeError as exc:
        raise ReproError(f"malformed stats payload: {exc}") from exc


def posterior_to_dict(posterior: PosteriorTable) -> dict:
    """Wire form of a posterior table ``P*(SA | QI)``."""
    return {
        "qi_tuples": [list(q) for q in posterior.qi_tuples],
        "sa_domain": list(posterior.sa_domain),
        "matrix": posterior.matrix.tolist(),
        "weights": posterior.weights.tolist(),
    }


def posterior_from_dict(payload) -> PosteriorTable:
    """Rebuild a :class:`PosteriorTable` (the client-side decode)."""
    payload = _require_mapping(payload, "posterior")
    _check_keys(
        payload, ("qi_tuples", "sa_domain", "matrix", "weights"), "posterior"
    )
    try:
        return PosteriorTable(
            [tuple(q) for q in payload["qi_tuples"]],
            tuple(payload["sa_domain"]),
            np.asarray(payload["matrix"], dtype=float),
            np.asarray(payload["weights"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed posterior payload: {exc!r}") from exc


def assessment_to_dict(assessment: PrivacyAssessment) -> dict:
    """Wire form of one (bound, privacy score) assessment."""
    return {
        "bound": assessment.bound,
        "n_constraints": assessment.n_constraints,
        "estimation_accuracy": assessment.estimation_accuracy,
        "max_disclosure": assessment.max_disclosure,
        "bayes_vulnerability": assessment.bayes_vulnerability,
        "effective_l": assessment.effective_l,
        "expected_entropy_bits": assessment.expected_entropy_bits,
        "stats": stats_to_dict(assessment.stats),
    }


def assessment_from_dict(payload) -> PrivacyAssessment:
    """Rebuild a :class:`PrivacyAssessment` (the client-side decode)."""
    payload = _require_mapping(payload, "assessment")
    stats = stats_from_dict(payload.get("stats"))
    try:
        return PrivacyAssessment(
            bound=payload["bound"],
            n_constraints=payload["n_constraints"],
            estimation_accuracy=payload["estimation_accuracy"],
            max_disclosure=payload["max_disclosure"],
            bayes_vulnerability=payload["bayes_vulnerability"],
            effective_l=payload["effective_l"],
            expected_entropy_bits=payload["expected_entropy_bits"],
            stats=stats,
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed assessment payload: {exc!r}") from exc
