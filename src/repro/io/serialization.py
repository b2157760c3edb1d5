"""JSON serialization of systems, configurations and optimiser results.

Round-trips the full application model so benchmark inputs and optimiser
outputs can be stored, diffed and re-loaded.  The format is a plain
nested-dict schema with a version tag; unknown versions are rejected
rather than mis-parsed.

Optimisation results (:func:`result_to_dict` / :func:`load_result`)
carry their own ``result_schema`` version on top of the document
version: the campaign layer (:mod:`repro.core.campaign`) persists every
job outcome through this schema, so checkpoints written by one code
generation are either readable by the next or rejected loudly.  Two
deliberate lossy choices, both recorded in the schema notes below:

* the schedule table of the best configuration is *not* persisted (it
  is cheap to rebuild by re-analysing the stored configuration);
* infinite costs (unschedulable / infeasible points) are written as
  JSON ``Infinity``, which Python's :mod:`json` reads back natively --
  the same convention the Fig. 9 benchmark artifacts already use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.analysis.holistic import AnalysisOptions, AnalysisResult
from repro.core.config import FlexRayConfig
from repro.core.cost import CostBreakdown
from repro.core.result import OptimisationResult, SearchPoint
from repro.errors import SerializationError
from repro.model.application import Application
from repro.model.graph import TaskGraph
from repro.model.message import Message, MessageKind
from repro.model.system import System
from repro.model.task import SchedulingPolicy, Task

FORMAT_VERSION = 1

#: Version of the :class:`OptimisationResult` JSON schema.  Bump when
#: the result/trace encoding changes shape; ``result_from_dict`` rejects
#: documents written by other schema generations.
RESULT_FORMAT_VERSION = 1

#: Version of the service request/response envelope schema
#: (:func:`envelope` / :func:`parse_envelope`).  Bump when the wire
#: shape of the analysis service changes; mismatched envelopes are
#: rejected rather than mis-parsed, exactly like document versions.
SERVICE_FORMAT_VERSION = 1

#: The :class:`~repro.analysis.holistic.AnalysisOptions` fields the
#: service protocol exposes.  Deliberately a subset: the remaining
#: knobs (schedule options, iteration limit, cap factor, fill strategy)
#: stay at their defaults, the settings every optimiser runs with.
ANALYSIS_OPTION_FIELDS = ("backend", "fault_hypothesis")


#: Field order of one encoded search-trace point (kept compact because
#: OBC/EE traces reach thousands of points per campaign job).
TRACE_FIELDS = (
    "n_static_slots",
    "gd_static_slot",
    "n_minislots",
    "cost",
    "schedulable",
    "exact",
)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def system_to_dict(system: System) -> Dict[str, Any]:
    """Encode a system as a JSON-compatible dict."""
    return {
        "version": FORMAT_VERSION,
        "nodes": list(system.nodes),
        "application": _application_to_dict(system.application),
    }


def _application_to_dict(app: Application) -> Dict[str, Any]:
    return {
        "name": app.name,
        "graphs": [_graph_to_dict(g) for g in app.graphs],
    }


def _graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    return {
        "name": graph.name,
        "period": graph.period,
        "deadline": graph.deadline,
        "tasks": [_task_to_dict(t) for t in graph.tasks],
        "messages": [_message_to_dict(m) for m in graph.messages],
        "precedences": [list(p) for p in graph.precedences],
    }


def _task_to_dict(task: Task) -> Dict[str, Any]:
    return {
        "name": task.name,
        "wcet": task.wcet,
        "node": task.node,
        "policy": task.policy.value,
        "priority": task.priority,
        "release": task.release,
        "deadline": task.deadline,
    }


def _message_to_dict(message: Message) -> Dict[str, Any]:
    return {
        "name": message.name,
        "size": message.size,
        "sender": message.sender,
        "receivers": list(message.receivers),
        "kind": message.kind.value,
        "priority": message.priority,
        "deadline": message.deadline,
    }


def config_to_dict(config: FlexRayConfig) -> Dict[str, Any]:
    """Encode a bus configuration as a JSON-compatible dict."""
    return {
        "version": FORMAT_VERSION,
        "static_slots": list(config.static_slots),
        "gd_static_slot": config.gd_static_slot,
        "n_minislots": config.n_minislots,
        "frame_ids": dict(config.frame_ids),
        "gd_minislot": config.gd_minislot,
        "bits_per_mt": config.bits_per_mt,
        "frame_overhead_bytes": config.frame_overhead_bytes,
    }


def search_point_to_list(point: SearchPoint) -> List[Any]:
    """Encode one trace point as a compact array (see ``TRACE_FIELDS``)."""
    return [
        point.n_static_slots,
        point.gd_static_slot,
        point.n_minislots,
        point.cost,
        point.schedulable,
        point.exact,
    ]


def _cost_to_dict(cost: CostBreakdown) -> Dict[str, Any]:
    return {
        "value": cost.value,
        "schedulable": cost.schedulable,
        "misses": cost.misses,
        "worst_violation": cost.worst_violation,
        "total_slack": cost.total_slack,
    }


def analysis_result_to_dict(result: AnalysisResult) -> Dict[str, Any]:
    """Encode an analysis outcome (without its schedule table)."""
    return {
        "config": config_to_dict(result.config),
        "feasible": result.feasible,
        "schedulable": result.schedulable,
        "converged": result.converged,
        "cost": None if result.cost is None else _cost_to_dict(result.cost),
        "wcrt": dict(result.wcrt),
        "failure": result.failure,
    }


def result_to_dict(result: OptimisationResult) -> Dict[str, Any]:
    """Encode an optimiser run outcome, trace included.

    The schedule table of the best configuration is dropped: rebuilding
    it is one ``analyse_system`` call on the stored configuration,
    while persisting it would dominate every checkpoint file.
    """
    return {
        "version": FORMAT_VERSION,
        "kind": "optimisation_result",
        "result_schema": RESULT_FORMAT_VERSION,
        "algorithm": result.algorithm,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "elapsed_seconds": result.elapsed_seconds,
        "stop_reason": result.stop_reason,
        "best": (
            None if result.best is None else analysis_result_to_dict(result.best)
        ),
        "trace_fields": list(TRACE_FIELDS),
        "trace": [search_point_to_list(p) for p in result.trace],
    }


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def system_from_dict(data: Dict[str, Any]) -> System:
    """Decode a system from :func:`system_to_dict` output."""
    _check_version(data)
    try:
        app_data = data["application"]
        graphs = tuple(_graph_from_dict(g) for g in app_data["graphs"])
        app = Application(app_data["name"], graphs)
        return System(tuple(data["nodes"]), app)
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed system document: {exc}") from exc


def _graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    return TaskGraph(
        name=data["name"],
        period=data["period"],
        deadline=data["deadline"],
        tasks=tuple(_task_from_dict(t) for t in data["tasks"]),
        messages=tuple(_message_from_dict(m) for m in data.get("messages", [])),
        precedences=tuple(
            (a, b) for a, b in data.get("precedences", [])
        ),
    )


def _task_from_dict(data: Dict[str, Any]) -> Task:
    return Task(
        name=data["name"],
        wcet=data["wcet"],
        node=data["node"],
        policy=SchedulingPolicy(data.get("policy", "SCS")),
        priority=data.get("priority", 0),
        release=data.get("release", 0),
        deadline=data.get("deadline"),
    )


def _message_from_dict(data: Dict[str, Any]) -> Message:
    return Message(
        name=data["name"],
        size=data["size"],
        sender=data["sender"],
        receivers=tuple(data["receivers"]),
        kind=MessageKind(data.get("kind", "DYN")),
        priority=data.get("priority", 0),
        deadline=data.get("deadline"),
    )


def config_from_dict(data: Dict[str, Any]) -> FlexRayConfig:
    """Decode a bus configuration from :func:`config_to_dict` output."""
    _check_version(data)
    try:
        return FlexRayConfig(
            static_slots=tuple(data["static_slots"]),
            gd_static_slot=data["gd_static_slot"],
            n_minislots=data["n_minislots"],
            frame_ids=dict(data.get("frame_ids", {})),
            gd_minislot=data.get("gd_minislot", 1),
            bits_per_mt=data.get("bits_per_mt", 8),
            frame_overhead_bytes=data.get("frame_overhead_bytes", 0),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed config document: {exc}") from exc


def search_point_from_list(data: List[Any]) -> SearchPoint:
    """Decode one trace point written by :func:`search_point_to_list`."""
    try:
        ns, gss, nm, cost, schedulable, exact = data
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed trace point {data!r}") from exc
    return SearchPoint(
        n_static_slots=ns,
        gd_static_slot=gss,
        n_minislots=nm,
        cost=cost,
        schedulable=schedulable,
        exact=exact,
    )


def _cost_from_dict(data: Dict[str, Any]) -> CostBreakdown:
    return CostBreakdown(
        value=data["value"],
        schedulable=data["schedulable"],
        misses=data["misses"],
        worst_violation=data["worst_violation"],
        total_slack=data["total_slack"],
    )


def analysis_result_from_dict(data: Dict[str, Any]) -> AnalysisResult:
    """Decode :func:`analysis_result_to_dict` output (``table`` is None)."""
    try:
        cost = data["cost"]
        return AnalysisResult(
            config=config_from_dict(data["config"]),
            feasible=data["feasible"],
            schedulable=data["schedulable"],
            converged=data["converged"],
            cost=None if cost is None else _cost_from_dict(cost),
            wcrt=dict(data["wcrt"]),
            table=None,
            failure=data.get("failure"),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(
            f"malformed analysis result document: {exc}"
        ) from exc


def result_from_dict(data: Dict[str, Any]) -> OptimisationResult:
    """Decode an optimiser run outcome from :func:`result_to_dict` output."""
    _check_version(data)
    if data.get("kind") != "optimisation_result":
        raise SerializationError(
            f"not an optimisation result document (kind={data.get('kind')!r})"
        )
    schema = data.get("result_schema")
    if schema != RESULT_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported result schema {schema!r} "
            f"(this library reads schema {RESULT_FORMAT_VERSION})"
        )
    try:
        best = data["best"]
        return OptimisationResult(
            algorithm=data["algorithm"],
            best=None if best is None else analysis_result_from_dict(best),
            evaluations=data["evaluations"],
            elapsed_seconds=data["elapsed_seconds"],
            trace=tuple(search_point_from_list(p) for p in data["trace"]),
            cache_hits=data.get("cache_hits", 0),
            stop_reason=data.get("stop_reason"),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed result document: {exc}") from exc


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported document version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_system(system: System, path: str) -> None:
    """Write a system to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)


def load_system(path: str) -> System:
    """Read a system from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))


def save_config(config: FlexRayConfig, path: str) -> None:
    """Write a bus configuration to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)


def load_config(path: str) -> FlexRayConfig:
    """Read a bus configuration from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_result(result: OptimisationResult, path: str) -> None:
    """Write an optimisation result (trace included) to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path: str) -> OptimisationResult:
    """Read an optimisation result from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return result_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# service envelopes (the JSON/HTTP layer of repro.service)
# ----------------------------------------------------------------------
def system_fingerprint(system: System) -> str:
    """Deterministic digest of a system's full serialized content.

    The identity key of the service layer's warm evaluator pool and of
    the campaign checkpoint protocol: two systems share a fingerprint
    exactly when their :func:`system_to_dict` documents are equal.
    """
    doc = json.dumps(system_to_dict(system), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def envelope(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap *payload* in a versioned service envelope.

    Every request and response body of the analysis service is one of
    these: ``{"service_version": N, "kind": ..., <payload>}``.  The
    payload keys are inlined (not nested) so hand-written client
    requests stay flat.
    """
    doc = {"service_version": SERVICE_FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    return doc


def parse_envelope(data: Any, expected_kind: str) -> Dict[str, Any]:
    """Validate a service envelope and return it; raises on mismatch.

    A missing ``service_version`` is accepted (hand-written requests
    may omit it and get the current schema); a *wrong* one is rejected
    loudly, as is a body that is not a JSON object or carries a
    different ``kind`` than the endpoint expects.
    """
    if not isinstance(data, dict):
        raise SerializationError(
            f"service body must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("service_version", SERVICE_FORMAT_VERSION)
    if version != SERVICE_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported service envelope version {version!r} "
            f"(this service speaks version {SERVICE_FORMAT_VERSION})"
        )
    kind = data.get("kind", expected_kind)
    if kind != expected_kind:
        raise SerializationError(
            f"expected a {expected_kind!r} body, got kind={kind!r}"
        )
    return data


def error_to_dict(code: str, message: str, status: int = 400) -> Dict[str, Any]:
    """The one error shape every service endpoint answers with.

    ``code`` is a stable machine-readable slug (``"bad-request"``,
    ``"over-capacity"``, ``"not-found"``...), ``message`` the human
    explanation, ``status`` the HTTP status the transport used.
    """
    return envelope(
        "error", {"error": {"code": code, "message": message, "status": status}}
    )


def analysis_options_to_dict(options: AnalysisOptions) -> Dict[str, Any]:
    """Encode the service-facing subset of analysis options."""
    return {
        field: getattr(options, field) for field in ANALYSIS_OPTION_FIELDS
    }


def analysis_options_from_dict(
    data: Optional[Dict[str, Any]]
) -> AnalysisOptions:
    """Decode analysis options from a service request (``None`` = defaults).

    Unknown keys are rejected rather than ignored: a client asking for
    an option this schema does not carry should learn so from the
    error, not from silently-default behaviour.
    """
    if data is None:
        return AnalysisOptions()
    if not isinstance(data, dict):
        raise SerializationError(
            f"analysis options must be a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - set(ANALYSIS_OPTION_FIELDS)
    if unknown:
        raise SerializationError(
            f"unknown analysis option(s) {sorted(unknown)}; "
            f"this schema carries {list(ANALYSIS_OPTION_FIELDS)}"
        )
    return AnalysisOptions(**data)


# ----------------------------------------------------------------------
# evaluator options (the fabric manifest's campaign-wide bus preset)
# ----------------------------------------------------------------------
def _dataclass_scalars(options, *, skip=()) -> Dict[str, Any]:
    """Every scalar dataclass field of *options* as a JSON-safe dict."""
    doc: Dict[str, Any] = {}
    for f in dataclasses.fields(options):
        if f.name in skip:
            continue
        value = getattr(options, f.name)
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise SerializationError(
                f"option field {f.name!r} of {type(options).__name__} is "
                f"not JSON-scalar ({type(value).__name__}); it cannot ride "
                f"a fabric manifest"
            )
        doc[f.name] = value
    return doc


def _dataclass_from_scalars(cls, data: Dict[str, Any], *, skip=(), **fixed):
    """Inverse of :func:`_dataclass_scalars`; rejects unknown keys."""
    legal = {f.name for f in dataclasses.fields(cls)} - set(skip)
    unknown = set(data) - legal
    if unknown:
        raise SerializationError(
            f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
            f"this schema carries {sorted(legal)}"
        )
    try:
        return cls(**data, **fixed)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad {cls.__name__} document: {exc}") from exc


def strategy_options_to_fields(options) -> Dict[str, Any]:
    """Encode a strategy option record as wire-format entry fields.

    The inverse direction of the service/fabric strategy-entry schema
    (``{"name": ..., <option fields>}``, see
    :func:`repro.service.protocol.parse_campaign_request`): every
    dataclass field except ``bus`` -- evaluator options travel once per
    campaign, not per strategy entry -- as JSON scalars.
    """
    return _dataclass_scalars(options, skip=("bus",))


def bus_options_to_dict(options) -> Dict[str, Any]:
    """Encode a full :class:`~repro.core.search.BusOptimisationOptions`.

    Unlike :func:`analysis_options_to_dict` (the deliberately narrow
    client-facing schema), this codec round-trips *every* knob --
    including the nested analysis and schedule records -- because the
    distributed fabric (:mod:`repro.core.fabric`) must hand a worker
    process the exact evaluator preset the coordinator ran with.
    """
    doc = _dataclass_scalars(options, skip=("analysis",))
    analysis = _dataclass_scalars(options.analysis, skip=("schedule",))
    analysis["schedule"] = _dataclass_scalars(options.analysis.schedule)
    doc["analysis"] = analysis
    return doc


def bus_options_from_dict(data: Optional[Dict[str, Any]]):
    """Decode :func:`bus_options_to_dict` output (``None`` = ``None``).

    ``None`` stays ``None`` (strategy options treat an absent bus record
    as "library defaults"), mirroring
    :meth:`repro.core.strategies.StrategyOptions.bus_options`.
    """
    from repro.analysis.scheduler import ScheduleOptions
    from repro.core.search import BusOptimisationOptions

    if data is None:
        return None
    if not isinstance(data, dict):
        raise SerializationError(
            f"bus options must be a JSON object, got {type(data).__name__}"
        )
    doc = dict(data)
    # Written by every document from before the chunked OBC loop was
    # removed; chunk 1 was the plain Fig. 6 loop, so those still load.
    chunk = doc.pop("obc_chunk_size", 1)
    if chunk != 1:
        raise SerializationError(
            f"bus options set the removed field obc_chunk_size={chunk!r}; "
            "the chunked OBC loop no longer exists, so this search "
            "cannot be reproduced"
        )
    analysis_doc = doc.pop("analysis", None) or {}
    if not isinstance(analysis_doc, dict):
        raise SerializationError("'analysis' must be a JSON object")
    analysis_doc = dict(analysis_doc)
    schedule = _dataclass_from_scalars(
        ScheduleOptions, analysis_doc.pop("schedule", None) or {}
    )
    analysis = _dataclass_from_scalars(
        AnalysisOptions, analysis_doc, skip=("schedule",), schedule=schedule
    )
    return _dataclass_from_scalars(
        BusOptimisationOptions, doc, skip=("analysis",), analysis=analysis
    )
