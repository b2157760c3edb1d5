"""Request parsing and response shaping of the analysis service.

The wire format is plain JSON over HTTP, built entirely from the
schema-versioned codecs in :mod:`repro.io.serialization`: systems and
configurations travel as their existing document schemas, analysis and
optimisation results as theirs, and every body is wrapped in the
service envelope (:func:`repro.io.serialization.envelope`).  This
module turns validated envelopes into typed request records -- raising
:class:`~repro.errors.ServiceError` with the right HTTP status on any
malformed input -- and shapes the response payloads the endpoints
return.

Request bodies
--------------
``POST /analyse``::

    {"system": <system doc>, "config": <config doc>,
     "options": {"backend": "python", "fault_hypothesis": null}}

``POST /campaigns``::

    {"systems": {"s0": <system doc>, ...},
     "strategies": ["bbc", {"name": "sa", "iterations": 50, "seed": 7}],
     "budget": {"max_seconds": 5.0, "max_evaluations": 2000}}

Strategy entries are either a bare registry name or an object whose
``name`` picks the registry entry and whose remaining keys are fields
of that strategy's option record (``SAOptions.iterations``,
``StrategyOptions.max_evaluations``...).  The request-level ``budget``
maps onto :class:`~repro.core.strategies.StrategyOptions.max_seconds` /
``max_evaluations`` of every strategy that did not set its own -- the
per-request budget control of the service layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass
from json.decoder import JSONDecodeError, scanstring
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.holistic import AnalysisOptions
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import StrategyOptions, get_strategy
from repro.errors import (
    ConfigurationError,
    OptimisationError,
    ReproError,
    SerializationError,
    ServiceError,
)
from repro.io.serialization import (
    analysis_options_from_dict,
    analysis_options_to_dict,
    analysis_result_to_dict,
    config_from_dict,
    envelope,
    parse_envelope,
    system_from_dict,
)
from repro.model.system import System
from repro.service.pool import SystemMemo

__all__ = [
    "AnalyseRequest",
    "CampaignRequest",
    "analyse_response",
    "invalid_json",
    "parse_analyse_request",
    "parse_campaign_request",
]

#: Budget keys accepted at the request level and per strategy entry.
BUDGET_FIELDS = ("max_seconds", "max_evaluations")


@dataclass(frozen=True)
class AnalyseRequest:
    """One validated ``POST /analyse`` body."""

    system: System
    config: Any  # FlexRayConfig
    options: AnalysisOptions
    fingerprint: str

    def options_key(self) -> str:
        """The pool-key half describing the analysis options."""
        doc = json.dumps(analysis_options_to_dict(self.options), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class CampaignRequest:
    """One validated ``POST /campaigns`` body."""

    systems: Dict[str, System]
    strategies: List[Tuple[str, StrategyOptions]]
    spec: Dict[str, Any]  # the canonical raw request document

    @property
    def campaign_id(self) -> str:
        """Deterministic id: the digest of the canonical spec.

        Content-addressed on purpose: re-submitting the same campaign
        (to the same or a restarted server) lands on the same id and
        therefore the same checkpoint directory, so the checkpoint
        protocol deduplicates the work instead of repeating it.
        """
        doc = json.dumps(self.spec, sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def _bad_request(message: str) -> ServiceError:
    return ServiceError(message, status=400)


def _require(data: Dict[str, Any], key: str) -> Any:
    if key not in data:
        raise _bad_request(f"request is missing the {key!r} field")
    return data[key]


def invalid_json(exc: ValueError) -> ServiceError:
    """The 400 of a body that is not UTF-8 JSON."""
    return _bad_request(f"body is not valid JSON: {exc}")


_DECODER = json.JSONDecoder()
_skip_ws = re.compile(r"[ \t\n\r]*").match  # JSON's four whitespace chars


class _SystemMember(NamedTuple):
    """The ``system`` member of an analyse body, as the walk found it."""

    raw: str  # its exact request text
    doc: Any  # its decoded value (None when the memo knew *raw*)
    known: Optional[Tuple[System, str]]  # the memo's decode of *raw*


def _analyse_members(text: str, systems: SystemMemo) -> Any:
    """Decode *text* as :func:`json.loads` does, except that a top-level
    ``system`` member is a :class:`_SystemMember` and is not decoded
    when the *systems* memo holds its text.

    The top-level object is walked with the stdlib decoder's own parts
    (``scanstring`` per key, ``raw_decode`` per value), so a duplicated
    key is last-wins and a body is refused exactly when ``json.loads``
    refuses it, with a :class:`~json.JSONDecodeError` whose wording may
    differ from that Python version's (see :func:`parse_analyse_request`).
    """
    end = _skip_ws(text, 0).end()
    if text[end:end + 1] != "{":
        data, end = _DECODER.raw_decode(text, end)
    else:
        data = {}
        end = _skip_ws(text, end + 1).end()
        more = text[end:end + 1] != "}"
        while more:
            if text[end:end + 1] != '"':
                raise JSONDecodeError(
                    "Expecting property name enclosed in double quotes",
                    text, end,
                )
            key, end = scanstring(text, end + 1, True)
            end = _skip_ws(text, end).end()
            if text[end:end + 1] != ":":
                raise JSONDecodeError("Expecting ':' delimiter", text, end)
            end = _skip_ws(text, end + 1).end()
            found = systems.match(text, end) if key == "system" else None
            if found is not None:
                raw, known = found
                data[key] = _SystemMember(raw, None, known)
                end += len(raw)
            else:
                value, after = _DECODER.raw_decode(text, end)
                data[key] = (
                    _SystemMember(text[end:after], value, None)
                    if key == "system" else value
                )
                end = after
            end = _skip_ws(text, end).end()
            more = text[end:end + 1] != "}"
            if more:
                if text[end:end + 1] != ",":
                    raise JSONDecodeError("Expecting ',' delimiter", text, end)
                end = _skip_ws(text, end + 1).end()
        end += 1
    end = _skip_ws(text, end).end()
    if end != len(text):
        raise JSONDecodeError("Extra data", text, end)
    return data


def parse_analyse_request(text: str, systems: SystemMemo) -> AnalyseRequest:
    """Validate and decode a ``POST /analyse`` body from its text; the
    system document is decoded through the server's *systems* memo,
    which skips the JSON decode of a system text it has seen before."""
    try:
        data = _analyse_members(text, systems)
    except JSONDecodeError as exc:
        # Only a body json.loads refuses too gets here: report its
        # error, whose wording varies between Python versions.
        try:
            json.loads(text)
        except JSONDecodeError as reference:
            exc = reference
        raise invalid_json(exc) from exc
    try:
        data = parse_envelope(data, "analyse_request")
        member = _require(data, "system")
        if member.known is not None:
            system, fingerprint = systems.hit(member.raw, member.known)
        else:
            system, fingerprint = systems.decode(member.raw, member.doc)
        config = config_from_dict(_require(data, "config"))
        options = analysis_options_from_dict(data.get("options"))
    except SerializationError as exc:
        raise _bad_request(str(exc)) from exc
    return AnalyseRequest(
        system=system,
        config=config,
        options=options,
        fingerprint=fingerprint,
    )


def _strategy_options(
    name: str, fields: Dict[str, Any], budget: Dict[str, Any]
) -> StrategyOptions:
    """Build a registry strategy's option record from JSON fields.

    Accepts exactly the strategy's dataclass fields (minus ``bus``,
    which is server-side state, not wire format); the request-level
    *budget* fills ``max_seconds``/``max_evaluations`` the entry left
    unset.
    """
    try:
        spec = get_strategy(name)
    except OptimisationError as exc:
        raise _bad_request(str(exc)) from exc
    legal = {
        f.name for f in dataclasses.fields(spec.options_type) if f.name != "bus"
    }
    unknown = set(fields) - legal
    if unknown:
        raise _bad_request(
            f"strategy {name!r} has no option(s) {sorted(unknown)}; "
            f"it accepts {sorted(legal)}"
        )
    merged = dict(fields)
    for key in BUDGET_FIELDS:
        if key not in merged and budget.get(key) is not None:
            merged[key] = budget[key]
    try:
        return spec.options_type(**merged)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise _bad_request(f"bad options for strategy {name!r}: {exc}") from exc


def parse_campaign_request(data: Any) -> CampaignRequest:
    """Validate and decode a ``POST /campaigns`` body."""
    try:
        data = parse_envelope(data, "campaign_request")
    except SerializationError as exc:
        raise _bad_request(str(exc)) from exc
    systems_doc = _require(data, "systems")
    if not isinstance(systems_doc, dict) or not systems_doc:
        raise _bad_request("'systems' must be a non-empty {id: system} object")
    systems: Dict[str, System] = {}
    for system_id, doc in systems_doc.items():
        try:
            systems[system_id] = system_from_dict(doc)
        except SerializationError as exc:
            raise _bad_request(f"system {system_id!r}: {exc}") from exc
    budget = data.get("budget") or {}
    if not isinstance(budget, dict) or set(budget) - set(BUDGET_FIELDS):
        raise _bad_request(
            f"'budget' must be an object with keys from {list(BUDGET_FIELDS)}"
        )
    entries = _require(data, "strategies")
    if not isinstance(entries, list) or not entries:
        raise _bad_request("'strategies' must be a non-empty list")
    strategies: List[Tuple[str, StrategyOptions]] = []
    for entry in entries:
        if isinstance(entry, str):
            name, fields = entry, {}
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            fields = {k: v for k, v in entry.items() if k != "name"}
            name = entry["name"]
        else:
            raise _bad_request(
                f"each strategy entry must be a name or an object with a "
                f"'name' field, got {entry!r}"
            )
        strategies.append((name, _strategy_options(name, fields, budget)))
    # Canonicalise the spec (defaults resolved, envelope fields dropped)
    # so semantically identical requests share a campaign id.
    spec = {
        "systems": {sid: systems_doc[sid] for sid in sorted(systems_doc)},
        "strategies": [
            entry if isinstance(entry, dict) else {"name": entry}
            for entry in entries
        ],
        "budget": {k: budget.get(k) for k in BUDGET_FIELDS},
    }
    return CampaignRequest(systems=systems, strategies=strategies, spec=spec)


def analyse_response(
    request: AnalyseRequest, result: Any, service: Dict[str, Any]
) -> Dict[str, Any]:
    """Shape the ``POST /analyse`` response body.

    ``result`` is the :class:`~repro.analysis.holistic.AnalysisResult`;
    ``service`` carries the per-request pool accounting (pool hit flag,
    exact evaluations, cross-request cache hits) the server measured.
    """
    return envelope(
        "analysis",
        {
            "fingerprint": request.fingerprint,
            "result": analysis_result_to_dict(result),
            "service": service,
        },
    )


def runtime_bus_options(options: AnalysisOptions) -> BusOptimisationOptions:
    """The evaluator options one analyse request implies."""
    return BusOptimisationOptions(analysis=options)


def guard_repro_error(exc: ReproError) -> ServiceError:
    """Map a library error to the service error shape (HTTP 422).

    Well-formed JSON that the analysis stack rejects (a config
    violating the protocol spec, an inconsistent model) is a semantic
    problem with the request, not a server fault.
    """
    if isinstance(exc, ServiceError):
        return exc
    return ServiceError(f"{type(exc).__name__}: {exc}", status=422)
