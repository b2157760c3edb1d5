"""The JSON/HTTP front of the analysis service (stdlib only).

``python -m repro serve`` stands up a
:class:`http.server.ThreadingHTTPServer` exposing the analysis and
search runtime:

========  ==================  ===========================================
method    path                behaviour
========  ==================  ===========================================
POST      ``/analyse``        analyse one (system, config) pair on the
                              warm evaluator pool; 422 on semantic
                              errors, 429 over the admission cap
POST      ``/campaigns``      submit a (system x strategy) matrix; runs
                              async on the campaign store, returns the
                              content-addressed campaign id (202, or
                              200 when the id already exists)
GET       ``/campaigns/<id>`` progress snapshot / terminal report
DELETE    ``/campaigns/<id>`` abandon a finished campaign and erase its
                              state (404 unknown, 409 while running --
                              notably fabric-backed campaigns whose
                              directory external workers may hold
                              leases in)
GET       ``/health``         liveness + pool, admission and campaign
                              accounting
POST      ``/shutdown``       graceful stop (the response is sent first)
========  ==================  ===========================================

Scaling model -- the three mechanisms the tests pin:

* **Warm pool** (:class:`~repro.service.pool.EvaluatorPool`): requests
  for the same system fingerprint share one resident
  :class:`~repro.core.search.Evaluator`; its result cache doubles as
  the shared cross-request result cache, and every response reports
  whether the request hit a warm evaluator and what it cost.  The
  handler hands ``/analyse`` its body as text, and a system document
  whose exact text the server has decoded before is matched by that
  text and not parsed again (:class:`~repro.service.pool.SystemMemo`).
* **Admission control**: at most ``max_concurrent`` analyse requests
  are processed at once; requests beyond the cap are rejected
  *immediately* with 429 + ``Retry-After`` instead of queueing without
  bound (clients retry; no accepted work is ever dropped).  Campaign
  submissions are capped separately (``max_campaigns`` running).
* **Durability**: campaign state rides the checkpoint protocol
  (:mod:`repro.service.state`), so a killed server resumes in-flight
  campaigns on restart.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.core.search import BusOptimisationOptions
from repro.errors import ReproError, ServiceError
from repro.io.serialization import envelope, error_to_dict
from repro.service.pool import EvaluatorPool, SystemMemo
from repro.service.protocol import (
    analyse_response,
    guard_repro_error,
    invalid_json,
    parse_analyse_request,
    parse_campaign_request,
    runtime_bus_options,
)
from repro.service.state import CampaignStore

__all__ = ["AnalysisService", "ServiceConfig", "create_server", "serve"]

logger = logging.getLogger(__name__)

#: Seconds a client gets to deliver a whole request body once its head
#: is in: a peer that announces more bytes than it sends is answered
#: 408 and disconnected instead of pinning a handler thread.
BODY_DEADLINE_S = 10.0


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service process."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; the bound port is printed
    #: Directory holding campaign specs, checkpoints and reports; the
    #: resume-on-restart contract only holds when successive server
    #: processes share it.
    state_dir: str = "service-state"
    #: Analyse requests processed concurrently before 429s start.
    max_concurrent: int = 8
    #: Warm evaluators kept resident (LRU beyond this).
    pool_entries: int = 8
    #: Campaigns running at once before submissions get 429.
    max_campaigns: int = 4
    #: Evaluator options applied to campaign jobs (None = defaults).
    bus: Optional[BusOptimisationOptions] = None
    #: Run campaigns through the distributed fabric
    #: (:mod:`repro.core.fabric`): each campaign directory becomes a
    #: fabric that external ``repro work`` processes can join.
    fabric: bool = False


class AnalysisService:
    """Endpoint logic, shared by every handler thread."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.pool = EvaluatorPool(max_entries=config.pool_entries)
        self.systems = SystemMemo(max_entries=config.pool_entries)
        self.store = CampaignStore(
            config.state_dir, bus=config.bus, fabric=config.fabric
        )
        self._gate = threading.Lock()
        self.active = 0
        self.peak_active = 0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        with self._gate:
            if self.active >= self.config.max_concurrent:
                self.rejected += 1
                return False
            self.active += 1
            self.admitted += 1
            self.peak_active = max(self.peak_active, self.active)
            return True

    def _release(self) -> None:
        with self._gate:
            self.active -= 1

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def analyse(self, text: str) -> Tuple[int, Dict[str, Any]]:
        request = parse_analyse_request(text, self.systems)
        if not self._admit():
            raise ServiceError(
                f"over capacity: {self.config.max_concurrent} analyse "
                f"request(s) already in flight; retry shortly",
                status=429,
            )
        try:
            with self.pool.lease(
                request.fingerprint,
                request.options_key(),
                request.system,
                runtime_bus_options(request.options),
            ) as lease:
                evaluator = lease.evaluator
                before = evaluator.stats()
                try:
                    result = evaluator.analyse(request.config)
                except ReproError as exc:
                    raise guard_repro_error(exc) from exc
                finally:
                    # Nothing reads a pooled evaluator's search trace:
                    # drop the point each miss appends, or it grows for
                    # the evaluator's whole pooled life.
                    evaluator.trace.clear()
                spent = evaluator.stats().since(before)
            service = {
                "pool_hit": lease.hit,
                "evaluations": spent.evaluations,
                "cache_hits": spent.cache_hits,
                "cache_entries": spent.cache_entries,
            }
            return 200, analyse_response(request, result, service)
        finally:
            self._release()

    def submit_campaign(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        request = parse_campaign_request(body)
        outcome = self.store.submit_guarded(
            request, self.config.max_campaigns
        )
        status = 202 if outcome["created"] else 200
        return status, envelope("campaign_accepted", outcome)

    def campaign_snapshot(self, campaign_id: str) -> Tuple[int, Dict[str, Any]]:
        return 200, envelope("campaign_status", self.store.get(campaign_id))

    def delete_campaign(self, campaign_id: str) -> Tuple[int, Dict[str, Any]]:
        return 200, envelope(
            "campaign_deleted", self.store.delete(campaign_id)
        )

    def health(self) -> Tuple[int, Dict[str, Any]]:
        with self._gate:
            admission = {
                "active": self.active,
                "peak_active": self.peak_active,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "max_concurrent": self.config.max_concurrent,
            }
        return 200, envelope(
            "health",
            {
                "status": "ok",
                "admission": admission,
                "pool": self.pool.stats(),
                "systems": self.systems.stats(),
                "campaigns": self.store.stats(),
            },
        )

    def close(self) -> None:
        self.pool.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`AnalysisService`."""

    server: "ServiceServer"

    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: Dict[str, Any], **headers) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), str(value))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, exc: ServiceError) -> None:
        codes = {400: "bad-request", 404: "not-found", 408: "request-timeout",
                 409: "conflict", 422: "unprocessable", 429: "over-capacity"}
        code = codes.get(exc.status, "error")
        extra = {"Retry_After": "1"} if exc.status == 429 else {}
        if self.close_connection:
            extra["Connection"] = "close"
        self._reply(exc.status, error_to_dict(code, str(exc), exc.status), **extra)

    def _read_text(self) -> str:
        """The request body, decoded from UTF-8 (400 when it is empty)."""
        header = (self.headers.get("Content-Length") or "0").strip()
        # Only a plain decimal count: "abc" would raise inside int(),
        # and "-1" would make read() block until the client hangs up.
        if not (header.isascii() and header.isdigit()):
            raise ServiceError(
                f"Content-Length {header!r} is not a non-negative "
                "decimal integer",
                status=400,
            )
        length = int(header)
        raw = self._read_exactly(length) if length else b""
        if not raw:
            raise ServiceError("request body is empty", status=400)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise invalid_json(exc) from None

    def _read_body(self) -> Any:
        """The request body as decoded JSON."""
        try:
            return json.loads(self._read_text())
        except json.JSONDecodeError as exc:
            raise invalid_json(exc) from None

    def _read_exactly(self, length: int) -> bytes:
        """The *length* body bytes, read within :data:`BODY_DEADLINE_S`.

        A body that is cut short (408 when the deadline passes, 400 when
        the peer closes first) leaves the stream out of step, so the
        connection is closed after the error reply.
        """
        deadline = time.monotonic() + BODY_DEADLINE_S
        chunks = []
        got = 0
        try:
            while got < length:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout
                self.connection.settimeout(left)
                chunk = self.rfile.read1(length - got)
                if not chunk:
                    self.close_connection = True
                    raise ServiceError(
                        f"request body ended after {got} of {length} "
                        "bytes (the client closed the connection)",
                        status=400,
                    )
                chunks.append(chunk)
                got += len(chunk)
        except socket.timeout:
            self.close_connection = True
            raise ServiceError(
                f"request body incomplete after {BODY_DEADLINE_S:g} s "
                f"({got} of {length} bytes)",
                status=408,
            ) from None
        finally:
            self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def _dispatch(self, route) -> None:
        try:
            status, payload = route()
            self._reply(status, payload)
        except ServiceError as exc:
            self._error(exc)
        except ReproError as exc:
            self._error(guard_repro_error(exc))
        except Exception as exc:  # noqa: BLE001 - must answer, not hang
            logger.exception("unhandled service error")
            self._reply(
                500,
                error_to_dict(
                    "internal", f"{type(exc).__name__}: {exc}", 500
                ),
            )

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        if path == "/health":
            self._dispatch(service.health)
        elif path.startswith("/campaigns/"):
            campaign_id = path[len("/campaigns/"):]
            self._dispatch(lambda: service.campaign_snapshot(campaign_id))
        else:
            self._error(ServiceError(f"no such endpoint GET {path}", 404))

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path = self.path.rstrip("/")
        if path.startswith("/campaigns/"):
            campaign_id = path[len("/campaigns/"):]
            self._dispatch(lambda: service.delete_campaign(campaign_id))
        else:
            self._error(ServiceError(f"no such endpoint DELETE {path}", 404))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path = self.path.rstrip("/")
        if path == "/analyse":
            self._dispatch(lambda: service.analyse(self._read_text()))
        elif path == "/campaigns":
            self._dispatch(lambda: service.submit_campaign(self._read_body()))
        elif path == "/shutdown":
            self._reply(200, envelope("shutdown", {"status": "stopping"}))
            threading.Thread(
                target=self.server.shutdown, name="service-shutdown"
            ).start()
        else:
            self._error(ServiceError(f"no such endpoint POST {path}", 404))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s -- %s", self.address_string(), format % args)


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning one :class:`AnalysisService`."""

    daemon_threads = True  # a hard stop must not wait on handler threads

    def __init__(self, config: ServiceConfig):
        super().__init__((config.host, config.port), _Handler)
        self.service = AnalysisService(config)

    def server_close(self) -> None:  # release pooled evaluators too
        super().server_close()
        self.service.close()


def create_server(config: ServiceConfig) -> ServiceServer:
    """Build a server (bound, campaigns recovered, not yet serving).

    Recovery happens here -- before the first request -- so a client of
    a restarted server can immediately poll a campaign the previous
    process left in flight.
    """
    server = ServiceServer(config)
    recovered = server.service.store.recover()
    if recovered["resumed"]:
        logger.info(
            "resumed %d in-flight campaign(s): %s",
            len(recovered["resumed"]),
            ", ".join(recovered["resumed"]),
        )
    return server


def serve(config: ServiceConfig) -> int:
    """Blocking entry point of ``python -m repro serve``."""
    server = create_server(config)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (state: {config.state_dir})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
