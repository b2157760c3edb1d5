"""Campaign state of the analysis service: persistent and resumable.

Every submitted campaign lives in its own directory under the server's
state directory::

    <state_dir>/campaigns/<campaign_id>/
        spec.json          # the canonical request document
        checkpoints/       # per-job results (the campaign checkpoint protocol)
        result.json        # the terminal campaign report (written once, atomically)

The layout *is* the durability story: ``spec.json`` is written before
the first job runs, every finished job lands in ``checkpoints/``
through :mod:`repro.core.campaign`'s fingerprint-validated protocol,
and ``result.json`` appears only when the whole matrix is done.  A
server killed mid-campaign therefore restarts into one of three states
per campaign, all handled by :meth:`CampaignStore.recover`:

* ``result.json`` present -- the campaign finished; load the report.
* ``spec.json`` only -- the campaign was in flight; re-launch it.  The
  checkpoint store answers every already-finished job instantly and
  the interrupted job re-runs deterministically, so the final report
  is identical (modulo wall-clock fields) to an uninterrupted run.
* neither readable -- the directory is ignored (a campaign whose spec
  never finished writing was never acknowledged to any client).

Campaign ids are content-addressed
(:attr:`~repro.service.protocol.CampaignRequest.campaign_id`), so
re-submitting a spec -- to the same server or a restarted one -- joins
the existing campaign instead of duplicating work.

With ``fabric=True`` the store delegates execution to the distributed
fabric (:mod:`repro.core.fabric`): each campaign directory additionally
holds a fabric ``manifest.json`` (plus ``leases/``, ``journal/``...),
the server process works the matrix as one ordinary fabric worker, and
any number of external ``repro work <campaign dir>`` processes can
join in; the published results land in the same ``checkpoints/``
directory either way.  ``GET /campaigns/<id>`` counts each job this
process publishes as it lands; jobs published by other workers (or an
earlier server) appear, marked ``resumed``, when the matrix is
collected.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.campaign import campaign_matrix, run_campaign
from repro.core.fabric import fabric_collect, fabric_submit, fabric_work
from repro.core.search import BusOptimisationOptions
from repro.errors import ServiceError
from repro.io.serialization import result_to_dict
from repro.service.protocol import CampaignRequest, parse_campaign_request

__all__ = ["CampaignState", "CampaignStore"]


def _job_summary(result, resumed: bool) -> Dict[str, Any]:
    """One job's entry in the ``GET /campaigns/<id>`` ``jobs`` map."""
    return {
        "resumed": resumed,
        "schedulable": result.schedulable,
        "cost": result.cost,
        "evaluations": result.evaluations,
        "trace_points": len(result.trace),
        "stop_reason": result.stop_reason,
    }


class CampaignState:
    """In-memory view of one campaign (guarded by the store's lock)."""

    def __init__(self, campaign_id: str, total_jobs: int):
        self.campaign_id = campaign_id
        self.status = "running"  # running | done | failed
        self.total_jobs = total_jobs
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.report: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()

    def snapshot(self) -> Dict[str, Any]:
        """The ``GET /campaigns/<id>`` payload for this campaign."""
        doc: Dict[str, Any] = {
            "campaign": self.campaign_id,
            "status": self.status,
            "jobs_total": self.total_jobs,
            "jobs_done": len(self.jobs),
            "jobs": dict(self.jobs),
        }
        if self.report is not None:
            doc["report"] = self.report
        if self.error is not None:
            doc["error"] = self.error
        return doc


class CampaignStore:
    """Submit, track, persist and recover campaigns."""

    def __init__(
        self,
        state_dir: str,
        bus: Optional[BusOptimisationOptions] = None,
        on_done: Optional[Callable[[str], None]] = None,
        fabric: bool = False,
    ):
        self.root = os.path.join(state_dir, "campaigns")
        os.makedirs(self.root, exist_ok=True)
        self.bus = bus
        self.on_done = on_done
        #: With ``fabric`` each campaign directory doubles as a
        #: distributed fabric (:mod:`repro.core.fabric`): the server
        #: submits the matrix there and works it like any other worker,
        #: so external ``repro work <campaign dir>`` processes can join
        #: a running campaign and share its jobs.
        self.fabric = fabric
        self._lock = threading.Lock()
        self._states: Dict[str, CampaignState] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _dir(self, campaign_id: str) -> str:
        return os.path.join(self.root, campaign_id)

    def _spec_path(self, campaign_id: str) -> str:
        return os.path.join(self._dir(campaign_id), "spec.json")

    def _result_path(self, campaign_id: str) -> str:
        return os.path.join(self._dir(campaign_id), "result.json")

    def _checkpoint_dir(self, campaign_id: str) -> str:
        return os.path.join(self._dir(campaign_id), "checkpoints")

    # ------------------------------------------------------------------
    # submission and recovery
    # ------------------------------------------------------------------
    def submit(self, request: CampaignRequest) -> Dict[str, Any]:
        """Start (or join) the campaign for *request*.

        Returns ``{"campaign": id, "status": ..., "created": bool}``;
        ``created`` is False when the id was already known -- the
        content-addressed dedup path.
        """
        campaign_id = request.campaign_id
        with self._lock:
            state = self._states.get(campaign_id)
            if state is not None:
                return {
                    "campaign": campaign_id,
                    "status": state.status,
                    "created": False,
                }
            jobs = campaign_matrix(request.systems, request.strategies, bus=self.bus)
            state = CampaignState(campaign_id, total_jobs=len(jobs))
            self._states[campaign_id] = state
        os.makedirs(self._checkpoint_dir(campaign_id), exist_ok=True)
        spec_path = self._spec_path(campaign_id)
        tmp = spec_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(request.spec, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, spec_path)
        self._launch(request, state)
        return {"campaign": campaign_id, "status": "running", "created": True}

    def submit_guarded(
        self, request: CampaignRequest, max_running: int
    ) -> Dict[str, Any]:
        """:meth:`submit` behind the campaign admission cap.

        Joining an already-known campaign is always admitted (it costs
        nothing); only *new* campaigns count against ``max_running``.
        The cap is a soft bound: it protects the CPU from unbounded
        concurrent matrices, not a hard invariant.
        """
        with self._lock:
            known = request.campaign_id in self._states
        if not known and self.running_count() >= max_running:
            raise ServiceError(
                f"over capacity: {max_running} campaign(s) already "
                f"running; retry when one finishes",
                status=429,
            )
        return self.submit(request)

    def recover(self) -> Dict[str, list]:
        """Load finished campaigns and re-launch interrupted ones.

        Called once at server start; returns ``{"finished": [...],
        "resumed": [...]}`` campaign-id lists for the startup log.
        """
        finished, resumed = [], []
        for campaign_id in sorted(os.listdir(self.root)) if os.path.isdir(self.root) else []:
            if campaign_id in self._states:
                continue
            report = self._read_json(self._result_path(campaign_id))
            spec = self._read_json(self._spec_path(campaign_id))
            if report is not None and "report" in report:
                state = CampaignState(
                    campaign_id, total_jobs=report.get("jobs_total", 0)
                )
                state.status = report.get("status", "done")
                state.jobs = report.get("jobs", {})
                state.report = report["report"]
                with self._lock:
                    self._states[campaign_id] = state
                finished.append(campaign_id)
            elif spec is not None:
                try:
                    request = parse_campaign_request(spec)
                except ServiceError:
                    continue  # unreadable spec: never acknowledged, skip
                jobs = campaign_matrix(
                    request.systems, request.strategies, bus=self.bus
                )
                state = CampaignState(campaign_id, total_jobs=len(jobs))
                with self._lock:
                    self._states[campaign_id] = state
                self._launch(request, state)
                resumed.append(campaign_id)
        return {"finished": finished, "resumed": resumed}

    @staticmethod
    def _read_json(path: str) -> Optional[dict]:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _launch(self, request: CampaignRequest, state: CampaignState) -> None:
        """Run the campaign on a daemon worker thread.

        Daemon on purpose: a hard server kill must be able to stop the
        process mid-job -- the checkpoint protocol (not a graceful
        thread join) is what makes that safe.
        """
        thread = threading.Thread(
            target=self._run,
            args=(request, state),
            daemon=True,
            name=f"campaign-{state.campaign_id}",
        )
        thread.start()

    def _run(self, request: CampaignRequest, state: CampaignState) -> None:
        def progress(job, result, was_resumed) -> None:
            # Job-boundary snapshot from the finished driver run's
            # trace; visible to GET /campaigns/<id> immediately.
            with self._lock:
                state.jobs[job.job_id] = _job_summary(result, was_resumed)

        try:
            if self.fabric:
                # The campaign directory *is* the fabric: manifest next
                # to spec.json, published results in the same
                # checkpoints/ the non-fabric path uses.  This process
                # is just one worker -- external `repro work` processes
                # pointed at the directory share the matrix.
                root = self._dir(state.campaign_id)
                fabric_submit(
                    root, request.systems, request.strategies, bus=self.bus
                )
                fabric_work(root, progress=progress)
                report = fabric_collect(root)
                # Jobs this process did not run were published by an
                # external worker or by an earlier server.
                with self._lock:
                    for job_id, result in report.results.items():
                        if job_id not in state.jobs:
                            state.jobs[job_id] = _job_summary(result, True)
            else:
                jobs = campaign_matrix(
                    request.systems, request.strategies, bus=self.bus
                )
                report = run_campaign(
                    request.systems,
                    jobs,
                    checkpoint_dir=self._checkpoint_dir(state.campaign_id),
                    progress=progress,
                )
        except Exception as exc:  # noqa: BLE001 - surfaced to clients
            with self._lock:
                state.status = "failed"
                state.error = f"{type(exc).__name__}: {exc}"
            return
        report_doc = {
            "results": {
                job_id: result_to_dict(result)
                for job_id, result in report.results.items()
            },
            "failures": {
                job_id: {
                    "kind": failure.kind,
                    "message": failure.message,
                    "attempts": failure.attempts,
                }
                for job_id, failure in report.failures.items()
            },
            "executed": list(report.executed),
            "resumed": list(report.resumed),
            "quarantined": list(report.quarantined),
            "elapsed_seconds": report.elapsed_seconds,
        }
        # Persist, then publish: the terminal report must be durable on
        # disk *before* clients can observe "done" -- a client is
        # allowed to DELETE a done campaign (rmtree of its directory),
        # so flipping the status first would race this writer against
        # the deleter's rmtree.
        with self._lock:
            state.report = report_doc
            terminal = state.snapshot()
        terminal["status"] = "done"
        path = self._result_path(state.campaign_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(terminal, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        with self._lock:
            state.status = "done"
        if self.on_done is not None:
            self.on_done(state.campaign_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, campaign_id: str) -> Dict[str, Any]:
        """Snapshot one campaign; raises 404 for unknown ids."""
        with self._lock:
            state = self._states.get(campaign_id)
            if state is None:
                raise ServiceError(
                    f"unknown campaign {campaign_id!r}", status=404
                )
            return state.snapshot()

    def delete(self, campaign_id: str) -> Dict[str, Any]:
        """Abandon a finished (or failed) campaign and erase its state.

        404 for unknown ids; 409 while the campaign is running -- a
        fabric-backed campaign may have external workers holding leases
        inside the directory, and even an in-process matrix has a
        daemon thread writing checkpoints there, so an in-flight
        directory is never pulled out from under its writers.  After
        deletion the content-addressed id is free again: re-submitting
        the same spec recreates the campaign from scratch.
        """
        with self._lock:
            state = self._states.get(campaign_id)
            if state is None:
                raise ServiceError(
                    f"unknown campaign {campaign_id!r}", status=404
                )
            if state.status == "running":
                raise ServiceError(
                    f"campaign {campaign_id!r} is running"
                    + (
                        " (fabric-backed: external workers may hold "
                        "leases in its directory)"
                        if self.fabric
                        else ""
                    )
                    + "; wait for it to finish before deleting",
                    status=409,
                )
            del self._states[campaign_id]
        shutil.rmtree(self._dir(campaign_id), ignore_errors=True)
        return {"campaign": campaign_id, "deleted": True}

    def stats(self) -> Dict[str, Any]:
        """Aggregate counts for ``/health``."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for state in self._states.values():
                by_status[state.status] = by_status.get(state.status, 0) + 1
            return {"campaigns": len(self._states), "by_status": by_status}

    def running_count(self) -> int:
        with self._lock:
            return sum(
                1 for s in self._states.values() if s.status == "running"
            )
