"""Distributed campaign fabric: a filesystem-backed work queue.

The fabric turns a campaign job matrix into a directory that any number
of worker *processes* -- on one host or many hosts sharing a
filesystem -- can drain concurrently and crash-safely.  A coordinator
(:func:`fabric_submit`, ``repro campaign --fabric <dir>``) writes the
matrix once as a content-addressed manifest; workers
(:func:`fabric_work`, ``repro work <dir>``) claim jobs through atomic
*lease* files, execute each one through the campaign engine's per-job
unit (:func:`repro.core.campaign._process_job`: resume-or-run, retry,
timeout, checkpoint), and publish finished checkpoints atomically;
:func:`fabric_collect` merges the published results back into one
:class:`~repro.core.campaign.CampaignReport`, byte-identical (modulo
wall-clock fields) to a sequential single-process
:func:`~repro.core.campaign.run_campaign`.

Directory layout (everything lives under the fabric root)::

    <root>/manifest.json     content-addressed job matrix (wire schema)
    <root>/checkpoints/      published results, one <job_id>.json each
    <root>/leases/           <job_id>.lease claims (+ reaped tombstones)
    <root>/failures/         <job_id>.json terminal-failure markers
    <root>/journal/          <worker_id>.jsonl append-only event logs
    <root>/staging/          per-claim private checkpoint directories

The lease protocol (every step is a single atomic filesystem
operation, so any worker may die at any point):

1. **Claim** -- a worker creates ``leases/<job_id>.lease`` via
   hard-link-from-temp (atomic create-with-content; ``EEXIST`` means
   someone else holds the job).  The lease records the owner id, its
   host and pid, and a monotonically increasing heartbeat counter.
2. **Heartbeat** -- while the job runs, a renewal thread rewrites the
   lease (write-temp + ``os.replace``) every ``ttl/4`` seconds,
   bumping the counter and the file's mtime.  Renewal re-reads the
   lease first and *stops* if the owner changed: a reaped worker never
   resurrects its lease.
3. **Expiry / reap** -- a lease whose mtime is older than ``ttl`` is
   dead.  So is a lease whose ``host`` is this host and whose ``pid``
   no longer exists (``os.kill(pid, 0)`` raises
   ``ProcessLookupError``): a crashed same-host worker is reaped at
   once instead of after its ttl.  A reaper ``os.rename``\\ s the lease
   to a ``.reaped.N`` tombstone (exactly one racer wins the rename) and
   then claims normally.
4. **Publish** -- the worker runs the job through ``_process_job``
   with a fresh *private* staging directory as its checkpoint
   directory, then publishes via ``os.link`` into the shared
   ``checkpoints/`` directory.  The link either creates the
   file (exactly one winner, journalled ``completed``) or fails with
   ``EEXIST`` (the job was finished by someone else while our lease
   was presumed dead -- journalled ``lost-lease``, nothing clobbered).
   Zero jobs are ever *completed* twice: the link is the single
   serialisation point, which is the accounting the chaos battery in
   ``tests/test_fabric.py`` asserts.

Because fixed-seed runs are deterministic and checkpoints carry
options/system fingerprints, re-claiming a dead worker's job is
idempotent: the takeover run produces the identical result document,
and a half-written file can only exist in the dead worker's private
staging area -- the shared directory only ever sees complete,
atomically renamed checkpoints (anything unreadable there is moved
aside by the quarantine path of the campaign checkpoint loader).

::

    from repro.core.fabric import fabric_submit, fabric_work, fabric_collect
    fabric_submit("out/fab", systems, ["bbc", ("sa", SAOptions(seed=7))])
    fabric_work("out/fab")          # any number of processes, any hosts
    report = fabric_collect("out/fab")
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core import campaign
from repro.core.campaign import (
    CampaignJob,
    CampaignJobFailure,
    CampaignOptions,
    CampaignReport,
    ProgressFn,
    StrategyRef,
    _load_checkpoint,
    campaign_matrix,
    ensure_writable_dir,
)
from repro.errors import CampaignError, SerializationError, ServiceError
from repro.io.serialization import (
    bus_options_from_dict,
    bus_options_to_dict,
    envelope,
    parse_envelope,
    strategy_options_to_fields,
    system_to_dict,
)
from repro.model.system import System

__all__ = [
    "FabricSpec",
    "FabricStatus",
    "WorkerReport",
    "fabric_collect",
    "fabric_events",
    "fabric_status",
    "fabric_submit",
    "fabric_work",
    "load_fabric",
]

MANIFEST_NAME = "manifest.json"
_SUBDIRS = ("checkpoints", "leases", "failures", "journal", "staging")


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FabricSpec:
    """One fabric directory's decoded manifest.

    ``jobs`` is the full matrix in coordinator order -- the order the
    sequential oracle would run and the order :func:`fabric_collect`
    reports in.  ``meta`` is an opaque coordinator payload (the Fig. 9
    runner stores its suite identity there so the aggregator can check
    it is merging the right sweep).
    """

    root: str
    fabric_id: str
    systems: Mapping[str, System]
    jobs: Tuple[CampaignJob, ...]
    options: CampaignOptions
    meta: Dict[str, Any] = field(default_factory=dict)

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def checkpoint_dir(self) -> str:
        return self.path("checkpoints")


def _canonical(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


def _fabric_id(doc: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:16]


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _atomic_create(path: str, text: str) -> bool:
    """Atomically create *path* with *text*; ``False`` if it exists.

    Write-temp + ``os.link`` instead of ``O_EXCL`` + write: a reader
    can never observe the file empty or half-written, and the link
    syscall gives exactly one winner under any number of racers.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        os.remove(tmp)


def _manifest_doc(
    systems: Mapping[str, System],
    strategies: Iterable[StrategyRef],
    bus,
    options: CampaignOptions,
    meta: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """The canonical manifest document (also validates the matrix)."""
    entries: List[Dict[str, Any]] = []
    for ref in strategies:
        name, opts = ref if isinstance(ref, tuple) else (ref, None)
        fields_doc: Dict[str, Any] = {"name": name}
        if opts is not None:
            if opts.bus is not None and opts.bus != bus:
                raise CampaignError(
                    f"strategy {name!r} carries its own evaluator (bus) "
                    f"options; the fabric manifest holds one bus record "
                    f"for the whole matrix -- pass it as bus= instead"
                )
            fields_doc.update(strategy_options_to_fields(opts))
        entries.append(fields_doc)
    request = {
        "systems": {
            sid: system_to_dict(system) for sid, system in sorted(systems.items())
        },
        "strategies": entries,
        "budget": {"max_seconds": None, "max_evaluations": None},
    }
    campaign_doc = {
        "job_timeout": options.job_timeout,
        "max_retries": options.max_retries,
        "retry_backoff": options.retry_backoff,
        "retry_seed": options.retry_seed,
    }
    return envelope(
        "fabric_manifest",
        {
            "request": request,
            "bus": bus_options_to_dict(bus) if bus is not None else None,
            "campaign": campaign_doc,
            "meta": dict(meta or {}),
        },
    )


def fabric_submit(
    root: str,
    systems: Mapping[str, System],
    strategies: Iterable[StrategyRef],
    *,
    bus=None,
    options: Optional[CampaignOptions] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> FabricSpec:
    """Write the job matrix to *root* as a fabric manifest.

    Submission is *idempotent and content-addressed*: resubmitting the
    identical campaign to an existing fabric directory is a no-op that
    returns the existing spec (so a restarted coordinator, or N racing
    coordinators, converge on one manifest), while submitting a
    *different* campaign to a non-empty fabric directory raises --
    workers must never see the matrix change under their leases.
    """
    ensure_writable_dir(root, flag="--fabric")
    if options is None:
        options = CampaignOptions()
    doc = _manifest_doc(systems, strategies, bus, options, meta)
    # Validate the matrix before anything lands on disk.
    spec = _decode_manifest(root, doc)
    manifest = os.path.join(root, MANIFEST_NAME)
    text = _canonical(doc) + "\n"
    if not _atomic_create(manifest, text):
        with open(manifest, encoding="utf-8") as fh:
            existing = fh.read()
        if existing != text:
            raise CampaignError(
                f"fabric directory {root!r} already holds a different "
                f"campaign (manifest digest "
                f"{_fabric_id(json.loads(existing))}, submitted "
                f"{spec.fabric_id}); point --fabric at a fresh directory"
            )
    for sub in _SUBDIRS:
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    return spec


def load_fabric(root: str) -> FabricSpec:
    """Decode the manifest of an existing fabric directory."""
    manifest = os.path.join(root, MANIFEST_NAME)
    try:
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CampaignError(
            f"{root!r} is not a fabric directory (no {MANIFEST_NAME}); "
            f"submit a campaign there first (repro campaign --fabric)"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable fabric manifest {manifest}: {exc}") from exc
    return _decode_manifest(root, doc)


def _decode_manifest(root: str, doc: Dict[str, Any]) -> FabricSpec:
    from repro.service.protocol import parse_campaign_request

    try:
        body = parse_envelope(doc, "fabric_manifest")
        request = parse_campaign_request(body["request"])
        bus = bus_options_from_dict(body.get("bus"))
    except (SerializationError, ServiceError, KeyError) as exc:
        raise CampaignError(f"bad fabric manifest under {root!r}: {exc}") from exc
    campaign_doc = dict(body.get("campaign") or {})
    # Written by manifests from before the job thread pool was removed;
    # the fabric never used it, so those directories still load.
    campaign_doc.pop("campaign_workers", None)
    try:
        options = CampaignOptions(**campaign_doc)
    except (TypeError, CampaignError) as exc:
        raise CampaignError(
            f"bad fabric manifest under {root!r}: {exc}"
        ) from exc
    jobs = campaign_matrix(request.systems, request.strategies, bus=bus)
    return FabricSpec(
        root=root,
        fabric_id=_fabric_id(doc),
        systems=request.systems,
        jobs=jobs,
        options=options,
        meta=dict(body.get("meta") or {}),
    )


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------
def _lease_path(root: str, job_id: str) -> str:
    return os.path.join(root, "leases", f"{job_id}.lease")


def _read_lease(path: str) -> Optional[Dict[str, Any]]:
    """The lease document, or ``None`` when absent/unreadable.

    An unreadable lease cannot happen under the protocol (creates and
    renewals are both atomic-with-content); treating one as absent
    means a manually corrupted file merely makes the job claimable
    again, which the fingerprint checks keep safe.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


def _lease_doc(owner: str, ttl: float, beats: int) -> Dict[str, Any]:
    return {
        "owner": owner,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "ttl": ttl,
        "beats": beats,
        "claimed_at": time.time(),
    }


def _lease_expired(path: str, ttl: float) -> bool:
    """Expiry by *file mtime*: renewals rewrite the file, so a lease
    untouched for a full ttl belongs to a worker that stopped
    heartbeating (died, or is stalled long enough to be presumed dead).
    On a shared filesystem the mtime comes from the file server, so
    workers on different hosts need no clock agreement beyond rate."""
    try:
        age = time.time() - os.stat(path).st_mtime
    except FileNotFoundError:
        return False
    return age > ttl


def _owner_exited(holder: Dict[str, Any]) -> bool:
    """True when the lease's owner ran on this host and its pid is gone.

    Only ``ProcessLookupError`` counts as gone (a ``PermissionError``
    means alive); leases from other hosts wait out their ttl.  A reused
    pid or a hostname clash can only misjudge liveness, never publish a
    job twice: the ``os.link`` publish keeps completion exactly-once.
    """
    pid = holder.get("pid")
    if holder.get("host") != socket.gethostname():
        return False
    if not isinstance(pid, int) or pid <= 0:
        return False  # 0 and negative pids name process groups
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass  # PermissionError: alive, owned by another user
    return False


def _reap_lease(root: str, job_id: str) -> bool:
    """Move an expired lease to a tombstone; ``True`` if we won.

    ``os.rename`` is the arbiter: however many workers notice the
    expiry simultaneously, exactly one rename succeeds and only that
    worker proceeds to claim.  Tombstones are kept (``.reaped.N``) as a
    forensic record of every takeover.
    """
    path = _lease_path(root, job_id)
    n = 1
    while os.path.exists(f"{path}.reaped.{n}"):
        n += 1
    try:
        os.rename(path, f"{path}.reaped.{n}")
        return True
    except (FileNotFoundError, OSError):
        return False


class _Heartbeat:
    """Renews one lease on a background thread until stopped.

    Renewal is check-then-replace: each beat re-reads the lease and
    *abandons* it (setting :attr:`lost`) if the file vanished or the
    owner changed -- a worker that was presumed dead and reaped must
    never write its stale lease back over the new owner's claim.
    """

    def __init__(self, path: str, owner: str, ttl: float):
        self.path = path
        self.owner = owner
        self.ttl = ttl
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._beats = 0
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"lease-{os.path.basename(path)}"
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        interval = max(self.ttl / 4.0, 0.05)
        while not self._stop.wait(interval):
            current = _read_lease(self.path)
            if current is None or current.get("owner") != self.owner:
                self.lost.set()
                return
            self._beats += 1
            doc = dict(current)
            doc["beats"] = self._beats
            doc["renewed_at"] = time.time()
            _atomic_write(self.path, json.dumps(doc, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
def _journal(root: str, worker_id: str, event: str, **fields: Any) -> None:
    """Append one event line to the worker's private journal.

    One append-only file *per worker* (no cross-process writes to the
    same file), so lines never interleave; readers merge by timestamp.
    """
    line = {"t": time.time(), "worker": worker_id, "event": event, **fields}
    path = os.path.join(root, "journal", f"{worker_id}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def fabric_events(root: str) -> List[Dict[str, Any]]:
    """Every journal event of the fabric, merged in timestamp order."""
    journal_dir = os.path.join(root, "journal")
    events: List[Dict[str, Any]] = []
    if not os.path.isdir(journal_dir):
        return events
    for name in sorted(os.listdir(journal_dir)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(journal_dir, name), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    events.sort(key=lambda e: e.get("t", 0.0))
    return events


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerReport:
    """What one :func:`fabric_work` call did."""

    worker_id: str
    completed: Tuple[str, ...] = ()
    failed: Tuple[str, ...] = ()
    reaped: Tuple[str, ...] = ()
    lost: Tuple[str, ...] = ()


def default_worker_id() -> str:
    """``host-pid``: unique per process, readable in lease forensics."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _failure_path(root: str, job_id: str) -> str:
    return os.path.join(root, "failures", f"{job_id}.json")


def _checkpoint_published(spec: FabricSpec, job: CampaignJob) -> bool:
    return os.path.exists(
        os.path.join(spec.checkpoint_dir, f"{job.job_id}.json")
    )


def _job_settled(spec: FabricSpec, job: CampaignJob) -> bool:
    return _checkpoint_published(spec, job) or os.path.exists(
        _failure_path(spec.root, job.job_id)
    )


def fabric_work(
    root: str,
    *,
    worker_id: Optional[str] = None,
    lease_ttl: float = 30.0,
    poll: float = 0.5,
    max_jobs: Optional[int] = None,
    once: bool = False,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[ProgressFn] = None,
) -> WorkerReport:
    """Drain jobs from a fabric directory until none remain claimable.

    Runs one job at a time (process-level parallelism is *more
    workers*, not threads inside one).  ``lease_ttl`` is how long a
    silent lease survives before other workers may presume this
    process dead and reap it -- it must comfortably exceed the worst
    filesystem stall, not the job duration (heartbeats renew every
    ``ttl/4``).  With ``once`` the worker returns as soon as no job is
    immediately claimable instead of polling every ``poll`` seconds
    for leases to expire; ``max_jobs`` bounds how many jobs this call
    may run.  ``progress(job, result, resumed)`` fires after every job
    *this* worker publishes (``resumed`` is always ``False``: each claim
    runs in a fresh staging directory).  Returns the worker's own
    accounting; the authoritative fabric-wide record is the journal
    (:func:`fabric_events`).
    """
    spec = load_fabric(root)
    if lease_ttl <= 0:
        raise CampaignError(f"lease_ttl={lease_ttl} must be > 0")
    if worker_id is None:
        worker_id = default_worker_id()
    worker_id = worker_id.replace("/", "_")
    say = log if log is not None else (lambda message: None)
    completed: List[str] = []
    failed: List[str] = []
    reaped: List[str] = []
    lost: List[str] = []

    while True:
        if max_jobs is not None and len(completed) + len(failed) >= max_jobs:
            break
        job = _claim_next(spec, worker_id, lease_ttl, reaped, say)
        if job is None:
            if once or all(_job_settled(spec, j) for j in spec.jobs):
                break
            time.sleep(poll)
            continue
        _journal(spec.root, worker_id, "claimed", job=job.job_id)
        say(f"[{worker_id}] claimed {job.job_id}")
        outcome = _execute_claim(spec, job, worker_id, lease_ttl, progress)
        {"completed": completed, "failed": failed, "lost-lease": lost}[
            outcome
        ].append(job.job_id)
        say(f"[{worker_id}] {outcome} {job.job_id}")
    return WorkerReport(
        worker_id=worker_id,
        completed=tuple(completed),
        failed=tuple(failed),
        reaped=tuple(reaped),
        lost=tuple(lost),
    )


def _claim_next(
    spec: FabricSpec,
    worker_id: str,
    ttl: float,
    reaped: List[str],
    say: Callable[[str], None],
) -> Optional[CampaignJob]:
    """Claim the first open job in matrix order, reaping expired
    leases on the way; ``None`` when nothing is claimable right now."""
    for job in spec.jobs:
        if _job_settled(spec, job):
            continue
        path = _lease_path(spec.root, job.job_id)
        if os.path.exists(path):
            holder = _read_lease(path)
            # A corrupt lease (holder None despite the file existing)
            # cannot happen under the protocol -- creates and renewals
            # are both atomic-with-content -- so it means manual
            # tampering; reclaim it immediately rather than letting it
            # block its job forever.
            if (
                holder is not None
                and not _lease_expired(path, float(holder.get("ttl", ttl)))
                and not _owner_exited(holder)
            ):
                continue
            if not _reap_lease(spec.root, job.job_id):
                continue  # another worker won the takeover
            _journal(
                spec.root,
                worker_id,
                "reaped",
                job=job.job_id,
                dead_owner=(holder or {}).get("owner"),
                dead_beats=(holder or {}).get("beats"),
            )
            reaped.append(job.job_id)
            say(f"[{worker_id}] reaped dead lease of {job.job_id}")
        doc = json.dumps(_lease_doc(worker_id, ttl, beats=0), sort_keys=True)
        if _atomic_create(path, doc + "\n"):
            return job
    return None


def _execute_claim(
    spec: FabricSpec, job: CampaignJob, worker_id: str, ttl: float,
    progress: Optional[ProgressFn],
) -> str:
    """Run one leased job to a published checkpoint or failure marker.

    Returns the journalled outcome: ``completed``, ``failed`` or
    ``lost-lease``.
    """
    lease = _lease_path(spec.root, job.job_id)
    staging = os.path.join(spec.root, "staging", f"{worker_id}__{job.job_id}")
    shutil.rmtree(staging, ignore_errors=True)  # stale own crash debris
    os.makedirs(staging)
    heartbeat = _Heartbeat(lease, worker_id, ttl)
    heartbeat.start()
    try:
        # Looked up through the module at call time, so wrappers
        # installed on repro.core.campaign._process_job see fabric jobs.
        result, failure, _, _ = campaign._process_job(
            spec.systems, job, staging, spec.options
        )
    finally:
        heartbeat.stop()
    if heartbeat.lost.is_set():
        # We were presumed dead and reaped mid-job.  The new owner will
        # redo the work; publishing anyway could still be safe (the
        # os.link below keeps completion exactly-once) but discarding
        # keeps the accounting trivially clean.
        shutil.rmtree(staging, ignore_errors=True)
        _journal(spec.root, worker_id, "lost-lease", job=job.job_id)
        return "lost-lease"
    if failure is not None:
        _atomic_write(
            _failure_path(spec.root, job.job_id),
            json.dumps(
                {
                    "job_id": failure.job_id,
                    "kind": failure.kind,
                    "message": failure.message,
                    "attempts": failure.attempts,
                    "worker": worker_id,
                },
                sort_keys=True,
            )
            + "\n",
        )
        shutil.rmtree(staging, ignore_errors=True)
        _release_lease(lease, worker_id)
        _journal(
            spec.root, worker_id, "failed", job=job.job_id, kind=failure.kind
        )
        return "failed"
    produced = os.path.join(staging, f"{job.job_id}.json")
    published = os.path.join(spec.checkpoint_dir, f"{job.job_id}.json")
    try:
        os.link(produced, published)  # the exactly-once serialisation point
        outcome = "completed"
    except FileExistsError:
        outcome = "lost-lease"
    shutil.rmtree(staging, ignore_errors=True)
    _release_lease(lease, worker_id)
    _journal(spec.root, worker_id, outcome, job=job.job_id)
    if outcome == "completed" and progress is not None:
        progress(job, result, False)
    return outcome


def _release_lease(path: str, owner: str) -> None:
    current = _read_lease(path)
    if current is not None and current.get("owner") == owner:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# status + collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FabricStatus:
    """A point-in-time scan of a fabric directory."""

    fabric_id: str
    total: int
    done: Tuple[str, ...]
    failed: Tuple[str, ...]
    leased: Dict[str, str]  # job_id -> owner
    pending: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        return len(self.done) + len(self.failed) == self.total

    def describe(self) -> str:
        return (
            f"fabric {self.fabric_id}: {len(self.done)}/{self.total} done, "
            f"{len(self.failed)} failed, {len(self.leased)} leased, "
            f"{len(self.pending)} pending"
        )


def fabric_status(root: str) -> FabricStatus:
    """Scan job states without claiming or mutating anything."""
    spec = load_fabric(root)
    done: List[str] = []
    failed: List[str] = []
    leased: Dict[str, str] = {}
    pending: List[str] = []
    for job in spec.jobs:
        if _checkpoint_published(spec, job):
            done.append(job.job_id)
        elif os.path.exists(_failure_path(spec.root, job.job_id)):
            failed.append(job.job_id)
        else:
            holder = _read_lease(_lease_path(spec.root, job.job_id))
            if holder is not None:
                leased[job.job_id] = str(holder.get("owner"))
            else:
                pending.append(job.job_id)
    return FabricStatus(
        fabric_id=spec.fabric_id,
        total=len(spec.jobs),
        done=tuple(done),
        failed=tuple(failed),
        leased=leased,
        pending=tuple(pending),
    )


def fabric_collect(
    root: str, *, require_complete: bool = True
) -> CampaignReport:
    """Merge published checkpoints into one campaign report.

    The merged report is what a sequential
    :func:`~repro.core.campaign.run_campaign` over the same matrix
    would return (modulo wall-clock fields, with every finished job
    listed as ``executed``): results load through the same
    fingerprint-validated checkpoint reader, in matrix order.  With
    ``require_complete`` (the default) an unfinished fabric raises
    instead of returning a partial sweep.
    """
    start = time.perf_counter()
    spec = load_fabric(root)
    results: Dict[str, Any] = {}
    executed: List[str] = []
    failures: Dict[str, CampaignJobFailure] = {}
    quarantined: List[str] = []
    missing: List[str] = []
    for job in spec.jobs:
        result, was_quarantined = _load_checkpoint(
            spec.checkpoint_dir, job, spec.systems[job.system_id]
        )
        if was_quarantined:
            quarantined.append(job.job_id)
        if result is not None:
            results[job.job_id] = result
            executed.append(job.job_id)
            continue
        marker = _failure_path(root, job.job_id)
        if os.path.exists(marker):
            with open(marker, encoding="utf-8") as fh:
                doc = json.load(fh)
            failures[job.job_id] = CampaignJobFailure(
                job_id=job.job_id,
                kind=str(doc.get("kind", "error")),
                message=str(doc.get("message", "")),
                attempts=int(doc.get("attempts", 1)),
            )
            continue
        missing.append(job.job_id)
    if missing and require_complete:
        raise CampaignError(
            f"fabric {spec.fabric_id} under {root!r} is incomplete: "
            f"{len(missing)} of {len(spec.jobs)} jobs unfinished "
            f"({', '.join(missing[:5])}{'...' if len(missing) > 5 else ''}); "
            f"run more workers (repro work {root}) or pass "
            f"require_complete=False for a partial report"
        )
    return CampaignReport(
        results=results,
        executed=tuple(executed),
        resumed=(),
        checkpoint_dir=spec.checkpoint_dir,
        elapsed_seconds=time.perf_counter() - start,
        failures=failures,
        quarantined=tuple(quarantined),
    )
