"""Campaign orchestration: declarative job matrices over the registry.

A *campaign* is a (system x strategy x options) job matrix executed
through the unified search runtime: every job dispatches by strategy
name (:mod:`repro.core.strategies`), runs on its own
:class:`~repro.core.runtime.SearchDriver` (so evaluator pools are
always released, even when a job raises), and -- when a checkpoint
directory is given -- persists its full
:class:`~repro.core.result.OptimisationResult` (trace included) as
schema-versioned JSON through :mod:`repro.io.serialization`.

Checkpoints make campaigns *resumable*: re-running the same campaign
over the same directory loads finished jobs from disk instead of
re-optimising, so an interrupted paper-scale sweep (the Fig. 9 shard
workers, ``benchmarks/fig9_shard.py``, ride this layer) continues where
it stopped.  Every checkpoint records fingerprints of the job's
strategy options and system, so a *redefined* job -- same id, but new
budgets, a different suite seed, an edited system JSON -- is detected
and re-run instead of silently answered with the stale result.  A
checkpoint that does not match its job *identity* (foreign file under
the same name) raises :class:`~repro.errors.CampaignError`; a
half-written or unreadable checkpoint is *quarantined* -- moved aside
under a ``.quarantined.N`` suffix for post-mortem inspection -- and the
job re-run.

The runtime is *fault-tolerant*: a job that raises (or exceeds the
optional per-job wall-clock timeout, which its search driver checks at
batch boundaries) is retried up to ``max_retries`` times with jittered
exponential backoff, and a job that still fails is
recorded in :attr:`CampaignReport.failures` instead of aborting the
rest of the matrix -- a long fault sweep survives one bad cell.
Campaign-*definition* problems (unknown systems, duplicate or foreign
checkpoints, an unwritable checkpoint directory) still raise up front:
they mean the campaign itself is wrong, not one job.

There is one engine: :func:`run_campaign` runs the matrix sequentially,
in matrix order, and every job goes through :func:`_process_job`
(resume-or-run, retry, timeout, checkpoint).  The distributed fabric
(:mod:`repro.core.fabric`) calls the same unit once per claimed job;
job-level parallelism is more fabric worker processes, not threads.

::

    from repro.core.campaign import campaign_matrix, run_campaign
    jobs = campaign_matrix(systems, ["bbc", ("sa", SAOptions(seed=7))])
    report = run_campaign(systems, jobs, checkpoint_dir="out/checkpoints")
    report.result_for("cruise", "bbc").describe()
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.result import OptimisationResult
from repro.core.runtime import DeadlineExceeded, deadline
from repro.core.strategies import (
    StrategyOptions,
    get_strategy,
    optimise,
    valid_limit,
)
from repro.errors import CampaignError, SerializationError
from repro.io.serialization import (
    result_from_dict,
    result_to_dict,
    system_fingerprint,
)
from repro.model.system import System

#: A strategy reference in a matrix: a registry name, or (name, options).
StrategyRef = Union[str, Tuple[str, Optional[StrategyOptions]]]


@dataclass(frozen=True)
class CampaignOptions:
    """Fault policy of a campaign, documented on :func:`run_campaign`
    (a fabric manifest carries the same record)."""

    job_timeout: Optional[float] = None
    max_retries: int = 0
    retry_backoff: float = 0.5
    retry_seed: int = 0

    def __post_init__(self):
        if self.max_retries is None or not valid_limit(self.max_retries, True):
            raise CampaignError(
                f"max_retries={self.max_retries!r} must be an int >= 0"
            )
        if not valid_limit(self.job_timeout):
            raise CampaignError(
                f"job_timeout={self.job_timeout!r} must be None or a "
                f"number >= 0"
            )
        backoff = self.retry_backoff
        if backoff is None or not valid_limit(backoff) or backoff == math.inf:
            raise CampaignError(
                f"retry_backoff={backoff!r} must be a finite number >= 0"
            )


@dataclass(frozen=True)
class CampaignJob:
    """One (system, strategy, options) cell of a campaign matrix."""

    job_id: str
    system_id: str
    strategy: str
    options: Optional[StrategyOptions] = None


#: Observer of finished jobs: ``progress(job, result, resumed)``.
ProgressFn = Callable[[CampaignJob, OptimisationResult, bool], None]


@dataclass(frozen=True)
class CampaignJobFailure:
    """Terminal failure of one campaign job (after all retries)."""

    job_id: str
    kind: str  # "timeout" or "error"
    message: str
    attempts: int

    def describe(self) -> str:
        noun = "timed out" if self.kind == "timeout" else "failed"
        return (
            f"{self.job_id}: {noun} after {self.attempts} attempt(s): "
            f"{self.message}"
        )


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of :func:`run_campaign`.

    ``executed`` lists jobs that actually ran this time; ``resumed``
    lists jobs answered from checkpoints.  Their union plus the ids in
    ``failures``, in job order, is the whole campaign.  ``quarantined``
    lists jobs whose corrupted checkpoint was moved aside (the job
    itself re-ran; see the module docstring).
    """

    results: Mapping[str, OptimisationResult]
    executed: Tuple[str, ...]
    resumed: Tuple[str, ...]
    checkpoint_dir: Optional[str]
    elapsed_seconds: float
    failures: Mapping[str, CampaignJobFailure] = field(default_factory=dict)
    quarantined: Tuple[str, ...] = ()

    def result_for(self, system_id: str, strategy: str) -> OptimisationResult:
        """The result of the (system, strategy) cell; raises when absent."""
        job_id = job_id_for(system_id, strategy)
        try:
            return self.results[job_id]
        except KeyError:
            failure = self.failures.get(job_id)
            if failure is not None:
                raise CampaignError(
                    f"campaign job {failure.describe()}"
                ) from None
            raise CampaignError(
                f"campaign has no job {job_id!r}"
            ) from None


def job_id_for(system_id: str, strategy: str) -> str:
    """The deterministic checkpoint-file stem of a matrix cell."""
    return f"{system_id}__{strategy}"


def _check_identifier(kind: str, value: str) -> str:
    if not value or any(c in value for c in "/\\") or value != value.strip():
        raise CampaignError(f"illegal {kind} {value!r} (must be file-safe)")
    return value


def campaign_matrix(
    systems: Union[Mapping[str, System], Iterable[str]],
    strategies: Iterable[StrategyRef],
    bus=None,
) -> Tuple[CampaignJob, ...]:
    """The cross product of systems and strategies as a job tuple.

    ``systems`` is a ``{system_id: System}`` mapping (or just the ids);
    ``strategies`` mixes bare registry names and ``(name, options)``
    pairs.  ``bus`` optionally overrides the evaluator options of every
    job (:meth:`StrategyOptions.with_bus`), so one preset -- e.g. the
    Fig. 9 laptop budgets with ``parallel_workers`` -- applies across
    the whole matrix.  Every referenced strategy must be registered;
    unknown names fail here, not mid-campaign.
    """
    system_ids = list(systems)
    normalised: List[Tuple[str, Optional[StrategyOptions]]] = []
    for ref in strategies:
        name, options = ref if isinstance(ref, tuple) else (ref, None)
        spec = get_strategy(name)  # raises on unknown names
        if options is None:
            options = spec.options_type()
        options = options.with_bus(bus)
        normalised.append((_check_identifier("strategy name", name), options))
    jobs = []
    seen = set()
    for system_id in system_ids:
        _check_identifier("system id", system_id)
        for name, options in normalised:
            job_id = job_id_for(system_id, name)
            if job_id in seen:
                raise CampaignError(f"duplicate campaign job {job_id!r}")
            seen.add(job_id)
            jobs.append(
                CampaignJob(
                    job_id=job_id,
                    system_id=system_id,
                    strategy=name,
                    options=options,
                )
            )
    return tuple(jobs)


def ensure_writable_dir(path: str, flag: str = "--checkpoint-dir") -> None:
    """Fail fast (with an actionable message) when *path* cannot be
    created or written -- called before any campaign job runs, so a bad
    checkpoint directory costs seconds, not the whole sweep."""
    probe = os.path.join(path, f".write-probe.{os.getpid()}")
    try:
        os.makedirs(path, exist_ok=True)
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("probe\n")
        os.remove(probe)
    except OSError as exc:
        raise CampaignError(
            f"directory {path!r} is not writable ({exc}); fix its "
            f"permissions or point {flag} somewhere writable"
        ) from exc


def ensure_writable_file(path: str, flag: str = "--output") -> None:
    """Fail fast when the output file *path* cannot be written.

    Probes by opening for append (creating the file if absent, and
    removing a file the probe itself created), so a bad path is caught
    before hours of campaign work produce a result with nowhere to go.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise CampaignError(
            f"output file {path!r} is not writable ({exc}); create its "
            f"parent directory or point {flag} somewhere writable"
        ) from exc


def run_campaign(
    systems: Mapping[str, System],
    jobs: Iterable[CampaignJob],
    checkpoint_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    *,
    options: CampaignOptions = CampaignOptions(),
) -> CampaignReport:
    """Execute a job matrix in order, resuming finished jobs from
    checkpoints -- the sequential oracle the fabric is compared against.

    Per-job parallelism comes from each strategy's own
    ``parallel_workers`` pool; job-level parallelism from more fabric
    worker processes (:mod:`repro.core.fabric`).  ``progress`` is called
    after every *successful* job with ``(job, result, resumed)``.

    Fault tolerance (``options``, a :class:`CampaignOptions`):
    ``job_timeout`` bounds each attempt's wall-clock seconds.  The
    timeout is cooperative: the job's search driver checks it at every
    batch boundary and stops there, so no work outlives a timed-out
    job -- and a runner that never reaches a batch boundary (one that
    only sleeps, say) is not cut off.  ``max_retries``
    re-runs a raising or timed-out job with jittered exponential backoff
    (``retry_backoff * 2**attempt`` scaled by a deterministic jitter in
    [0.5, 1.5), seeded from ``retry_seed`` and the job id so concurrent
    shards do not retry in lockstep); a job that still fails lands in
    :attr:`CampaignReport.failures` and the matrix continues.
    """
    start = time.perf_counter()
    jobs = tuple(jobs)
    if checkpoint_dir is not None:
        ensure_writable_dir(checkpoint_dir)
    for job in jobs:
        if job.system_id not in systems:
            raise CampaignError(
                f"job {job.job_id!r} references unknown system "
                f"{job.system_id!r}"
            )
    results: Dict[str, OptimisationResult] = {}
    executed: List[str] = []
    resumed: List[str] = []
    failures: Dict[str, CampaignJobFailure] = {}
    quarantined: List[str] = []
    for job in jobs:
        result, failure, was_resumed, was_quarantined = _process_job(
            systems, job, checkpoint_dir, options
        )
        if was_quarantined:
            quarantined.append(job.job_id)
        if failure is not None:
            failures[job.job_id] = failure
            continue
        (resumed if was_resumed else executed).append(job.job_id)
        results[job.job_id] = result
        if progress is not None:
            progress(job, result, was_resumed)
    return CampaignReport(
        results=results,
        executed=tuple(executed),
        resumed=tuple(resumed),
        checkpoint_dir=checkpoint_dir,
        elapsed_seconds=time.perf_counter() - start,
        failures=failures,
        quarantined=tuple(quarantined),
    )


def _process_job(
    systems: Mapping[str, System],
    job: CampaignJob,
    checkpoint_dir: Optional[str],
    options: CampaignOptions,
) -> Tuple[
    Optional[OptimisationResult], Optional[CampaignJobFailure], bool, bool
]:
    """Resume-or-run one job under the retry/timeout policy, then
    checkpoint it: ``(result, failure, resumed, quarantined)``.  The
    per-job unit of both :func:`run_campaign` and the fabric worker."""
    system = systems[job.system_id]
    result = None
    was_quarantined = False
    if checkpoint_dir is not None:
        result, was_quarantined = _load_checkpoint(checkpoint_dir, job, system)
    if result is not None:
        return result, None, True, was_quarantined
    result, failure = _attempt_job(system, job, options)
    if failure is not None:
        return None, failure, False, was_quarantined
    if checkpoint_dir is not None:
        _write_checkpoint(checkpoint_dir, job, system, result)
    return result, None, False, was_quarantined


def _attempt_job(
    system: System, job: CampaignJob, options: CampaignOptions
) -> Tuple[Optional[OptimisationResult], Optional[CampaignJobFailure]]:
    """Run one job inline with bounded retries; ``(result, None)`` or
    ``(None, failure)``.  Past ``job_timeout`` seconds the job's search
    driver raises :class:`~repro.core.runtime.DeadlineExceeded`."""
    rng = None
    last: Tuple[str, str] = ("error", "job never ran")
    attempts = 0
    backoff = options.retry_backoff
    for attempt in range(options.max_retries + 1):
        attempts = attempt + 1
        try:
            with deadline(options.job_timeout):
                return optimise(system, job.strategy, job.options), None
        except DeadlineExceeded:
            last = (
                "timeout",
                f"exceeded the {options.job_timeout}s per-job wall-clock "
                f"timeout",
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            last = ("error", f"{type(exc).__name__}: {exc}")
        if attempt < options.max_retries and backoff > 0:
            if rng is None:
                rng = random.Random(f"{options.retry_seed}|{job.job_id}")
            time.sleep(backoff * (2**attempt) * (0.5 + rng.random()))
    kind, message = last
    return None, CampaignJobFailure(
        job_id=job.job_id, kind=kind, message=message, attempts=attempts
    )


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
def _checkpoint_path(checkpoint_dir: str, job: CampaignJob) -> str:
    return os.path.join(checkpoint_dir, f"{job.job_id}.json")


def _options_fingerprint(options: Optional[StrategyOptions]) -> str:
    """Deterministic digest of a job's *result-affecting* options.

    Dataclass ``repr`` covers every field (including the nested bus and
    analysis option records), so any knob change -- budgets, seeds,
    sweep resolutions -- changes the fingerprint and invalidates the
    checkpoint.  ``parallel_workers`` is normalised out first: runs are
    pinned byte-identical serial vs. parallel, so resuming a shard on a
    host with a different ``--workers`` must *keep* its checkpoints.
    ``analysis.backend`` is normalised out for the same reason: the
    compiled backend is pinned bit-identical to the Python oracle (the
    test suite compares the two directly), so a campaign may resume
    under a different backend -- e.g. shards first run on a host without
    the extension -- without discarding its checkpoints.
    (``max_cache_entries`` stays in: cache evictions change the
    evaluation accounting.)
    """
    if options is not None:
        # Resolve ``bus=None`` to the explicit defaults before hashing,
        # so "defaults implied" and "defaults spelled out with a worker
        # count" fingerprint identically.
        bus = options.bus_options()
        options = replace(
            options,
            bus=replace(
                bus,
                parallel_workers=None,
                analysis=replace(bus.analysis, backend="python"),
            ),
        )
    return hashlib.sha256(repr(options).encode("utf-8")).hexdigest()[:16]


def _job_meta(job: CampaignJob, system: System) -> dict:
    return {
        "job_id": job.job_id,
        "system_id": job.system_id,
        "strategy": job.strategy,
        "options_fingerprint": _options_fingerprint(job.options),
        "system_fingerprint": system_fingerprint(system),
    }


def _write_checkpoint(
    checkpoint_dir: str,
    job: CampaignJob,
    system: System,
    result: OptimisationResult,
) -> None:
    """Atomically persist one finished job (write tmp, then rename)."""
    payload = {
        "job": _job_meta(job, system),
        "result": result_to_dict(result),
    }
    path = _checkpoint_path(checkpoint_dir, job)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _quarantine(path: str) -> str:
    """Move a corrupted checkpoint aside; returns the quarantine path."""
    n = 1
    while True:
        target = f"{path}.quarantined.{n}"
        if not os.path.exists(target):
            break
        n += 1
    os.replace(path, target)
    return target


def _load_checkpoint(
    checkpoint_dir: str, job: CampaignJob, system: System
) -> Tuple[Optional[OptimisationResult], bool]:
    """``(result, quarantined)``: a finished job's result or ``None``
    when it must (re)run, plus whether a corrupted file was quarantined.

    Unreadable or half-written checkpoints are *quarantined* -- moved
    aside under a ``.quarantined.N`` suffix so the corrupted bytes stay
    inspectable -- and the job re-runs and writes a fresh file at the
    original path.  A checkpoint whose options/system *fingerprints*
    disagree with the job's is simply re-run (the job was redefined:
    new budgets, new seed, edited system -- nothing is corrupted).  A
    *well-formed* checkpoint whose job identity disagrees with the
    requested job is someone else's file and raises instead of being
    silently clobbered.
    """
    path = _checkpoint_path(checkpoint_dir, job)
    if not os.path.exists(path):
        return None, False
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        meta = dict(payload["job"])
        result_data = payload["result"]
    except (json.JSONDecodeError, KeyError, TypeError, OSError):
        _quarantine(path)
        return None, True
    expected = _job_meta(job, system)
    identity = ("job_id", "system_id", "strategy")
    if {k: meta.get(k) for k in identity} != {k: expected[k] for k in identity}:
        raise CampaignError(
            f"checkpoint {path} belongs to job "
            f"{ {k: meta.get(k) for k in identity} !r}, not "
            f"{ {k: expected[k] for k in identity} !r}"
        )
    if meta != expected:
        return None, False  # same job id, redefined content: re-run
    try:
        return result_from_dict(result_data), False
    except SerializationError:
        _quarantine(path)
        return None, True
