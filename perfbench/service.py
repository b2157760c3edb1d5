"""The ``service-mixed`` workload: a served analysis stack under load.

A *window* is one fresh server process on a fresh ``--state-dir``.  One
load generator (this process) keeps ``CONNECTIONS`` closed-loop clients
busy with ``POST /analyse`` for configurations drawn with the seed from
the OBC/EE candidate sets of the pinned system set; ``REPEAT_SHARE`` of
the requests repeat an earlier configuration, so the pooled
evaluator's result cache works beside fresh analyses.  At the start of
the window one campaign (BBC + SA over two small systems) is submitted
with ``POST /campaigns`` and polled until done, so its jobs and
checkpoint writes compete with the analyse traffic.  The window lasts
its share of ``--seconds``, or until the campaign is done if that is
later; the server then stops with ``POST /shutdown``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.holistic import analyse_system
from repro.core.config import FlexRayConfig
from repro.core.frameid import assign_frame_ids
from repro.core.sa import SAOptions
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    quota_slot_assignment,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions, optimise
from repro.errors import ConfigurationError
from repro.io.serialization import config_to_dict, system_to_dict

from perfbench import common, layers
from perfbench.result import Outcome
from perfbench.spans import SpanRecorder, tail_percentile

#: One closed-loop client.  With two, the server's handler threads
#: contend for the interpreter lock: p50 doubled and its run-to-run
#: spread doubled with it on a 2-CPU host.
CONNECTIONS = 1
#: Share of requests that repeat an earlier configuration: the revisit
#: share of an SA walk over the same pinned system set (the ``sa-walk``
#: workload's ``search.cache_hit_ratio``, 42 of 616 requests).
REPEAT_SHARE = 42 / 616
#: Requests planned per window (more than a window sends at --seconds
#: 15; a longer window wraps round to the start of its plan).
PLAN_LENGTH = 4_000
#: SA options of the campaign (the laptop SA budget).
CAMPAIGN_SA = {"iterations": 220, "seed": 7}
MAX_WINDOW_S = 120.0
#: A request's latency is divided by the reference job sampled this
#: close to its midpoint.
NEAR_NS = 100_000_000
START_TIMEOUT_S = 60.0
POLL_S = 0.01


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def candidate_configs(system, bus) -> list:
    """The OBC/EE candidate set of *system* (every static variant's sweep)."""
    frame_ids = assign_frame_ids(system, bus.bits_per_mt, bus.frame_overhead_bytes)
    n_min = len(system.st_sender_nodes())
    slot_min = min_static_slot(system, bus)
    configs = []
    for n_slots in range(n_min, n_min + bus.max_extra_static_slots + 1):
        slots = quota_slot_assignment(system, n_slots)
        for step in range(bus.max_slot_size_steps + 1):
            size = slot_min + 2 * step
            lo, hi = dyn_segment_bounds(system, n_slots * size, bus)
            for n in sweep_lengths(lo, hi, bus.ee_max_dyn_points):
                try:
                    configs.append(
                        FlexRayConfig(
                            static_slots=slots,
                            gd_static_slot=size,
                            n_minislots=n,
                            frame_ids=frame_ids,
                            gd_minislot=bus.gd_minislot,
                            bits_per_mt=bus.bits_per_mt,
                            frame_overhead_bytes=bus.frame_overhead_bytes,
                        )
                    )
                except ConfigurationError:
                    continue
    return configs


def request_plans(
    seed: int, pool_sizes: Sequence[int], windows: int
) -> List[List[Tuple[int, int]]]:
    """Per window, ``(system index, config index)`` per request, drawn
    from *seed*.  A repeat repeats a request of its own window (each
    window has a new server); fresh configurations are never shared
    between windows, so a run samples many of them."""
    rng = random.Random(seed)
    fresh = [(s, c) for s, size in enumerate(pool_sizes) for c in range(size)]
    rng.shuffle(fresh)
    plans = []
    for _ in range(windows):
        plan: List[Tuple[int, int]] = []
        sent: List[Tuple[int, int]] = []
        for _ in range(PLAN_LENGTH):
            if sent and (not fresh or rng.random() < REPEAT_SHARE):
                plan.append(sent[rng.randrange(len(sent))])
            else:
                plan.append(fresh.pop())
                sent.append(plan[-1])
        plans.append(plan)
    return plans


class Inputs:
    """Everything the load generator sends, built before any timing."""

    def __init__(self, seed: int, windows: int):
        # The service's own evaluator options, so the candidate sets are
        # the paper-sized ones (tens of thousands per system): a run
        # never exhausts its fresh configurations.
        bus = BusOptimisationOptions()
        self.systems = common.make_systems(common.SYSTEM_SET)
        self.pools = [candidate_configs(system, bus) for _, system in self.systems]
        self.plans = request_plans(seed, [len(pool) for pool in self.pools], windows)
        self._system_docs = [json.dumps(system_to_dict(s)) for _, s in self.systems]
        self.campaign_systems = common.make_systems(common.CAMPAIGN_SYSTEMS)
        self._campaign_body = json.dumps(
            {
                "kind": "campaign_request",
                "systems": {sid: system_to_dict(s) for sid, s in self.campaign_systems},
                "strategies": ["bbc", dict(name="sa", **CAMPAIGN_SA)],
            }
        ).encode("utf-8")

    def body(self, key: Tuple[int, int]) -> bytes:
        s, c = key
        return (
            '{"kind": "analyse_request", "system": %s, "config": %s}'
            % (self._system_docs[s], json.dumps(config_to_dict(self.pools[s][c])))
        ).encode("utf-8")

    def campaign_body(self) -> bytes:
        return self._campaign_body


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One server process on its own fresh state directory."""

    def __init__(self, traced_out: Optional[str] = None):
        self.state_dir = tempfile.mkdtemp(prefix="state-", dir=common.WORK_DIR)
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, "-m", "perfbench.launcher", "--out", traced_out]
        cmd += ["--port", "0", "--state-dir", self.state_dir]
        self._stdout_path = os.path.join(self.state_dir, "server.out")
        self._stdout = open(self._stdout_path, "w+b")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=self._stdout,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_port(start)
            self._wait_health(start)
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - start

    def _wait_port(self, start: float) -> int:
        while time.perf_counter() - start < START_TIMEOUT_S:
            with open(self._stdout_path, "rb") as fh:
                for line in fh.read().decode(errors="replace").splitlines():
                    if line.startswith("serving on http://"):
                        return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {self.output()}")

    def _wait_health(self, start: float) -> None:
        while time.perf_counter() - start < START_TIMEOUT_S:
            try:
                status, _ = request(self.port, "GET", "/health")
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError(f"server never answered /health: {self.output()}")

    def output(self) -> str:
        with open(self._stdout_path, "rb") as fh:
            return fh.read().decode(errors="replace")[-2000:]

    def checkpoint_bytes(self) -> int:
        total = 0
        for folder, _, files in os.walk(os.path.join(self.state_dir, "campaigns")):
            if os.path.basename(folder) == "checkpoints":
                total += sum(
                    os.path.getsize(os.path.join(folder, f))
                    for f in files
                    if f.endswith(".json")
                )
        return total

    def shutdown(self) -> int:
        """``POST /shutdown``; waits for the exit and returns its code."""
        try:
            request(self.port, "POST", "/shutdown", b"{}")
            return self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            return -1
        finally:
            self.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.close()

    def close(self) -> None:
        self._stdout.close()

    def remove(self) -> None:
        """Kill the process if it still runs; delete the state directory."""
        if self.proc.poll() is None:
            self.kill()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def request(port: int, method: str, path: str, body: bytes = None):
    """One HTTP exchange on a new connection: ``(status, JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# one load window
# ----------------------------------------------------------------------
class Window:
    """What one load window observed."""

    def __init__(self):
        self.latencies: List[float] = []
        #: perf_counter_ns midpoint of each completed request.
        self.midpoints: List[int] = []
        #: Per completed request, the reference job sampled around it.
        self.request_units: List[float] = []
        self.answers: Dict[Tuple[int, int], set] = {}
        self.completed_in_window = 0
        self.start_ns = 0
        self.stop_ns = 0
        self.campaign_seconds: Optional[float] = None
        self.campaign_report: Optional[dict] = None
        self.failures: List[str] = []
        self.attempted = 0
        self.health: dict = {}
        #: Server start until ``/health`` answers, and the state
        #: directory's checkpoint bytes when the window ended.
        self.start_s = 0.0
        self.checkpoint_bytes = 0
        #: ``POST /campaigns`` until the status reads done.
        self.campaign_ns = (0, 0)
        #: Mean reference-job seconds sampled over the window and over
        #: the campaign (timed runs only).
        self.unit = float("nan")
        self.campaign_unit = float("nan")

    @property
    def seconds(self) -> float:
        return (self.stop_ns - self.start_ns) / 1e9


def _answer(payload: dict) -> tuple:
    result = payload["result"]
    cost = result["cost"]
    return (
        result["feasible"],
        result["schedulable"],
        None if cost is None else cost["value"],
    )


def run_window(server: Server, inputs: Inputs, plan: Sequence, seconds: float) -> Window:
    window = Window()
    stop = threading.Event()
    counter = itertools.count()
    lock = threading.Lock()
    campaign_done = threading.Event()
    finished_ns: List[int] = []
    window.start_ns = time.perf_counter_ns()

    def client() -> None:
        latencies, midpoints, failures, answers = [], [], [], []
        while not stop.is_set():
            key = plan[next(counter) % len(plan)]
            t0 = time.perf_counter_ns()
            try:
                status, payload = request(server.port, "POST", "/analyse", inputs.body(key))
            except (OSError, ValueError) as exc:
                failures.append(f"analyse {key}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter_ns()
            if status != 200:
                failures.append(f"analyse {key}: HTTP {status}: {payload}")
                continue
            latencies.append((t1 - t0) / 1e9)
            midpoints.append((t0 + t1) // 2)
            answers.append((key, _answer(payload)))
            with lock:
                finished_ns.append(t1)
        with lock:
            window.latencies.extend(latencies)
            window.midpoints.extend(midpoints)
            window.failures.extend(failures)
            window.attempted += len(latencies) + len(failures)
            for key, answer in answers:
                window.answers.setdefault(key, set()).add(answer)

    def campaign() -> None:
        try:
            t0 = time.perf_counter_ns()
            status, payload = request(server.port, "POST", "/campaigns", inputs.campaign_body())
            if status != 202:
                raise RuntimeError(f"campaign submit: HTTP {status}: {payload}")
            path = "/campaigns/" + payload["campaign"]
            while True:
                status, snapshot = request(server.port, "GET", path)
                if status != 200 or snapshot["status"] == "failed":
                    raise RuntimeError(f"campaign poll: HTTP {status}: {snapshot}")
                if snapshot["status"] == "done":
                    break
                time.sleep(POLL_S)
            window.campaign_ns = (t0, time.perf_counter_ns())
            window.campaign_seconds = (window.campaign_ns[1] - t0) / 1e9
            window.campaign_report = snapshot["report"]
        except (OSError, RuntimeError, ValueError, KeyError) as exc:
            window.failures.append(f"campaign: {type(exc).__name__}: {exc}")
        finally:
            campaign_done.set()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    threads.append(threading.Thread(target=campaign))
    for thread in threads:
        thread.start()
    try:
        time.sleep(seconds)
        if not campaign_done.wait(max(0.0, MAX_WINDOW_S - seconds)):
            window.failures.append(f"the campaign was still running after {MAX_WINDOW_S} s")
    finally:
        window.stop_ns = time.perf_counter_ns()
        stop.set()
        for thread in threads:
            thread.join()
    window.attempted += 1  # the campaign
    if not window.latencies:
        window.failures.append("no analyse request completed in the window")
    window.completed_in_window = sum(1 for t in finished_ns if t <= window.stop_ns)
    status, health = request(server.port, "GET", "/health")
    window.health = health if status == 200 else {}
    return window


def serve_window(
    inputs: Inputs,
    plan: Sequence,
    seconds: float,
    traced_out: Optional[str] = None,
    sample: bool = False,
) -> Window:
    """One window on a new server, stopped with ``POST /shutdown``.

    With *sample*, the reference job is sampled in this process's main
    thread, which waits while the clients run; :func:`pin_to_one_cpu`
    puts the server on the same CPU.
    """
    server = Server(traced_out)
    try:
        if sample:
            with common.SpeedSampler() as sampler:
                window = run_window(server, inputs, plan, seconds)
            window.unit = sampler.between(window.start_ns, window.stop_ns)[0]
            window.request_units = [
                sampler.near(t, NEAR_NS) for t in window.midpoints
            ]
            window.campaign_unit = sampler.between(*window.campaign_ns)[0]
        else:
            window = run_window(server, inputs, plan, seconds)
        window.start_s = server.start_s
        window.checkpoint_bytes = server.checkpoint_bytes()
        code = server.shutdown()
    finally:
        server.remove()
    if code != 0:
        window.failures.append(f"server exited with code {code} after POST /shutdown")
    window.attempted += 1  # the shutdown
    return window


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def verify_answers(inputs: Inputs, windows: Sequence[Window]) -> List[str]:
    """Each distinct analyse response against a fresh ``analyse_system``."""
    answers: Dict[Tuple[int, int], set] = {}
    for window in windows:
        for key, seen in window.answers.items():
            answers.setdefault(key, set()).update(seen)
    mismatches = []
    for key in sorted(answers):
        seen = answers[key]
        s, c = key
        fresh = analyse_system(inputs.systems[s][1], inputs.pools[s][c])
        expected = (
            fresh.feasible,
            fresh.schedulable,
            None if fresh.cost is None else fresh.cost.value,
        )
        if seen != {expected}:
            mismatches.append(f"analyse {key}: served {seen}, fresh {expected}")
    return mismatches


def verify_campaigns(inputs: Inputs, windows: Sequence[Window]) -> List[str]:
    """Every campaign job against the same ``optimise()`` run in process."""
    expected = {}
    for sid, system in inputs.campaign_systems:
        for name, options in (("bbc", StrategyOptions()), ("sa", SAOptions(**CAMPAIGN_SA))):
            result = optimise(system, name, options)
            expected[f"{sid}__{name}"] = (result.evaluations, result.schedulable, result.cost)
    mismatches = []
    reports = [w.campaign_report for w in windows if w.campaign_report is not None]
    for i, report in enumerate(reports):
        if report["failures"] or len(report["results"]) != len(expected):
            mismatches.append(f"campaign {i}: failures {report['failures']}")
            continue
        for job_id, want in expected.items():
            job = report["results"].get(job_id)
            if job is None:
                mismatches.append(f"campaign {i}: no job {job_id}")
                continue
            best = job["best"]
            served = (
                job["evaluations"],
                bool(best and best["schedulable"]),
                float("inf") if best is None else best["cost"]["value"],
            )
            if served != want:
                mismatches.append(f"campaign {i} {job_id}: served {served}, in process {want}")
    return mismatches


def _check(outcome: Outcome, inputs: Inputs, windows: Sequence[Window]) -> None:
    """Count every window's attempts; fail on every failure and mismatch."""
    for window in windows:
        outcome.attempted += window.attempted
        for failure in window.failures:
            outcome.fail(failure)
    for mismatch in verify_answers(inputs, windows) + verify_campaigns(inputs, windows):
        outcome.fail(mismatch)


def _tail(latencies: Sequence[float]) -> str:
    try:
        p, value, n = tail_percentile(latencies)
    except ValueError as exc:
        return f"no tail ({exc})"
    return f"p{p:g} {1000.0 * value:.3f} ms of {n}"


def _pool(health: dict) -> dict:
    pool = health.get("pool", {})
    return {k: pool.get(k, 0) for k in ("hits", "misses", "evictions")}


# ----------------------------------------------------------------------
# the two runs
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Pin this process and the servers it starts to one CPU, so the
    reference job sampled here runs where the server does."""
    common.pin({max(os.sched_getaffinity(0))})


def timed(workload: str, seed: int, seconds: float) -> Outcome:
    """``SETUP_REPEATS`` windows, each behind one timed set-up.

    Every set-up sample (a probe process, then a new server until it
    answers ``/health``) is followed by its window, so each server
    serves one campaign and its share of ``seconds`` of analyse traffic.
    """
    pin_to_one_cpu()
    inputs = Inputs(seed, common.SETUP_REPEATS)
    outcome = Outcome()
    setup = []
    windows: List[Window] = []
    for plan in inputs.plans:
        probe = common.timed_probe([workload])
        windows.append(serve_window(inputs, plan, seconds / len(inputs.plans), sample=True))
        setup.append(probe + windows[-1].start_s)
    rss = common.peak_rss_mb() + common.peak_rss_mb(children=True)
    _check(outcome, inputs, windows)

    outcome.metric("setup_s", statistics.median(setup), "s")
    outcome.metric("peak_rss_mb", rss, "MB")
    if not outcome.correct:
        return outcome
    latencies = [x for w in windows for x in w.latencies]
    campaigns = [w.campaign_seconds for w in windows]
    p50 = statistics.median(latencies)
    rps = sum(w.completed_in_window for w in windows) / sum(w.seconds for w in windows)
    outcome.metric(
        "optimise_ref",
        statistics.median(w.campaign_seconds / w.campaign_unit for w in windows),
        "ref",
    )
    outcome.metric(
        "analyses_per_ref",
        sum(w.completed_in_window for w in windows)
        / sum(w.seconds / w.unit for w in windows),
        "1/ref",
    )
    outcome.metric(
        "latency_p50_ref",
        statistics.median(
            x / (w.unit if math.isnan(u) else u)
            for w in windows
            for x, u in zip(w.latencies, w.request_units)
        ),
        "ref",
    )
    outcome.note(
        f"service-mixed: {len(windows)} windows of {CONNECTIONS} closed-loop "
        f"connection(s), {sum(w.seconds for w in windows):.2f} s in all, "
        f"{rps:.1f} analyses/s, p50 {1000.0 * p50:.3f} ms, {_tail(latencies)}, "
        f"campaigns {[round(s, 3) for s in campaigns]} s, "
        f"reference job {[round(1000.0 * w.unit, 3) for w in windows]} ms, "
        f"pool {_pool(windows[0].health)} (first window)"
    )
    return outcome


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """An untraced window, then a traced one on a launcher-started server,
    both sending the same requests.  Client and server are not pinned
    here: on one CPU, the client's work between requests lands inside the
    server's handler spans."""
    inputs = Inputs(seed, 1)
    outcome = Outcome()
    spans_path = os.path.join(common.WORK_DIR, f"server-{workload}-seed{seed}.json")
    plain = serve_window(inputs, inputs.plans[0], seconds)
    traced_window = serve_window(inputs, inputs.plans[0], seconds, traced_out=spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        launched = json.load(fh)
    os.remove(spans_path)
    if launched["left"]:
        outcome.fail(f"wrappers left in the server: {launched['left']}")
    _check(outcome, inputs, [plain, traced_window])

    spans = [tuple(span) for span in launched["spans"]]
    values = layers.span_metrics(spans)
    health = traced_window.health
    entries = health.get("pool", {}).get("per_entry", {}).values()
    exact = sum(e["evaluations"] for e in entries)
    hits = sum(e["cache_hits"] for e in entries)
    pool = _pool(health)
    mean = {
        name: statistics.fmean(window.latencies or [0.0])
        for name, window in (("untraced", plain), ("traced", traced_window))
    }
    try:
        tail_p, tail_v, _ = tail_percentile(plain.latencies)
    except ValueError as exc:
        outcome.fail(f"untraced analyse latencies: {exc}")
        tail_p, tail_v = 0.0, 0.0
    values.update(
        {
            "search.exact_analyses": exact,
            "search.cache_hits": hits,
            "search.cache_hit_ratio": hits / max(1, exact + hits),
            "service.wait_ms": 1000.0 * mean["traced"] - values["service.handler_ms"],
            "service.rejected": health.get("admission", {}).get("rejected", 0),
            "service.analyse_tail_ms": 1000.0 * tail_v,
            "service.analyse_tail_p": tail_p,
            "service.analyse_samples": len(plain.latencies),
            "pool.hits": pool["hits"],
            "pool.misses": pool["misses"],
            "pool.hit_ratio": pool["hits"] / max(1, pool["hits"] + pool["misses"]),
            "campaign.checkpoint_bytes": traced_window.checkpoint_bytes,
            "trace.overhead_ratio": mean["traced"] / mean["untraced"] if mean["untraced"] else 0.0,
            "trace.residual_s": layers.uncovered_s(
                spans, traced_window.start_ns, traced_window.stop_ns
            ),
            "trace.missing_boundaries": len(launched["missing"]),
        }
    )
    outcome.layer_values = values
    recorder = SpanRecorder()
    recorder.spans = spans
    outcome.spans = recorder
    outcome.note(
        f"service-mixed: untraced mean latency {1000 * mean['untraced']:.3f} ms "
        f"over {len(plain.latencies)} requests ({_tail(plain.latencies)}), traced "
        f"{1000 * mean['traced']:.3f} ms over "
        f"{len(traced_window.latencies)}, server spans {len(spans)}"
        + (f", missing boundaries {launched['missing']}" if launched["missing"] else "")
    )
    return outcome
