"""Black-box tests of the JSON/HTTP analysis service (repro.service).

Everything here talks to the service the way a real client would: over
a socket, JSON in / JSON out, no reaching into server internals.  The
battery pins the scaling mechanisms of the service layer:

* **Warm pool** -- threaded clients hammering one system fingerprint
  share a single warm :class:`~repro.core.search.Evaluator`, asserted
  through the per-response pool accounting (exactly one cold request
  pays the evaluations; every other one is a pool hit riding the
  shared result cache).
* **Admission control** -- a mixed-fingerprint storm over the
  concurrency cap gets 429s (counted against ``/health``), every
  client eventually succeeds (zero dropped successes), and the
  observed ``peak_active`` never exceeds the cap.
* **Decoded-system memo** -- a repeated system document is decoded
  once, answers equal a cold server's, and failed decodes are never
  stored.  Counting ``system_from_dict`` calls is the one place this
  file patches a server internal.
* **Durability** -- a server SIGKILLed mid-campaign resumes the
  campaign from its checkpoints on restart, and the final report is
  byte-identical (modulo wall-clock fields) to an uninterrupted run.

The kill/restart round trip doubles as the service ``perf_smoke``: the
whole start -> analyse -> campaign -> kill -> resume cycle must land
well under ten seconds.
"""

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.analysis import analyse_system
from repro.analysis.holistic import AnalysisOptions
from repro.core.bbc import basic_configuration
from repro.core.campaign import campaign_matrix, run_campaign
from repro.core.sa import SAOptions
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system
from repro.io.serialization import (
    analysis_result_to_dict,
    config_to_dict,
    result_to_dict,
    system_fingerprint,
    system_from_dict,
    system_to_dict,
)
from repro.errors import ServiceError
from repro.service import ServiceConfig, create_server
from repro.service import server as server_module
from repro.service.protocol import parse_campaign_request

from tests.util import (
    FIG4_FRAME_IDS,
    basic_config,
    campaign_systems,
    fig4_system,
    small_bus,
)

pytestmark = pytest.mark.service


# ----------------------------------------------------------------------
# client plumbing
# ----------------------------------------------------------------------
def _request(port, method, path, body=None, raw=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = raw if raw is not None else (
        None if body is None else json.dumps(body).encode("utf-8")
    )
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(port, path, body=None, raw=None):
    return _request(port, "POST", path, body=body, raw=raw)


def _get(port, path):
    return _request(port, "GET", path)


def _poll_campaign(port, campaign_id, *, until="done", timeout=30.0):
    """Poll ``GET /campaigns/<id>`` until the campaign reaches *until*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = _get(port, f"/campaigns/{campaign_id}")
        assert status == 200, doc
        if doc["status"] == "failed":
            raise AssertionError(f"campaign failed: {doc.get('error')}")
        if doc["status"] == until:
            return doc
        time.sleep(0.01)
    raise AssertionError(f"campaign {campaign_id} not {until} in {timeout}s")


class _Service:
    """An in-process server on a free port, torn down on exit."""

    def __init__(self, tmp_path, **kw):
        kw.setdefault("state_dir", str(tmp_path / "state"))
        self.config = ServiceConfig(**kw)
        self.server = create_server(self.config)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def _analyse_body(system=None, config=None, options=None):
    doc = {
        "kind": "analyse_request",
        "system": system_to_dict(system if system is not None else fig4_system()),
        "config": config_to_dict(
            config if config is not None
            else basic_config(frame_ids=FIG4_FRAME_IDS)
        ),
    }
    if options is not None:
        doc["options"] = options
    return doc


def _campaign_body(systems=None, strategies=None, budget=None):
    systems = systems if systems is not None else campaign_systems()
    doc = {
        "kind": "campaign_request",
        "systems": {sid: system_to_dict(s) for sid, s in systems.items()},
        "strategies": ["bbc"] if strategies is None else strategies,
    }
    if budget is not None:
        doc["budget"] = budget
    return doc


def _strip_clocks(doc):
    """Drop every wall-clock field, recursively -- the only part of a
    report that may differ between two runs of the same campaign."""
    if isinstance(doc, dict):
        return {
            k: _strip_clocks(v)
            for k, v in doc.items()
            if k != "elapsed_seconds"
        }
    if isinstance(doc, list):
        return [_strip_clocks(v) for v in doc]
    return doc


# ----------------------------------------------------------------------
# POST /analyse
# ----------------------------------------------------------------------
class TestAnalyseEndpoint:
    def test_round_trip_matches_direct_analysis(self, tmp_path):
        with _Service(tmp_path) as svc:
            status, doc = _post(svc.port, "/analyse", _analyse_body())
            assert status == 200
            assert doc["kind"] == "analysis"
            assert re.fullmatch(r"[0-9a-f]{16}", doc["fingerprint"])
            direct = analyse_system(
                fig4_system(), basic_config(frame_ids=FIG4_FRAME_IDS)
            )
            assert doc["result"] == analysis_result_to_dict(direct)
            assert doc["service"]["pool_hit"] is False
            assert doc["service"]["evaluations"] == 1

    def test_repeat_request_rides_warm_pool_and_shared_cache(self, tmp_path):
        with _Service(tmp_path) as svc:
            _, first = _post(svc.port, "/analyse", _analyse_body())
            _, second = _post(svc.port, "/analyse", _analyse_body())
            assert first["result"] == second["result"]
            assert second["service"]["pool_hit"] is True
            assert second["service"]["evaluations"] == 0
            assert second["service"]["cache_hits"] == 1

    def test_pooled_evaluator_keeps_no_trace_points(self, tmp_path):
        """Each miss records one search-trace point on the pooled
        evaluator, which nothing reads: the service drops it, so the
        trace stays empty however many distinct requests it serves,
        and the per-request accounting is unchanged."""
        with _Service(tmp_path) as svc:
            lengths = range(13, 23)
            for i, n in enumerate(lengths):
                config = basic_config(n_minislots=n, frame_ids=FIG4_FRAME_IDS)
                status, doc = _post(
                    svc.port, "/analyse", _analyse_body(config=config)
                )
                assert status == 200
                assert doc["service"] == {
                    "pool_hit": i > 0,
                    "evaluations": 1,
                    "cache_hits": 0,
                    "cache_entries": i + 1,
                }
            (entry,) = svc.server.service.pool._entries.values()
            assert entry.evaluator.evaluations == len(lengths)
            assert entry.evaluator.trace == []

    def test_analysis_options_select_a_distinct_pool_entry(self, tmp_path):
        with _Service(tmp_path) as svc:
            _, clean = _post(svc.port, "/analyse", _analyse_body())
            _, faulty = _post(
                svc.port, "/analyse",
                _analyse_body(options={"fault_hypothesis": 2}),
            )
            # The k-error bound dominates the clean analysis...
            assert all(
                faulty["result"]["wcrt"][n] >= r
                for n, r in clean["result"]["wcrt"].items()
            )
            # ...and the options are part of the pool key.
            assert faulty["service"]["pool_hit"] is False
            _, health = _get(svc.port, "/health")
            assert health["pool"]["entries"] == 2

    def test_malformed_requests_get_400(self, tmp_path):
        with _Service(tmp_path) as svc:
            cases = [
                _post(svc.port, "/analyse", raw=b"{not json"),
                _post(svc.port, "/analyse", raw=b""),
                _post(svc.port, "/analyse", {"config": {}}),  # no system
                _post(svc.port, "/analyse", _analyse_body(
                    options={"backend": "python", "warp": 9})),
                _post(svc.port, "/analyse",
                      dict(_analyse_body(), service_version=99)),
                _post(svc.port, "/analyse",
                      dict(_analyse_body(), kind="campaign_request")),
            ]
            for status, doc in cases:
                assert status == 400, doc
                assert doc["kind"] == "error"
                assert doc["error"]["code"] == "bad-request"

    def test_unknown_routes_get_404(self, tmp_path):
        with _Service(tmp_path) as svc:
            assert _get(svc.port, "/nope")[0] == 404
            assert _post(svc.port, "/nope", {})[0] == 404
            status, doc = _get(svc.port, "/campaigns/deadbeefdeadbeef")
            assert status == 404
            assert doc["error"]["code"] == "not-found"


def _raw_post(port, head):
    """Send a hand-written request head over a bare socket; return the
    status line of the reply (the server closes after answering)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.split(b"\r\n", 1)[0].decode("latin-1")


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-1", "+5", "1e3", "0x10"])
    def test_non_decimal_content_length_gets_400_before_the_body(
        self, tmp_path, value
    ):
        with _Service(tmp_path) as svc:
            # No body follows: a server that tried to read one would
            # never answer, and the socket timeout fails the test.
            head = (
                "POST /analyse HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {value}\r\n\r\n"
            ).encode("latin-1")
            status_line = _raw_post(svc.port, head)
            assert status_line.split()[1] == "400", status_line
            # The server is still healthy afterwards.
            assert _get(svc.port, "/health")[0] == 200

    def test_exact_content_length_is_still_served(self, tmp_path):
        with _Service(tmp_path) as svc:
            body = json.dumps(_analyse_body()).encode("utf-8")
            head = (
                "POST /analyse HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            assert _raw_post(svc.port, head + body).split()[1] == "200"


def _short_body_head(announced=100):
    return (
        "POST /analyse HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {announced}\r\n\r\n"
    ).encode("latin-1")


def _read_reply(sock):
    """Everything the server sends until it closes the connection."""
    reply = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return reply
        reply += chunk


class TestShortBody:
    """A body shorter than its ``Content-Length`` must not pin a handler
    thread: the read runs under ``BODY_DEADLINE_S``."""

    def test_stalled_body_gets_408_and_a_close(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "BODY_DEADLINE_S", 0.5)
        with _Service(tmp_path) as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            ) as sock:
                sock.sendall(_short_body_head() + b'{"a": 1}')
                started = time.monotonic()
                reply = _read_reply(sock)
                waited = time.monotonic() - started
            head, _, body = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].split()[1] == "408", lines[0]
            assert "connection: close" in [h.lower() for h in lines[1:]]
            doc = json.loads(body)
            assert doc["error"]["code"] == "request-timeout"
            assert "8 of 100 bytes" in doc["error"]["message"]
            assert 0.4 <= waited < 4.0, waited
            assert _get(svc.port, "/health")[0] == 200

    def test_body_cut_by_the_peer_gets_400(self, tmp_path):
        with _Service(tmp_path) as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            ) as sock:
                sock.sendall(_short_body_head() + b'{"a": 1}')
                sock.shutdown(socket.SHUT_WR)
                reply = _read_reply(sock)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split()[1] == b"400", head
            doc = json.loads(body)
            assert doc["error"]["code"] == "bad-request"
            assert "ended after 8 of 100 bytes" in doc["error"]["message"]
            assert _get(svc.port, "/health")[0] == 200

    def test_health_answers_while_a_body_stalls(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "BODY_DEADLINE_S", 30.0)
        with _Service(tmp_path) as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            ) as sock:
                sock.sendall(_short_body_head() + b'{"a"')
                time.sleep(0.1)  # the handler thread is now reading
                started = time.monotonic()
                assert _get(svc.port, "/health")[0] == 200
                assert time.monotonic() - started < 2.0


# ----------------------------------------------------------------------
# the decoded-system memo
# ----------------------------------------------------------------------
@pytest.fixture
def decode_calls(monkeypatch):
    """Count the service's ``system_from_dict`` calls."""
    import repro.service.pool as pool

    calls = []
    original = pool.system_from_dict

    def counting(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(pool, "system_from_dict", counting)
    return calls


def _without_service(doc):
    """A response body minus the per-request pool accounting."""
    return {k: v for k, v in doc.items() if k != "service"}


class TestSystemMemo:
    def test_repeated_document_is_decoded_once(self, tmp_path, decode_calls):
        configs = [
            basic_config(frame_ids=FIG4_FRAME_IDS, n_minislots=n)
            for n in (13, 17, 13)
        ]
        with _Service(tmp_path) as svc:
            for config in configs:
                status, _ = _post(
                    svc.port, "/analyse", _analyse_body(config=config)
                )
                assert status == 200
            _, health = _get(svc.port, "/health")
        assert len(decode_calls) == 1
        assert health["systems"] == {
            "entries": 1, "max_entries": 8, "hits": 2, "misses": 1,
        }

    def test_memo_answers_equal_cold_server_answers(self, tmp_path):
        system_doc = system_to_dict(fig4_system())
        configs = [
            basic_config(frame_ids=FIG4_FRAME_IDS, n_minislots=n)
            for n in (13, 17, 21)
        ]
        with _Service(tmp_path / "warm") as warm:
            served = [
                _post(warm.port, "/analyse", _analyse_body(config=c))[1]
                for c in configs
            ]
        for config, doc in zip(configs, served):
            with _Service(tmp_path / f"cold{config.n_minislots}") as cold:
                _, fresh = _post(
                    cold.port, "/analyse", _analyse_body(config=config)
                )
            assert _without_service(doc) == _without_service(fresh)
            assert doc["fingerprint"] == system_fingerprint(
                system_from_dict(system_doc)
            )

    def test_changed_field_gets_its_own_fingerprint_and_pool_entry(
        self, tmp_path
    ):
        base = _analyse_body()
        changed = json.loads(json.dumps(base))
        changed["system"]["application"]["graphs"][0]["tasks"][2]["wcet"] = 2
        with _Service(tmp_path) as svc:
            _, first = _post(svc.port, "/analyse", base)
            _, second = _post(svc.port, "/analyse", changed)
            _, health = _get(svc.port, "/health")
        assert first["fingerprint"] != second["fingerprint"]
        assert second["fingerprint"] == system_fingerprint(
            system_from_dict(changed["system"])
        )
        assert second["service"]["pool_hit"] is False
        assert health["pool"]["entries"] == 2
        assert health["systems"]["entries"] == 2

    def test_malformed_document_gets_400_every_time_and_is_not_stored(
        self, tmp_path, decode_calls
    ):
        bad = _analyse_body()
        del bad["system"]["application"]
        with _Service(tmp_path) as svc:
            for _ in range(3):
                status, doc = _post(svc.port, "/analyse", bad)
                assert status == 400, doc
                assert doc["error"]["code"] == "bad-request"
            _, health = _get(svc.port, "/health")
        assert len(decode_calls) == 3
        assert health["systems"]["entries"] == 0
        assert health["pool"]["entries"] == 0

    def test_memo_is_bounded_by_pool_entries(self, tmp_path, decode_calls):
        systems = [fig4_system(period=200 + 20 * i) for i in range(4)]
        with _Service(tmp_path, pool_entries=2) as svc:
            for system in systems + systems[-2:]:
                status, _ = _post(
                    svc.port, "/analyse", _analyse_body(system=system)
                )
                assert status == 200
                _, health = _get(svc.port, "/health")
                assert health["systems"]["entries"] <= 2
            # The two most recent documents were still held; the
            # oldest ones were dropped and decode again.
            _post(svc.port, "/analyse", _analyse_body(system=systems[0]))
        assert len(decode_calls) == 5
        assert health["systems"]["hits"] == 2

    def test_threaded_clients_posting_one_document_get_identical_200s(
        self, tmp_path
    ):
        n = 8
        with _Service(tmp_path, max_concurrent=n) as svc:
            body = _analyse_body()
            barrier = threading.Barrier(n)
            results = [None] * n

            def client(i):
                barrier.wait()
                results[i] = _post(svc.port, "/analyse", body)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            _, health = _get(svc.port, "/health")
        assert all(r is not None and r[0] == 200 for r in results)
        bodies = {
            json.dumps(_without_service(doc), sort_keys=True)
            for _, doc in results
        }
        assert len(bodies) == 1
        assert health["systems"]["entries"] == 1
        assert health["systems"]["hits"] + health["systems"]["misses"] == n


# ----------------------------------------------------------------------
# warm-pool concurrency (acceptance: >= 8 threaded clients, one pool entry)
# ----------------------------------------------------------------------
class TestWarmPoolConcurrency:
    def test_threaded_clients_share_one_warm_evaluator(self, tmp_path):
        n = 8
        with _Service(tmp_path, max_concurrent=n) as svc:
            body = _analyse_body()
            barrier = threading.Barrier(n)
            results = [None] * n

            def client(i):
                barrier.wait()
                results[i] = _post(svc.port, "/analyse", body)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            assert all(r is not None and r[0] == 200 for r in results)
            docs = [doc for _, doc in results]
            # Same fingerprint, same result, for every client.
            assert len({doc["fingerprint"] for doc in docs}) == 1
            payloads = {json.dumps(doc["result"], sort_keys=True) for doc in docs}
            assert len(payloads) == 1
            # Exactly one client paid the cold evaluation; the other
            # seven rode the warm evaluator's shared result cache.
            cold = [d for d in docs if not d["service"]["pool_hit"]]
            warm = [d for d in docs if d["service"]["pool_hit"]]
            assert len(cold) == 1 and len(warm) == n - 1
            assert cold[0]["service"]["evaluations"] == 1
            assert all(d["service"]["evaluations"] == 0 for d in warm)
            assert all(d["service"]["cache_hits"] == 1 for d in warm)

            _, health = _get(svc.port, "/health")
            pool = health["pool"]
            assert pool["entries"] == 1
            assert pool["misses"] == 1
            assert pool["hits"] == n - 1
            (entry,) = pool["per_entry"].values()
            assert entry["leases"] == n
            assert entry["evaluations"] == 1
            assert entry["cache_hits"] == n - 1


# ----------------------------------------------------------------------
# admission control (acceptance: storms capped, zero dropped successes)
# ----------------------------------------------------------------------
@contextmanager
def _switch_interval(seconds):
    """Run the block under a shorter interpreter thread switch interval."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestAdmissionControl:
    def test_storm_is_capped_with_zero_dropped_successes(self, tmp_path):
        # 12 clients, two fingerprints, cap 2.  The systems are big
        # enough that one analysis outlasts many of the 0.5 ms thread
        # switch intervals set here, so handler threads genuinely overlap
        # in the admitted region; same-fingerprint requests additionally
        # serialize on their warm evaluator *inside* that region, so
        # admitted-but-waiting clients keep both slots occupied for the
        # whole drain and the rest of the storm is turned away with 429
        # until slots free up.  (Under the default 5 ms interval a
        # thread can parse, analyse and leave within a few slices, and
        # the storm sometimes drains without a single 429.)
        n, cap = 12, 2
        with _switch_interval(0.0005), _Service(
            tmp_path, max_concurrent=cap
        ) as svc:
            systems = [
                generate_system(
                    GeneratorConfig(
                        n_nodes=6, tasks_per_node=24, tasks_per_graph=4,
                        seed=seed,
                    )
                )
                for seed in (1, 2)
            ]
            bodies = [
                _analyse_body(
                    system=systems[i % 2],
                    # Distinct configs: every request does real work
                    # instead of short-circuiting on the result cache.
                    config=basic_configuration(
                        systems[i % 2], 160 + i // 2
                    ),
                )
                for i in range(n)
            ]
            barrier = threading.Barrier(n)
            outcomes = [None] * n

            def client(i):
                barrier.wait()
                retries = 0
                while True:
                    status, doc = _post(svc.port, "/analyse", bodies[i])
                    if status != 429:
                        outcomes[i] = (status, doc, retries)
                        return
                    assert doc["error"]["code"] == "over-capacity"
                    retries += 1
                    time.sleep(0.005)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            # Zero dropped successes: every client got its answer.
            assert all(o is not None and o[0] == 200 for o in outcomes)
            assert all("schedulable" in o[1]["result"] for o in outcomes)
            total_429 = sum(o[2] for o in outcomes)

            _, health = _get(svc.port, "/health")
            admission = health["admission"]
            assert admission["peak_active"] <= cap
            assert admission["admitted"] == n
            assert admission["rejected"] == total_429
            # A simultaneous 12-client storm against a cap of 2 cannot
            # fit: first attempts beyond the cap were turned away.
            assert total_429 >= 1
            assert health["pool"]["entries"] == 2

    def test_pool_evicts_least_recently_used_fingerprint(self, tmp_path):
        with _Service(tmp_path, pool_entries=2) as svc:
            systems = [fig4_system(period=200 + 20 * i) for i in range(4)]
            for system in systems:
                _post(svc.port, "/analyse", _analyse_body(system=system))
            _, health = _get(svc.port, "/health")
            assert health["pool"]["entries"] == 2
            assert health["pool"]["evictions"] == 2
            # The oldest fingerprint was evicted: analysing it again is
            # a cold start, not a pool hit.
            _, doc = _post(
                svc.port, "/analyse", _analyse_body(system=systems[0])
            )
            assert doc["service"]["pool_hit"] is False
            # The most recent one is still warm.
            _, doc = _post(
                svc.port, "/analyse", _analyse_body(system=systems[3])
            )
            assert doc["service"]["pool_hit"] is True


# ----------------------------------------------------------------------
# campaigns over the wire
# ----------------------------------------------------------------------
class TestCampaignEndpoints:
    def test_submit_poll_and_report_matches_library_run(self, tmp_path):
        strategies = ["bbc", {"name": "sa", "iterations": 5, "seed": 3}]
        with _Service(tmp_path, bus=small_bus()) as svc:
            status, accepted = _post(
                svc.port, "/campaigns", _campaign_body(strategies=strategies)
            )
            assert status == 202
            assert accepted["created"] is True
            campaign_id = accepted["campaign"]
            assert re.fullmatch(r"[0-9a-f]{16}", campaign_id)

            done = _poll_campaign(svc.port, campaign_id)
            assert done["jobs_total"] == 4
            assert done["jobs_done"] == 4
            report = done["report"]
            assert sorted(report["results"]) == [
                "dyn__bbc", "dyn__sa", "static__bbc", "static__sa",
            ]
            assert report["failures"] == {}
            for job in done["jobs"].values():
                assert set(job) >= {
                    "schedulable", "cost", "evaluations", "stop_reason",
                }

            # The wire results are exactly what the library produces.
            jobs = campaign_matrix(
                campaign_systems(),
                ["bbc", ("sa", SAOptions(iterations=5, seed=3))],
                bus=small_bus(),
            )
            direct = run_campaign(
                campaign_systems(),
                jobs,
                checkpoint_dir=str(tmp_path / "direct-ckpt"),
            )
            for job_id, result in direct.results.items():
                assert _strip_clocks(report["results"][job_id]) == \
                    _strip_clocks(result_to_dict(result))

            # Content-addressed dedup: the same spec joins, not re-runs.
            status, again = _post(
                svc.port, "/campaigns", _campaign_body(strategies=strategies)
            )
            assert status == 200
            assert again["created"] is False
            assert again["campaign"] == campaign_id

    def test_budget_maps_onto_strategy_options(self, tmp_path):
        with _Service(tmp_path, bus=small_bus()) as svc:
            _, accepted = _post(
                svc.port,
                "/campaigns",
                _campaign_body(
                    systems={"dyn": fig4_system()},
                    strategies=[{"name": "sa", "iterations": 400, "seed": 7}],
                    budget={"max_evaluations": 5},
                ),
            )
            done = _poll_campaign(svc.port, accepted["campaign"])
            job = done["jobs"]["dyn__sa"]
            assert job["stop_reason"] == "budget"
            assert job["evaluations"] == 5

    def test_campaign_requests_are_validated(self, tmp_path):
        with _Service(tmp_path) as svc:
            cases = [
                _campaign_body(strategies=["magic"]),
                _campaign_body(strategies=[{"name": "sa", "warp": 9}]),
                _campaign_body(strategies=[]),
                dict(_campaign_body(), systems={}),
                dict(_campaign_body(), budget={"max_cost": 1}),
            ]
            for body in cases:
                status, doc = _post(svc.port, "/campaigns", body)
                assert status == 400, doc
                assert doc["error"]["code"] == "bad-request"

    @pytest.mark.parametrize(
        "budget,strategies",
        [
            ({"max_seconds": "1"}, None),
            ({"max_seconds": float("nan")}, None),
            ({"max_evaluations": -3}, None),
            ({"max_evaluations": 2.5}, None),
            (None, [{"name": "sa", "max_seconds": -1}]),
            (None, [{"name": "bbc", "max_evaluations": True}]),
        ],
    )
    def test_bad_budgets_are_400(self, budget, strategies):
        body = _campaign_body(strategies=strategies, budget=budget)
        with pytest.raises(ServiceError, match="max_") as exc:
            parse_campaign_request(body)
        assert exc.value.status == 400

    def test_bad_budget_over_http_gets_400(self, tmp_path):
        with _Service(tmp_path) as svc:
            body = _campaign_body(budget={"max_evaluations": -3})
            status, doc = _post(svc.port, "/campaigns", body)
            assert status == 400, doc
            assert "max_evaluations" in doc["error"]["message"]

    def test_new_campaigns_over_the_cap_get_429(self, tmp_path):
        with _Service(tmp_path, max_campaigns=0) as svc:
            status, doc = _post(svc.port, "/campaigns", _campaign_body())
            assert status == 429
            assert doc["error"]["code"] == "over-capacity"

    def test_finished_campaign_survives_restart(self, tmp_path):
        body = _campaign_body(strategies=["bbc"])
        with _Service(tmp_path, bus=small_bus()) as svc:
            _, accepted = _post(svc.port, "/campaigns", body)
            first = _poll_campaign(svc.port, accepted["campaign"])
        # A new server process (same state dir) serves the campaign
        # from its persisted terminal report.
        with _Service(tmp_path, bus=small_bus()) as svc:
            status, doc = _get(
                svc.port, f"/campaigns/{accepted['campaign']}"
            )
            assert status == 200
            assert doc["status"] == "done"
            assert doc["report"] == first["report"]
            # Resubmitting still dedups onto the recovered campaign.
            status, again = _post(svc.port, "/campaigns", body)
            assert (status, again["created"]) == (200, False)


class TestCampaignDelete:
    def test_unknown_campaign_404s(self, tmp_path):
        with _Service(tmp_path) as svc:
            status, doc = _request(svc.port, "DELETE", "/campaigns/deadbeef")
            assert status == 404
            assert doc["error"]["code"] == "not-found"
            # DELETE exists only for campaigns.
            status, _ = _request(svc.port, "DELETE", "/analyse")
            assert status == 404

    def test_running_campaign_409s_then_deletes_when_done(self, tmp_path):
        slow = ["bbc", {"name": "sa", "iterations": 12000, "seed": 11}]
        with _Service(tmp_path, bus=small_bus()) as svc:
            _, accepted = _post(
                svc.port,
                "/campaigns",
                _campaign_body(systems={"dyn": fig4_system()}, strategies=slow),
            )
            campaign_id = accepted["campaign"]
            status, doc = _request(
                svc.port, "DELETE", f"/campaigns/{campaign_id}"
            )
            assert status == 409
            assert doc["error"]["code"] == "conflict"

            _poll_campaign(svc.port, campaign_id)
            status, doc = _request(
                svc.port, "DELETE", f"/campaigns/{campaign_id}"
            )
            assert status == 200
            assert doc["kind"] == "campaign_deleted"
            assert doc["campaign"] == campaign_id
            assert doc["deleted"] is True
            # Gone from the API and from disk...
            status, _ = _get(svc.port, f"/campaigns/{campaign_id}")
            assert status == 404
            assert not (
                tmp_path / "state" / "campaigns" / campaign_id
            ).exists()
            # ...so the content-addressed id is free to be recreated.
            status, again = _post(
                svc.port,
                "/campaigns",
                _campaign_body(systems={"dyn": fig4_system()}, strategies=slow),
            )
            assert (status, again["created"]) == (202, True)
            assert again["campaign"] == campaign_id

    def test_fabric_backed_campaign_guards_its_directory(self, tmp_path):
        slow = ["bbc", {"name": "sa", "iterations": 12000, "seed": 11}]
        with _Service(tmp_path, bus=small_bus(), fabric=True) as svc:
            _, accepted = _post(
                svc.port,
                "/campaigns",
                _campaign_body(systems={"dyn": fig4_system()}, strategies=slow),
            )
            campaign_id = accepted["campaign"]
            status, doc = _request(
                svc.port, "DELETE", f"/campaigns/{campaign_id}"
            )
            assert status == 409
            assert "leases" in doc["error"]["message"]

            # Live progress: bbc is published long before sa at 12000
            # iterations finishes, so a poll sees one job done while the
            # campaign is still running.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _, live = _get(svc.port, f"/campaigns/{campaign_id}")
                if live["jobs_done"] or live["status"] != "running":
                    break
                time.sleep(0.01)
            assert (live["status"], live["jobs_done"]) == ("running", 1)
            assert live["jobs"]["dyn__bbc"]["resumed"] is False

            done = _poll_campaign(svc.port, campaign_id)
            # The campaign really ran through the fabric: its directory
            # holds a manifest and the published checkpoints.
            root = tmp_path / "state" / "campaigns" / campaign_id
            assert (root / "manifest.json").exists()
            assert done["jobs_done"] == 2
            status, doc = _request(
                svc.port, "DELETE", f"/campaigns/{campaign_id}"
            )
            assert (status, doc["deleted"]) == (200, True)
            assert not root.exists()


# ----------------------------------------------------------------------
# the full round trip, against real server processes
# (acceptance: kill mid-campaign -> restart -> resume, byte-identical)
# ----------------------------------------------------------------------
def _spawn_server(state_dir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=root,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        proc.kill()
        raise AssertionError(f"server did not announce a port: {line!r}")
    return proc, int(match.group(1))


@pytest.mark.perf_smoke
class TestKillResumeRoundTrip:
    def test_kill_mid_campaign_then_restart_resumes_byte_identical(
        self, tmp_path
    ):
        started = time.monotonic()
        # bbc finishes (and checkpoints) in milliseconds; sa at 12000
        # iterations holds the campaign open for the kill window.
        body = _campaign_body(
            systems={"rt": fig4_system()},
            strategies=["bbc", {"name": "sa", "iterations": 12000,
                                "seed": 11}],
        )

        proc, port = _spawn_server(tmp_path / "state")
        try:
            # The serve round trip starts with a plain analyse call.
            status, doc = _post(port, "/analyse", _analyse_body())
            assert status == 200 and "schedulable" in doc["result"]

            _, accepted = _post(port, "/campaigns", body)
            campaign_id = accepted["campaign"]

            # Wait for the first job's checkpoint, then pull the plug
            # (SIGKILL: no atexit, no graceful shutdown).
            deadline = time.monotonic() + 15
            killed_in_flight = False
            while time.monotonic() < deadline:
                _, snap = _get(port, f"/campaigns/{campaign_id}")
                if snap["jobs_done"] >= 1:
                    killed_in_flight = snap["status"] == "running"
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("no job finished before the deadline")
        finally:
            proc.kill()
            proc.wait(timeout=10)

        # Restart on the same state dir: recovery re-launches the
        # campaign, the checkpoint store answers the finished job, and
        # the interrupted job re-runs deterministically.
        proc, port = _spawn_server(tmp_path / "state")
        try:
            resumed = _poll_campaign(port, campaign_id, timeout=30)
            assert _post(port, "/shutdown")[0] == 200
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert resumed["report"]["failures"] == {}
        if killed_in_flight:
            assert "rt__bbc" in resumed["report"]["resumed"]
            assert resumed["jobs"]["rt__bbc"]["resumed"] is True

        # The uninterrupted twin, on a fresh state dir.
        proc, port = _spawn_server(tmp_path / "fresh-state")
        try:
            _, accepted2 = _post(port, "/campaigns", body)
            assert accepted2["campaign"] == campaign_id  # content-addressed
            uninterrupted = _poll_campaign(port, campaign_id, timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=10)

        # Byte-identical results, modulo wall-clock fields.  (The
        # report's `resumed`/`executed` bookkeeping legitimately
        # differs: that is the evidence the restart took the resume
        # path rather than re-running everything.)
        assert json.dumps(
            _strip_clocks(resumed["report"]["results"]), sort_keys=True
        ) == json.dumps(
            _strip_clocks(uninterrupted["report"]["results"]), sort_keys=True
        )
        assert sorted(resumed["report"]["results"]) == ["rt__bbc", "rt__sa"]
        assert time.monotonic() - started < 10.0
