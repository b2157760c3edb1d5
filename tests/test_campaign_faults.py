"""Fault tolerance of the campaign runtime (repro.core.campaign).

Covers the robustness contract: per-job wall-clock timeouts, bounded
retries, failure recording (the matrix finishes even when cells die),
fail-fast writability probes, checkpoint quarantine, and the acceptance
scenario -- one timed-out job plus one corrupted checkpoint in a single
campaign that completes, reports both, and resumes cleanly afterwards.

Test strategies are registered through the public registry
(:func:`repro.core.strategies.register_strategy`) and removed again by
the fixture, so the registry other tests see stays untouched.
"""

import json
import logging
import os
import threading
import time

import pytest

from repro.analysis import AnalysisContext
from repro.core.campaign import (
    CampaignJobFailure,
    CampaignOptions,
    campaign_matrix,
    ensure_writable_dir,
    ensure_writable_file,
    job_id_for,
    run_campaign,
)
from repro.core.fabric import fabric_collect, fabric_submit, fabric_work
from repro.core.runtime import CandidateBatch, SearchDriver, SearchStrategy
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import (
    StrategyOptions,
    StrategySpec,
    _REGISTERED,
    optimise,
    register_strategy,
)
from repro.errors import CampaignError

from tests.util import fig3_system, fig4_system


@pytest.fixture
def registry():
    """Register test strategies, restore the registry afterwards."""
    added = []

    def register(name, runner):
        register_strategy(
            StrategySpec(
                name=name,
                summary=f"test strategy {name}",
                options_type=StrategyOptions,
                runner=runner,
            )
        )
        added.append(name)

    yield register
    for name in added:
        _REGISTERED.pop(name, None)


def _bbc(system, options):
    return optimise(system, "bbc", None)


class _SleepyStrategy(SearchStrategy):
    """Sleeps about 10 ms before each (empty) batch and never ends."""

    algorithm = "sleepy"

    def proposals(self, system):
        while True:
            time.sleep(0.01)
            yield CandidateBatch()


def _sleepy(system, options):
    return SearchDriver(system, _SleepyStrategy(options)).run()


def _boom(system, options):
    raise ValueError("injected failure")


class TestTimeoutsAndRetries:
    def test_job_timeout_is_recorded_not_raised(self, registry):
        registry("sleepy", _sleepy)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["sleepy", "bbc"])
        report = run_campaign(
            systems,
            jobs,
            options=CampaignOptions(job_timeout=0.05, retry_backoff=0.0),
        )
        # The campaign completed: the slow cell failed, the other ran.
        assert set(report.results) == {"s__bbc"}
        assert set(report.failures) == {"s__sleepy"}
        failure = report.failures["s__sleepy"]
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert "wall-clock timeout" in failure.message
        assert report.failures
        with pytest.raises(CampaignError, match="timed out"):
            report.result_for("s", "sleepy")

    def test_no_work_runs_after_a_timeout(self, monkeypatch):
        calls = []
        for name in ("analyse", "analyse_sweep"):
            original = getattr(AnalysisContext, name)

            def spy(self, *args, _original=original, **kwargs):
                calls.append(time.monotonic())
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(AnalysisContext, name, spy)
        systems = {"s": fig4_system()}
        jobs = campaign_matrix(systems, [("sa", SAOptions(iterations=20000))])
        before = set(threading.enumerate())
        report = run_campaign(
            systems,
            jobs,
            options=CampaignOptions(job_timeout=0.2, retry_backoff=0.0),
        )
        assert report.failures["s__sa"].kind == "timeout"
        assert set(threading.enumerate()) <= before
        assert calls  # the job did analyse before its deadline
        done = len(calls)
        time.sleep(0.3)
        assert len(calls) == done

    def test_parallel_restarts_time_out_without_a_serial_rerun(self, caplog):
        options = SAOptions(
            iterations=1_000_000,
            restarts=2,
            bus=BusOptimisationOptions(parallel_workers=2),
        )
        systems = {"s": fig4_system()}
        jobs = campaign_matrix(systems, [("sa", options)])
        start = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="repro.core.sa"):
            report = run_campaign(
                systems,
                jobs,
                options=CampaignOptions(job_timeout=0.5, retry_backoff=0.0),
            )
        failure = report.failures["s__sa"]
        assert (failure.kind, failure.attempts) == ("timeout", 1)
        assert "wall-clock timeout" in failure.message
        assert "pool failed" not in caplog.text
        assert time.perf_counter() - start < 10.0  # the chains stopped

    def test_fabric_worker_records_the_same_timeout(self, registry, tmp_path):
        registry("sleepy", _sleepy)
        systems = {"s": fig3_system()}
        options = CampaignOptions(
            job_timeout=0.05, max_retries=1, retry_backoff=0.0
        )
        inline = run_campaign(
            systems, campaign_matrix(systems, ["sleepy", "bbc"]),
            options=options,
        )
        root = str(tmp_path / "fab")
        fabric_submit(root, systems, ["sleepy", "bbc"], options=options)
        fabric_work(root, worker_id="w0", lease_ttl=5.0)
        merged = fabric_collect(root)
        assert merged.failures == inline.failures
        assert set(merged.results) == {"s__bbc"}
        failure = merged.failures["s__sleepy"]
        assert (failure.kind, failure.attempts) == ("timeout", 2)
        assert "wall-clock timeout" in failure.message

    def test_exception_is_recorded_with_type_and_message(self, registry):
        registry("boom", _boom)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["boom"])
        report = run_campaign(
            systems, jobs, options=CampaignOptions(retry_backoff=0.0)
        )
        failure = report.failures["s__boom"]
        assert failure.kind == "error"
        assert "ValueError" in failure.message
        assert "injected failure" in failure.message
        with pytest.raises(CampaignError, match="injected failure"):
            report.result_for("s", "boom")

    def test_bounded_retry_recovers_a_flaky_job(self, registry):
        calls = {"n": 0}

        def flaky(system, options):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return _bbc(system, options)

        registry("flaky", flaky)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["flaky"])
        report = run_campaign(
            systems,
            jobs,
            options=CampaignOptions(max_retries=2, retry_backoff=0.0),
        )
        assert calls["n"] == 3
        assert not report.failures
        assert report.result_for("s", "flaky").evaluations > 0

    def test_retries_exhausted_reports_attempt_count(self, registry):
        registry("boom", _boom)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["boom"])
        report = run_campaign(
            systems,
            jobs,
            options=CampaignOptions(max_retries=2, retry_backoff=0.0),
        )
        assert report.failures["s__boom"].attempts == 3

    def test_negative_max_retries_rejected(self):
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["bbc"])
        with pytest.raises(CampaignError, match="max_retries"):
            run_campaign(
                systems, jobs, options=CampaignOptions(max_retries=-1)
            )

    def test_failed_job_writes_no_checkpoint(self, registry, tmp_path):
        registry("boom", _boom)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["boom"])
        report = run_campaign(
            systems,
            jobs,
            checkpoint_dir=str(tmp_path),
            options=CampaignOptions(retry_backoff=0.0),
        )
        assert report.failures
        assert not os.path.exists(tmp_path / "s__boom.json")


class TestWritabilityFailFast:
    # Note: permission-bit tests are useless under root (root bypasses
    # mode checks), so the unwritable targets here are paths *under a
    # regular file*, which fail with ENOTDIR for every uid.

    def test_unwritable_checkpoint_dir_fails_before_any_job(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        bad_dir = str(blocker / "checkpoints")
        with pytest.raises(CampaignError, match="--checkpoint-dir"):
            ensure_writable_dir(bad_dir)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["bbc"])
        ran = {"jobs": 0}
        with pytest.raises(CampaignError, match="not writable"):
            run_campaign(
                systems,
                jobs,
                checkpoint_dir=bad_dir,
                progress=lambda *a: ran.__setitem__("jobs", ran["jobs"] + 1),
            )
        assert ran["jobs"] == 0  # failed fast, before any job ran

    def test_unwritable_output_file_message_names_the_flag(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        with pytest.raises(CampaignError, match="--output"):
            ensure_writable_file(str(blocker / "summary.json"))

    def test_probes_leave_no_residue(self, tmp_path):
        target_dir = tmp_path / "checkpoints"
        ensure_writable_dir(str(target_dir))
        assert list(target_dir.iterdir()) == []
        out = tmp_path / "summary.json"
        ensure_writable_file(str(out))
        assert not out.exists()
        # An existing output file is probed but kept.
        out.write_text("{}\n")
        ensure_writable_file(str(out))
        assert out.read_text() == "{}\n"


class TestQuarantine:
    def test_corrupted_checkpoint_is_quarantined_and_job_rerun(self, tmp_path):
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["bbc"])
        first = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert first.executed == ("s__bbc",)
        path = tmp_path / "s__bbc.json"
        path.write_text('{"job": {"truncated...')  # half-written file

        second = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert second.quarantined == ("s__bbc",)
        assert second.executed == ("s__bbc",)  # re-ran, not resumed
        quarantined = tmp_path / "s__bbc.json.quarantined.1"
        assert quarantined.read_text().startswith('{"job"')
        # A fresh checkpoint replaced the corrupted one: next run resumes.
        third = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert third.resumed == ("s__bbc",)
        assert not third.quarantined
        assert third.results["s__bbc"].cost == first.results["s__bbc"].cost

    def test_quarantine_suffixes_do_not_collide(self, tmp_path):
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["bbc"])
        for n in (1, 2):
            (tmp_path / "s__bbc.json").write_text("garbage")
            report = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
            assert report.quarantined == ("s__bbc",)
            assert (tmp_path / f"s__bbc.json.quarantined.{n}").exists()


class TestAcceptanceScenario:
    def test_timeout_plus_corrupted_checkpoint_then_clean_resume(
        self, registry, tmp_path
    ):
        """The PR's acceptance criterion: a campaign with one injected
        job timeout and one corrupted checkpoint completes, reports both
        failures in the report, and resumes cleanly afterwards."""
        registry("sleepy", _sleepy)
        systems = {"s": fig3_system()}
        jobs = campaign_matrix(systems, ["bbc", "sleepy"])

        # Seed a valid checkpoint for bbc, then corrupt it.
        seeded = run_campaign(
            systems, campaign_matrix(systems, ["bbc"]),
            checkpoint_dir=str(tmp_path),
        )
        good_cost = seeded.results["s__bbc"].cost
        (tmp_path / "s__bbc.json").write_text("{{{ corrupted")

        report = run_campaign(
            systems,
            jobs,
            checkpoint_dir=str(tmp_path),
            options=CampaignOptions(job_timeout=0.05, retry_backoff=0.0),
        )
        # Completed, reporting both problems.
        assert report.quarantined == ("s__bbc",)
        assert set(report.failures) == {"s__sleepy"}
        assert report.failures["s__sleepy"].kind == "timeout"
        assert report.results["s__bbc"].cost == good_cost  # re-ran fine
        assert isinstance(report.failures["s__sleepy"], CampaignJobFailure)

        # Quarantined bytes stay inspectable; the fresh checkpoint is
        # valid JSON, so the next (timeout-free) run resumes cleanly.
        assert (tmp_path / "s__bbc.json.quarantined.1").exists()
        with open(tmp_path / "s__bbc.json", encoding="utf-8") as fh:
            assert json.load(fh)["job"]["job_id"] == job_id_for("s", "bbc")
        resumed = run_campaign(
            systems, campaign_matrix(systems, ["bbc"]),
            checkpoint_dir=str(tmp_path),
        )
        assert resumed.resumed == ("s__bbc",)
        assert not resumed.failures
