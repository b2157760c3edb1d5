"""Tests for the campaign orchestration layer (repro.core.campaign)."""

import json
import os

import pytest

from repro.core.campaign import (
    CampaignJob,
    CampaignOptions,
    campaign_matrix,
    job_id_for,
    run_campaign,
)
from repro.core.sa import SAOptions
from repro.errors import CampaignError, OptimisationError

from tests.util import campaign_systems as _systems
from tests.util import fig3_system, fig4_system
from tests.util import small_bus as _small_bus


class TestCampaignMatrix:
    def test_cross_product_in_order(self):
        jobs = campaign_matrix(_systems(), ["bbc", "obc-cf"])
        assert [j.job_id for j in jobs] == [
            "static__bbc",
            "static__obc-cf",
            "dyn__bbc",
            "dyn__obc-cf",
        ]
        assert all(isinstance(j, CampaignJob) for j in jobs)

    def test_strategy_options_and_bus_preset(self):
        bus = _small_bus(parallel_workers=2)
        sa = SAOptions(iterations=5, seed=3)
        jobs = campaign_matrix(["s"], [("sa", sa)], bus=bus)
        assert jobs[0].options.iterations == 5
        assert jobs[0].options.bus is bus

    def test_unknown_strategy_fails_at_matrix_time(self):
        with pytest.raises(OptimisationError, match="unknown strategy"):
            campaign_matrix(["s"], ["magic"])

    def test_illegal_system_id_rejected(self):
        with pytest.raises(CampaignError, match="illegal system id"):
            campaign_matrix(["a/b"], ["bbc"])

    def test_duplicate_cell_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            campaign_matrix(["s"], ["bbc", "bbc"])


class TestRunCampaign:
    def test_runs_every_cell_and_reports(self):
        systems = _systems()
        jobs = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        seen = []
        report = run_campaign(
            systems, jobs, progress=lambda j, r, res: seen.append((j.job_id, res))
        )
        assert set(report.results) == {"static__bbc", "dyn__bbc"}
        assert report.executed == ("static__bbc", "dyn__bbc")
        assert report.resumed == ()
        assert seen == [("static__bbc", False), ("dyn__bbc", False)]
        assert report.result_for("dyn", "bbc").algorithm == "BBC"

    def test_unknown_system_reference(self):
        jobs = campaign_matrix(["ghost"], ["bbc"])
        with pytest.raises(CampaignError, match="unknown system"):
            run_campaign(_systems(), jobs)

    def test_result_for_unknown_cell(self):
        systems = _systems()
        report = run_campaign(
            systems, campaign_matrix(systems, ["bbc"], bus=_small_bus())
        )
        with pytest.raises(CampaignError, match="no job"):
            report.result_for("static", "sa")


class TestCampaignWorkers:
    """``CampaignOptions``: the campaign fault policy is validated.

    (Failure cells in a sequential run are covered by
    ``tests/test_campaign_faults.py::TestTimeoutsAndRetries::
    test_job_timeout_is_recorded_not_raised``.)
    """

    def test_campaign_options_are_validated(self):
        with pytest.raises(CampaignError):
            CampaignOptions(max_retries=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_timeout", -1.0),
            ("job_timeout", float("nan")),
            ("job_timeout", "1"),
            ("job_timeout", True),
            ("retry_backoff", -0.5),
            ("retry_backoff", float("inf")),
            ("retry_backoff", float("nan")),
            ("retry_backoff", None),
            ("max_retries", 1.5),
            ("max_retries", True),
            ("max_retries", None),
        ],
    )
    def test_bad_limits_are_rejected(self, field, value):
        with pytest.raises(CampaignError, match=field):
            CampaignOptions(**{field: value})

    def test_good_limits_are_accepted(self):
        options = CampaignOptions(job_timeout=0, retry_backoff=0)
        assert (options.job_timeout, options.retry_backoff) == (0, 0)
        assert CampaignOptions(job_timeout=float("inf")).job_timeout > 0


class TestCheckpoints:
    def test_resume_loads_identical_results(self, tmp_path):
        systems = _systems()
        jobs = campaign_matrix(
            systems,
            ["bbc", ("sa", SAOptions(iterations=15, seed=5))],
            bus=_small_bus(),
        )
        first = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert len(first.executed) == 4 and not first.resumed
        second = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert len(second.resumed) == 4 and not second.executed
        for job in jobs:
            a = first.results[job.job_id]
            b = second.results[job.job_id]
            assert a.trace == b.trace
            assert a.evaluations == b.evaluations
            assert a.cost == b.cost
            assert a.schedulable == b.schedulable

    def test_partial_checkpoint_set_resumes_partially(self, tmp_path):
        systems = _systems()
        jobs = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        run_campaign(systems, jobs[:1], checkpoint_dir=str(tmp_path))
        report = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert report.resumed == ("static__bbc",)
        assert report.executed == ("dyn__bbc",)

    def test_corrupted_checkpoint_is_rerun_and_overwritten(self, tmp_path):
        systems = _systems()
        jobs = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        path = tmp_path / f"{job_id_for('static', 'bbc')}.json"
        path.write_text("{ not json", encoding="utf-8")
        report = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        assert "static__bbc" in report.executed
        # overwritten with a valid checkpoint
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["job"]["strategy"] == "bbc"

    def test_foreign_checkpoint_raises(self, tmp_path):
        systems = _systems()
        jobs = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        run_campaign(systems, jobs[:1], checkpoint_dir=str(tmp_path))
        # rename the static checkpoint over the dyn job's slot
        src = tmp_path / "static__bbc.json"
        dst = tmp_path / "dyn__bbc.json"
        os.rename(src, dst)
        with pytest.raises(CampaignError, match="belongs to"):
            run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))

    def test_redefined_options_invalidate_checkpoint(self, tmp_path):
        """Same job id, changed strategy options: the stale checkpoint
        must be re-run, not resumed."""
        systems = {"dyn": fig4_system()}
        quick = campaign_matrix(
            systems, [("sa", SAOptions(iterations=10, seed=5))],
            bus=_small_bus(),
        )
        run_campaign(systems, quick, checkpoint_dir=str(tmp_path))
        bigger = campaign_matrix(
            systems, [("sa", SAOptions(iterations=25, seed=5))],
            bus=_small_bus(),
        )
        report = run_campaign(systems, bigger, checkpoint_dir=str(tmp_path))
        assert report.executed == ("dyn__sa",)
        assert not report.resumed
        assert report.results["dyn__sa"].evaluations > 10

    def test_worker_count_change_keeps_checkpoints(self, tmp_path):
        """Runs are byte-identical serial vs. parallel, so resuming a
        sweep with a different --workers must reuse its checkpoints."""
        systems = {"dyn": fig4_system()}
        serial = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        run_campaign(systems, serial, checkpoint_dir=str(tmp_path))
        parallel = campaign_matrix(
            systems, ["bbc"], bus=_small_bus(parallel_workers=4)
        )
        report = run_campaign(systems, parallel, checkpoint_dir=str(tmp_path))
        assert report.resumed == ("dyn__bbc",)
        assert not report.executed

    def test_changed_system_invalidates_checkpoint(self, tmp_path):
        jobs = campaign_matrix(["s"], ["bbc"], bus=_small_bus())
        run_campaign({"s": fig4_system()}, jobs, checkpoint_dir=str(tmp_path))
        # same id, different system content
        report = run_campaign(
            {"s": fig3_system()}, jobs, checkpoint_dir=str(tmp_path)
        )
        assert report.executed == ("s__bbc",)
        assert not report.resumed

    def test_checkpoint_files_are_self_describing(self, tmp_path):
        systems = {"dyn": fig4_system()}
        jobs = campaign_matrix(systems, ["bbc"], bus=_small_bus())
        run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
        payload = json.loads(
            (tmp_path / "dyn__bbc.json").read_text(encoding="utf-8")
        )
        meta = payload["job"]
        assert meta["job_id"] == "dyn__bbc"
        assert meta["system_id"] == "dyn"
        assert meta["strategy"] == "bbc"
        assert meta["options_fingerprint"]
        assert meta["system_fingerprint"]
        assert payload["result"]["kind"] == "optimisation_result"
        assert payload["result"]["trace"]
