"""Tests for the command-line interface."""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.io import save_config, save_system

from tests.util import basic_config, fig3_system, fig4_system


@pytest.fixture
def system_path(tmp_path):
    path = str(tmp_path / "system.json")
    save_system(fig3_system(), path)
    return path


@pytest.fixture
def dyn_system_path(tmp_path):
    path = str(tmp_path / "dyn_system.json")
    save_system(fig4_system(), path)
    return path


@pytest.fixture
def config_path(tmp_path):
    path = str(tmp_path / "config.json")
    save_config(
        basic_config(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=0),
        path,
    )
    return path


class TestGenerate:
    def test_generate_writes_system(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(["generate", out, "--nodes", "2", "--seed", "4"]) == 0
        assert os.path.exists(out)
        assert "2 nodes" in capsys.readouterr().out

    def test_generate_cruise_controller(self, tmp_path, capsys):
        out = str(tmp_path / "cc.json")
        assert main(["generate", out, "--cruise-controller"]) == 0
        assert "54 tasks" in capsys.readouterr().out


class TestAnalyse:
    def test_analyse_schedulable(self, system_path, config_path, capsys):
        assert main(["analyse", system_path, config_path]) == 0
        out = capsys.readouterr().out
        assert "schedulable" in out and "R=" in out

    def test_analyse_json_output(self, system_path, config_path, capsys):
        assert main(["analyse", system_path, config_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedulable"] is True
        assert "m3" in payload["wcrt"]

    def test_analyse_infeasible(self, system_path, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        save_config(
            basic_config(static_slots=("N1",), gd_static_slot=8, n_minislots=0),
            bad,
        )
        assert main(["analyse", system_path, bad]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out


class TestOptimise:
    def test_bbc(self, system_path, capsys):
        assert main(["optimise", system_path, "--algorithm", "bbc"]) == 0
        assert "BBC" in capsys.readouterr().out

    def test_obc_cf_writes_config(self, dyn_system_path, tmp_path, capsys):
        out = str(tmp_path / "best.json")
        code = main(
            ["optimise", dyn_system_path, "--algorithm", "obc-cf", "--output", out]
        )
        assert code == 0
        assert os.path.exists(out)

    def test_sa_budgeted(self, dyn_system_path, capsys):
        # Exercises the CLI plumbing; with a tiny budget SA may or may
        # not reach a schedulable configuration, so only the exit-code
        # contract is pinned.
        code = main(
            ["optimise", dyn_system_path, "--algorithm", "sa",
             "--sa-iterations", "120"]
        )
        assert code in (0, 1)
        assert "SA" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_with_gantt(self, system_path, config_path, capsys):
        assert main(["simulate", system_path, config_path, "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "bus cycle" in out
        assert "observed R" in out

    def test_simulate_trace(self, system_path, config_path, capsys):
        assert main(["simulate", system_path, config_path, "--trace"]) == 0
        assert "task_finish" in capsys.readouterr().out


class TestShowAndErrors:
    def test_show_system(self, system_path, capsys):
        assert main(["show", system_path]) == 0
        assert "graph g0" in capsys.readouterr().out

    def test_show_config(self, config_path, capsys):
        assert main(["show", config_path]) == 0
        assert "ST slot 1" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert main(["show", "/nonexistent/x.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestFaultFlags:
    def test_simulate_fault_rate_reports_retransmissions(
        self, system_path, config_path, capsys
    ):
        rc = main(
            [
                "simulate", system_path, config_path,
                "--fault-rate", "0.5", "--fault-seed", "0",
            ]
        )
        assert rc in (0, 1)
        out = capsys.readouterr().out
        assert "retransmissions=4" in out

    def test_simulate_clean_run_has_no_retransmission_line(
        self, system_path, config_path, capsys
    ):
        main(["simulate", system_path, config_path])
        assert "retransmissions" not in capsys.readouterr().out

    def test_analyse_fault_hypothesis_inflates_bounds(
        self, system_path, config_path, capsys
    ):
        main(["analyse", system_path, config_path, "--json"])
        clean = json.loads(capsys.readouterr().out)
        main(
            [
                "analyse", system_path, config_path, "--json",
                "--fault-hypothesis", "2",
            ]
        )
        faulty = json.loads(capsys.readouterr().out)
        assert all(
            faulty["wcrt"][name] >= clean["wcrt"][name]
            for name in clean["wcrt"]
        )
        assert any(
            faulty["wcrt"][name] > clean["wcrt"][name]
            for name in clean["wcrt"]
        )

    def test_invalid_fault_hypothesis_is_a_cli_error(
        self, system_path, config_path, capsys
    ):
        rc = main(
            [
                "analyse", system_path, config_path,
                "--fault-hypothesis", "-1",
            ]
        )
        assert rc == 2
        assert "fault_hypothesis" in capsys.readouterr().err


class TestCampaignRuntimeFlags:
    def test_job_timeout_failure_sets_exit_code(
        self, system_path, tmp_path, capsys
    ):
        out = str(tmp_path / "summary.json")
        # Budget the SA job ~1s of annealing and time it out after 50ms.
        before = set(threading.enumerate())
        rc = main(
            [
                "campaign", system_path,
                "--strategies", "sa",
                "--sa-iterations", "20000",
                "--job-timeout", "0.05",
                "--output", out,
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "timed out" in captured.err
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["jobs"] == {}
        assert payload["failures"]["system__sa"]["kind"] == "timeout"
        # The job stopped at its deadline: nothing it started runs on.
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--max-seconds", "nan"], "max_seconds"),
            (["--max-seconds", "-1"], "max_seconds"),
            (["--max-evaluations", "-3"], "max_evaluations"),
            (["--job-timeout", "-1"], "job_timeout"),
            (["--job-timeout", "nan"], "job_timeout"),
        ],
    )
    def test_bad_limits_exit_2_before_any_job(
        self, system_path, capsys, flags, field
    ):
        rc = main(["campaign", system_path, "--strategies", "bbc", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "[ran]" not in captured.out

    def test_unwritable_output_fails_before_jobs(
        self, system_path, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(
            [
                "campaign", system_path,
                "--strategies", "bbc",
                "--output", str(blocker / "summary.json"),
            ]
        )
        assert rc == 2
        assert "--output" in capsys.readouterr().err


def _strip_clocks(doc):
    if isinstance(doc, dict):
        return {
            k: _strip_clocks(v)
            for k, v in doc.items()
            if k != "elapsed_seconds"
        }
    if isinstance(doc, list):
        return [_strip_clocks(v) for v in doc]
    return doc


class TestCampaignFabric:
    def test_fabric_campaign_writes_the_inline_report(
        self, system_path, tmp_path
    ):
        reports = {}
        for mode, extra in (
            ("inline", []),
            ("fabric", ["--fabric", str(tmp_path / "fab")]),
        ):
            out = str(tmp_path / f"{mode}.json")
            rc = main(
                ["campaign", system_path, "--strategies", "bbc,sa",
                 "--sa-iterations", "40", *extra, "--output", out]
            )
            with open(out, encoding="utf-8") as fh:
                reports[mode] = (rc, _strip_clocks(json.load(fh)))
        assert reports["fabric"] == reports["inline"]
        assert sorted(reports["fabric"][1]["jobs"]) == [
            "system__bbc", "system__sa"
        ]


    def test_fabric_wait_polls_every_two_seconds(
        self, system_path, tmp_path, monkeypatch, capsys
    ):
        import time
        from types import SimpleNamespace

        import repro.cli as cli

        root = str(tmp_path / "fab")
        argv = ["campaign", system_path, "--strategies", "bbc",
                "--fabric", root, "--job-timeout", "600"]
        assert main(argv) == 0  # drains the fabric in this process
        states = iter([False, False, True])
        monkeypatch.setattr(
            cli,
            "fabric_status",
            lambda root: SimpleNamespace(
                complete=next(states), describe=lambda: "status"
            ),
        )
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        assert main([*argv, "--fabric-wait"]) == 0
        assert sleeps == [cli.FABRIC_POLL_S] * 2 == [2.0, 2.0]


class TestConsoleEntryPoint:
    """The packaged `repro` command is `repro.cli:main` (setup.py
    console_scripts); `--help` must exit 0 on every layer of it."""

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["serve", "--help"], ["analyse", "--help"]],
        ids=lambda a: " ".join(a),
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_setup_declares_the_console_script(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "setup.py"), encoding="utf-8") as fh:
            assert "repro=repro.cli:main" in fh.read()

    def test_serve_help_names_the_service_knobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in ("--state-dir", "--max-concurrent", "--pool-entries",
                     "--max-campaigns"):
            assert flag in out
