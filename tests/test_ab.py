"""``benchmarks/ab.py``: alternating A/B pairs over a toy benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ab import sign_test_p, summarise

ROOT = Path(__file__).resolve().parents[1]

#: A toy benchmark: its metric is the checkout's ``value.txt`` plus the
#: seed / 100; it logs each run to ``runs.log`` so the order shows.
TOY = """\
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
here = Path.cwd()
with open(here.parent / "runs.log", "a") as log:
    log.write(f"{here.name} {seed}\\n")
value = float((here / "value.txt").read_text())
print("progress line")
print(json.dumps({"correct": (here / "correct.txt").read_text() == "yes",
                  "metrics": {"t": {"value": value + seed / 100, "unit": "s"},
                              "n": {"value": 5, "unit": "count"}}}))
sys.exit(int((here / "exit.txt").read_text()))
"""


def _checkout(root, name, value, correct="yes", exit_code=0):
    path = root / name
    path.mkdir()
    (path / "toy.py").write_text(TOY)
    (path / "value.txt").write_text(str(value))
    (path / "correct.txt").write_text(correct)
    (path / "exit.txt").write_text(str(exit_code))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "t", "better": "lower"}],
        "per_layer": [{"name": "n", "better": "higher"}],
    }))
    return path


def _ab(a, b, pairs=4):
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ab.py"), str(a), str(b),
         "--pairs", str(pairs), "--first-seed", "3", "--",
         sys.executable, "toy.py", "--seed", "{seed}"],
        capture_output=True, text=True, timeout=120,
    )


def test_sign_test_p_is_exact():
    assert sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert sign_test_p(0, 10) == sign_test_p(10, 0)
    assert sign_test_p(3, 3) == 1.0
    assert sign_test_p(0, 0) == 1.0


def test_summary_counts_wins_by_direction_and_skips_ties():
    pairs = [({"t": 2.0, "r": 1.0}, {"t": 1.0, "r": 1.0})] * 3 + [
        ({"t": 1.0, "r": 1.0}, {"t": 1.0, "r": 2.0})
    ]
    summary = summarise(pairs, {"r": "higher"})
    assert summary["t"]["b_wins"] == 3 and summary["t"]["b_losses"] == 0
    assert summary["t"]["sign_p"] == pytest.approx(0.25)
    assert summary["t"]["ratios"] == [0.5, 0.5, 0.5, 1.0]
    assert summary["r"]["b_wins"] == 1 and summary["r"]["b_losses"] == 0
    assert summary["t"]["a"] == [1.75, 2.0, 2.0]


def test_alternating_pairs_over_a_toy_command(tmp_path):
    a = _checkout(tmp_path, "a", 2.0)
    b = _checkout(tmp_path, "b", 1.0)
    proc = _ab(a, b)
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "runs.log").read_text().split()
    assert runs == [
        "a", "3", "b", "3", "b", "4", "a", "4",
        "a", "5", "b", "5", "b", "6", "a", "6",
    ]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    t = summary["metrics"]["t"]
    assert summary["pairs"] == 4
    assert (t["b_wins"], t["b_losses"]) == (4, 0)
    assert t["sign_p"] == pytest.approx(0.125)
    assert t["a"][1] == pytest.approx(2.045) and t["b"][1] == pytest.approx(1.045)
    n = summary["metrics"]["n"]
    assert (n["better"], n["b_wins"], n["b_losses"]) == ("higher", 0, 0)
    assert "B better in 4 of 4 pairs, worse in 0; sign test p = 0.125" in proc.stdout


@pytest.mark.parametrize(
    "broken", [{"correct": "no"}, {"exit_code": 3}], ids=["incorrect", "exit"]
)
def test_a_failed_run_fails_the_comparison(tmp_path, broken):
    a = _checkout(tmp_path, "a", 2.0)
    b = _checkout(tmp_path, "b", 1.0, **broken)
    proc = _ab(a, b)
    assert proc.returncode == 1
    assert "ab: " in proc.stderr
    # It stops at the first failed run: pair 1 ran A, then B failed.
    assert (tmp_path / "runs.log").read_text().split() == ["a", "3", "b", "3"]
