"""The Fig. 9 rows and tables: one row builder in process and on a
fabric, and a runtime panel that prints the measurement, not the
paper."""

import pytest

from repro.core.campaign import campaign_matrix, run_campaign
from repro.core.fabric import fabric_submit, fabric_work
from repro.core.sa import SAOptions
from repro.core.strategies import (
    StrategyOptions,
    StrategySpec,
    _REGISTERED,
    register_strategy,
)

from benchmarks.fig9_aggregate import merge_fabric
from benchmarks.fig9_common import (
    ALGORITHMS,
    bench_options,
    fig9_strategies,
    runtime_lines,
    suite_rows,
    suite_systems,
)

#: A small SA budget keeps each path of the row test well under a second.
SUITE = {"node_counts": [2, 3], "count": 1, "seed": 23}
STRATEGIES = fig9_strategies(SAOptions(iterations=40, seed=7))


def _without_seconds(rows):
    return [
        {
            key: (
                {k: v for k, v in cell.items() if k != "seconds"}
                if isinstance(cell, dict) else cell
            )
            for key, cell in row.items()
        }
        for row in rows
    ]


def _inline_rows(systems):
    jobs = campaign_matrix(systems, STRATEGIES, bus=bench_options())
    return suite_rows(systems, run_campaign(systems, jobs).results)


def _fabric_rows(systems, root):
    fabric_submit(
        root, systems, STRATEGIES, bus=bench_options(),
        meta={"suite": SUITE},
    )
    fabric_work(root, worker_id="w0", lease_ttl=30.0)
    return merge_fabric(root, allow_partial=False)


def test_suite_systems_are_named_by_suite_coordinates():
    systems = suite_systems((3, 2, 3), 2, 23)
    assert list(systems) == ["n2_i0", "n2_i1", "n3_i0", "n3_i1"]
    assert [len(s.nodes) for s in systems.values()] == [2, 2, 3, 3]


def test_inline_and_fabric_rows_are_equal(tmp_path):
    systems = suite_systems(SUITE["node_counts"], SUITE["count"], SUITE["seed"])
    inline = _inline_rows(systems)
    fabric, meta = _fabric_rows(systems, str(tmp_path / "fab"))
    assert [(r["n_nodes"], r["index"]) for r in inline] == [(2, 0), (3, 0)]
    assert all(r[a] is not None for r in inline for a in ALGORITHMS)
    assert _without_seconds(fabric) == _without_seconds(inline)
    assert meta["suite"] == SUITE
    assert meta["jobs_done"] == 8 and meta["failed_jobs"] == {}


def _raising_runner(system, options):
    raise RuntimeError("injected failure")


@pytest.fixture
def failing_obc_ee():
    """OBC/EE overridden through the registry by a runner that raises."""
    register_strategy(
        StrategySpec(
            name="obc-ee",
            summary="always raises (test-only)",
            options_type=StrategyOptions,
            runner=_raising_runner,
        )
    )
    yield
    _REGISTERED.pop("obc-ee", None)


def test_a_failed_job_gives_a_none_cell(failing_obc_ee, tmp_path):
    systems = suite_systems([2], 1, SUITE["seed"])
    inline = _inline_rows(systems)
    fabric, meta = _fabric_rows(systems, str(tmp_path / "fab"))
    for rows in (inline, fabric):
        (row,) = rows
        assert row["OBC/EE"] is None
        assert all(row[a] is not None for a in ALGORITHMS if a != "OBC/EE")
    assert _without_seconds(fabric) == _without_seconds(inline)
    assert list(meta["failed_jobs"]) == ["n2_i0__obc-ee"]


def _row(n_nodes, seconds, evaluations=100):
    """A synthetic benchmark row; ``seconds[a] is None`` marks a failed
    cell."""
    row = {"n_nodes": n_nodes, "index": 0}
    for a in ALGORITHMS:
        secs = seconds.get(a, 1.0)
        row[a] = None if secs is None else {
            "cost": 0.0,
            "schedulable": True,
            "evaluations": evaluations,
            "cache_hits": 0,
            "seconds": secs,
        }
    return row


def _ratio_column(lines):
    """Per class: the last cell of each table row."""
    return {
        int(line.split("|")[0]): line.split("|")[-1].strip()
        for line in lines[2:-1]
    }


def test_ratio_column_is_cf_time_over_ee_time_per_class():
    rows = [
        _row(2, {"OBC/CF": 0.78, "OBC/EE": 0.74}),
        # Two systems in one class: the ratio is of the class means.
        _row(3, {"OBC/CF": 1.0, "OBC/EE": 4.0}),
        _row(3, {"OBC/CF": 2.0, "OBC/EE": 2.0}),
    ]
    lines = runtime_lines(rows, "title")
    assert lines[0] == "title"
    assert lines[1].rstrip().endswith("CF/EE s")
    assert _ratio_column(lines) == {2: "1.05", 3: "0.50"}


def test_missing_or_zero_ee_time_prints_n_a():
    rows = [
        _row(2, {"OBC/EE": None}),
        _row(3, {"OBC/CF": None}),
        _row(4, {"OBC/EE": 0.0}),
    ]
    assert _ratio_column(runtime_lines(rows, "title")) == {
        2: "n/a", 3: "n/a", 4: "n/a",
    }


def test_paper_sentence_is_labelled_as_the_papers_claim():
    footer = runtime_lines([_row(2, {})], "title")[-1]
    assert footer.startswith("paper's claim")
    assert "orders of magnitude" in footer
