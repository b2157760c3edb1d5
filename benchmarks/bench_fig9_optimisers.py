"""FIG9 -- Evaluation of the bus optimisation algorithms (paper Fig. 9).

For each system-size class the paper reports (left panel) the average
percentage deviation of the cost function obtained by BBC / OBC-CF /
OBC-EE relative to the near-optimal SA baseline, and (right panel) the
computation time of each algorithm.  Expected shape:

* BBC runs in almost zero time but stops finding schedulable
  configurations as systems grow (>3 nodes in the paper);
* OBC/CF and OBC/EE stay within a few percent of SA;
* OBC/CF is within <1 % of OBC/EE at a fraction (orders of magnitude
  fewer analyses) of its cost.

Scaled down by default (3 systems per class, classes 2-5 nodes, budgeted
SA); set REPRO_BENCH_FULL=1 / REPRO_FIG9_COUNT / REPRO_FIG9_MAXNODES for
paper-scale runs (the paper used 25 systems per class on 2-7 nodes and
several-hour SA runs).  The suite is one campaign, run here in process;
for the full 25-systems-per-class sweep prefer the fabric runner
(``fig9_fabric.py`` / ``fig9_aggregate.py``), which drains the same
campaign with as many worker processes as you start.
"""

from repro.core.campaign import campaign_matrix, run_campaign

from benchmarks._report import env_int, full_scale, report, report_json
from benchmarks.fig9_common import (
    ALGORITHMS,
    bench_options,
    fig9_strategies,
    json_payload,
    quality_lines,
    runtime_lines,
    sa_options,
    suite_rows,
    suite_systems,
)

_cache = {}


def run_suite():
    """Run all four optimisers over every suite; cached across tests."""
    if "rows" in _cache:
        return _cache["rows"]
    count = env_int("REPRO_FIG9_COUNT", 25 if full_scale() else 3)
    max_nodes = env_int("REPRO_FIG9_MAXNODES", 7 if full_scale() else 5)
    seed = env_int("REPRO_FIG9_SEED", 23)
    systems = suite_systems(range(2, max_nodes + 1), count, seed)
    jobs = campaign_matrix(
        systems,
        fig9_strategies(sa_options(full_scale())),
        bus=bench_options(full_scale()),
    )
    campaign = run_campaign(systems, jobs)
    if campaign.failures:
        raise RuntimeError(
            "; ".join(f.describe() for f in campaign.failures.values())
        )
    rows = suite_rows(systems, campaign.results)
    _cache["rows"] = rows
    return rows


def test_fig9_quality(benchmark):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    node_counts = sorted({r["n_nodes"] for r in rows})

    report(
        "fig9_quality",
        quality_lines(
            rows,
            "FIG9 (left): average % cost deviation vs SA, "
            "and schedulable fraction",
        ),
    )

    # OBC variants must never schedule fewer systems than BBC.
    for n in node_counts:
        group = [r for r in rows if r["n_nodes"] == n]
        bbc = sum(r["BBC"]["schedulable"] for r in group)
        cf = sum(r["OBC/CF"]["schedulable"] for r in group)
        ee = sum(r["OBC/EE"]["schedulable"] for r in group)
        assert cf >= bbc and ee >= bbc


def test_fig9_runtime(benchmark):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    report(
        "fig9_runtime",
        runtime_lines(
            rows,
            "FIG9 (right): computation time [s] and exact analyses "
            "per algorithm",
        ),
    )
    report_json("BENCH_fig9_optimisers", json_payload(rows))

    total = {
        a: sum(r[a]["evaluations"] for r in rows) for a in ALGORITHMS
    }
    # The curve-fitting heuristic must do far fewer exact analyses than
    # exhaustive exploration -- the paper's headline efficiency claim.
    assert total["OBC/CF"] * 3 < total["OBC/EE"]
    assert total["BBC"] <= total["OBC/EE"]
