"""Shared machinery of the Fig. 9 experiment (in process and on a fabric).

One benchmark *row* is the outcome of running all four bus-access
optimisers (BBC, OBC/CF, OBC/EE, SA) over one generated system.  The
suite is one campaign (:mod:`repro.core.campaign`) over
:func:`suite_systems`: the in-process benchmark
(``bench_fig9_optimisers.py``) runs it with ``run_campaign``, and the
fabric worker (``fig9_fabric.py``) submits it to a fabric directory
that any number of workers drain.  Either way :func:`suite_rows` turns
the campaign's results into rows, and the option presets and the
table/JSON formatting defined here are shared, so a paper-scale fabric
run and the quick pytest run produce comparable artifacts.

Rows are plain JSON-serialisable dicts; unschedulable runs carry
``cost = Infinity`` (Python's ``json`` reads/writes it natively), and a
job the campaign recorded as failed leaves a ``None`` cell.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping

from repro.core.campaign import job_id_for
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions
from repro.model.system import System
from repro.synth.suite import paper_system

from benchmarks._report import host_record

#: Row keys (the paper's labels) -> registry strategy names.
ALGORITHMS = ("BBC", "OBC/CF", "OBC/EE", "SA")
STRATEGY_NAMES = {
    "BBC": "bbc",
    "OBC/CF": "obc-cf",
    "OBC/EE": "obc-ee",
    "SA": "sa",
}


def bench_options(
    full: bool = False, parallel_workers: int = None
) -> BusOptimisationOptions:
    """Optimiser preset: paper-exact when *full*, laptop-sized otherwise."""
    if full:
        return BusOptimisationOptions(parallel_workers=parallel_workers)
    return BusOptimisationOptions(
        max_dyn_points=32,
        ee_max_dyn_points=192,
        cf_candidates=128,
        max_extra_static_slots=1,
        max_slot_size_steps=2,
        parallel_workers=parallel_workers,
    )


def sa_options(full: bool = False) -> SAOptions:
    """SA baseline budget: several-hour-grade when *full*."""
    return SAOptions(iterations=3000 if full else 220, seed=7)


def fig9_strategies(sa_opts: SAOptions):
    """The Fig. 9 strategy axis of a campaign matrix."""
    return [
        STRATEGY_NAMES["BBC"],
        STRATEGY_NAMES["OBC/CF"],
        STRATEGY_NAMES["OBC/EE"],
        (STRATEGY_NAMES["SA"], sa_opts),
    ]


def result_cell(result) -> dict:
    """One algorithm's cell of a benchmark row."""
    return {
        "cost": result.cost,
        "schedulable": result.schedulable,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "seconds": result.elapsed_seconds,
    }


def suite_systems(
    node_counts: Iterable[int], count: int, seed: int
) -> Dict[str, System]:
    """The suite as ``{"n<nodes>_i<index>": paper_system(...)}``, in
    suite order; fabric checkpoints are named by these ids."""
    return {
        f"n{n}_i{i}": paper_system(n, i, seed=seed)
        for n in sorted(set(node_counts))
        for i in range(count)
    }


def suite_rows(systems: Mapping[str, System], results: Mapping) -> List[dict]:
    """Fig. 9 rows from a campaign's ``results`` (keyed by job id), in
    suite order; a job with no result (it failed) gives a ``None`` cell."""
    rows = []
    for system_id, system in systems.items():
        row = {
            "n_nodes": len(system.nodes),
            "index": int(system_id.rsplit("_i", 1)[1]),
        }
        for name in ALGORITHMS:
            result = results.get(job_id_for(system_id, STRATEGY_NAMES[name]))
            row[name] = None if result is None else result_cell(result)
        rows.append(row)
    rows.sort(key=lambda r: (r["n_nodes"], r["index"]))
    return rows


def deviation(entry: dict, algorithm: str):
    """% deviation of the algorithm's cost vs the SA baseline cost.

    ``None`` cells (jobs the campaign recorded as failed) contribute no
    deviation, like unschedulable runs.
    """
    if entry["SA"] is None or entry[algorithm] is None:
        return None
    sa_cost = entry["SA"]["cost"]
    cost = entry[algorithm]["cost"]
    if math.isinf(sa_cost) or math.isinf(cost) or sa_cost == 0:
        return None
    return (cost - sa_cost) / abs(sa_cost) * 100.0


def cells(group: List[dict], algorithm: str) -> List[dict]:
    """The algorithm's non-failed cells of a row group."""
    return [r[algorithm] for r in group if r[algorithm] is not None]


def mean(values: Iterable):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else float("nan")


def node_classes(rows: List[dict]) -> List[int]:
    return sorted({r["n_nodes"] for r in rows})


def quality_lines(rows: List[dict], title: str) -> List[str]:
    """The Fig. 9 left panel: % cost deviation vs SA + schedulable count."""
    lines = [
        title,
        f"{'nodes':>5} | " + " | ".join(f"{a:>20}" for a in ALGORITHMS),
    ]
    for n in node_classes(rows):
        group = [r for r in rows if r["n_nodes"] == n]
        row_cells = []
        for a in ALGORITHMS:
            dev = mean([deviation(r, a) for r in group])
            sched = sum(c["schedulable"] for c in cells(group, a))
            row_cells.append(f"{dev:>8.1f}%  {sched}/{len(group)} sched")
        lines.append(f"{n:>5} | " + " | ".join(f"{c:>20}" for c in row_cells))
    lines.append(
        "paper shape: BBC degrades with size; OBC/CF within ~0.5% of OBC/EE; "
        "both within ~5% of SA"
    )
    return lines


def runtime_lines(rows: List[dict], title: str) -> List[str]:
    """The Fig. 9 right panel: computation time and exact analyses.

    The last column is the measured OBC/CF time over the OBC/EE time of
    each class (``n/a`` when either is missing or EE took no time); the
    footer quotes the paper's claim, which the column may contradict.
    """
    lines = [
        title,
        f"{'nodes':>5} | "
        + " | ".join(f"{a + ' s / evals':>20}" for a in ALGORITHMS)
        + f" | {'CF/EE s':>7}",
    ]
    for n in node_classes(rows):
        group = [r for r in rows if r["n_nodes"] == n]
        row_cells = []
        secs = {}
        for a in ALGORITHMS:
            secs[a] = mean([c["seconds"] for c in cells(group, a)])
            evals = mean([c["evaluations"] for c in cells(group, a)])
            row_cells.append(f"{secs[a]:>9.2f} / {evals:>7.0f}")
        ratio = (
            secs["OBC/CF"] / secs["OBC/EE"] if secs["OBC/EE"] > 0 else math.nan
        )
        shown = "n/a" if math.isnan(ratio) else f"{ratio:.2f}"
        lines.append(
            f"{n:>5} | "
            + " | ".join(f"{c:>20}" for c in row_cells)
            + f" | {shown:>7}"
        )
    lines.append(
        "paper's claim (not measured here): BBC almost free; "
        "OBC/CF orders of magnitude below OBC/EE"
    )
    return lines


def json_payload(rows: List[dict]) -> dict:
    """Machine-readable per-class aggregates for the BENCH_*.json trail."""
    classes = {}
    for n in node_classes(rows):
        group = [r for r in rows if r["n_nodes"] == n]
        per_alg = {}
        for a in ALGORITHMS:
            dev = mean([deviation(r, a) for r in group])
            alg_cells = cells(group, a)
            secs = mean([c["seconds"] for c in alg_cells])
            evals = mean([c["evaluations"] for c in alg_cells])
            per_alg[a] = {
                "mean_deviation_pct": None if math.isnan(dev) else round(dev, 3),
                "schedulable": sum(c["schedulable"] for c in alg_cells),
                "mean_seconds": None if math.isnan(secs) else round(secs, 4),
                "mean_evaluations": (
                    None if math.isnan(evals) else round(evals, 1)
                ),
            }
        classes[str(n)] = {"systems": len(group), "algorithms": per_alg}
    all_cells = [
        r[a] for r in rows for a in ALGORITHMS if r[a] is not None
    ]
    return {
        "host": host_record(),
        "rows": len(rows),
        "classes": classes,
        "total_seconds": round(sum(c["seconds"] for c in all_cells), 2),
        "total_evaluations": sum(c["evaluations"] for c in all_cells),
    }
