"""Shared machinery of the Fig. 9 experiment (single-process and sharded).

One benchmark *row* is the outcome of running all four bus-access
optimisers (BBC, OBC/CF, OBC/EE, SA) over one generated system; the
in-process benchmark (``bench_fig9_optimisers.py``), the shard worker
(``fig9_shard.py``) and the aggregator (``fig9_aggregate.py``) all share
the row schema, the option presets and the table/JSON formatting defined
here, so a sharded paper-scale run and the quick pytest run produce
comparable artifacts.

The optimisers are dispatched by registry name through the campaign
layer (:mod:`repro.core.campaign`): one system is a one-row campaign,
a shard is a many-row campaign with (optionally) a checkpoint directory
making interrupted paper-scale runs resumable.

Rows are plain JSON-serialisable dicts; unschedulable runs carry
``cost = Infinity`` (Python's ``json`` reads/writes it natively).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.core.campaign import campaign_matrix, run_campaign
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions

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


def run_system(
    system,
    options: BusOptimisationOptions,
    sa_opts: SAOptions,
    checkpoint_dir: Optional[str] = None,
    system_id: Optional[str] = None,
) -> Dict[str, dict]:
    """One row body: the four-optimiser campaign on *system*.

    Checkpointing requires an explicit ``system_id``: the id is the
    checkpoint-file stem, so a defaulted id shared by several systems
    would make their checkpoints collide.
    """
    if checkpoint_dir is not None and system_id is None:
        raise ValueError(
            "run_system: checkpoint_dir requires an explicit system_id "
            "(checkpoints are keyed by it)"
        )
    system_id = system_id or "system"
    systems = {system_id: system}
    jobs = campaign_matrix(systems, fig9_strategies(sa_opts), bus=options)
    report = run_campaign(systems, jobs, checkpoint_dir=checkpoint_dir)
    return {
        name: result_cell(report.result_for(system_id, STRATEGY_NAMES[name]))
        for name in ALGORITHMS
    }


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
        "rows": len(rows),
        "classes": classes,
        "total_seconds": round(sum(c["seconds"] for c in all_cells), 2),
        "total_evaluations": sum(c["evaluations"] for c in all_cells),
    }
