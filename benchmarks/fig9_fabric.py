"""Fabric worker of the paper-scale Fig. 9 sweep.

Submits the whole 25-systems-per-class suite (see
:func:`benchmarks.fig9_common.suite_systems`) to a distributed fabric
directory (:mod:`repro.core.fabric`) as one campaign, then works it:
every job dispatches by registry name, candidate evaluations batch
through ``Evaluator.analyse_many`` (so ``--workers`` fans each system's
sweeps out over a process pool), and every finished job's full result
is published as a checkpoint.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.fig9_fabric DIR \
        [--count 25] [--min-nodes 2] [--max-nodes 7] [--seed 23] \
        [--full] [--workers N]

Run the same command in as many processes (or hosts sharing DIR) as you
like: submission is content-addressed and idempotent, jobs are leased
one at a time, a killed worker's jobs are taken over automatically, and
a restarted worker resumes from the published checkpoints.  Merge with
``benchmarks.fig9_aggregate DIR``.
"""

from __future__ import annotations

import argparse

from repro.core.campaign import CampaignOptions
from repro.core.fabric import fabric_status, fabric_submit, fabric_work

from benchmarks.fig9_common import (
    bench_options,
    fig9_strategies,
    sa_options,
    suite_systems,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fabric", metavar="DIR",
                        help="fabric directory: the suite is submitted "
                             "there (idempotent) and jobs are drained "
                             "from it")
    parser.add_argument("--count", type=int, default=25,
                        help="systems per node-count class (paper: 25)")
    parser.add_argument("--min-nodes", type=int, default=2)
    parser.add_argument("--max-nodes", type=int, default=7,
                        help="largest node-count class (paper: 7)")
    parser.add_argument("--seed", type=int, default=23,
                        help="suite seed (must match across workers)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel evaluation processes per optimiser run")
    parser.add_argument("--full", action="store_true",
                        help="paper-exact optimiser budgets (hours per system)")
    return parser


def suite_meta(args) -> dict:
    """The sweep identity embedded in the fabric manifest."""
    return {
        "node_counts": list(range(args.min_nodes, args.max_nodes + 1)),
        "count": args.count,
        "seed": args.seed,
        "full": bool(args.full),
    }


def main(argv=None) -> None:
    """Submit the whole suite to a fabric directory, then work it."""
    args = build_parser().parse_args(argv)
    meta = suite_meta(args)
    fabric = fabric_submit(
        args.fabric,
        suite_systems(meta["node_counts"], args.count, args.seed),
        fig9_strategies(sa_options(args.full)),
        bus=bench_options(args.full, parallel_workers=args.workers),
        options=CampaignOptions(max_retries=1),
        meta={"suite": meta},
    )
    print(
        f"[fabric {fabric.fabric_id}] {len(fabric.jobs)} jobs under "
        f"{args.fabric}; working (start more workers with the same "
        f"command, merge with fig9_aggregate {args.fabric})",
        flush=True,
    )
    report = fabric_work(args.fabric, log=print)
    status = fabric_status(args.fabric)
    print(
        f"[fabric {fabric.fabric_id}] this worker: "
        f"{len(report.completed)} completed, {len(report.failed)} failed, "
        f"{len(report.reaped)} takeovers -- {status.describe()}",
        flush=True,
    )


if __name__ == "__main__":
    main()
