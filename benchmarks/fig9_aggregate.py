"""Aggregator of the fabric-run Fig. 9 sweep.

Merges the published checkpoints of a fabric directory filled by
``benchmarks.fig9_fabric`` into the paper-comparable Fig. 9
quality/runtime tables (``fig9_fabric_{quality,runtime}.txt``) plus a
machine-readable ``BENCH_fig9_fabric.json``.  The suite identity comes
from the fabric manifest's ``meta``; unless ``--allow-partial`` is
given, every job must be finished.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.fig9_aggregate DIR [--allow-partial]
"""

from __future__ import annotations

import argparse

from repro.core.fabric import fabric_collect, load_fabric

from benchmarks._report import report, report_json
from benchmarks.fig9_common import (
    json_payload,
    quality_lines,
    runtime_lines,
    suite_rows,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fabric", metavar="DIR",
                        help="fabric directory filled by fig9_fabric")
    parser.add_argument("--allow-partial", action="store_true",
                        help="aggregate even when fabric jobs are "
                             "unfinished")
    return parser


def merge_fabric(root: str, allow_partial: bool):
    """Rows + meta straight from a fabric directory's checkpoints."""
    spec = load_fabric(root)
    suite = spec.meta.get("suite")
    if not suite:
        raise SystemExit(
            f"{root!r} carries no Fig. 9 suite identity in its manifest "
            f"meta; was it submitted by fig9_fabric?"
        )
    merged = fabric_collect(root, require_complete=not allow_partial)
    meta = {
        "suite": suite,
        "fabric": spec.fabric_id,
        "jobs_done": len(merged.results),
        "failed_jobs": {
            job_id: failure.describe()
            for job_id, failure in merged.failures.items()
        },
    }
    return suite_rows(spec.systems, merged.results), meta


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    rows, meta = merge_fabric(args.fabric, args.allow_partial)
    suite = meta["suite"]
    subtitle = (
        f"{suite['count']} systems/class, nodes {suite['node_counts']}, "
        f"seed {suite['seed']}, fabric {meta['fabric']}"
    )
    report(
        "fig9_fabric_quality",
        quality_lines(
            rows,
            "FIG9 fabric (left): average % cost deviation vs SA -- "
            + subtitle,
        ),
    )
    report(
        "fig9_fabric_runtime",
        runtime_lines(
            rows,
            "FIG9 fabric (right): computation time [s] and exact analyses -- "
            + subtitle,
        ),
    )
    if meta["failed_jobs"]:
        print(f"{len(meta['failed_jobs'])} job(s) failed:")
        for job_id, detail in meta["failed_jobs"].items():
            print(f"  [{job_id}] {detail}")
        print("failed cells are excluded from every aggregate above")
    payload = json_payload(rows)
    payload["fabric"] = meta
    report_json("BENCH_fig9_fabric", payload)


if __name__ == "__main__":
    main()
