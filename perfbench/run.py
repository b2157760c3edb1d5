"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload ee-sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ee-sweep``, ``cf-estimate``, ``sa-walk`` -- ``optimise()`` with
  OBC/EE, OBC/CF and SA over the pinned Fig. 9 system set;
* ``service-mixed`` -- a ``repro serve`` subprocess under closed-loop
  ``POST /analyse`` traffic while campaigns run to completion.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer self
times and counts, the tracing overhead and the residual.  Every output
is checked for correctness outside the timed region; the last line of
standard output is the JSON result, and the exit code is non-zero when
any check failed.  Run it from the root of a checkout; it needs the
program's sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The checkout root replaces this script's directory on the path, so
# the benchmark's modules import as the ``perfbench`` package only.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = ("ee-sweep", "cf-estimate", "sa-walk", "service-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program sources under src/repro in "
            f"{ROOT}; run it from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    from perfbench import common, optimiser, service

    common.WORK_DIR.mkdir(exist_ok=True)
    print("host " + json.dumps(common.host_record(args.seed), sort_keys=True))
    module = service if args.workload == "service-mixed" else optimiser
    run = module.traced if args.trace else module.timed
    outcome = run(args.workload, args.seed, args.seconds)

    declared = common.declared()
    per_layer = declared["per_layer"]
    section = "per_layer" if args.trace else "end_to_end"
    expected = {metric["name"] for metric in declared[section]}
    printed = set(outcome.output_metrics(per_layer))
    if not expected <= printed:
        outcome.fail(f"BENCHMARK.json {section} metrics not measured: {sorted(expected - printed)}")
    for line in outcome.notes:
        print(line)
    if outcome.spans is not None:
        path = common.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        outcome.spans.dump(str(path))
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, metric in outcome.output_metrics(per_layer).items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload}: attempted {outcome.attempted}, failed "
        f"{len(outcome.failures)}, correct {outcome.correct}"
    )
    print(outcome.result_line(per_layer))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
