"""BENCH -- end-to-end optimiser runs, per strategy x backend.

Runs BBC, OBC/CF, OBC/EE and SA through
``repro.core.strategies.optimise`` on the pinned Fig. 9 system set
(``perfbench.common.SYSTEM_SET``, with perfbench's ``bus_options()`` and
``sa_options()`` presets) on the ``python`` backend and, when the
compiled ``repro._native`` extension is built, on the ``native`` one.
One *run* is one fresh ``optimise()`` per system of the set; its time is
the process CPU seconds of the whole set.  Each round runs every
strategy on every backend, the backends interleaved within a strategy
(their order alternating between rounds); ``ROUNDS`` rounds are run and
the median run counts.

Asserts:

* identity -- every run of a strategy, on either backend, finds the same
  best cost, the same best configuration (``cache_key()``) and makes the
  same number of exact analyses on each system;
* timing -- native is no slower than python on OBC/CF (whose estimate
  rounds the native run scores with the compiled curve-fit scorer), on
  OBC/EE and on SA.  The BBC ratio is recorded, not asserted: its runs
  are too short for the run-to-run spread;
* runtime shape -- on every backend measured, OBC/CF takes less time
  than OBC/EE (``cf_over_ee`` below 1).

Emits ``benchmarks/results/BENCH_end_to_end.json``: a host record, per
strategy x backend the median seconds, the exact analyses and the best
cost per system, the native gain per strategy, and the OBC/CF over
OBC/EE time ratio per backend (the paper's Fig. 9 runtime shape, where
OBC/CF is orders of magnitude cheaper): the median of the per-round
ratios, each dividing two runs of the same round, so both sides see
the same host load.  Without the extension the native fields are
``null``.

Run: ``PYTHONPATH=src:. python benchmarks/bench_end_to_end.py``
(or collect it with pytest).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisOptions
from repro.core.strategies import StrategyOptions, optimise

from benchmarks._report import host_record, report_json
from perfbench.common import SYSTEM_SET, bus_options, make_systems, sa_options

STRATEGIES = ("bbc", "obc-cf", "obc-ee", "sa")
BACKENDS = ("python", "native")
#: Strategies whose native run must not be slower than the python one.
NATIVE_NOT_SLOWER = ("obc-cf", "obc-ee", "sa")
ROUNDS = 3


def strategy_options(strategy: str, backend: str):
    bus = dataclasses.replace(
        bus_options(), analysis=AnalysisOptions(backend=backend)
    )
    if strategy == "sa":
        return sa_options().with_bus(bus)
    return StrategyOptions(bus=bus)


def run_set(systems, strategy: str, backend: str):
    """``(process CPU seconds, outcomes)`` of one optimisation of the set;
    an outcome is ``(best cost, exact analyses, best cache_key())``."""
    options = strategy_options(strategy, backend)
    gc.collect()
    start = time.process_time()
    results = [optimise(system, strategy, options) for _, system in systems]
    seconds = time.process_time() - start
    outcomes = [
        (
            r.cost,
            r.evaluations,
            None if r.best is None else r.best.config.cache_key(),
        )
        for r in results
    ]
    return seconds, outcomes


def run_bench(backends=BACKENDS):
    """Time every strategy on every backend; ``(payload, outcomes)``
    with ``outcomes[strategy][backend]`` the list of every run's."""
    systems = make_systems(SYSTEM_SET)
    # Untimed pass: lazy imports and first-call set-up land here.
    for backend in backends:
        run_set(systems, "bbc", backend)
    seconds = {s: {b: [] for b in backends} for s in STRATEGIES}
    outcomes = {s: {b: [] for b in backends} for s in STRATEGIES}
    for round_ in range(ROUNDS):
        order = backends if round_ % 2 == 0 else backends[::-1]
        for strategy in STRATEGIES:
            for backend in order:
                s, out = run_set(systems, strategy, backend)
                seconds[strategy][backend].append(s)
                outcomes[strategy][backend].append(out)

    ids = [sid for sid, _ in systems]

    def cell(strategy, backend):
        if backend not in backends:
            return None
        first = outcomes[strategy][backend][0]
        return {
            "seconds": round(statistics.median(seconds[strategy][backend]), 4),
            "evaluations": sum(evaluations for _, evaluations, _ in first),
            "best_cost": {sid: cost for sid, (cost, _, _) in zip(ids, first)},
        }

    table = {
        strategy: {backend: cell(strategy, backend) for backend in BACKENDS}
        for strategy in STRATEGIES
    }

    def ratio(numerator, denominator):
        if numerator is None or denominator is None:
            return None
        return round(numerator["seconds"] / denominator["seconds"], 3)

    def cf_over_ee(backend):
        if backend not in backends:
            return None
        per_round = [
            cf / ee for cf, ee in zip(
                seconds["obc-cf"][backend], seconds["obc-ee"][backend]
            )
        ]
        return round(statistics.median(per_round), 3)

    payload = {
        "host": host_record(),
        "workload": {
            "systems": ids,
            "rounds": ROUNDS,
            "seconds": "process CPU seconds of one optimise() per system, "
            "summed over the set; median of the rounds",
            "cf_over_ee": "median over the rounds of OBC/CF seconds over "
            "OBC/EE seconds within the round",
        },
        "strategies": {
            strategy: dict(
                row,
                native_gain=ratio(row["python"], row["native"]),
            )
            for strategy, row in table.items()
        },
        "cf_over_ee": {
            backend: cf_over_ee(backend) for backend in BACKENDS
        },
    }
    return payload, outcomes


def print_table(payload) -> None:
    print(f"{'strategy':>8} | {'evals':>5} | {'python s':>8} | "
          f"{'native s':>8} | {'gain':>5}")
    for strategy, row in payload["strategies"].items():
        native = row["native"]
        print(
            f"{strategy:>8} | {row['python']['evaluations']:>5} | "
            f"{row['python']['seconds']:>8.2f} | "
            + (
                f"{native['seconds']:>8.2f} | {row['native_gain']:>4.2f}x"
                if native is not None
                else f"{'-':>8} | {'-':>5}"
            )
        )
    ratios = payload["cf_over_ee"]
    print(
        "OBC/CF over OBC/EE time: "
        + ", ".join(f"{b} {r}" for b, r in ratios.items())
    )


def test_end_to_end():
    have_native = native_or_none() is not None
    backends = BACKENDS if have_native else ("python",)
    payload, outcomes = run_bench(backends)
    report_json("BENCH_end_to_end", payload)
    print_table(payload)
    if not have_native:
        print(
            "bench_end_to_end: repro._native not built; native fields are "
            "null and the native timing asserts are skipped"
        )

    for strategy, runs in outcomes.items():
        reference = runs["python"][0]
        for backend, backend_runs in runs.items():
            for i, out in enumerate(backend_runs):
                assert out == reference, (
                    f"{strategy}: {backend} run {i} differs from the first "
                    f"python run: {out} != {reference}"
                )
    for backend in backends:
        ratio = payload["cf_over_ee"][backend]
        assert ratio < 1, (
            f"{backend}: OBC/CF takes {ratio} of OBC/EE's time, not less"
        )
    if have_native:
        for strategy in NATIVE_NOT_SLOWER:
            row = payload["strategies"][strategy]
            assert row["native"]["seconds"] <= row["python"]["seconds"], (
                f"{strategy}: native {row['native']['seconds']:.2f} s slower "
                f"than python {row['python']['seconds']:.2f} s"
            )


if __name__ == "__main__":
    test_end_to_end()
    print("bench_end_to_end: all checks passed")
