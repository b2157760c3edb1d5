"""Alternating-pairs A/B of one benchmark command in two checkouts.

    PYTHONDONTWRITEBYTECODE=1 python benchmarks/ab.py PARENT CHANGE \\
        --pairs 10 --first-seed 11 -- \\
        python3 perfbench/run.py --workload service-mixed --seed {seed} --seconds 15

Pair ``k`` runs the command once in each checkout (as a subprocess
whose working directory is the checkout root), with ``{seed}`` replaced
by ``first_seed + k``.  Checkout A goes first in even pairs and B in
odd ones, so drift in host load over the session falls on both sides
alike.  The last line of each run's standard output is read as
perfbench's result line (``{"correct": ..., "metrics": {name:
{"value": v, "unit": u}}}``).

Per metric it prints both sides' median and quartiles, every pair's
B/A ratio, how many pairs B won (by the metric's ``better`` direction in
A's ``BENCHMARK.json``, lower when undeclared) and the exact two-sided
sign-test p-value over the pairs that were not ties.  The last line is
the same summary as JSON.

The exit status is 1 as soon as a run exits non-zero, prints no result
line, or reports ``"correct": false``; 0 otherwise.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of *wins* against *losses*."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of *values* (inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def directions(checkout: Path) -> Dict[str, str]:
    """Metric name -> ``"lower"``/``"higher"`` from ``BENCHMARK.json``."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    declared = json.loads(path.read_text())
    return {
        metric["name"]: metric["better"]
        for section in ("end_to_end", "per_layer")
        for metric in declared.get(section, ())
    }


class RunFailed(Exception):
    """A run exited non-zero, printed no result line or was incorrect."""


def run_once(checkout: Path, command: Sequence[str], seed: int) -> dict:
    """The result line of *command* run in *checkout* with *seed*."""
    argv = [arg.replace("{seed}", str(seed)) for arg in command]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    where = f"{' '.join(argv)} in {checkout}"
    if proc.returncode != 0:
        raise RunFailed(
            f"{where} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed(f"{where} printed no result line") from None
    if result.get("correct") is not True:
        raise RunFailed(f"{where} reported correct={result.get('correct')}")
    return {name: float(m["value"]) for name, m in metrics.items()}


def summarise(pairs: Sequence[tuple], better: Dict[str, str]) -> dict:
    """Per-metric statistics of ``(a_metrics, b_metrics)`` pairs."""
    summary = {}
    for name in sorted(set(pairs[0][0]) & set(pairs[0][1])):
        a = [pa[name] for pa, _ in pairs]
        b = [pb[name] for _, pb in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((vb < va) if lower else (vb > va) for va, vb in zip(a, b))
        losses = sum((vb > va) if lower else (vb < va) for va, vb in zip(a, b))
        summary[name] = {
            "better": "lower" if lower else "higher",
            "a": quartiles(a),
            "b": quartiles(b),
            "ratios": [vb / va if va else math.nan for va, vb in zip(a, b)],
            "b_wins": wins,
            "b_losses": losses,
            "sign_p": sign_test_p(wins, losses),
        }
    return summary


def print_table(summary: dict, n_pairs: int) -> None:
    for name, row in summary.items():
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        change = (b2 / a2 - 1) * 100 if a2 else math.nan
        print(
            f"{name} ({row['better']} is better)\n"
            f"  A median {a2:.6g} [q1 {a1:.6g}, q3 {a3:.6g}, IQR {a3 - a1:.4g}]\n"
            f"  B median {b2:.6g} [q1 {b1:.6g}, q3 {b3:.6g}, IQR {b3 - b1:.4g}]"
            f"  ({change:+.1f}%)\n"
            f"  B/A per pair: {' '.join(f'{r:.3f}' for r in row['ratios'])}\n"
            f"  B better in {row['b_wins']} of {n_pairs} pairs, worse in "
            f"{row['b_losses']}; sign test p = {row['sign_p']:.4g}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Everything after -- is the command; {seed} is replaced.",
    )
    parser.add_argument("a", type=Path, help="checkout A (the parent)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command or args.pairs < 1:
        parser.error("need --pairs >= 1 and a command after --")
    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    pairs = []
    try:
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = "AB" if k % 2 == 0 else "BA"
            got = {side: run_once(sides[side], command, seed) for side in order}
            pairs.append((got["A"], got["B"]))
            print(f"pair {k + 1} seed {seed} order {order}", file=sys.stderr)
    except RunFailed as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    summary = summarise(pairs, directions(sides["A"]))
    print(
        f"A = {sides['A']}\nB = {sides['B']}\n{len(pairs)} pairs, seeds "
        f"{args.first_seed}..{args.first_seed + len(pairs) - 1}, "
        f"command: {' '.join(command)}"
    )
    print_table(summary, len(pairs))
    print(json.dumps({"pairs": len(pairs), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
