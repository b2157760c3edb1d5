"""Shared reporting helper for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and emits
its rows both to stdout and to ``benchmarks/results/<name>.txt`` so the
numbers survive pytest's output capture and can be referenced from the
docs.  A timed ``BENCH_*.json`` carries :func:`host_record`, the host its
seconds were measured on.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Iterable

from repro.analysis.backend import native_or_none

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, lines: Iterable[str]) -> str:
    """Print *lines* and persist them under benchmarks/results/."""
    text = "\n".join(lines) + "\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"\n===== {name} =====")
    print(text)
    return path


def report_json(name: str, payload) -> str:
    """Persist machine-readable benchmark numbers as results/<name>.json.

    Used for the ``BENCH_*.json`` perf-trajectory files: one JSON object
    per benchmark, stable keys, so numbers can be diffed across PRs.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n===== {name}.json =====")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return path


def env_int(name: str, default: int) -> int:
    """Integer environment override for experiment scaling."""
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def full_scale() -> bool:
    """True when REPRO_BENCH_FULL=1 requests paper-scale experiments."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def host_record() -> dict:
    """The facts every timed number of a benchmark is read against."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "native": native_or_none() is not None,
    }
