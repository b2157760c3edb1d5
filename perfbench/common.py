"""What every workload shares: paths, the pinned inputs, host facts.

The optimiser presets are pinned here rather than imported from
``benchmarks/fig9_common.py`` (whose laptop presets they equal), so an
edit to the Fig. 9 scripts cannot silently change what this benchmark
measures.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (spans, state dirs).
WORK_DIR = ROOT / ".perfbench"

#: Suite seed of the Fig. 9 system classes (``paper_system(n, i, seed)``).
SUITE_SEED = 23
#: The optimiser workloads' system set, one member per class.  Pinned:
#: the cost of one OBC/EE run varies about 5x between members of one
#: class, so a set drawn from the workload seed would spread the
#: end-to-end times far beyond any usable bound.  The workload seed
#: orders the set instead.
SYSTEM_SET: Tuple[Tuple[int, int], ...] = ((3, 1), (4, 0), (5, 0))
#: The two small systems of every service campaign.
CAMPAIGN_SYSTEMS: Tuple[Tuple[int, int], ...] = ((2, 0), (2, 1))
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 9


def child_env() -> Dict[str, str]:
    """Environment of every Python subprocess the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
    return env


def bus_options():
    """``benchmarks/fig9_common.bench_options()``, the laptop preset."""
    from repro.core.search import BusOptimisationOptions

    return BusOptimisationOptions(
        max_dyn_points=32,
        ee_max_dyn_points=192,
        cf_candidates=128,
        max_extra_static_slots=1,
        max_slot_size_steps=2,
    )


def sa_options():
    """``benchmarks/fig9_common.sa_options()``, the laptop SA budget."""
    from repro.core.sa import SAOptions

    return SAOptions(iterations=220, seed=7)


def system_id(nodes: int, member: int) -> str:
    return f"n{nodes}m{member}"


def make_systems(members: Sequence[Tuple[int, int]]) -> List[tuple]:
    """``[(system_id, System)]`` for ``(nodes, member)`` pairs."""
    from repro.synth.suite import paper_system

    return [
        (system_id(n, m), paper_system(n, m, seed=SUITE_SEED)) for n, m in members
    ]


def ordered(items: Sequence, seed: int) -> list:
    """*items* in the order the workload seed gives them."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _reference_work(size: int) -> int:
    """A fixed pure-Python job (dicts, tuples, lists, a sort)."""
    table: Dict[tuple, list] = {}
    for i in range(size):
        key = (i % 97, i % 101)
        row = table.get(key)
        if row is None:
            table[key] = row = []
        row.append(i * 3 % 7)
    return sum(len(v) for v in sorted(table.values(), key=len))


class SpeedSampler:
    """Times a small reference job (0.5-1 ms) every *period* seconds of
    wall clock, inside the work's own thread (a ``SIGALRM`` handler).

    Every workload reports its times in units of this job (``ref``).
    On the 2-CPU host the benchmark was tuned on, a CPU changes speed
    several times a second (the job's time moves by up to 1.7x) and
    which CPU does so changes over minutes.  A job timed before and
    after the work cannot follow that; sampled during it, the unit
    moves with the work: quartile spreads of ``optimise_ref`` over five
    seeds fell from 0.14 to 0.04 on ``ee-sweep``.
    """

    def __init__(self, period: float = 0.05, size: int = 2000):
        self.period = period
        self.size = size
        #: ``(start_ns, end_ns)`` of every sample.
        self.samples: List[Tuple[int, int]] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        _reference_work(self.size)
        self.samples.append((start, time.perf_counter_ns()))
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # work shorter than one period
            self._sample(signal.SIGALRM, None)

    def near(self, t_ns: int, half_width_ns: int) -> float:
        """Mean sample seconds within *half_width_ns* of *t_ns* (NaN if none)."""
        lo = bisect.bisect_left(self.samples, (t_ns - half_width_ns,))
        hi = bisect.bisect_right(self.samples, (t_ns + half_width_ns,))
        inside = [e - s for s, e in self.samples[lo:hi]]
        return sum(inside) / len(inside) / 1e9 if inside else float("nan")

    def between(self, start_ns: int, end_ns: int) -> Tuple[float, float]:
        """``(mean sample seconds, seconds spent sampling)`` in the
        interval; the mean of every sample when none falls inside it."""
        inside = [e - s for s, e in self.samples if s >= start_ns and e <= end_ns]
        every = [e - s for s, e in self.samples]
        mean = sum(inside or every) / len(inside or every) / 1e9
        return mean, sum(inside) / 1e9


def pin(cpus) -> None:
    """Pin the calling thread (and the threads and processes it starts
    later) to *cpus*."""
    os.sched_setaffinity(0, set(cpus))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its reaped children), MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_probe(args: Sequence[str], timeout: float = 120.0) -> float:
    """Wall seconds of one ``python -m perfbench.probe`` subprocess."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.probe", *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=timeout,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe failed ({proc.returncode}): "
            + proc.stderr.decode(errors="replace")[-2000:]
        )
    return elapsed


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record(seed: int) -> dict:
    """The facts every number of this benchmark is read against."""
    from repro.analysis import backend
    from repro.analysis.holistic import AnalysisOptions

    # ``import repro._native`` succeeds on an unbuilt checkout (the C
    # source directory is a namespace package); the backend package
    # only reports the extension when its kernels are really there.
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": AnalysisOptions().backend,
        "numpy": backend.numpy_or_none() is not None,
        "native": backend.native_or_none() is not None,
        "seed": seed,
        "commit": _git_commit(),
    }


def declared() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units, better directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
