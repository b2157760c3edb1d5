"""Span recording, attribute patching and the arithmetic on both.

The traced run wraps the program's layer boundaries from outside: each
boundary is an attribute (a module function, a class, a method) that a
:class:`Patcher` swaps for a :meth:`SpanRecorder.traced` wrapper and
later puts back.  Spans stay in memory as plain tuples

    (span_id, parent_id, run_id, name, start_ns, end_ns, units)

and are written out once, when the benchmark ends.  ``parent_id`` is the
innermost open span of the same thread (0 at top level); ``units`` is a
per-call work count (candidates in a batch, estimates scored...).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, str, int, int, int]

#: Percentiles tried, highest first, by :func:`tail_percentile`.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SpanRecorder:
    """Collects spans of every thread of one process."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def traced(
        self,
        name,
        fn: Callable,
        units: Optional[Callable] = None,
    ) -> Callable:
        """*fn* wrapped to record one span per call.

        ``name`` is a string or ``name(args) -> str``; ``units`` maps
        ``(args, kwargs, result)`` to the call's work count (default 1).
        """
        clock = time.perf_counter_ns
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            label = name if isinstance(name, str) else name(args)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.run_id, label, start, end, 0))
                raise
            end = clock()
            stack.pop()
            n = 1 if units is None else units(args, kwargs, result)
            spans.append((span_id, parent, self.run_id, label, start, end, n))
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one gzipped JSON document."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": [
                        "span_id", "parent_id", "run_id", "name",
                        "start_ns", "end_ns", "units",
                    ],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


class Patcher:
    """Swaps attributes and restores every one of them."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        # vars() keeps descriptors (staticmethod...) as they were defined.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of *intervals*, clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_ns(start, end, children.get(span_id, ()))
        for span_id, _, _, _, start, end, _ in spans
    }


def aggregate(spans: Sequence[Span]) -> Dict[str, dict]:
    """Per span name: calls, inclusive and self nanoseconds, units."""
    own = self_times(spans)
    table: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0}
    )
    for span_id, _, _, name, start, end, units in spans:
        row = table[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += own[span_id]
        row["units"] += units
    return dict(table)


def parent_names(spans: Sequence[Span]) -> Dict[int, str]:
    """Span id -> name of its parent span ('' at top level)."""
    names = {span[0]: span[3] for span in spans}
    return {span[0]: names.get(span[1], "") for span in spans}


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile *p* (to 0.1) among *n* samples."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)``: the highest percentile of
    :data:`PERCENTILE_LADDER` that leaves at least ten samples beyond it
    (nearest rank).  Raises when even the median leaves fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        rank = _rank(p, n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n
    raise ValueError(f"{n} samples leave fewer than 10 beyond the median")

