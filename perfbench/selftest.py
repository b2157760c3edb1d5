"""The benchmark's own tests (not part of the program's test suite).

    python3 -m pytest perfbench/selftest.py -q

Run from the root of a checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Patcher,
    SpanRecorder,
    aggregate,
    covered_ns,
    self_times,
    tail_percentile,
)


def span(span_id, parent, name, start, end, units=1):
    return (span_id, parent, "run", name, start, end, units)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, 0, "outer", 0, 100),
        span(2, 1, "mid", 10, 60),
        span(3, 2, "inner", 20, 50),
        span(4, 1, "mid", 70, 80),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 50 - 10, 2: 50 - 30, 3: 30, 4: 10}
    assert sum(own.values()) == 100  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    # Children on other threads may overlap; their union is subtracted.
    spans = [
        span(1, 0, "outer", 0, 100),
        span(2, 1, "a", 10, 50),
        span(3, 1, "b", 30, 70),
        span(4, 1, "c", 90, 120),  # runs past its parent: clipped
    ]
    assert self_times(spans)[1] == 100 - 60 - 10


def test_covered_ns_merges_and_clips():
    assert covered_ns(0, 10, [(2, 4), (3, 6), (8, 20)]) == 4 + 2
    assert covered_ns(0, 10, []) == 0


def test_residual_counts_overlapping_threads_once():
    # Two threads' top-level spans overlap; children never add cover.
    spans = [
        span(1, 0, "a", 10, 60),
        span(2, 0, "b", 40, 80),
        span(3, 1, "a.child", 20, 30),
        span(4, 0, "c", 95, 130),  # runs past the window: clipped
    ]
    assert layers.uncovered_s(spans, 0, 100) == (100 - 70 - 5) / 1e9
    assert layers.uncovered_s([], 0, 100) == 100 / 1e9


def test_aggregate_sums_per_name():
    spans = [
        span(1, 0, "outer", 0, 100),
        span(2, 1, "leaf", 10, 20, units=3),
        span(3, 1, "leaf", 30, 60, units=4),
    ]
    table = aggregate(spans)
    assert table["leaf"] == {"calls": 2, "total_ns": 40, "self_ns": 40, "units": 7}
    assert table["outer"]["self_ns"] == 60


def test_recorder_nests_real_calls():
    recorder = SpanRecorder("t")

    def inner():
        return 1

    traced_inner = recorder.traced("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert recorder.traced("outer", outer)() == 2
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s[3], []).append(s)
    (root,) = by_name["outer"]
    assert [s[1] for s in by_name["inner"]] == [root[0], root[0]]
    own = self_times(recorder.spans)
    assert own[root[0]] == (root[5] - root[4]) - sum(
        s[5] - s[4] for s in by_name["inner"]
    )


def test_recorder_records_a_raising_call_and_unwinds():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.traced("boom", boom)()
    recorder.traced("after", lambda: None)()
    assert [(s[1], s[3], s[6]) for s in recorder.spans] == [
        (0, "boom", 0),
        (0, "after", 1),
    ]


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_tail_percentile_is_the_highest_with_ten_beyond():
    assert tail_percentile(range(1, 10001))[:1] == (99.9,)
    p, value, n = tail_percentile(range(1, 1001))
    assert (p, value, n) == (99.0, 990, 1000)  # exactly 10 beyond
    p, value, n = tail_percentile(range(1, 1000))
    assert (p, n) == (95.0, 999)  # p99 would leave only 9
    assert tail_percentile(range(20))[0] == 50.0


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(19))


# ----------------------------------------------------------------------
# per-layer arithmetic
# ----------------------------------------------------------------------
def test_nested_batch_and_group_spans_count_once():
    spans = [
        span(1, 0, "context.analyse", 0, 100),
        span(2, 1, "context.analyse_batch", 0, 90, units=1),
        span(3, 0, "context.analyse_batch", 100, 200, units=5),
        span(4, 3, "backend.kernel", 110, 150, units=5),
        span(5, 4, "backend.kernel", 120, 140, units=5),
        span(6, 3, "scheduler.replay", 150, 160),
    ]
    values = layers.span_metrics(spans)
    assert values["context.analyses"] == 6
    assert values["backend.groups"] == 1
    assert values["backend.lanes_per_group"] == 5
    assert values["scheduler.replays_per_analysis"] == pytest.approx(1 / 6)


# ----------------------------------------------------------------------
# wrappers come off
# ----------------------------------------------------------------------
def _originals(boundaries):
    out = {}
    for module_name, path, _, _ in boundaries:
        try:
            owner, attr = layers._resolve(module_name, path)
        except (ImportError, AttributeError):
            continue
        out[(module_name, path)] = vars(owner)[attr]
    return out


def test_every_wrapper_is_removed_after_a_traced_run():
    from repro.core.strategies import optimise
    from repro.core.sa import SAOptions
    from repro.synth.suite import paper_system

    boundaries = layers.ANALYSIS_BOUNDARIES + layers.SERVER_BOUNDARIES
    before = _originals(boundaries)
    recorder = SpanRecorder()
    patcher, missing = layers.install(recorder, boundaries)
    try:
        assert missing == []
        assert len(layers.wrapped_boundaries(boundaries)) == len(before)
        optimise(paper_system(2, 0, seed=23), "sa", SAOptions(iterations=5, seed=1))
    finally:
        patcher.restore()
    assert recorder.spans, "the traced run recorded nothing"
    assert layers.wrapped_boundaries(boundaries) == []
    for (module_name, path), original in before.items():
        owner, attr = layers._resolve(module_name, path)
        assert vars(owner)[attr] is original, f"{module_name}.{path}"


def test_patcher_restores_in_reverse_order():
    class Owner:
        value = "original"

    patcher = Patcher()
    patcher.patch(Owner, "value", "first")
    patcher.patch(Owner, "value", "second")
    patcher.restore()
    assert Owner.value == "original"


def test_every_declared_per_layer_metric_has_its_map_entry():
    from perfbench.common import declared

    benchmark = declared()
    assert {m["name"] for m in benchmark["per_layer"]} == set(layers.PER_LAYER)
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    for name, (moves, on) in layers.PER_LAYER.items():
        assert set(on) <= workloads, name
        assert set(moves) <= end_to_end, name
