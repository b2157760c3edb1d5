"""Fuzzing of the C extension's entry points (``repro._native``).

Each entry point parses flat buffers that Python packs, so a packing
bug hands it garbage.  Mutated inputs must either be refused with a
``ValueError`` / ``OverflowError`` or run to completion: never crash,
hang, or (in a sanitizer build) report a memory error or undefined
behaviour.  The example budget is fixed and derandomized, so the same
inputs run on every host, including the ASan/UBSan build.
"""

from array import array
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisContext
from repro.analysis.backend import native_or_none
from repro.analysis.backend.native import plan_blob
from repro.analysis.holistic import AnalysisOptions
from repro.core.bbc import basic_configuration
from repro.core.search import BusOptimisationOptions, dyn_segment_bounds
from repro.synth.suite import paper_system

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        native_or_none() is None, reason="needs the compiled repro[native] extra"
    ),
]

#: int64 words a mutation writes: small counts and indices, the edges
#: of the int64 range, and counts no blob can hold.
_WORDS = st.one_of(
    st.integers(-2, 70),
    st.sampled_from([-(2**63), 2**63 - 1, -(2**31), 2**31, 2**40]),
    st.integers(-(2**63), 2**63 - 1),
)


@lru_cache(maxsize=None)
def _plan_case():
    """A real plan blob and the ``run_batch`` arguments of two lanes."""
    system = paper_system(3, 1, seed=23)
    context = AnalysisContext(system, AnalysisOptions(backend="native"))
    lo, hi = dyn_segment_bounds(system, 0, BusOptimisationOptions())
    config = basic_configuration(system, hi, BusOptimisationOptions())
    context.analyse(config)
    plan = next(iter(context._backend_plans.values()))
    lanes = [(config.n_minislots, config.gd_cycle, config.st_bus)] * 2
    args = (
        array("q", [context._cap(gd) for _, gd, _ in lanes]),
        array("q", [n for n, _, _ in lanes]),
        array("q", [gd for _, gd, _ in lanes]),
        array("q", [st_bus for _, _, st_bus in lanes]),
        config.gd_minislot,
        context._fault_k,
        context.options.max_holistic_iterations,
    )
    return plan_blob(plan).tolist(), args


@st.composite
def _mutated_blobs(draw):
    words, _ = _plan_case()
    blob = array("q", words)
    if draw(st.integers(0, 9)) == 0:
        return blob[:draw(st.integers(0, len(blob) - 1))]
    # A third of the mutations land in the header and the sections
    # after it, where the counts and offsets that size the rest live;
    # half of them nudge a word, which keeps many blobs parseable.
    where = st.one_of(st.integers(0, 40), st.integers(0, len(blob) - 1),
                      st.integers(0, len(blob) - 1))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 5, 20]))):
        at = draw(where)
        if draw(st.booleans()):
            nudged = blob[at] + draw(st.integers(-3, 3))
            blob[at] = max(-(2**63), min(2**63 - 1, nudged))
        else:
            blob[at] = draw(_WORDS)
    return blob


@given(_mutated_blobs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mutated_plan_blobs_are_refused_or_run(blob):
    native = native_or_none()
    try:
        capsule = native.build_plan(blob.tobytes())
    except ValueError:
        return
    _, (caps, n_ms, gd, st_bus, ms_len, fault_k, max_iters) = _plan_case()
    lanes = len(caps)
    W = array("q", [0]) * (lanes * blob[1])  # blob[1] is n_rows
    conv = array("q", [0]) * lanes
    try:
        native.run_batch(
            capsule, caps, n_ms, gd, st_bus, ms_len, fault_k, max_iters, W, conv
        )
    except (ValueError, OverflowError):
        return
    assert set(conv) <= {-1, 0, 1}


def test_the_unmutated_blob_runs():
    """The fuzz base is a blob the kernel accepts and converges on."""
    native = native_or_none()
    words, (caps, *rest) = _plan_case()
    blob = array("q", words)
    W = array("q", [0]) * (len(caps) * blob[1])
    conv = array("q", [0]) * len(caps)
    native.run_batch(native.build_plan(blob.tobytes()), caps, *rest, W, conv)
    assert list(conv) == [1, 1]


_FLOATS = st.one_of(
    *[st.floats(-1e3, 1e3)] * 5,
    st.floats(allow_nan=True, allow_infinity=True),
)
_INTS = st.one_of(st.integers(0, 10**6), _WORDS)


@st.composite
def _score_buffers(draw):
    """``score_curves`` arguments: mostly consistent shapes, some off by
    an element or a few bytes, with tops and nodes out of range."""
    rows = draw(st.integers(0, 4))
    n = draw(st.sampled_from([0] + [1, 2, 3, 4, 5] * 4))  # n = 0 is refused
    L = draw(st.integers(0, 4))

    def items(elements, size):
        size = max(0, size + draw(st.sampled_from([0] * 18 + [-1, 1])))
        return draw(st.lists(elements, min_size=size, max_size=size))

    coeffs = items(_FLOATS, rows * n)
    in_range = st.integers(0, max(0, n - 1))
    tops = items(
        st.one_of(*[in_range] * 18, st.integers(-2, n + 2), _WORDS), rows
    )
    nodes = items(_FLOATS, n)
    deadlines = items(_INTS, rows)
    xs = draw(st.lists(_FLOATS, min_size=L, max_size=L))
    buffers = [
        array("d", coeffs), array("q", tops), array("d", nodes),
        array("q", deadlines), array("d", xs),
    ]
    raw = [buf.tobytes() for buf in buffers]
    k = draw(st.integers(0, 19))
    if k < len(raw):  # one buffer not a whole number of words
        raw[k] = raw[k][:max(0, len(raw[k]) - draw(st.integers(1, 7)))]
    return raw, L


@given(_score_buffers())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mutated_score_buffers_are_refused_or_scored(case):
    raw, L = case
    try:
        costs = native_or_none().score_curves(*raw)
    except (ValueError, OverflowError):
        return
    assert costs is None or (
        len(costs) == L and all(isinstance(c, float) for c in costs)
    )
