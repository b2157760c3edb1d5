"""The accelerated backend (``AnalysisOptions.backend``).

The holistic pipeline spends nearly all of its time in pure integer
arithmetic -- FPS/DYN busy-window fix points over precomputed prefix
sums -- executed as per-candidate Python loops.  This package lowers
what :class:`~repro.analysis.context.AnalysisContext` already holds into
plain int tables (:mod:`repro.analysis.backend.arrays`): the context's
structure record (interferer rows, FrameIDs, transmission times) once
per FrameID assignment, and the ``NodeAvailability`` gap/slack prefix
sums and static response times once per (schedule, structure) group.
It then runs each candidate's
full holistic fix point inside a compiled C extension
(``repro._native``), in tight scalar loops with no per-step dispatch
(:func:`repro.analysis.backend.native.run_group_native`).  That is the
one accelerated rung beside the pure-Python oracle: ``"python"`` is the
reference, ``"native"`` the compiled kernels; the tests check the two
against each other.  The same extension scores OBC/CF's curve-fit
estimates (``score_curves``, called from
:func:`repro.core.dynlen._score_candidates` on native runs), float for
float equal to the Python scorer.

The contract is the repo's established one: results are bit-identical
to the pure-Python oracle.  The ingredients:

* exact integer arithmetic end to end (int64, never float), every
  ``+``, ``-`` and ``*`` checked in C: a lane whose exact value would
  leave int64 stops, and that lane alone is analysed by the Python
  oracle -- a lane that never overflows computed the same integers
  Python's unbounded ints would, with or without ``-fwrapv``;
* groups with a fully busy node (no staircase to run) or an input
  outside int64 (``array('q')`` packing raises ``OverflowError``) are
  analysed by the Python oracle as well;
* the certified warm-start seeds and the per-instant pruning bound are
  carried over as kernel state, and both are result-neutral by the
  repo's certification arguments (seeds below the least fixed point
  converge to exactly it; uncertified seeds trigger the same
  cold-replay detection as the Python path);
* ``dyn_fill_strategy="exact"``, which the kernels do not implement,
  runs on the Python path entirely.

The extension is an *optional* build (the ``repro[native]`` extra,
which needs a C toolchain and nothing else): the library probes it
through :func:`native_or_none`, and :func:`require_native` turns its
absence into an actionable error at context construction instead of a
deep ImportError mid-analysis.  Neither the Python backend nor the
compiled one imports numpy.  :data:`BACKEND_MODES` lists the legal
``AnalysisOptions.backend`` values -- the CLI ``--backend`` choices and
the context's validation error both derive from it.
"""

from __future__ import annotations

try:  # pragma: no cover - one branch per build environment
    from repro import _native as _native_module
except ImportError:  # pragma: no cover
    _native_module = None
else:  # pragma: no cover
    # ``src/repro/_native/`` (the C source directory) is importable as
    # an attribute-less PEP 420 namespace package even when the compiled
    # module was never built; only a module exposing every entry point
    # counts as the extension being installed (a build of an older
    # source lacks the curve-fit scorer).
    if not all(
        hasattr(_native_module, name)
        for name in ("build_plan", "run_batch", "score_curves")
    ):
        _native_module = None


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed.

    No backend uses numpy; this probe only reports it (benchmark host
    records), and imports it only when called -- ``import repro`` never
    does.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def native_or_none():
    """The compiled ``repro._native`` module, or ``None`` when absent.

    Kept behind a function (reading the module-level ``_native_module``)
    so tests can simulate a build without the extension by
    monkeypatching ``repro.analysis.backend._native_module`` to ``None``.
    """
    return _native_module


def require_native():
    """Return ``repro._native`` or raise an actionable :class:`RuntimeError`.

    Called once per :class:`~repro.analysis.context.AnalysisContext`
    construction when ``backend`` is ``"native"`` -- the failure happens
    eagerly, at the one place the user chose the backend, not deep
    inside an analysis.
    """
    native = native_or_none()
    if native is None:
        raise RuntimeError(
            'AnalysisOptions.backend="native" requires the '
            "compiled repro._native extension, which is built by the "
            "optional 'pip install repro[native]' extra (a C toolchain is "
            'needed at install time); without it choose backend="python".'
        )
    return native


#: Legal values of ``AnalysisOptions.backend`` (re-exported by
#: :mod:`repro.analysis.holistic`).
BACKEND_MODES = ("python", "native")

_BACKEND_DESCRIPTIONS = {
    "python": "pure-Python scalar oracle (always available)",
    "native": "compiled C fix-point kernels (repro[native] extra)",
}


def describe_backends() -> str:
    """One-line availability summary of every backend.

    Used by the context's unknown-backend error and the CLI ``--backend``
    help text, so both always list exactly :data:`BACKEND_MODES`.
    """
    parts = []
    for name in BACKEND_MODES:
        available = name == "python" or native_or_none() is not None
        state = "available" if available else "not installed"
        parts.append(f'"{name}" ({_BACKEND_DESCRIPTIONS[name]}; {state})')
    return ", ".join(parts)
