"""The accelerated backend (``AnalysisOptions.backend``).

The holistic pipeline spends nearly all of its time in pure integer
arithmetic -- FPS/DYN busy-window fix points over precomputed prefix
sums -- executed as per-candidate Python loops.  This package lowers the
per-system invariants already computed by
:class:`~repro.analysis.context.AnalysisContext` (interferer rows,
``NodeAvailability`` gap/slack prefix sums, ``InstantTables``, DYN fill
rows) into plain int tables once per (schedule, frame structure) group
(:mod:`repro.analysis.backend.arrays`), then runs each candidate's
full holistic fix point inside a compiled C extension
(``repro._native``), in tight scalar loops with no per-step dispatch
(:func:`repro.analysis.backend.native.run_group_native`).  That is the
one accelerated rung beside the pure-Python oracle: ``"python"`` is the
reference, ``"native"`` the compiled kernels, ``"verify"`` the two
cross-checked.

The contract is the repo's established one: results are bit-identical
to the pure-Python oracle.  The ingredients:

* exact integer arithmetic end to end (int64, never float);
* per-activity magnitude prebounds computed in unbounded Python
  arithmetic per batch -- any group whose worst-case intermediate could
  leave int64 is analysed by the Python oracle instead
  (:data:`~repro.analysis.backend.arrays.OVERFLOW_LIMIT`), and so is
  any group with a fully busy node (no staircase to run);
* the certified warm-start seeds and the per-instant pruning bound are
  carried over as kernel state, and both are result-neutral by the
  repo's certification arguments (seeds below the least fixed point
  converge to exactly it; uncertified seeds trigger the same
  cold-replay detection as the Python path);
* oracle/debug modes (``warm_start != "certified"``,
  ``dominance="verify"``, ``dyn_fill_strategy="exact"``) fall back to
  the Python path entirely -- their whole point is exercising the
  reference semantics.

The extension is an *optional* build (the ``repro[native]`` extra,
which needs a C toolchain and nothing else): the library probes it
through :func:`native_or_none`, and :func:`require_backend` turns its
absence into an actionable error at context construction instead of a
deep ImportError mid-analysis.  Neither the Python backend nor the
compiled one imports numpy.  :data:`BACKEND_REGISTRY` is the single
source of truth for the legal ``AnalysisOptions.backend`` values -- the
CLI ``--backend`` choices and the context's validation error both
derive from it.
"""

from __future__ import annotations

try:  # pragma: no cover - one branch per build environment
    from repro import _native as _native_module
except ImportError:  # pragma: no cover
    _native_module = None
else:  # pragma: no cover
    # ``src/repro/_native/`` (the C source directory) is importable as
    # an attribute-less PEP 420 namespace package even when the compiled
    # module was never built; only a module exposing the kernel entry
    # points counts as the extension being installed.
    if not hasattr(_native_module, "run_batch"):
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
    construction when ``backend`` is ``"native"`` or ``"verify"`` -- the
    failure happens eagerly, at the one place the user chose the
    backend, not deep inside an analysis.
    """
    native = native_or_none()
    if native is None:
        raise RuntimeError(
            'AnalysisOptions.backend="native" (and "verify") requires the '
            "compiled repro._native extension, which is built by the "
            "optional 'pip install repro[native]' extra (a C toolchain is "
            'needed at install time); without it choose backend="python".'
        )
    return native


def _always_available():
    return True


def _native_available():
    return native_or_none() is not None


#: The single source of truth for ``AnalysisOptions.backend``: mode ->
#: (one-line description, availability probe, eager requirement check).
#: The CLI ``--backend`` choices, the context validation error and the
#: docs' backend ladder all derive from this mapping -- a new backend
#: appears exactly once, here.
BACKEND_REGISTRY = {
    "python": {
        "description": "pure-Python scalar oracle (always available)",
        "available": _always_available,
        "require": lambda: None,
    },
    "native": {
        "description": "compiled C fix-point kernels (repro[native] extra)",
        "available": _native_available,
        "require": require_native,
    },
    "verify": {
        "description": (
            "run the Python oracle and the compiled kernels and count "
            "divergences (repro[native] extra)"
        ),
        "available": _native_available,
        "require": require_native,
    },
}

#: Legal values of ``AnalysisOptions.backend``, in registry order
#: (re-exported by :mod:`repro.analysis.holistic`).
BACKEND_MODES = tuple(BACKEND_REGISTRY)


def describe_backends() -> str:
    """One-line availability summary of every registered backend.

    Used by the context's unknown-backend error and the CLI ``--backend``
    help text, so both always list exactly the registry.
    """
    parts = []
    for name, spec in BACKEND_REGISTRY.items():
        state = "available" if spec["available"]() else "not installed"
        parts.append(f'"{name}" ({spec["description"]}; {state})')
    return ", ".join(parts)


def require_backend(backend: str):
    """Eagerly check that *backend* is usable; raise otherwise.

    ``KeyError``-free: unknown names are the caller's
    :class:`~repro.errors.ConfigurationError` (validated against
    :data:`BACKEND_MODES` first); known-but-uninstalled backends raise
    the registry's actionable :class:`RuntimeError`.
    """
    BACKEND_REGISTRY[backend]["require"]()
