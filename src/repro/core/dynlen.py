"""Determining the DYN segment length (Section 6.2.1, Fig. 8).

Two strategies, both searching ``n_minislots`` in the legal range for a
fixed static-segment structure:

* :func:`exhaustive_proposals` -- analyse every candidate (OBC/EE);
* :func:`curvefit_proposals` -- the paper's heuristic: analyse a small
  seed set exactly, Newton-interpolate every activity's response time
  over the whole range, and only analyse the most promising candidates
  until a schedulable one is confirmed or Nmax rounds bring no
  improvement (OBC/CF).

Both are written against the proposal protocol of
:mod:`repro.core.runtime`: they yield
:class:`~repro.core.runtime.CandidateSweep` objects (the exhaustive
sweep, the curve fit's seed set and its estimates, all against the
variant's template) and :class:`~repro.core.runtime.CandidateBatch`
objects (the curve fit's single refinement points) and receive the
evaluated results, so the OBC strategy composes them with ``yield
from`` and the search driver owns evaluation.  The legacy entry points
:func:`exhaustive_dyn_length` / :func:`curvefit_dyn_length` drive the
same generators against a caller-owned
:class:`~repro.core.search.Evaluator` -- one implementation, two
calling conventions.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Tuple

from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisResult
from repro.core.config import FlexRayConfig
from repro.core.cost import cost_order, cost_values
from repro.core.curvefit import NewtonCurves, spread_points
from repro.core.runtime import (
    CandidateBatch,
    CandidateSweep,
    Proposals,
    drive_with_evaluator,
)
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    better,
    sweep_lengths,
)
from repro.errors import AnalysisError
from repro.model.system import System


def exhaustive_proposals(
    options: BusOptimisationOptions,
    template: FlexRayConfig,
    lo: int,
    hi: int,
    max_points: Optional[int] = None,
) -> Proposals:
    """Best configuration over all DYN lengths in [lo, hi] (OBC/EE).

    ``max_points`` caps the sweep resolution; ``None`` uses the
    options' value (the paper analyses every gdMinislot step, which is
    the configuration ``max_points >= hi - lo + 1``).
    """
    best: Optional[AnalysisResult] = None
    # One sweep: the lengths share the evaluator's warm AnalysisContext
    # and fan out over the parallel pool when one is configured; the
    # first-best selection below matches the serial iteration order
    # (the sweep's best comes back as a full result).
    if max_points is None:
        max_points = options.ee_max_dyn_points
    lengths = sweep_lengths(lo, hi, max_points)
    if not lengths:
        return None
    results = yield CandidateSweep(template, tuple(lengths))
    for result in results:
        if better(result, best):
            best = result
    return best


def curvefit_proposals(
    system: System,
    options: BusOptimisationOptions,
    template: FlexRayConfig,
    lo: int,
    hi: int,
) -> Proposals:
    """The curve-fitting heuristic of Fig. 8 (OBC/CF)."""
    if hi < lo:
        return None

    # Exact points: full results, or the seed sweep's rows (which the
    # driver turns into a full result if one is returned).
    exact: Dict[int, AnalysisResult] = {}
    # One response-time curve per activity, rows in Eq. (5) order.
    order = cost_order(system.application)
    names = [name for name, _ in order]
    deadlines = [deadline for _, deadline in order]
    curves = NewtonCurves(len(names))
    # A native run scores its estimate rounds in C as well.
    native = native_or_none() if options.analysis.backend == "native" else None

    def record_point(n: int, result: AnalysisResult) -> None:
        exact[n] = result
        if result.feasible:
            wcrt = result.wcrt
            missing = next((name for name in names if name not in wcrt), None)
            if missing is not None:
                raise AnalysisError(
                    f"feasible analysis at n_minislots={n} has no response "
                    f"time for activity {missing!r}"
                )
            curves.add_point(n, [wcrt[name] for name in names])

    # Line 1-5: seed points, analysed exactly.  The seeds are mutually
    # independent, so they go out as one sweep: they share the
    # evaluator's result cache and fan out over the parallel pool when
    # one is configured.  Batching unconditionally forfeits the old
    # stop-at-first-schedulable-seed early exit (rare: it only fired
    # when the very first exact points were already schedulable), but
    # keeps serial and parallel runs byte-identical -- branching on
    # ``parallel_workers`` here would make their evaluation counts and
    # traces diverge.
    seed_lengths = spread_points(lo, hi, options.initial_cf_points)
    seed_results = yield CandidateSweep(template, tuple(seed_lengths))
    for n, result in zip(seed_lengths, seed_results):
        record_point(n, result)
        if result.schedulable and options.stop_when_schedulable:
            return result

    candidates = sweep_lengths(lo, hi, options.cf_candidates)
    best_exact_cost = _best_exact_cost(exact)
    stale_rounds = 0

    while (
        stale_rounds < options.cf_max_rounds
        and len(exact) < options.cf_max_points
    ):
        scored, estimates = _score_candidates(
            candidates, exact, curves, deadlines, native
        )
        if estimates:
            # Estimate-only sweep: the interpolated points land in the
            # trace now, before the next exact analysis -- the legacy
            # trace order.
            yield CandidateSweep(template, estimates=tuple(estimates))
        if not scored:
            break
        cost_min, n_best = scored[0]

        if n_best in exact:
            if cost_min <= 0:
                return exact[n_best]  # line 12: exact and schedulable
            # Line 18-19: best point already exact but unschedulable --
            # refine with the best *interpolated* candidate instead.
            n_next = next((n for _, n in scored if n not in exact), None)
            if n_next is None:
                break
            results = yield CandidateBatch((template.with_dyn_length(n_next),))
            record_point(n_next, results[0])
        else:
            # Lines 13-17: analyse the promising interpolated point.
            results = yield CandidateBatch((template.with_dyn_length(n_best),))
            result = results[0]
            record_point(n_best, result)
            if result.schedulable:
                return result
        new_best = _best_exact_cost(exact)
        if new_best < best_exact_cost:
            best_exact_cost = new_best
            stale_rounds = 0
        else:
            stale_rounds += 1

    feasible = [r for r in exact.values() if r.feasible]
    if not feasible:
        return None
    return min(feasible, key=lambda r: r.cost_value)


def exhaustive_dyn_length(
    evaluator: Evaluator,
    template: FlexRayConfig,
    lo: int,
    hi: int,
    max_points: Optional[int] = None,
) -> Optional[AnalysisResult]:
    """Drive :func:`exhaustive_proposals` on a caller-owned evaluator."""
    return drive_with_evaluator(
        exhaustive_proposals(evaluator.options, template, lo, hi, max_points),
        evaluator,
    )


def curvefit_dyn_length(
    evaluator: Evaluator,
    template: FlexRayConfig,
    lo: int,
    hi: int,
) -> Optional[AnalysisResult]:
    """Drive :func:`curvefit_proposals` on a caller-owned evaluator."""
    return drive_with_evaluator(
        curvefit_proposals(evaluator.system, evaluator.options, template, lo, hi),
        evaluator,
    )


def _best_exact_cost(exact: Dict[int, AnalysisResult]) -> float:
    return min((r.cost_value for r in exact.values()), default=math.inf)


def _score_candidates(
    candidates: List[int],
    exact: Dict[int, AnalysisResult],
    curves: NewtonCurves,
    deadlines: List[int],
    native=None,
) -> Tuple[List[Tuple[float, int]], List[Tuple[int, float]]]:
    """Cost per candidate length: exact when analysed, else interpolated.

    Returns ``(scored, estimates)``: (cost, length) pairs sorted
    best-first, plus the interpolated ``(length, cost)`` points to
    record in the search trace (in candidate order).  Candidates are skipped while fewer than
    two exact feasible points exist (nothing to interpolate from).
    Every open candidate is interpolated and costed in one batched pass:
    by the compiled extension *native* when given (its floats equal the
    Python scorer's), else -- or when it hands the round back -- in
    Python.
    """
    scored: List[Tuple[float, int]] = []
    open_lengths: List[int] = []
    for n in candidates:
        if n in exact:
            scored.append((exact[n].cost_value, n))
        else:
            open_lengths.append(n)
    estimates: List[Tuple[int, float]] = []
    if len(curves) >= 2 and open_lengths:
        costs = None
        if native is not None:
            costs = _native_costs(native, curves, open_lengths, deadlines)
        if costs is None:
            costs = cost_values(deadlines, curves.evaluate(open_lengths))
        estimates = list(zip(open_lengths, costs))
        scored += [(cost, n) for n, cost in estimates]
    scored.sort()  # by cost, then length (costs are never NaN)
    return scored, estimates


def _native_costs(
    native, curves: NewtonCurves, lengths: List[int], deadlines: List[int]
) -> Optional[List[float]]:
    """The C scorer's costs at *lengths*, or ``None`` for the Python
    path: a deadline outside int64, a value that is not finite, an int64
    overflow."""
    try:
        deadline_buf = array("q", deadlines)
    except OverflowError:
        return None
    return native.score_curves(
        *curves.packed(), deadline_buf, array("d", lengths)
    )
