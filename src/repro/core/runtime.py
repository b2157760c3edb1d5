"""The unified search runtime: proposal protocol and search driver.

Every bus-access optimisation strategy in this repository -- BBC,
OBC/CF, OBC/EE, SA, GA and anything registered through
:mod:`repro.core.strategies` -- is a *proposal generator*: it yields
:class:`CandidateBatch` objects (configurations it wants analysed) or
:class:`CandidateSweep` objects (one static variant at many DYN
lengths, plus any interpolated cost estimates against it to record in
the trace) and receives the evaluated results back at the ``yield``.
One :class:`SearchDriver` owns everything around that conversation:

* **evaluation** -- every batch goes through
  :meth:`~repro.core.search.Evaluator.analyse_many` and every sweep
  through :meth:`~repro.core.search.Evaluator.analyse_sweep`, so every
  strategy is batch-capable and rides the result cache, the
  dedup-within-batch logic and (when configured) the parallel process
  pool;
* **trace recording** -- exact points and estimates land in the
  evaluator's trace in proposal order, serial or parallel;
* **budgets** -- wall-clock and evaluation-count limits
  (:class:`~repro.core.strategies.StrategyOptions`) are enforced at
  batch boundaries; an exhausted budget closes the generator and
  finishes the run with ``stop_reason="budget"``; past the caller's
  :func:`deadline` it closes the generator and raises
  :class:`DeadlineExceeded`;
* **deterministic best-selection** -- the driver folds every evaluated
  result with :func:`~repro.core.search.better` (strictly-lower cost
  wins, first occurrence wins ties) and discards an infeasible
  "best"; a strategy with a non-default selection rule (OBC's
  first-schedulable-hit semantics) *returns* its chosen result from
  the generator instead, which takes precedence;
* **resource lifetime** -- the evaluator is used as a context manager,
  so the parallel pool is released even when a strategy raises.

Early stopping is expressed by the generator simply returning: the
strategy sees every batch's results and encodes its own stopping rule
(e.g. Fig. 6 line 7's stop-at-first-schedulable), while the driver
guarantees the run also ends when a budget expires.

Determinism contract: at fixed options and seeds, a run is
byte-identical however the batches are scheduled -- serially, on the
process pool, or re-read from a warmed cache -- because the proposal
order is fixed before evaluation and ``analyse_many`` preserves it.
``tests/test_legacy_equivalence.py`` pins all five built-in strategies
byte-identical to their pre-runtime implementations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Generator, Optional, Tuple, Union

from repro.analysis.holistic import AnalysisResult
from repro.core.config import FlexRayConfig
from repro.core.result import OptimisationResult
from repro.core.search import Evaluator, better
from repro.errors import ReproError

#: Type of the conversation a strategy has with the driver: yields
#: batches or sweeps, receives result lists (a sweep's may hold
#: :class:`~repro.analysis.holistic.SweepRow` entries), returns an
#: optional explicit best-selection (None delegates selection to the
#: driver; a returned row is materialised into its full result).
Proposals = Generator[
    Union["CandidateBatch", "CandidateSweep"], list, Optional[AnalysisResult]
]

#: The ``time.monotonic()`` deadline set by :func:`deadline`, or None.
_DEADLINE: ContextVar[Optional[float]] = ContextVar("deadline", default=None)


class DeadlineExceeded(ReproError):
    """A driver run reached a batch boundary past its :func:`deadline`."""


@contextmanager
def deadline(seconds: Optional[float]):
    """Stop every :class:`SearchDriver` run in the block at its first
    batch boundary *seconds* from now (``None``: no limit); nested
    blocks keep the earlier deadline."""
    if seconds is None:
        yield
        return
    at = time.monotonic() + seconds
    outer = _DEADLINE.get()
    token = _DEADLINE.set(at if outer is None else min(at, outer))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def seconds_left() -> Optional[float]:
    """Seconds to the current :func:`deadline` (``None``: none)."""
    at = _DEADLINE.get()
    return None if at is None else at - time.monotonic()


@dataclass(frozen=True)
class CandidateBatch:
    """One round of the proposal protocol.

    ``configs`` are analysed (in order, deduplicated against the
    evaluator's cache) and their results sent back into the generator.
    """

    configs: Tuple[FlexRayConfig, ...] = ()


@dataclass(frozen=True)
class CandidateSweep:
    """One round of the proposal protocol over a DYN-length sweep.

    The candidates are ``template`` at each of ``lengths`` -- what
    ``template.with_dyn_length(n)`` would be, without building those
    configurations.  They are analysed by
    :meth:`~repro.core.search.Evaluator.analyse_sweep`, and the
    generator receives one entry per length: the sweep's best (first
    lowest cost) and cache hits as full
    :class:`~repro.analysis.holistic.AnalysisResult` objects, every
    other length as a :class:`~repro.analysis.holistic.SweepRow` with
    the same cost, flags and response times.  ``estimates`` are
    interpolated (non-exact) ``(n_minislots, cost)`` points against the
    template, recorded in the search trace *before* the lengths are
    analysed -- the order the curve-fitting heuristic's trace semantics
    require.  A sweep may carry only estimates (``lengths == ()``); the
    generator then receives an empty result list.
    """

    template: FlexRayConfig
    lengths: Tuple[int, ...] = ()
    estimates: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))
        every = [*self.lengths, *(n for n, _ in self.estimates)]
        if every:
            # Every length check of FlexRayConfig is monotone in the DYN
            # length (the range, FrameID fit, the 16 ms cycle, a
            # non-empty cycle), so the extremes build iff all lengths do.
            self.template.with_dyn_length(min(every))
            self.template.with_dyn_length(max(every))


class SearchStrategy:
    """Base class of proposal strategies.

    Concrete strategies set ``algorithm`` (the label reported in
    :class:`~repro.core.result.OptimisationResult`), hold a
    :class:`~repro.core.strategies.StrategyOptions` (sub)instance in
    ``options``, and implement :meth:`proposals` as a generator.
    """

    #: Result label, e.g. ``"OBC/CF"``.
    algorithm: str = "?"

    def __init__(self, options=None):
        if options is None:
            from repro.core.strategies import StrategyOptions

            options = StrategyOptions()
        self.options = options

    def proposals(self, system) -> Proposals:
        """Yield :class:`CandidateBatch` / :class:`CandidateSweep`
        objects for *system*.

        Receives the evaluated results of each batch at the ``yield``;
        may ``return`` an explicit best :class:`AnalysisResult` (or
        ``None`` to accept the driver's default selection).
        """
        raise NotImplementedError


def drive_with_evaluator(gen: Proposals, evaluator: Evaluator):
    """Run a proposal generator against an existing evaluator.

    The raw protocol loop without budgets or best-tracking: used by the
    legacy per-variant search entry points
    (:func:`repro.core.dynlen.curvefit_dyn_length`,
    :func:`repro.core.dynlen.exhaustive_dyn_length`) that operate on a
    caller-owned evaluator.  Returns the generator's return value.
    """
    results: Optional[list] = None
    while True:
        try:
            batch = gen.send(results)
        except StopIteration as stop:
            return evaluator.result_of(stop.value)
        results = _evaluate(evaluator, batch)


def _evaluate(evaluator: Evaluator, batch) -> list:
    """One protocol round: a :class:`CandidateBatch` through
    ``analyse_many``; a :class:`CandidateSweep`'s estimates into the
    trace, then its lengths through ``analyse_sweep``."""
    if isinstance(batch, CandidateSweep):
        evaluator.note_estimates(batch.template, batch.estimates)
        return evaluator.analyse_sweep(batch) if batch.lengths else []
    return evaluator.analyse_many(list(batch.configs))


class SearchDriver:
    """Run one strategy over one system and package the outcome.

    ``SearchDriver(system, strategy).run()`` is the single execution
    path of every optimiser: it owns the evaluator (and releases its
    pool via the context-manager protocol), enforces the strategy's
    budgets and the caller's :func:`deadline`, folds the default best
    and builds the :class:`~repro.core.result.OptimisationResult`.
    """

    def __init__(self, system, strategy: SearchStrategy):
        self.system = system
        self.strategy = strategy

    def run(self) -> OptimisationResult:
        options = self.strategy.options
        start = time.perf_counter()
        best: Optional[AnalysisResult] = None
        selected: Optional[AnalysisResult] = None
        stop_reason: Optional[str] = None
        with Evaluator(self.system, options.bus_options()) as evaluator:
            gen = self.strategy.proposals(self.system)
            results: Optional[list] = None
            try:
                while True:
                    try:
                        batch = gen.send(results)
                    except StopIteration as stop:
                        selected = stop.value
                        break
                    if self._budget_exhausted(options, start, evaluator):
                        stop_reason = "budget"
                        break
                    results = _evaluate(evaluator, batch)
                    for result in results:
                        if better(result, best):
                            best = result
            finally:
                gen.close()
            if selected is None:
                # Default deterministic selection: lowest cost, first
                # occurrence on ties; an infeasible best is no best.
                if best is not None and not best.feasible:
                    best = None
                selected = best
            return OptimisationResult(
                algorithm=self.strategy.algorithm,
                best=evaluator.result_of(selected),
                evaluations=evaluator.evaluations,
                elapsed_seconds=time.perf_counter() - start,
                trace=tuple(evaluator.trace),
                cache_hits=evaluator.cache_hits,
                stop_reason=stop_reason,
            )

    @staticmethod
    def _budget_exhausted(options, start: float, evaluator: Evaluator) -> bool:
        at = _DEADLINE.get()
        if at is not None and time.monotonic() > at:
            raise DeadlineExceeded("the run passed its wall-clock deadline")
        if (
            options.max_seconds is not None
            and time.perf_counter() - start > options.max_seconds
        ):
            return True
        return (
            options.max_evaluations is not None
            and evaluator.evaluations >= options.max_evaluations
        )
