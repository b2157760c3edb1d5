"""Shared machinery of the bus-access optimisers.

Holds the option record, the DYN segment bounds of Section 6.1, the
quota-based round-robin static slot assignment of Section 6.2, and the
evaluation bookkeeping (analysis counting + search traces) that the
experiments of Section 7 report.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

from repro.analysis.context import AnalysisContext
from repro.analysis.holistic import AnalysisOptions, AnalysisResult, SweepRow
from repro.core.config import FlexRayConfig
from repro.core.result import SearchPoint
from repro.errors import ConfigurationError, OptimisationError
from repro.flexray import params
from repro.model.system import BusTable, System

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BusOptimisationOptions:
    """Knobs shared by BBC, OBC/EE, OBC/CF and SA.

    The paper explores the full protocol ranges (up to 1023 static slots,
    661 MT slots, 7994 minislots) but stops at the first schedulable
    configuration; the ``max_*`` fields bound the exploration so runs
    stay laptop-sized, and can be raised for paper-scale experiments.
    """

    #: Analysis tunables forwarded to every evaluation; the default
    #: enables the certified warm-start fast path (bit-identical to the
    #: cold oracle -- see :class:`~repro.analysis.holistic.AnalysisOptions`).
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    #: Minislot length in macroticks (protocol default).
    gd_minislot: int = params.DEFAULT_GD_MINISLOT
    bits_per_mt: int = params.DEFAULT_BITS_PER_MT
    frame_overhead_bytes: int = params.DEFAULT_FRAME_OVERHEAD_BYTES
    #: BBC evaluates at most this many DYN lengths in its single sweep.
    max_dyn_points: int = 48
    #: OBC/EE sweep resolution: the paper analyses every gdMinislot step;
    #: this cap keeps runs laptop-sized while staying dense enough to find
    #: narrow schedulable windows.  Raise towards MAX_MINISLOTS for
    #: paper-exact exhaustive exploration.
    ee_max_dyn_points: int = 1024
    #: OBC/CF: exactly analysed seed points (the paper used five).
    initial_cf_points: int = 5
    #: OBC/CF: interpolation grid resolution (candidate lengths per round).
    cf_candidates: int = 256
    #: OBC/CF: Nmax -- rounds without improvement before giving up.
    cf_max_rounds: int = 10
    #: OBC/CF: hard cap on the exactly-analysed point set.  Newton
    #: interpolation over more than ~2 dozen nodes is numerically useless
    #: and each round costs one full analysis, so the refinement stops
    #: here even while the cost still creeps down.
    cf_max_points: int = 24
    #: OBC: extra static slots explored beyond the per-sender minimum.
    max_extra_static_slots: int = 3
    #: OBC: slot-size increments of 2 MT explored beyond the minimum.
    max_slot_size_steps: int = 6
    #: Stop as soon as a schedulable configuration is found (Fig. 6 line 7).
    stop_when_schedulable: bool = True
    #: Result-cache bound (LRU).  Long SA/GA runs over large design
    #: spaces would otherwise hold every AnalysisResult ever produced;
    #: ``None`` keeps the cache unbounded, ``0`` disables retention
    #: entirely (every analyse call is exact).
    max_cache_entries: Optional[int] = 4096
    #: Opt-in parallel candidate evaluation: number of worker processes
    #: used by :meth:`Evaluator.analyse_many` (GA generations, SA
    #: restarts, the BBC/OBC-EE sweeps, the OBC/CF seed sets).
    #: ``None``/``1`` evaluates serially; results and traces are
    #: identical either way (the batch order is fixed before fan-out and
    #: the pool preserves it).
    parallel_workers: Optional[int] = None

    def __post_init__(self):
        # The bus tables divide by the bus speed unchecked: reject what they
        # cannot take once, here.
        if self.bits_per_mt < 1:
            raise ConfigurationError("bits_per_mt must be >= 1")
        if self.frame_overhead_bytes < 0:
            raise ConfigurationError("frame_overhead_bytes must be >= 0")
        # The DYN bounds divide by the minislot length.
        value = self.gd_minislot
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigurationError(f"gd_minislot={value!r} must be an int >= 1")


@dataclass(frozen=True)
class EvaluatorStats:
    """A point-in-time snapshot of one evaluator's accounting.

    Taken by :meth:`Evaluator.stats`; two snapshots subtract into the
    work one request cost (:meth:`since`), which is how the service
    layer (:mod:`repro.service`) reports per-request exact-analysis and
    cache-hit counts for a pooled evaluator that many requests share.
    """

    evaluations: int
    cache_hits: int
    cache_entries: int

    def since(self, earlier: "EvaluatorStats") -> "EvaluatorStats":
        """The accounting delta from *earlier* to this snapshot."""
        return EvaluatorStats(
            evaluations=self.evaluations - earlier.evaluations,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_entries=self.cache_entries,
        )


#: Cache slot of a result :meth:`Evaluator.analyse_many` has yet to compute.
_PENDING = object()

#: Per-process warm context of the parallel evaluation pool workers.
_POOL_CONTEXT: List[AnalysisContext] = []


def _pool_initializer(system: System, analysis: AnalysisOptions) -> None:
    _POOL_CONTEXT.clear()
    _POOL_CONTEXT.append(AnalysisContext(system, analysis))


def _pool_analyse(config: FlexRayConfig) -> AnalysisResult:
    return _POOL_CONTEXT[0].analyse(config)


def _pool_analyse_sweep(sweep) -> list:
    return _POOL_CONTEXT[0].analyse_sweep(sweep)


class Evaluator:
    """Counts exact analyses and accumulates the search trace.

    Owns the warm :class:`~repro.analysis.context.AnalysisContext` of the
    run (the incremental analysis engine), an LRU-bounded result cache
    with separate hit accounting, and the opt-in parallel evaluation
    pool.  ``evaluations`` counts exact analyses only -- cache hits are
    reported in ``cache_hits`` -- so the paper's evaluation-count
    comparisons stay exact whether or not candidates are batched.

    The cache holds a full :class:`AnalysisResult` per configuration
    analysed through :meth:`analyse` or :meth:`analyse_many`, and a
    compact :class:`~repro.analysis.holistic.SweepRow` (no response
    times, no schedule) per length of a sweep (:meth:`analyse_sweep`)
    except the sweep's best.  A row becomes a full result only when
    something reads it -- a cache hit, or :meth:`result_of` -- by
    re-analysing its configuration through the context; that
    re-analysis is not an evaluation.

    Determinism guarantees (all pinned by tests):

    * :meth:`analyse`, :meth:`analyse_many` and :meth:`analyse_sweep`
      produce results bit-identical to a fresh ``analyse_system`` call
      per configuration;
    * :meth:`analyse_many` and :meth:`analyse_sweep` preserve order,
      evaluation counts and trace order whether they run serially or
      on the pool (``options.parallel_workers``), so fixed-seed
      optimiser runs are byte-identical either way;
    * a broken pool degrades to the serial path with identical results.

    The evaluator is a context manager: ``with Evaluator(...) as ev:``
    guarantees :meth:`close` runs (releasing the process pool) on every
    exit path.  The search runtime
    (:class:`~repro.core.runtime.SearchDriver`) and the campaign layer
    always use it that way; call :meth:`close` yourself only when
    holding an evaluator open across several runs.
    """

    def __init__(self, system: System, options: BusOptimisationOptions):
        self.system = system
        self.options = options
        self.evaluations = 0
        self.cache_hits = 0
        self.trace: List[SearchPoint] = []
        self.context = AnalysisContext(system, options.analysis)
        self._cache: OrderedDict = OrderedDict()
        self._executor = None
        self._parallel_broken = False

    def analyse(self, config: FlexRayConfig) -> AnalysisResult:
        """Full scheduling + holistic analysis of one configuration."""
        return self.analyse_many((config,))[0]

    def analyse_many(
        self, configs: Iterable[FlexRayConfig]
    ) -> List[AnalysisResult]:
        """Analyse a batch of configurations, preserving order.

        Semantically identical to calling :meth:`analyse` per
        configuration in sequence -- same results, same evaluation
        count, same trace order, same cache-hit accounting, whatever
        ``options.max_cache_entries`` -- but each distinct uncached
        configuration is computed once, on the parallel pool when
        ``options.parallel_workers`` asks for one.
        """
        configs = list(configs)
        keys = [config.cache_key() for config in configs]
        results, misses, pending = self._replay_accounting(
            keys, configs, configs.__getitem__
        )
        if not pending:
            return results
        computed = self._compute(pending, lambda: self._map(list(pending.values())))
        for key, result in computed.items():
            if key in self._cache:
                self._cache[key] = result
        for i in misses:
            config = configs[i]
            self._note(config, config.n_minislots, computed[keys[i]])
        return [
            computed[key] if result is None or result is _PENDING else result
            for key, result in zip(keys, results)
        ]

    def analyse_sweep(self, sweep) -> list:
        """Analyse a :class:`~repro.core.runtime.CandidateSweep`: one
        template at each of its DYN lengths, preserving order.

        Semantically :meth:`analyse_many` over
        ``template.with_dyn_length(n)`` per length -- same evaluation
        count, cache-hit accounting and trace -- without building those
        configurations: the context analyses the uncached lengths as
        one sweep (in chunks on the parallel pool when one is
        configured) and returns compact rows.  Per length the returned
        list holds the sweep's best (its first lowest ``cost_value``)
        and every cache hit as a full :class:`AnalysisResult`, and every
        other length as a :class:`~repro.analysis.holistic.SweepRow`
        carrying its response times; :meth:`result_of` turns such a row
        into its full result.  The cache keeps the best as a full
        result and every other length as a compact row.
        """
        template = sweep.template
        lengths = sweep.lengths
        keys = template.cache_keys(lengths)
        results, misses, pending = self._replay_accounting(
            keys, lengths, lambda i: template.with_dyn_length(lengths[i])
        )
        if pending:
            computed = self._compute(
                pending,
                lambda: self._map_sweep(
                    replace(sweep, lengths=tuple(pending.values()), estimates=())
                ),
            )
            for i in misses:
                self._note(template, lengths[i], computed[keys[i]])
            results = [
                computed[key] if result is None or result is _PENDING else result
                for key, result in zip(keys, results)
            ]
        # The best is a full result: a hit is one, and so is the first
        # lowest-cost length of every sweep (or pool chunk) computed.
        best = None
        for entry in results:
            if better(entry, best):
                best = entry
        if pending:
            for key, entry in computed.items():
                if key in self._cache:
                    self._cache[key] = (
                        entry if entry is best
                        else entry.compact() if isinstance(entry, SweepRow)
                        else SweepRow.of(entry)
                    )
        return results

    def result_of(self, entry):
        """The full :class:`AnalysisResult` of an :meth:`analyse_sweep`
        entry (``None`` and full results pass through unchanged).

        A row is re-analysed through the context -- not an evaluation,
        not a cache hit -- and its cache slot, if it still has one,
        upgraded to the result in place.
        """
        if entry is None or isinstance(entry, AnalysisResult):
            return entry
        config = entry.template.with_dyn_length(entry.n_minislots)
        key = config.cache_key()
        cached = self._cache.get(key)
        if isinstance(cached, AnalysisResult):
            return cached
        result = self.context.analyse(config)
        if isinstance(cached, SweepRow):
            self._cache[key] = result
        return result

    def stats(self) -> EvaluatorStats:
        """Snapshot the evaluator's accounting (see :class:`EvaluatorStats`)."""
        return EvaluatorStats(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            cache_entries=len(self._cache),
        )

    def close(self) -> None:
        """Shut down the parallel evaluation pool, if one was started."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _hit(self, key: tuple, cached, config: FlexRayConfig):
        """Account a cache hit on *key*; a compact row is materialised
        (re-analysed through the context, uncounted) in place."""
        self.cache_hits += 1
        self._cache.move_to_end(key)
        if isinstance(cached, SweepRow):
            cached = self._cache[key] = self.context.analyse(config)
        return cached

    def _replay_accounting(self, keys, items, config_at):
        """Replay the serial order's cache accounting over *keys*.

        A repeat is a hit exactly when the serial order would still find
        it cached; every result still to compute holds a placeholder
        slot.  ``items[i]`` is what computing key *i* takes (its
        configuration or DYN length), and ``config_at(i)`` builds its
        configuration (a hit on a compact row needs it).  Returns
        ``(results, misses, pending)``: the hits (``None`` or the
        placeholder elsewhere), the miss indices, and the distinct keys
        to compute mapped to their first item.
        """
        results: list = []
        misses: List[int] = []
        pending: OrderedDict = OrderedDict()
        for i, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is None:
                misses.append(i)
                pending.setdefault(key, items[i])
                self._remember(key, _PENDING)
            elif cached is _PENDING:
                self.cache_hits += 1
                self._cache.move_to_end(key)
            else:
                cached = self._hit(key, cached, config_at(i))
            results.append(cached)
        return results, misses, pending

    def _compute(self, pending: OrderedDict, run) -> dict:
        """``run()``'s outputs by pending key; a failure drops the
        placeholders it left in the cache."""
        try:
            return dict(zip(pending, run()))
        except BaseException:
            for key in pending:
                if self._cache.get(key) is _PENDING:
                    del self._cache[key]
            raise

    def _remember(self, key: tuple, result) -> None:
        self._cache[key] = result
        bound = self.options.max_cache_entries
        if bound is not None:
            limit = max(bound, 0)
            while len(self._cache) > limit:
                self._cache.popitem(last=False)

    def _note(self, config: FlexRayConfig, n_minislots: int, result) -> None:
        """Record one evaluation: the exact *result* (a full result or a
        sweep row) at *config*'s static segment and *n_minislots*."""
        self.evaluations += 1
        self.trace.append(
            SearchPoint(
                n_static_slots=config.n_static_slots,
                gd_static_slot=config.gd_static_slot,
                n_minislots=n_minislots,
                cost=result.cost_value,
                schedulable=result.schedulable,
                exact=True,
            )
        )

    def _map(self, configs: List[FlexRayConfig]) -> List[AnalysisResult]:
        """Evaluate distinct configurations, parallel when requested."""
        chunks = self._pool_map(_pool_analyse, configs, len(configs))
        if chunks is not None:
            return chunks
        return [self.context.analyse(c) for c in configs]

    def _map_sweep(self, sweep) -> list:
        """Evaluate a sweep of distinct lengths, in chunks on the pool
        when requested; a chunk's best comes back as a full result."""
        lengths = sweep.lengths
        workers = self.options.parallel_workers or 0
        if workers > 1 and len(lengths) > 1 and not self._parallel_broken:
            size = max(1, len(lengths) // (workers * 4))
            parts = self._pool_map(
                _pool_analyse_sweep,
                [
                    replace(sweep, lengths=lengths[i:i + size])
                    for i in range(0, len(lengths), size)
                ],
                len(lengths),
            )
            if parts is not None:
                return [entry for part in parts for entry in part]
        return self.context.analyse_sweep(sweep)

    def _pool_map(self, fn, jobs: list, candidates: int) -> Optional[list]:
        """``fn`` over *jobs* on the pool, or ``None`` for the serial
        path (no pool asked for, one job, or the pool failed)."""
        workers = self.options.parallel_workers or 0
        if workers <= 1 or len(jobs) <= 1 or self._parallel_broken:
            return None
        pool = self._ensure_pool(workers)
        if pool is None:
            return None
        try:
            chunksize = max(1, len(jobs) // (workers * 4))
            return list(pool.map(fn, jobs, chunksize=chunksize))
        except Exception as exc:
            # Broken pool / unpicklable payload: degrade to the serial
            # path (identical results) for the whole run.
            logger.warning(
                "parallel evaluation pool failed mid-batch "
                "(%s: %s); re-running this batch of %d "
                "candidate(s) serially and disabling the pool "
                "for the rest of the run -- results are "
                "identical, only slower. A worker process may "
                "have died (OOM-killed?) or the payload may "
                "not be picklable; rerun without --workers to "
                "avoid the pool entirely.",
                type(exc).__name__,
                exc,
                candidates,
            )
            self._parallel_broken = True
            self.close()
            return None

    def _ensure_pool(self, workers: int):
        if self._executor is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_pool_initializer,
                    initargs=(self.system, self.options.analysis),
                )
            except Exception as exc:
                logger.warning(
                    "could not start the parallel evaluation pool "
                    "(%s: %s); evaluating serially instead -- results "
                    "are identical, only slower.",
                    type(exc).__name__,
                    exc,
                )
                self._parallel_broken = True
                return None
        return self._executor

    def note_estimates(
        self, config: FlexRayConfig, estimates: Iterable[Tuple[int, float]]
    ) -> None:
        """Record interpolated (non-exact) ``(n_minislots, cost)`` points
        in the trace, in order, at *config*'s static segment (a sweep's
        estimates are against its template)."""
        n_static_slots = config.n_static_slots
        gd_static_slot = config.gd_static_slot
        self.trace += [
            SearchPoint(n_static_slots, gd_static_slot, n, cost, cost <= 0, False)
            for n, cost in estimates
        ]


def better(a: Optional[AnalysisResult], b: Optional[AnalysisResult]) -> bool:
    """True when *a* is a strictly better outcome than *b*."""
    if a is None:
        return False
    if b is None:
        return True
    return a.cost_value < b.cost_value


def bus_table(system: System, options: BusOptimisationOptions) -> BusTable:
    """*system*'s bus table under the optimiser's bus settings."""
    return system.bus_table(
        options.bits_per_mt, options.frame_overhead_bytes, options.gd_minislot
    )


def min_static_slot(system: System, options: BusOptimisationOptions) -> int:
    """Smallest legal static slot: fits the largest ST frame (Fig. 5 line 3)."""
    largest = bus_table(system, options).max_st_ct or 1
    return min(largest, params.MAX_STATIC_SLOT_MT)


def dyn_segment_bounds(
    system: System, st_bus: int, options: BusOptimisationOptions
) -> Tuple[int, int]:
    """[DYNbus_min, DYNbus_max] in minislots (Fig. 5 line 5).

    The segment must fit the largest DYN frame, must offer one slot per
    DYN message (unique FrameIDs), and the whole cycle must respect the
    protocol's 16 ms limit.  Returns (0, 0) when the application has no
    DYN messages and (1, 0) -- an empty range -- when no legal length
    exists.
    """
    table = bus_table(system, options)
    if not table.dyn:
        return (0, 0)
    largest = max(table.dyn_largest.values())
    # With unique FrameIDs the highest slot is len(table.dyn); for the
    # largest frame to be transmittable even from that slot, the segment
    # needs the slot-counter offset *plus* the frame length (pLatestTx).
    lo = largest + len(table.dyn) - 1
    hi = min(
        params.MAX_MINISLOTS,
        (params.MAX_CYCLE_MT - st_bus) // options.gd_minislot,
    )
    return (lo, hi)


def sweep_lengths(lo: int, hi: int, max_points: int) -> List[int]:
    """At most *max_points* DYN lengths covering [lo, hi], ends included."""
    if hi < lo:
        return []
    if max_points < 1:
        raise OptimisationError("max_points must be >= 1")
    span = hi - lo
    if span + 1 <= max_points:
        return list(range(lo, hi + 1))
    if max_points == 1:
        return [lo]
    out = sorted({lo + round(i * span / (max_points - 1)) for i in range(max_points)})
    return out


def quota_slot_assignment(
    system: System, n_slots: int, options: BusOptimisationOptions = None
) -> Tuple[str, ...]:
    """Static slot owners for *n_slots* slots, round-robin with quotas.

    Every ST-sending node gets at least one slot; surplus slots are
    distributed proportionally to the number of ST messages each node
    transmits (Section 6.2: "a node that sends more ST messages will be
    allocated more ST slots"), then interleaved round-robin.
    """
    nodes = system.st_sender_nodes()
    if not nodes:
        return ()
    if n_slots < len(nodes):
        raise OptimisationError(
            f"{n_slots} static slots cannot cover {len(nodes)} ST-sending nodes"
        )
    counts = dict.fromkeys(nodes, 0)
    for _, node in bus_table(system, options or BusOptimisationOptions()).st:
        counts[node] += 1
    total = sum(counts.values())
    quotas = {node: 1 for node in nodes}
    surplus = n_slots - len(nodes)
    if surplus and total:
        shares = [
            (counts[node] * surplus / total, node) for node in nodes
        ]
        given = 0
        for share, node in shares:
            extra = int(share)
            quotas[node] += extra
            given += extra
        # distribute the rounding remainder by largest fractional share
        remainder = sorted(
            ((share - int(share), node) for share, node in shares), reverse=True
        )
        for _, node in remainder[: surplus - given]:
            quotas[node] += 1
    order: List[str] = []
    remaining = dict(quotas)
    while len(order) < n_slots:
        for node in nodes:
            if remaining[node] > 0:
                order.append(node)
                remaining[node] -= 1
    return tuple(order)
