"""Node availability function.

FPS tasks execute only in the *slack* of the static schedule (Section 2
of the paper).  The static schedule of a node defines a periodic pattern
of busy intervals over the hyper-period; this module answers "starting at
time t0, when has the node delivered x macroticks of slack?" -- the
primitive the FPS response-time analysis is built on.

Beyond the point queries, each :class:`NodeAvailability` lazily builds
two per-pattern index structures for the busy-window maximisation of
:func:`repro.analysis.fps.seeded_busy_window`: the prefix-sum
:class:`InstantTables` that turn ``advance`` into a ``divmod`` plus a
bisect, and the pattern-level :class:`DominanceTables` that elide
critical instants whose delivered-slack function another instant
dominates pointwise (``docs/ANALYSIS.md`` proves the elision exact).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: Work budget of the dominance construction, as a multiple of the
#: pattern size ``n_instants + n_boundaries``.  Each staircase
#: comparison step costs one unit; once the budget is exhausted the
#: remaining instants are kept as maximal unconditionally (keeping an
#: instant is always safe -- only *eliding* one needs a proof), so the
#: construction is certifiably near-linear in the pattern size while the
#: pruning stays exact.  In practice the sweep never comes close: the
#: budget exists to bound adversarial patterns, not measured ones.
DOMINANCE_BUDGET_FACTOR = 64

#: Number of dominance-enabled maximisations a pattern must serve before
#: the dominance tables are built.  Construction is a per-pattern cost
#: that only pays off when many maximisations reuse it: an ST-heavy
#: sweep gives every configuration a fresh schedule -- and hence fresh
#: availability patterns that each serve only one fix point -- so even
#: building "lazily on first use" costs more than the elision saves
#: there (measured ~0.8x vs. the PR 3 path on the bench sweep).  A
#: pure-DYN sweep reuses one pattern across the whole sweep, sails past
#: the threshold during its first configurations and amortises the
#: construction to nothing.  Until the threshold is crossed the kernel
#: simply runs with the per-instant bound alone -- results are identical
#: either way, so the threshold is a pure cost knob, never a semantic
#: one.  :meth:`NodeAvailability.dominance_tables` bypasses it (a direct
#: request is an explicit demand for the tables).
DOMINANCE_LAZY_THRESHOLD = 64


class DominanceTables(NamedTuple):
    """Pattern-level dominance preorder over critical instants.

    Instant *t* is *dominated* by instant *u* when t's delivered-slack
    function is pointwise at least u's (``available_in(t, t+w) >=
    available_in(u, u+w)`` for every window ``w``): every demand is then
    served from *t* no later than from *u*, so t's busy-window fixed
    point can never exceed u's and t can be elided from the FPS
    maximisation (see ``docs/ANALYSIS.md``, "Pattern-level dominance").
    A property of the availability pattern alone -- built lazily once
    per :class:`NodeAvailability` and amortised across every busy-window
    maximisation that reuses the schedule.
    """

    #: Maximal (non-dominated) instant indices, in the availability's
    #: evaluation order (longest initial busy run first) -- the set the
    #: pruned maximisation iterates.
    maximal_order: Tuple[int, ...]
    #: Dominated instant indices, same order -- evaluated only in the
    #: rare near-cap regime where the activation-count guard of
    #: :func:`repro.analysis.fps.seeded_busy_window` cannot certify
    #: their convergence flag.
    dominated_order: Tuple[int, ...]
    #: Per instant index: the index of a dominating instant, or ``-1``
    #: for maximal instants.  The witness is what makes elision
    #: auditable -- tests check the pointwise inequality against it.
    witness: Tuple[int, ...]


class InstantTables(NamedTuple):
    """Raw per-instant tables of the inlined busy-window kernel.

    Everything :func:`repro.analysis.fps.seeded_busy_window` needs to
    compute ``advance(instant, demand)`` without a method call.
    Empty-pattern nodes (no busy intervals) have ``slack_before``,
    ``gap_ends`` and ``slack_through`` set to ``None``.  ``dominance``
    is ``None`` until the lazily-built dominance tables are requested
    through :meth:`NodeAvailability.instant_advance_tables`.
    """

    #: Candidate busy-window origins: time 0 plus every busy start.
    instants: List[int]
    #: Pattern slack before each instant (``None`` for idle nodes).
    slack_before: Optional[List[int]]
    #: Available macroticks per period.
    slack_per_period: int
    #: Length of the repeating pattern.
    period: int
    #: End of gap k (``None`` for idle nodes).
    gap_ends: Optional[List[int]]
    #: Pattern slack through gap k, inclusive (``None`` for idle nodes).
    slack_through: Optional[List[int]]
    #: Instant indices, longest initial busy run first -- the order that
    #: makes the kernel's incremental per-instant bound prune best.
    eval_order: Tuple[int, ...]
    #: Lazily-built :class:`DominanceTables`, or ``None``.
    dominance: Optional[DominanceTables]


def merge_intervals(intervals: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping (start, end) intervals; drops empty ones."""
    cleaned = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Tuple[int, int]] = []
    for s, e in cleaned:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def wrap_busy_intervals(intervals, period):
    """Fold absolute busy intervals into the periodic pattern [0, period).

    The static scheduler may place jobs beyond the hyper-period when a
    candidate configuration is overloaded (the spill is exactly what the
    cost function later reports as deadline misses); for the FPS
    availability pattern the spill occupies the start of the next period,
    so each interval is wrapped modulo *period* and split at boundaries.
    An interval spanning a whole period makes the node permanently busy.
    """
    wrapped = []
    for s, e in intervals:
        if e - s >= period:
            return [(0, period)]
        s_mod = s % period
        length = e - s
        if s_mod + length <= period:
            wrapped.append((s_mod, s_mod + length))
        else:
            wrapped.append((s_mod, period))
            wrapped.append((0, s_mod + length - period))
    return merge_intervals(wrapped)


class NodeAvailability:
    """Periodic availability pattern of one node.

    Parameters
    ----------
    busy:
        Busy (SCS-occupied) intervals within one period ``[0, period)``.
        Intervals crossing the period boundary must be split by the
        caller (the schedule table never produces crossing intervals
        because SCS jobs complete within the horizon).
    period:
        Length of the repeating pattern (the application hyper-period).
    """

    def __init__(self, busy: Sequence[Tuple[int, int]], period: int):
        if period <= 0:
            raise AnalysisError(f"availability period must be positive, got {period}")
        merged = merge_intervals(busy)
        for s, e in merged:
            if s < 0 or e > period:
                raise AnalysisError(
                    f"busy interval ({s}, {e}) escapes the period [0, {period})"
                )
        self.period = period
        self.busy = merged
        # Precomputed once, in one pass over the merged pattern: the
        # response-time fix points call ``advance`` millions of times per
        # optimiser run and none of this changes after construction.
        # ``_gap_ends[k]`` is the end of gap k and ``_slack_through[k]``
        # the pattern slack up to and including gap k, so ``advance`` can
        # bisect instead of walking the gap list.  The critical instants
        # are time 0 and every busy start; ``_instant_slack_before`` holds
        # the pattern slack before each (merged intervals never touch, so
        # every busy start but a leading one at 0 closes a gap), and
        # ``blocks`` the busy run starting at each.
        gaps: List[Tuple[int, int]] = []
        through: List[int] = []
        before = [0]
        blocks = [merged[0][1] if merged and merged[0][0] == 0 else 0]
        acc = 0
        prev = 0
        for s, e in merged:
            if s > prev:
                gaps.append((prev, s))
                acc += s - prev
                through.append(acc)
            before.append(acc)
            blocks.append(e - s)
            prev = e
        if prev < period:
            gaps.append((prev, period))
            acc += period - prev
            through.append(acc)
        self._busy_per_period = period - acc
        self._gap_list = gaps
        self._critical_instants = [0] + [s for s, _ in merged]
        self._gap_starts_arr = [s for s, _ in gaps]
        self._gap_ends = [e for _, e in gaps]
        self._slack_through = through
        self._instant_slack_before = before
        #: Evaluation order for the busy-window maximisation: instants
        #: sorted by descending initial busy-run length (ties by index:
        #: the sort is stable).  Instants with long initial blocking
        #: tend to produce the largest busy windows, so visiting them
        #: first makes the incremental per-instant bound of
        #: :func:`repro.analysis.fps.seeded_busy_window` prune the rest
        #: early.  The maximisation result is order-independent.
        longest_first = [-b for b in blocks]
        self._instant_eval_order = tuple(
            sorted(range(len(blocks)), key=longest_first.__getitem__)
        )
        #: Dominance-enabled maximisations served so far; the dominance
        #: tables are built once this crosses the amortisation threshold
        #: (see :data:`DOMINANCE_LAZY_THRESHOLD`).
        self._dominance_requests = 0
        if not merged:
            self._tables = InstantTables(
                self._critical_instants, None, period, period, None, None,
                self._instant_eval_order, None,
            )
        else:
            self._tables = InstantTables(
                self._critical_instants,
                self._instant_slack_before,
                period - self._busy_per_period,
                period,
                self._gap_ends,
                self._slack_through,
                self._instant_eval_order,
                None,
            )

    def _slack_before(self, x: int) -> int:
        """Pattern slack in ``[0, x)`` for ``0 <= x <= period``."""
        i = bisect_right(self._gap_starts_arr, x) - 1
        if i < 0:
            return 0
        end = self._gap_ends[i]
        return self._slack_through[i] - (end - min(end, x))

    def instant_advance_tables(self, dominance: bool = False) -> InstantTables:
        """Tables for the inlined busy-window kernel, as :class:`InstantTables`.

        With ``dominance=True`` the pattern-level
        :class:`DominanceTables` are built -- once the pattern has
        served :data:`DOMINANCE_LAZY_THRESHOLD` dominance-enabled
        maximisations -- and cached (the ``dominance`` field stays
        ``None`` until then).  The two-stage laziness is deliberate:
        availability patterns are also constructed on paths that run
        only a handful of maximisations per pattern (the FPS-aware
        placement heuristic, ST-heavy sweeps where every configuration
        gets a fresh schedule), and those must not pay a construction
        they cannot amortise.  See
        :func:`repro.analysis.fps.seeded_busy_window` for the consumer.
        """
        if dominance and self._tables.dominance is None:
            self._dominance_requests += 1
            if self._dominance_requests > DOMINANCE_LAZY_THRESHOLD:
                self._tables = self._tables._replace(
                    dominance=self._build_dominance_tables()
                )
        return self._tables

    def dominance_tables(self) -> DominanceTables:
        """The pattern-level dominance preorder over critical instants.

        Built lazily on first call and cached on the availability, so
        every busy-window maximisation against this pattern shares one
        construction.  ``maximal_order + dominated_order`` is a
        permutation of all instant indices and every dominated instant
        carries a dominating ``witness`` -- the elision-safety argument
        is in ``docs/ANALYSIS.md``.

        Unlike the kernel's :meth:`instant_advance_tables` path, a
        direct call builds immediately (no amortisation threshold).

        >>> av = NodeAvailability([(0, 4), (6, 7)], period=10)
        >>> dom = av.dominance_tables()
        >>> [av.critical_instants()[i] for i in dom.maximal_order]
        [0]
        >>> sorted(dom.maximal_order + dom.dominated_order)
        [0, 1, 2]
        """
        if self._tables.dominance is None:
            self._tables = self._tables._replace(
                dominance=self._build_dominance_tables()
            )
        return self._tables.dominance

    def _build_dominance_tables(self) -> DominanceTables:
        """Construct the dominance preorder in near-linear time.

        Every instant's delivered-slack function is a shift of the one
        periodic cumulative-slack staircase ``F`` (prefix sums
        ``_gap_ends``/``_slack_through``):

            S_t(w) = F_ext(t + w) - F_ext(t)

        so "t dominated by u" (``S_t >= S_u`` pointwise) reduces to the
        difference staircase ``w -> F_ext(t+w) - F_ext(u+w)`` attaining
        its minimum at ``w = 0``.  The difference is piecewise linear
        with breakpoints only where ``t+w`` or ``u+w`` crosses a busy
        boundary, and periodic in ``w`` with period ``period`` -- so one
        monotone two-pointer merge of the two instants' precomputed
        relative-boundary lists decides a pair in O(gaps) staircase
        evaluations instead of a pointwise function comparison.

        The sweep visits instants by descending *effective* initial
        busy-run length (wrap-aware): a dominator's initial block is
        necessarily at least as long as the dominated instant's, so
        candidate dominators always precede their targets and only
        current maximal instants are ever tested.  Total work is
        bounded by :data:`DOMINANCE_BUDGET_FACTOR` times the pattern
        size; on budget exhaustion the remaining instants are kept
        (pruning degrades, correctness cannot).
        """
        instants = self._critical_instants
        n = len(instants)
        witness = [-1] * n
        eval_order = self._instant_eval_order
        if n <= 1 or not self.busy:
            return DominanceTables(eval_order, (), tuple(witness))
        period = self.period
        slack = period - self._busy_per_period

        # Effective (wrap-aware) initial busy-run length per instant:
        # a run ending at the period boundary continues into the next
        # period's leading busy interval.  Dominance requires the
        # dominator's run to be at least as long, which is what makes
        # the descending sweep below sound.
        end_of_run = dict(self.busy)
        lead = self.busy[0]

        def _effective_block(t: int) -> int:
            end = end_of_run.get(t)
            if end is None:
                return 0
            length = end - t
            if end == period and lead[0] == 0:
                length += lead[1]
            return length

        blocks = [_effective_block(t) for t in instants]
        order = sorted(range(n), key=lambda i: (-blocks[i], i))

        # Staircase breakpoints (busy boundaries folded into [0, period))
        # and, per instant, the same boundaries as offsets relative to
        # the instant -- two sorted runs, concatenated in order.  Between
        # consecutive breakpoints the staircase is linear (slope 0 on a
        # busy segment, 1 on a gap), so each instant also carries the
        # staircase value ``F_ext(t + offset)`` at its breakpoints and
        # the slope after each: any ``F_ext(t + w)`` is then one
        # multiply-add from the last breakpoint at or before ``w``.
        bounds = sorted({b for s, e in self.busy for b in (s, e % period)})
        starts = {s for s, _ in self.busy}
        slack_before = self._slack_before
        at_bound = [slack_before(b) for b in bounds]
        slope = [0 if b in starts else 1 for b in bounds]
        rel: List[List[int]] = []
        rel_value: List[List[int]] = []
        rel_slope: List[List[int]] = []
        lead_slope: List[int] = []
        for t in instants:
            k = bisect_left(bounds, t)
            rel.append(
                [b - t for b in bounds[k:]]
                + [b - t + period for b in bounds[:k]]
            )
            rel_value.append(at_bound[k:] + [f + slack for f in at_bound[:k]])
            rel_slope.append(slope[k:] + slope[:k])
            # Slope of the segment holding t itself (the one opened by
            # the last breakpoint before t, wrapping to the last one).
            lead_slope.append(slope[k - 1])

        before = self._instant_slack_before
        budget = DOMINANCE_BUDGET_FACTOR * (n + len(bounds) + 1)

        def _dominated_by(t_idx: int, u_idx: int) -> bool:
            """True when instant u's staircase pointwise dominates t's."""
            nonlocal budget
            t0 = before[t_idx]
            u0 = before[u_idx]
            base = t0 - u0
            a = rel[t_idx]
            b = rel[u_idx]
            a_val = rel_value[t_idx]
            b_val = rel_value[u_idx]
            a_slope = rel_slope[t_idx]
            b_slope = rel_slope[u_idx]
            a_lead = lead_slope[t_idx]
            b_lead = lead_slope[u_idx]
            ia = ib = 0
            la = len(a)
            lb = len(b)
            while ia < la or ib < lb:
                if ib >= lb or (ia < la and a[ia] <= b[ib]):
                    w = a[ia]
                    ia += 1
                    if ib < lb and b[ib] == w:
                        ib += 1
                else:
                    w = b[ib]
                    ib += 1
                budget -= 1
                # a[ia - 1] / b[ib - 1] are the last breakpoints <= w.
                if ia:
                    k = ia - 1
                    d_t = a_val[k] + a_slope[k] * (w - a[k])
                else:
                    d_t = t0 + a_lead * w
                if ib:
                    k = ib - 1
                    d_u = b_val[k] + b_slope[k] * (w - b[k])
                else:
                    d_u = u0 + b_lead * w
                if d_t - d_u < base:
                    return False
            return True

        maximal = [order[0]]
        for i in order[1:]:
            if budget > 0:
                for u in maximal:
                    if _dominated_by(i, u):
                        witness[i] = u
                        break
                    if budget <= 0:
                        break
            if witness[i] < 0:
                maximal.append(i)
        maximal_set = set(maximal)
        return DominanceTables(
            tuple(i for i in eval_order if i in maximal_set),
            tuple(i for i in eval_order if i not in maximal_set),
            tuple(witness),
        )

    @property
    def slack_per_period(self) -> int:
        """Available macroticks in one period."""
        return self.period - self._busy_per_period

    def is_busy(self, t: int) -> bool:
        """True when the node is running an SCS task at absolute time *t*."""
        tp = t % self.period
        return any(s <= tp < e for s, e in self.busy)

    def available_in(self, t0: int, t1: int) -> int:
        """Slack macroticks inside the absolute window [t0, t1)."""
        if t1 <= t0:
            return 0
        return (t1 - t0) - self._busy_in(t0, t1)

    def _busy_in(self, t0: int, t1: int) -> int:
        full_periods, x0 = divmod(t0, self.period)
        total = 0
        # advance t0 to the next period boundary
        first_end = (full_periods + 1) * self.period
        if t1 <= first_end:
            return self._busy_in_pattern(x0, t1 - full_periods * self.period)
        total += self._busy_in_pattern(x0, self.period)
        t = first_end
        whole = (t1 - t) // self.period
        total += whole * self._busy_per_period
        t += whole * self.period
        total += self._busy_in_pattern(0, t1 - t)
        return total

    def _busy_in_pattern(self, a: int, b: int) -> int:
        """Busy time within [a, b) where 0 <= a <= b <= period."""
        total = 0
        for s, e in self.busy:
            lo = max(s, a)
            hi = min(e, b)
            if hi > lo:
                total += hi - lo
        return total

    def advance(self, t0: int, demand: int) -> Optional[int]:
        """Earliest absolute time t >= t0 with ``available_in(t0, t) == demand``.

        Returns ``None`` when the pattern has no slack at all (demand can
        never be served).
        """
        if demand < 0:
            raise AnalysisError(f"demand must be >= 0, got {demand}")
        if demand == 0:
            return t0
        if not self.busy:
            # Fully idle node: demand is served back to back.
            return t0 + demand
        slack = self.period - self._busy_per_period
        if slack == 0:
            return None
        period = self.period
        full, x = divmod(t0, period)
        # Slack already consumed by the pattern before offset x.
        starts = self._gap_starts_arr
        through = self._slack_through
        i = bisect_right(starts, x) - 1
        if i < 0:
            before_x = 0
        else:
            end = self._gap_ends[i]
            before_x = through[i] - (end - min(end, x))
        # Serve the demand at pattern offset where the cumulative slack
        # since offset 0 reaches ``before_x + demand`` (spilling whole
        # periods first).
        target = before_x + demand
        whole, target = divmod(target - 1, slack)
        target += 1
        k = bisect_left(through, target)
        pos = self._gap_ends[k] - (through[k] - target)
        return (full + whole) * period + pos

    def busy_starts(self) -> List[int]:
        """Pattern-relative start times of busy intervals (critical instants)."""
        return [s for s, _ in self.busy]

    def critical_instants(self) -> List[int]:
        """Candidate busy-window origins: time 0 plus every busy start."""
        return self._critical_instants

    def _gaps(self) -> List[Tuple[int, int]]:
        return self._gap_list
