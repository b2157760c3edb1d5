"""FPS critical-instant pruning: the incremental per-instant bound.

The third-generation kernel skips a critical instant t once a single
table-driven ``advance`` shows ``phi_t(W) <= W`` for the worst window W
found so far (``phi_t`` is the instant's monotone window map), guarded
by an activation-count bound that certifies the skipped instant would
also have converged within the iteration limit.  The claim shipped with
it -- validated here the same way PR 2 pinned its findings -- is
**bit-identical results**: both the worst window *and* the convergence
flag equal the unpruned path's, for arbitrary availability patterns,
interferer sets, jitters, seeds and caps.

Two layers:

* a hypothesis property test over randomised kernels (pruned vs.
  unpruned, seeded and unseeded), plus deterministic edge patterns;
* byte-identical WCRTs across the bench sweep: the full analysis under
  the default (pruned) path against the ``analyse_cold`` oracle,
  which runs every instant cold -- asserted point-by-point over the
  same OBC/EE sweep the benchmarks measure.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import AnalysisContext, NodeAvailability
from repro.analysis.fps import MAX_FIXPOINT_ITERATIONS, resolved_busy_window
from repro.core.bbc import basic_configuration
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.synth import paper_suite

from tests.util import resolve_rows


@st.composite
def _kernel_case(draw):
    period = draw(st.integers(min_value=4, max_value=120))
    n_busy = draw(st.integers(min_value=0, max_value=6))
    busy = []
    for _ in range(n_busy):
        s = draw(st.integers(min_value=0, max_value=period - 2))
        e = draw(st.integers(min_value=s + 1, max_value=period))
        busy.append((s, e))
    n_info = draw(st.integers(min_value=0, max_value=4))
    info = tuple(
        (
            f"j{k}",
            draw(st.integers(min_value=3, max_value=250)),
            draw(st.booleans()),
            draw(st.integers(min_value=1, max_value=8)),
        )
        for k in range(n_info)
    )
    jitters = {
        name: draw(st.integers(min_value=0, max_value=60))
        for name, _, _, _ in info
    }
    wcet = draw(st.integers(min_value=1, max_value=12))
    cap = draw(st.integers(min_value=40, max_value=6000))
    own = draw(st.integers(min_value=0, max_value=40))
    return busy, period, info, jitters, wcet, cap, own


def _advance_walk(wcet, rows, availability, cap):
    """``(value, converged, lfp)`` of the busy-window maximisation,
    walked cold through ``advance`` at every critical instant in turn;
    ``lfp[i]`` is instant i's least fixed-point demand, ``None`` where
    the walk did not converge there or stopped before it."""
    instants = availability.critical_instants()
    lfp = [None] * len(instants)
    worst, converged = 0, True
    for i, t0 in enumerate(instants):
        demand, ok = wcet, False
        for _ in range(MAX_FIXPOINT_ITERATIONS):
            end = availability.advance(t0, demand)
            if end is None or end - t0 >= cap:
                return cap, False, lfp
            window = end - t0
            new_demand = wcet + sum(
                -(-(window + jit) // p) * c
                for p, jit, c in rows
                if window + jit > 0
            )
            if new_demand == demand:
                ok = True
                lfp[i] = demand
                break
            demand = new_demand
        worst = max(worst, window)
        converged = converged and ok
    return worst, converged, lfp


class TestPruningEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_pruned_equals_unpruned(self, case):
        busy, period, info, jitters, wcet, cap, own = case
        availability = NodeAvailability(busy, period)
        rows = resolve_rows(info, jitters, own)
        unpruned = resolved_busy_window(wcet, rows, availability, cap, None, False)
        pruned = resolved_busy_window(wcet, rows, availability, cap, None, True)
        assert pruned[:2] == unpruned[:2]

    @settings(max_examples=200, deadline=None)
    @given(_kernel_case(), st.randoms(use_true_random=False))
    def test_pruned_equals_unpruned_with_certified_seeds(self, case, rng):
        """Seeds and pruning compose: still bit-identical to cold."""
        busy, period, info, jitters, wcet, cap, own = case
        availability = NodeAvailability(busy, period)
        rows = resolve_rows(info, jitters, own)
        # Converged demands from an unpruned run are certified lower
        # bounds; any value at or below them must reproduce cold.
        cold_value, cold_ok, demands = resolved_busy_window(
            wcet, rows, availability, cap, None, False
        )
        seeds = [None if d is None else rng.randint(0, d) for d in demands]
        value, ok, _ = resolved_busy_window(
            wcet, rows, availability, cap, seeds, True
        )
        assert (value, ok) == (cold_value, cold_ok)

    def test_zero_wcet_and_degenerate_patterns(self):
        """Degenerate corners on the one staircase path: an idle node
        (the one-gap staircase), zero slack (no staircase: the cap
        before any instant) and wcet == 0 (below the model's positive
        wcet, still the same with and without pruning)."""
        cases = [
            ([], 10, 0),            # fully idle node
            ([(0, 10)], 10, 3),     # zero slack
            ([(2, 5)], 10, 0),      # wcet == 0
        ]
        rows = resolve_rows((("j0", 7, False, 2),), {"j0": 5}, 0)
        for busy, period, wcet in cases:
            availability = NodeAvailability(busy, period)
            for prune in (False, True):
                got = resolved_busy_window(
                    wcet, rows, availability, 500, None, prune
                )
                assert got[:2] == resolved_busy_window(
                    wcet, rows, availability, 500, None, False
                )[:2]

    @settings(max_examples=300, deadline=None)
    @given(_kernel_case(), st.booleans(), st.data())
    def test_staircase_equals_the_advance_walk(self, case, prune, data):
        """The kernel's staircase equals a cold walk of
        ``NodeAvailability.advance`` over every critical instant -- on
        idle and fully busy patterns too -- unseeded or from certified
        seeds (at most the instant's least fixed point).  Any other
        seed only ever raises the value."""
        busy, period, info, jitters, wcet, cap, own = case
        availability = NodeAvailability(busy, period)
        rows = resolve_rows(info, jitters, own)
        value, converged, lfp = _advance_walk(wcet, rows, availability, cap)
        certified = [
            None if d is None else data.draw(st.none() | st.integers(0, d))
            for d in lfp
        ]
        got = resolved_busy_window(
            wcet, rows, availability, cap, certified, prune
        )
        assert got[:2] == (value, converged)
        arbitrary = data.draw(
            st.lists(st.none() | st.integers(0, 2 * cap), max_size=len(lfp))
        )
        got = resolved_busy_window(
            wcet, rows, availability, cap, arbitrary, prune
        )
        assert value <= got[0] <= cap

    def test_overshooting_seed_replays_cold(self):
        """A seed above the least fixed point whose first step descends
        replays its instant cold."""
        availability = NodeAvailability([], 100)
        rows = [(50, 0, 1)]
        cold = resolved_busy_window(5, rows, availability, 1000)
        assert cold[:2] == (6, True)
        warm = resolved_busy_window(5, rows, availability, 1000, [40])
        assert warm[:2] == cold[:2]

    def test_activation_guard_keeps_the_convergence_flag(self):
        """Near the iteration limit the bound alone would lose the flag.

        Here the worst instant converges to 436772, but another instant
        whose fixed point is no higher needs more than
        ``MAX_FIXPOINT_ITERATIONS`` steps to reach it.  Skipping that
        instant would report ``converged=True``.  The activation-count guard
        (``N(W) + 2 > MAX_FIXPOINT_ITERATIONS`` here) makes the pruned
        path evaluate it, so both paths report ``False``.
        """
        availability = NodeAvailability([(80, 160), (360, 414)], 722)
        info = (("j0", 217, False, 73), ("j1", 262, False, 124))
        rows = resolve_rows(info, {"j0": 3518, "j1": 1790}, 0)
        expected = (436772, False)
        for prune in (False, True):
            assert resolved_busy_window(
                9, rows, availability, 10**9, None, prune
            )[:2] == expected

    def test_eval_order_is_a_permutation(self):
        av = NodeAvailability([(1, 4), (6, 7), (8, 9)], 12)
        tables = av.instant_advance_tables()
        instants, eval_order = tables[0], tables[6]
        assert sorted(eval_order) == list(range(len(instants)))
        # Longest initial busy run first.
        blocks = []
        for i in eval_order:
            t = instants[i]
            block = next((e - s for s, e in av.busy if s == t), 0)
            blocks.append(block)
        assert blocks == sorted(blocks, reverse=True)


class TestPruningOnBenchSweep:
    def test_byte_identical_wcrt_across_bench_sweep(self):
        """The default (pruned) analysis vs. the unpruned cold oracle,
        point by point over the benchmarks' OBC/EE sweep workload."""
        system = paper_suite(4, count=1, seed=23)[0]
        options = BusOptimisationOptions()
        st_nodes = system.st_sender_nodes()
        slot = min_static_slot(system, options) if st_nodes else 0
        lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
        configs = [
            basic_configuration(system, n, options)
            for n in sweep_lengths(lo, hi, 64)
        ]
        pruned_ctx = AnalysisContext(system)
        oracle_ctx = AnalysisContext(system)
        for config in configs:
            pruned = pruned_ctx.analyse(config)
            oracle = oracle_ctx.analyse_cold(config)
            assert pruned.wcrt == oracle.wcrt, config.describe()
            assert pruned.converged == oracle.converged
            assert pruned.schedulable == oracle.schedulable
            assert pruned.feasible == oracle.feasible
