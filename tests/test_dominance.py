"""Pattern-level dominance: construction soundness and kernel bit-identity.

The engine's newest cache layer elides FPS critical instants whose
delivered-slack function is pointwise dominated by another instant's --
a property of the
:class:`~repro.analysis.availability.NodeAvailability` pattern alone,
built lazily in near-linear time and cached on the availability (see
``docs/ANALYSIS.md``, "Pattern-level dominance").  Like the per-instant
bound before it (``tests/test_fps_pruning.py``), the claim shipped with
it is **bit-identical results**, validated in three layers:

* semantic soundness of the construction itself: every dominated
  instant's witness satisfies the pointwise delivered-slack inequality,
  checked exhaustively against ``available_in`` over two periods;
* hypothesis property tests: the dominance-elided kernel equals the
  unpruned oracle for arbitrary patterns, interferers, jitters, seeds
  and caps -- including a deterministic trigger of the near-cap guard
  fallback and a zero-budget construction;
* the full analysis: eagerly built dominance tables vs. tables never
  built (the ``eager_dominance`` and ``no_dominance`` fixtures of
  ``tests/conftest.py``) across a DYN-length sweep.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

import repro.analysis.availability as availability_mod
from repro.analysis import AnalysisContext, NodeAvailability
from repro.analysis.availability import DominanceTables
from repro.analysis.fps import (
    MAX_FIXPOINT_ITERATIONS,
    prepped_busy_window,
    seeded_busy_window,
)
from repro.core.bbc import basic_configuration
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.synth import paper_suite


@st.composite
def _pattern(draw):
    period = draw(st.integers(min_value=2, max_value=80))
    n_busy = draw(st.integers(min_value=0, max_value=7))
    busy = []
    for _ in range(n_busy):
        s = draw(st.integers(min_value=0, max_value=period - 1))
        e = draw(st.integers(min_value=s + 1, max_value=period))
        busy.append((s, e))
    return busy, period


@st.composite
def _kernel_case(draw):
    busy, period = draw(_pattern())
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


class TestConstructionSoundness:
    @settings(max_examples=300, deadline=None)
    @given(_pattern())
    def test_witnesses_dominate_pointwise(self, pattern):
        """Exhaustive semantic check of every elision the tables allow:
        the witness delivers at most as much slack at every window."""
        busy, period = pattern
        av = NodeAvailability(busy, period)
        dom = av.dominance_tables()
        instants = av.critical_instants()
        n = len(instants)
        assert sorted(dom.maximal_order + dom.dominated_order) == list(range(n))
        assert len(dom.witness) == n
        for idx in dom.maximal_order:
            assert dom.witness[idx] == -1
        for idx in dom.dominated_order:
            u_idx = dom.witness[idx]
            assert u_idx in dom.maximal_order
            t, u = instants[idx], instants[u_idx]
            for w in range(2 * period + 1):
                assert av.available_in(t, t + w) >= av.available_in(u, u + w)

    @settings(max_examples=200, deadline=None)
    @given(_pattern())
    def test_orders_are_subsequences_of_eval_order(self, pattern):
        busy, period = pattern
        av = NodeAvailability(busy, period)
        dom = av.dominance_tables()
        eval_order = list(av.instant_advance_tables().eval_order)
        maximal = set(dom.maximal_order)
        assert list(dom.maximal_order) == [
            i for i in eval_order if i in maximal
        ]
        assert list(dom.dominated_order) == [
            i for i in eval_order if i not in maximal
        ]

    def test_edge_patterns(self):
        # Fully idle node: the single instant 0, trivially maximal.
        dom = NodeAvailability([], 10).dominance_tables()
        assert dom == DominanceTables((0,), (), (-1,))
        # Permanently busy node (zero slack): every instant's delivered
        # slack is identically zero, so the duplicate instant at the
        # busy start collapses onto instant 0.
        dom = NodeAvailability([(0, 10)], 10).dominance_tables()
        assert dom.maximal_order == (0,)
        assert dom.dominated_order == (1,)
        assert dom.witness == (-1, 0)
        # Single busy interval (single wrap-around gap): instant 0 sees
        # the whole gap before the block, so the block start dominates.
        av = NodeAvailability([(3, 7)], 10)
        dom = av.dominance_tables()
        assert [av.critical_instants()[i] for i in dom.maximal_order] == [3]
        assert dom.witness[0] == 1  # instant 0 dominated by instant 3
        # A long block dominating a short one.
        av = NodeAvailability([(0, 5), (7, 8)], 10)
        dom = av.dominance_tables()
        assert 2 in dom.dominated_order  # instant 7 (block 1 < block 5)

    def test_lazy_and_cached(self):
        av = NodeAvailability([(2, 5)], 10)
        assert av.instant_advance_tables().dominance is None
        dom = av.dominance_tables()  # direct request: builds immediately
        assert av.dominance_tables() is dom
        assert av.instant_advance_tables().dominance is dom

    def test_kernel_path_defers_until_amortisation_threshold(self):
        """The kernel-facing path builds only once the pattern has served
        enough maximisations to amortise the construction."""
        from repro.analysis.availability import DOMINANCE_LAZY_THRESHOLD

        av = NodeAvailability([(2, 5)], 10)
        for _ in range(DOMINANCE_LAZY_THRESHOLD):
            assert av.instant_advance_tables(dominance=True).dominance is None
        # Requests without the flag never count toward the threshold.
        assert av.instant_advance_tables().dominance is None
        assert av.instant_advance_tables(dominance=True).dominance is not None

    def test_budget_exhaustion_keeps_instants(self, monkeypatch):
        """A zero work budget must degrade pruning, never correctness."""
        import repro.analysis.availability as availability_mod

        monkeypatch.setattr(availability_mod, "DOMINANCE_BUDGET_FACTOR", 0)
        av = NodeAvailability([(0, 4), (6, 7), (8, 9)], 12)
        dom = av.dominance_tables()
        assert dom.dominated_order == ()
        assert set(dom.witness) == {-1}


class TestKernelBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_dominance_equals_unpruned(self, case):
        busy, period, info, jitters, wcet, cap, own = case
        availability = NodeAvailability(busy, period)
        availability.dominance_tables()  # force-build: exercise elision
        unpruned = prepped_busy_window(
            wcet, info, availability, jitters, cap, own, prune=False
        )
        elided = prepped_busy_window(
            wcet, info, availability, jitters, cap, own, prune=True,
            dominance=True,
        )
        assert elided == unpruned

    @settings(max_examples=150, deadline=None)
    @given(_kernel_case(), st.randoms(use_true_random=False))
    def test_dominance_composes_with_certified_seeds(self, case, rng):
        busy, period, info, jitters, wcet, cap, own = case
        availability = NodeAvailability(busy, period)
        availability.dominance_tables()  # force-build: exercise elision
        cold = prepped_busy_window(
            wcet, info, availability, jitters, cap, own, prune=False
        )
        _, _, demands = seeded_busy_window(
            wcet, info, availability, jitters, cap, own, None, False
        )
        seeds = [None if d is None else rng.randint(0, d) for d in demands]
        value, ok, _ = seeded_busy_window(
            wcet, info, availability, jitters, cap, own, seeds, True, True
        )
        assert (value, ok) == cold

    def test_zero_wcet_and_degenerate_patterns(self):
        """Generic-path corners: idle node, zero slack, wcet == 0."""
        cases = [
            ([], 10, 0),            # fully idle node
            ([(0, 10)], 10, 3),     # zero slack
            ([(2, 5)], 10, 0),      # wcet == 0 (generic path)
        ]
        info = (("j0", 7, False, 2),)
        jitters = {"j0": 5}
        for busy, period, wcet in cases:
            availability = NodeAvailability(busy, period)
            availability.dominance_tables()  # force-build: exercise elision
            reference = prepped_busy_window(
                wcet, info, availability, jitters, 500, 0, prune=False
            )
            got = prepped_busy_window(
                wcet, info, availability, jitters, 500, 0, prune=True,
                dominance=True,
            )
            assert got == reference

    def test_guard_fallback_replays_without_dominance(self):
        """Deterministic trigger of the near-cap regime: a zero-cost
        interferer with a huge jitter inflates the activation count past
        the iteration limit while the window stays tiny, so the flag
        certificate fails and the kernel must replay without dominance
        -- still bit-identical to the unpruned path."""
        availability = NodeAvailability([(0, 4), (6, 7)], 10)
        dom = availability.dominance_tables()
        assert dom.dominated_order  # the elision path is actually active
        info = (("j0", 1, False, 0),)
        jitters = {"j0": 2 * MAX_FIXPOINT_ITERATIONS}
        for wcet in (1, 3):
            unpruned = prepped_busy_window(
                wcet, info, availability, jitters, 10_000, 0, prune=False
            )
            elided = prepped_busy_window(
                wcet, info, availability, jitters, 10_000, 0, prune=True,
                dominance=True,
            )
            assert elided == unpruned


def _cached_dominance_tables(ctx):
    """The dominance tables (``None`` = not built) of every availability
    pattern in *ctx*'s schedule cache."""
    return [
        availability.instant_advance_tables().dominance
        for entry in ctx._schedule_cache.values()
        if entry.availability is not None
        for availability in entry.availability.values()
    ]


class TestAnalysisBitIdentity:
    def _sweep(self, n_points=24):
        system = paper_suite(3, count=1, seed=23)[0]
        options = BusOptimisationOptions()
        st_nodes = system.st_sender_nodes()
        slot = min_static_slot(system, options) if st_nodes else 0
        lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
        return system, [
            basic_configuration(system, n, options)
            for n in sweep_lengths(lo, hi, n_points)
        ]

    def test_sweep_identical_to_dominance_off(self, no_dominance, monkeypatch):
        system, configs = self._sweep()
        off_ctx = AnalysisContext(system)
        off = [off_ctx.analyse(config) for config in configs]
        # Now build the tables on the first kernel request (as the
        # ``eager_dominance`` fixture does), for a fresh context.
        monkeypatch.setattr(availability_mod, "DOMINANCE_LAZY_THRESHOLD", 0)
        on_ctx = AnalysisContext(system)
        for config, oracle in zip(configs, off):
            on = on_ctx.analyse(config)
            assert on.wcrt == oracle.wcrt, config.describe()
            assert on.converged == oracle.converged
            assert on.schedulable == oracle.schedulable
            assert on.feasible == oracle.feasible
        # The comparison really ran the elided path against the full
        # maximisation: only the dominance-on context built tables.
        built = _cached_dominance_tables(on_ctx)
        assert built and all(dom is not None for dom in built)
        assert any(dom.dominated_order for dom in built)
        assert all(dom is None for dom in _cached_dominance_tables(off_ctx))
