"""The accelerated backend contract: bit identity, verify mode, extras.

``AnalysisOptions.backend="numpy"`` lowers each system's invariants
into packed arrays once and advances whole batches of busy-window fix
points in lockstep; ``backend="native"`` runs the same lowered plans
inside the compiled ``repro._native`` C extension
(:mod:`repro.analysis.backend`).  Their *entire* contract is "same
answers, faster": these tests pin bit identity with the Python oracle
at every observable level -- full analysis results over fuzzed systems
(including fault hypotheses ``k in {0, 1, 2}``) and every
``warm_start`` x ``dominance`` mode, the ``"verify"`` cross-check
counter, optimiser traces with their evaluation and cache-hit
accounting, and the pre-refactor legacy trace fixtures byte-for-byte
-- plus the packaging contract: each accelerator is an optional extra
(``repro[numpy]`` / ``repro[native]``), selecting a backend without
its extra is an eager, actionable ``RuntimeError``, and these tests
*skip* (not fail) on an interpreter missing the extra (native tests
carry the ``native`` pytest marker for CI selection).
"""

import json
import os
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisContext
from repro.analysis.backend import native_or_none, numpy_or_none
from repro.analysis.scheduler import SchedulePlan
from repro.analysis.holistic import (
    AnalysisOptions,
    DOMINANCE_MODES,
    WARM_START_MODES,
)
from repro.core import optimise_bbc, optimise_obc
from repro.core.bbc import basic_configuration
from repro.core.campaign import (
    _options_fingerprint,
    campaign_matrix,
    run_campaign,
)
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions
from repro.errors import ConfigurationError
from repro.io.serialization import analysis_result_to_dict, result_to_dict
from repro.model import (
    Application,
    Message,
    MessageKind,
    SchedulingPolicy,
    System,
    Task,
    TaskGraph,
)
from repro.synth.suite import paper_system

from tests.fixtures.legacy_cases import LEGACY_CASES
from tests.test_properties import small_system
from tests.util import fig3_system, fig4_system

requires_numpy = pytest.mark.skipif(
    numpy_or_none() is None,
    reason="numpy backend tests need the repro[numpy] extra",
)

requires_native = pytest.mark.skipif(
    native_or_none() is None or numpy_or_none() is None,
    reason="native backend tests need the compiled repro[native] extra",
)


def _sweep_configs(system, points, options=None):
    """A DYN-length sweep of ``points`` basic configurations."""
    options = options or BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    return [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]


def _result_docs(results):
    """Full serialized results (tables dropped) -- deep-compare safe."""
    return [analysis_result_to_dict(r) for r in results]


# ----------------------------------------------------------------------
# the repro[numpy] extra
# ----------------------------------------------------------------------
class TestNumpyExtra:
    def test_numpy_backend_without_numpy_is_actionable(self, monkeypatch):
        """Selecting the array backend on a numpy-less interpreter fails
        eagerly -- at context construction, where the backend was chosen
        -- with an error naming the ``repro[numpy]`` extra."""
        monkeypatch.setattr("repro.analysis.backend._numpy", None)
        for backend in ("numpy", "verify"):
            with pytest.raises(RuntimeError) as exc:
                AnalysisContext(
                    fig3_system(), AnalysisOptions(backend=backend)
                )
            assert "repro[numpy]" in str(exc.value)
            assert "pip install" in str(exc.value)

    def test_python_backend_needs_no_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.backend._numpy", None)
        system = fig3_system()
        context = AnalysisContext(system, AnalysisOptions(backend="python"))
        result = context.analyse(_sweep_configs(system, 1)[0])
        assert result.feasible

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisContext(fig3_system(), AnalysisOptions(backend="cuda"))


# ----------------------------------------------------------------------
# the repro[native] extra
# ----------------------------------------------------------------------
class TestNativeExtra:
    def test_native_backend_without_extension_is_actionable(
        self, monkeypatch
    ):
        """Selecting the compiled backend on a build that never produced
        the extension fails eagerly -- at context construction -- with
        an error naming the ``repro[native]`` extra."""
        monkeypatch.setattr("repro.analysis.backend._native_module", None)
        with pytest.raises(RuntimeError) as exc:
            AnalysisContext(fig3_system(), AnalysisOptions(backend="native"))
        assert "repro[native]" in str(exc.value)
        assert "pip install" in str(exc.value)

    @requires_native
    def test_native_backend_without_numpy_is_actionable(self, monkeypatch):
        """The native shim stages plans and buffers via numpy, so the
        extension alone is not enough: a numpy-less interpreter gets the
        numpy extra's error, still eagerly."""
        monkeypatch.setattr("repro.analysis.backend._numpy", None)
        with pytest.raises(RuntimeError) as exc:
            AnalysisContext(fig3_system(), AnalysisOptions(backend="native"))
        assert "repro[numpy]" in str(exc.value)


# ----------------------------------------------------------------------
# bit identity with the Python oracle
# ----------------------------------------------------------------------
@requires_numpy
class TestBitIdentity:
    @given(small_system(), st.integers(3, 9), st.sampled_from((0, 1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_numpy_matches_python_on_random_systems(
        self, system, points, fault_k
    ):
        """Fuzzed systems, full-result identity: every field the
        serializer covers (wcrt in insertion order included), plus the
        result-list order of the batch -- under every fault hypothesis
        ``k in {0, 1, 2}``, which the array backend now computes
        natively instead of falling back."""
        configs = _sweep_configs(system, points)
        python = AnalysisContext(
            system, AnalysisOptions(fault_hypothesis=fault_k)
        ).analyse_batch(configs)
        numpy_ = AnalysisContext(
            system,
            AnalysisOptions(backend="numpy", fault_hypothesis=fault_k),
        ).analyse_batch(configs)
        assert _result_docs(numpy_) == _result_docs(python)

    @pytest.mark.parametrize("warm_start", WARM_START_MODES)
    @pytest.mark.parametrize("dominance", DOMINANCE_MODES)
    def test_numpy_matches_python_in_every_mode(self, warm_start, dominance):
        """Every warm_start x dominance combination answers identically
        across backends.  (Oracle/debug modes run the Python path inside
        the array backend by design -- this pins that the *contract*
        holds whatever the mode routes to.)"""
        system = fig4_system()
        configs = _sweep_configs(system, 6)
        results = {}
        for backend in ("python", "numpy"):
            options = AnalysisOptions(
                backend=backend, warm_start=warm_start, dominance=dominance
            )
            context = AnalysisContext(system, options)
            results[backend] = context.analyse_batch(configs)
            assert context.warm_start_divergences == 0
            assert context.dominance_divergences == 0
        assert _result_docs(results["numpy"]) == _result_docs(
            results["python"]
        )

    @given(small_system())
    @settings(max_examples=15, deadline=None)
    def test_verify_mode_counts_zero_divergences(self, system):
        """``backend="verify"`` runs both backends per analysis and
        counts mismatches -- contractually always zero."""
        configs = _sweep_configs(system, 5)
        context = AnalysisContext(system, AnalysisOptions(backend="verify"))
        verified = context.analyse_batch(configs)
        assert context.backend_divergences == 0
        python = AnalysisContext(system).analyse_batch(configs)
        assert _result_docs(verified) == _result_docs(python)

    def test_wide_batch_replays_each_schedule_once(self, monkeypatch):
        """A sweep wider than the schedule cache, one schedule key per
        candidate (ST messages make the key carry the cycle length):
        the artifacts the batch fetches travel on the group plans, so
        no schedule is replayed a second time by the kernels."""
        system = paper_system(3, 0, seed=23)
        configs = _sweep_configs(system, 100)
        context = AnalysisContext(system, AnalysisOptions(backend="numpy"))
        keys = {context.schedule_key(c) for c in configs}
        assert len(keys) > context.max_schedule_entries
        replays = []
        original = SchedulePlan.replay

        def counting_replay(plan, config):
            replays.append(context.schedule_key(config))
            return original(plan, config)

        monkeypatch.setattr(SchedulePlan, "replay", counting_replay)
        results = context.analyse_batch(configs)
        assert sorted(replays) == sorted(keys)
        monkeypatch.undo()
        python = AnalysisContext(system).analyse_batch(configs)
        assert _result_docs(results) == _result_docs(python)


@requires_native
@pytest.mark.native
class TestNativeBitIdentity:
    """The compiled backend under the numpy battery's microscope.

    Same oracle, same observables: fuzzed systems (with fault
    hypotheses), every mode combination, and the verify counter -- which
    on a native-enabled build cross-checks python vs numpy *and* python
    vs native per analysis.
    """

    @given(small_system(), st.integers(3, 9), st.sampled_from((0, 1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_native_matches_python_on_random_systems(
        self, system, points, fault_k
    ):
        configs = _sweep_configs(system, points)
        python = AnalysisContext(
            system, AnalysisOptions(fault_hypothesis=fault_k)
        ).analyse_batch(configs)
        native = AnalysisContext(
            system,
            AnalysisOptions(backend="native", fault_hypothesis=fault_k),
        ).analyse_batch(configs)
        assert _result_docs(native) == _result_docs(python)

    @pytest.mark.parametrize("warm_start", WARM_START_MODES)
    @pytest.mark.parametrize("dominance", DOMINANCE_MODES)
    def test_native_matches_python_in_every_mode(self, warm_start, dominance):
        """Oracle/debug modes route the native backend onto the Python
        path by design; certified modes run the C kernels -- either way
        the answers are identical and the divergence counters stay 0."""
        system = fig4_system()
        configs = _sweep_configs(system, 6)
        results = {}
        for backend in ("python", "native"):
            options = AnalysisOptions(
                backend=backend, warm_start=warm_start, dominance=dominance
            )
            context = AnalysisContext(system, options)
            results[backend] = context.analyse_batch(configs)
            assert context.warm_start_divergences == 0
            assert context.dominance_divergences == 0
        assert _result_docs(results["native"]) == _result_docs(
            results["python"]
        )

    def test_verify_mode_cross_checks_native_with_zero_divergences(self):
        """On a native-enabled build ``backend="verify"`` compares the
        Python oracle against *both* accelerated backends per analysis;
        the counter is contractually zero."""
        system = fig4_system()
        configs = _sweep_configs(system, 8)
        context = AnalysisContext(system, AnalysisOptions(backend="verify"))
        verified = context.analyse_batch(configs)
        assert context.backend_divergences == 0
        python = AnalysisContext(system).analyse_batch(configs)
        assert _result_docs(verified) == _result_docs(python)


# ----------------------------------------------------------------------
# optimiser-level identity: traces, evaluations, cache hits
# ----------------------------------------------------------------------
def _numpy_bus(**kw) -> BusOptimisationOptions:
    return BusOptimisationOptions(
        analysis=AnalysisOptions(backend="numpy"), **kw
    )


def _native_bus(**kw) -> BusOptimisationOptions:
    return BusOptimisationOptions(
        analysis=AnalysisOptions(backend="native"), **kw
    )


@requires_numpy
def test_optimiser_trace_and_cache_accounting_identical():
    """A full search run is byte-identical across backends: same trace
    (points and estimates, in order), same exact-evaluation count, same
    cache-hit count, same best configuration and cost."""
    system = fig4_system()
    python = result_to_dict(optimise_obc(system, method="curvefit"))
    numpy_ = result_to_dict(
        optimise_obc(system, _numpy_bus(), method="curvefit")
    )
    python["elapsed_seconds"] = numpy_["elapsed_seconds"] = 0.0
    assert numpy_ == python


def _legacy_fixture(case_id: str) -> dict:
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "legacy_traces",
        f"{case_id}.json",
    )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _legacy_backend_cases(backend):
    """Legacy cases re-run on an accelerated backend: every strategy
    that takes plain ``BusOptimisationOptions`` (SA/GA ride the same
    evaluator, and are covered at the pinned-options level by
    test_legacy_equivalence)."""

    def bus(**kw):
        return BusOptimisationOptions(
            analysis=AnalysisOptions(backend=backend), **kw
        )

    def small_bus(**kw):
        # The legacy-case ``_small_bus`` budgets on this backend.
        return bus(
            ee_max_dyn_points=48,
            cf_candidates=64,
            max_extra_static_slots=1,
            max_slot_size_steps=1,
            **kw,
        )

    return (
        ("bbc_fig3", lambda: optimise_bbc(fig3_system(), bus())),
        ("bbc_fig4", lambda: optimise_bbc(fig4_system(), bus())),
        (
            "obc_cf_fig4",
            lambda: optimise_obc(fig4_system(), bus(), "curvefit"),
        ),
        (
            "obc_ee_paper3",
            lambda: _paper3_case(small_bus(), "exhaustive"),
        ),
        (
            "obc_ee_paper3_chunked",
            lambda: _paper3_case(small_bus(obc_chunk_size=3), "exhaustive"),
        ),
    )


NUMPY_LEGACY_CASES = _legacy_backend_cases("numpy")
NATIVE_LEGACY_CASES = _legacy_backend_cases("native")


def _paper3_case(bus, method):
    from repro.synth import paper_suite

    return optimise_obc(paper_suite(3, count=1, seed=23)[0], bus, method)


@requires_numpy
@pytest.mark.parametrize(
    "case_id,run", NUMPY_LEGACY_CASES, ids=[c[0] for c in NUMPY_LEGACY_CASES]
)
def test_legacy_traces_identical_under_numpy_backend(case_id, run):
    """The pre-refactor oracle fixtures, generated on the pure-Python
    implementations, are reproduced byte-for-byte by the array backend."""
    expected = _legacy_fixture(case_id)
    got = result_to_dict(run())
    got["elapsed_seconds"] = 0.0
    expected.setdefault("stop_reason", None)
    assert got["trace"] == expected["trace"], (
        f"{case_id}: numpy-backend search trace diverged from the oracle"
    )
    assert got == expected


@requires_native
@pytest.mark.native
@pytest.mark.parametrize(
    "case_id,run",
    NATIVE_LEGACY_CASES,
    ids=[c[0] for c in NATIVE_LEGACY_CASES],
)
def test_legacy_traces_identical_under_native_backend(case_id, run):
    """The same pre-refactor oracle fixtures, byte-for-byte on the
    compiled backend -- trace order, evaluation counts, cache hits."""
    expected = _legacy_fixture(case_id)
    got = result_to_dict(run())
    got["elapsed_seconds"] = 0.0
    expected.setdefault("stop_reason", None)
    assert got["trace"] == expected["trace"], (
        f"{case_id}: native-backend search trace diverged from the oracle"
    )
    assert got == expected


# ----------------------------------------------------------------------
# campaign resume across backends
# ----------------------------------------------------------------------
def test_backend_excluded_from_campaign_fingerprint():
    """The options fingerprint normalises the backend out, exactly like
    ``parallel_workers``: both knobs are pinned result-identical, so a
    checkpoint must survive a backend change."""
    base = StrategyOptions()
    digests = {
        _options_fingerprint(
            base.with_bus(
                BusOptimisationOptions(
                    analysis=AnalysisOptions(backend=backend)
                )
            )
        )
        for backend in ("python", "numpy", "native", "verify")
    }
    digests.add(_options_fingerprint(base))
    assert len(digests) == 1
    # ...while result-affecting analysis knobs still invalidate.
    changed = base.with_bus(
        BusOptimisationOptions(
            analysis=AnalysisOptions(dyn_fill_strategy="exact")
        )
    )
    assert _options_fingerprint(changed) not in digests


@requires_numpy
def test_campaign_resumes_across_backends(tmp_path):
    """A campaign checkpointed under the Python backend resumes -- job
    for job, nothing re-run -- when re-issued on the numpy backend."""
    systems = {"fig4": fig4_system()}
    python_jobs = campaign_matrix(systems, ["bbc"])
    cold = run_campaign(systems, python_jobs, checkpoint_dir=str(tmp_path))
    assert len(cold.executed) == 1

    numpy_jobs = campaign_matrix(systems, ["bbc"], bus=_numpy_bus())
    resumed = run_campaign(systems, numpy_jobs, checkpoint_dir=str(tmp_path))
    assert len(resumed.resumed) == 1 and not resumed.executed
    assert (
        result_to_dict(resumed.results["fig4__bbc"])
        == result_to_dict(cold.results["fig4__bbc"])
    )


@requires_native
@pytest.mark.native
def test_campaign_resumes_across_backends_including_native(tmp_path):
    """A checkpoint written under the Python backend resumes untouched
    when re-issued on the compiled backend -- the fingerprint treats
    ``"native"`` exactly like the other result-identical modes."""
    systems = {"fig4": fig4_system()}
    cold = run_campaign(
        systems, campaign_matrix(systems, ["bbc"]),
        checkpoint_dir=str(tmp_path),
    )
    assert len(cold.executed) == 1

    native_jobs = campaign_matrix(systems, ["bbc"], bus=_native_bus())
    resumed = run_campaign(
        systems, native_jobs, checkpoint_dir=str(tmp_path)
    )
    assert len(resumed.resumed) == 1 and not resumed.executed
    assert (
        result_to_dict(resumed.results["fig4__bbc"])
        == result_to_dict(cold.results["fig4__bbc"])
    )


# ----------------------------------------------------------------------
# perf smoke (tier-1): identity plus a lenient speed floor
# ----------------------------------------------------------------------
def _dyn_only_smoke_system() -> System:
    """A 3-node, DYN-only application: the whole length sweep shares one
    schedule key, so the array backend runs it as a single lockstep
    group -- the shape the benchmarks pin at >=2x (see
    ``benchmarks/results/BENCH_incremental_analysis.json``)."""
    def chain(prefix, length, period):
        tasks, msgs = [], []
        for i in range(length):
            tasks.append(
                Task(
                    f"{prefix}{i}",
                    wcet=7 + i,
                    node=f"N{(i % 3) + 1}",
                    policy=SchedulingPolicy.FPS,
                    priority=i,
                )
            )
        for i in range(length - 1):
            msgs.append(
                Message(
                    f"{prefix}m{i}",
                    size=4 + i,
                    sender=f"{prefix}{i}",
                    receivers=(f"{prefix}{i + 1}",),
                    kind=MessageKind.DYN,
                    priority=i,
                )
            )
        return TaskGraph(
            name=prefix, period=period, deadline=period,
            tasks=tuple(tasks), messages=tuple(msgs),
        )

    graphs = tuple(
        chain(f"g{k}_", 4, period)
        for k, period in enumerate((200, 400, 400, 800))
    )
    return System(("N1", "N2", "N3"), Application("smoke", graphs))


@requires_numpy
@pytest.mark.perf_smoke
def test_numpy_backend_smoke_identical_and_not_slower():
    """<10s tier-1 smoke of the batched array sweep: bit identity on a
    96-point DYN-only sweep, and the numpy batch comfortably beats the
    warm Python loop.  The floor here is deliberately loose (1.2x on a
    shape the bench pins at >=2x) -- wall-clock asserts on shared
    machines must not flake; the real perf claim lives in
    ``BENCH_incremental_analysis.json``."""
    system = _dyn_only_smoke_system()
    assert not tuple(system.application.st_messages())
    configs = _sweep_configs(
        system, 96, BusOptimisationOptions(ee_max_dyn_points=96)
    )

    python_ctx = AnalysisContext(system)
    t0 = time.perf_counter()
    python_results = python_ctx.analyse_batch(configs)
    python_s = time.perf_counter() - t0

    numpy_ctx = AnalysisContext(system, AnalysisOptions(backend="numpy"))
    t0 = time.perf_counter()
    numpy_results = numpy_ctx.analyse_batch(configs)
    numpy_s = time.perf_counter() - t0

    assert _result_docs(numpy_results) == _result_docs(python_results)
    assert numpy_s < 10.0
    assert python_s / numpy_s >= 1.2, (
        f"array backend smoke ratio {python_s / numpy_s:.2f}x "
        f"(python {python_s:.3f}s vs numpy {numpy_s:.3f}s)"
    )


@requires_native
@pytest.mark.native
@pytest.mark.perf_smoke
def test_native_backend_smoke_identical_and_not_slower():
    """<10s tier-1 smoke of the compiled sweep: bit identity on the
    same 96-point DYN-only sweep, same deliberately loose speed floor
    as the numpy smoke (the real claims -- >=2x over warm Python on
    ST-heavy sweeps, >= numpy on pure-DYN -- live in
    ``BENCH_incremental_analysis.json``)."""
    system = _dyn_only_smoke_system()
    configs = _sweep_configs(
        system, 96, BusOptimisationOptions(ee_max_dyn_points=96)
    )

    python_ctx = AnalysisContext(system)
    t0 = time.perf_counter()
    python_results = python_ctx.analyse_batch(configs)
    python_s = time.perf_counter() - t0

    native_ctx = AnalysisContext(system, AnalysisOptions(backend="native"))
    t0 = time.perf_counter()
    native_results = native_ctx.analyse_batch(configs)
    native_s = time.perf_counter() - t0

    assert _result_docs(native_results) == _result_docs(python_results)
    assert native_s < 10.0
    assert python_s / native_s >= 1.2, (
        f"native backend smoke ratio {python_s / native_s:.2f}x "
        f"(python {python_s:.3f}s vs native {native_s:.3f}s)"
    )
