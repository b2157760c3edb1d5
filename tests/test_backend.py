"""The compiled backend contract: bit identity and the optional extra.

``AnalysisOptions.backend="native"`` lowers each system's invariants
into int tables once per group and runs every candidate's holistic fix
point inside the compiled ``repro._native`` C extension
(:mod:`repro.analysis.backend`).  Its *entire* contract is "same
answers, faster": these tests pin bit identity with the Python oracle
at every observable level -- full analysis results over fuzzed systems
(including fault hypotheses ``k in {0, 1, 2}``), the certified and cold
Python paths with dominance tables built eagerly, lazily or never, the
groups delegated back to the oracle, optimiser traces with
their evaluation and cache-hit accounting, and the pre-refactor legacy
trace fixtures byte-for-byte -- plus the packaging contract: the
extension is the optional ``repro[native]`` extra, selecting it
without the build is an eager, actionable ``RuntimeError``, nothing
imports numpy, and the ``native``-marked tests *skip* (not fail) where
the extension cannot be built (``tests/conftest.py`` builds it into a
temporary directory when a C compiler is available).
"""

import json
import os
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisContext
from repro.analysis import context as context_module
from repro.analysis.backend import native_or_none
from repro.analysis.scheduler import SchedulePlan
from repro.analysis.holistic import AnalysisOptions
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

from tests.test_properties import small_system
from tests.util import (
    dyn_msg,
    fig3_system,
    fig4_system,
    fps_task,
    scs_task,
    single_graph_system,
)

requires_native = pytest.mark.skipif(
    native_or_none() is None,
    reason="native backend tests need the compiled repro[native] extra",
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _delegating_run(system, configs, **options):
    """Native results for *configs*, plus the candidates the native
    backend handed to the Python oracle (``_analyse_fetched``)."""
    delegated = []
    fetched = AnalysisContext._analyse_fetched

    def spy(ctx, config, arts):
        delegated.append(config)
        return fetched(ctx, config, arts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnalysisContext, "_analyse_fetched", spy)
        native = AnalysisContext(
            system, AnalysisOptions(backend="native", **options)
        ).analyse_batch(configs)
    return native, delegated


#: Magnitudes from 2**7 up to just past 2**62, clustered at powers of
#: two where int64 intermediates start to overflow.
_INT64_EDGE = st.builds(
    lambda exp, offset: (1 << exp) + offset,
    st.integers(7, 62),
    st.integers(-64, 12345),
)


# ----------------------------------------------------------------------
# numpy is no dependency of any backend (the retired repro[numpy] extra)
# ----------------------------------------------------------------------
class TestNumpyExtra:
    def test_python_backend_needs_no_numpy(self):
        """A fresh interpreter imports the strategies and analyses a
        system without ever importing numpy."""
        code = (
            "import sys\n"
            "import repro.core.strategies\n"
            "from repro.analysis import analyse_system\n"
            "from tests.util import basic_config, fig3_system\n"
            "result = analyse_system(fig3_system(), basic_config())\n"
            "assert result.feasible\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_numpy_backend_without_numpy_is_actionable(self):
        """The retired array backend fails eagerly -- at context
        construction, where the backend was chosen -- with an error
        that names the backends to choose from instead."""
        with pytest.raises(ConfigurationError) as exc:
            AnalysisContext(fig3_system(), AnalysisOptions(backend="numpy"))
        message = str(exc.value)
        assert "unknown backend 'numpy'" in message
        for backend in ("python", "native"):
            assert f'"{backend}"' in message

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
        """Selecting the compiled backend on a build that never
        produced the extension fails eagerly -- at context construction
        -- with an error naming the ``repro[native]`` extra."""
        monkeypatch.setattr("repro.analysis.backend._native_module", None)
        with pytest.raises(RuntimeError) as exc:
            AnalysisContext(fig3_system(), AnalysisOptions(backend="native"))
        assert "repro[native]" in str(exc.value)
        assert "pip install" in str(exc.value)


# ----------------------------------------------------------------------
# bit identity with the Python oracle
# ----------------------------------------------------------------------
def _fully_busy_system() -> System:
    """Node N1 is busy for its whole period (its SCS tasks fill it), so
    the FPS task ``d2`` there has no staircase to run on."""
    period = 200
    tasks = [
        scs_task("s1", wcet=1, node="N1"),
        scs_task("hog", wcet=period - 1, node="N1"),
        scs_task("s2", wcet=1, node="N2"),
        fps_task("d1", wcet=1, node="N2", priority=1),
        fps_task("d2", wcet=1, node="N1", priority=1),
    ]
    msgs = [dyn_msg("m1", 9, "s1", "d1"), dyn_msg("m2", 5, "s2", "d2")]
    return single_graph_system(tasks, msgs, period=period, deadline=120)


@requires_native
@pytest.mark.native
class TestBitIdentity:
    @given(small_system(), st.integers(3, 9), st.sampled_from((0, 1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_native_matches_python_on_random_systems(
        self, system, points, fault_k
    ):
        """Fuzzed systems, full-result identity: every field the
        serializer covers (wcrt in insertion order included), plus the
        result-list order of the batch -- under every fault hypothesis
        ``k in {0, 1, 2}``, which the compiled kernels charge natively."""
        configs = _sweep_configs(system, points)
        python = AnalysisContext(
            system, AnalysisOptions(fault_hypothesis=fault_k)
        ).analyse_batch(configs)
        native = AnalysisContext(
            system,
            AnalysisOptions(backend="native", fault_hypothesis=fault_k),
        ).analyse_batch(configs)
        assert _result_docs(native) == _result_docs(python)

    @pytest.mark.parametrize(
        "dominance", [None, "eager_dominance", "no_dominance"]
    )
    def test_native_matches_python_and_cold_oracle(self, dominance, request):
        """The C kernels, the certified Python path and the cold Python
        oracle give identical answers, whether the Python path builds
        its dominance tables lazily (the default), eagerly or never."""
        if dominance is not None:
            request.getfixturevalue(dominance)
        system = fig4_system()
        configs = _sweep_configs(system, 6)
        python_ctx = AnalysisContext(system)
        python = _result_docs(python_ctx.analyse_batch(configs))
        cold = _result_docs([python_ctx.analyse_cold(c) for c in configs])
        native = _result_docs(
            AnalysisContext(
                system, AnalysisOptions(backend="native")
            ).analyse_batch(configs)
        )
        assert native == python == cold

    @pytest.mark.parametrize(
        "system",
        [
            _fully_busy_system(),
            # Periods so long that the caps leave int64.
            fig4_system(period=1 << 60, deadline=1 << 60),
            # The same with no FPS/DYN activity to prebound: the caps
            # alone would not fit the int64 lane buffers.
            single_graph_system(
                [scs_task("a", node="N1"), scs_task("b", node="N2")],
                period=1 << 62,
                deadline=1 << 62,
            ),
        ],
        ids=[
            "fully_busy_node",
            "past_overflow_limit",
            "no_activities_past_overflow_limit",
        ],
    )
    def test_unsafe_groups_delegate_to_the_oracle(self, system, monkeypatch):
        """A group the C kernels must not run -- a fully busy node, or
        inputs that do not fit int64 -- is analysed by the Python
        oracle on the group's fetched artifacts, one candidate at a
        time, with the same answers and without importing numpy."""
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        configs = _sweep_configs(system, 4)
        python = AnalysisContext(system).analyse_batch(configs)
        delegated = []
        fetched = AnalysisContext._analyse_fetched

        def spy(ctx, config, arts):
            delegated.append(config)
            return fetched(ctx, config, arts)

        monkeypatch.setattr(AnalysisContext, "_analyse_fetched", spy)
        native = AnalysisContext(
            system, AnalysisOptions(backend="native")
        ).analyse_batch(configs)
        assert delegated == configs
        assert _result_docs(native) == _result_docs(python)

    def test_iteration_budget_past_int64_runs_on_the_oracle(self):
        """``max_holistic_iterations >= 2**63`` cannot be packed for the
        kernel, so the group runs on the oracle instead of raising."""
        system = fig4_system()
        configs = _sweep_configs(system, 6)
        options = {"max_holistic_iterations": 1 << 63}
        python = AnalysisContext(
            system, AnalysisOptions(**options)
        ).analyse_batch(configs)
        native, delegated = _delegating_run(system, configs, **options)
        assert delegated == configs
        assert _result_docs(native) == _result_docs(python)

    def test_int64_edge_runs_in_c(self):
        """Caps of 2**61 fit int64 and no lane overflows, so every
        candidate runs in C."""
        system = fig4_system(period=1 << 58, deadline=1 << 58)
        configs = _sweep_configs(system, 4)
        python = AnalysisContext(system).analyse_batch(configs)
        native, delegated = _delegating_run(system, configs)
        assert delegated == []
        assert _result_docs(native) == _result_docs(python)

    def test_only_overflowing_lanes_delegate(self):
        """A huge fault hypothesis overflows some lanes' k-error terms
        but not others': only those lanes rerun on the oracle."""
        system = fig4_system(period=1 << 40, deadline=1 << 40)
        configs = _sweep_configs(system, 6)
        options = {"fault_hypothesis": 1 << 50}
        python = AnalysisContext(
            system, AnalysisOptions(**options)
        ).analyse_batch(configs)
        native, delegated = _delegating_run(system, configs, **options)
        assert 0 < len(delegated) < len(configs)
        assert _result_docs(native) == _result_docs(python)

    @given(
        _INT64_EDGE,
        _INT64_EDGE,
        st.sampled_from((1, 8)),
        st.sampled_from((0, 1, 1 << 40, 1 << 50)),
    )
    @settings(max_examples=30, deadline=None)
    def test_overflow_edge_fuzz(self, period, deadline, cap_factor, fault_k):
        """Periods, deadlines, caps and fault terms around the int64
        boundary (``k = 2**50`` overflows some lanes' k-error terms):
        whichever lanes or groups leave int64, the results equal the
        oracle's."""
        system = fig4_system(period=period, deadline=deadline)
        configs = _sweep_configs(system, 4)
        options = {"cap_factor": cap_factor, "fault_hypothesis": fault_k}
        python = AnalysisContext(
            system, AnalysisOptions(**options)
        ).analyse_batch(configs)
        native, _ = _delegating_run(system, configs, **options)
        assert _result_docs(native) == _result_docs(python)

    @given(small_system())
    @settings(max_examples=15, deadline=None)
    def test_native_analyse_matches_python_per_candidate(self, system):
        """``analyse`` on the native backend (one-candidate groups, the
        cached group plans reused across calls) equals the Python
        oracle analysis by analysis."""
        configs = _sweep_configs(system, 5)
        context = AnalysisContext(system, AnalysisOptions(backend="native"))
        native = [context.analyse(c) for c in configs]
        python = AnalysisContext(system).analyse_batch(configs)
        assert _result_docs(native) == _result_docs(python)

    def test_wide_batch_replays_each_schedule_once(self, monkeypatch):
        """A sweep wider than the schedule cache, one schedule key per
        candidate (ST messages make the key carry the cycle length):
        the artifacts the batch fetches travel on the group plans, so
        no schedule is replayed a second time by the kernels."""
        system = paper_system(3, 0, seed=23)
        configs = _sweep_configs(system, 100)
        context = AnalysisContext(system, AnalysisOptions(backend="native"))
        keys = {context.schedule_key(c) for c in configs}
        assert len(keys) > context_module._MAX_SCHEDULE_ENTRIES
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
@pytest.mark.parametrize("fault_k", [None, 1])
def test_st_heavy_sweep_shares_one_structure_template(fault_k, monkeypatch):
    """An ST-heavy sweep has one structure key and one schedule key per
    cycle length: its singleton groups share one structure record and
    one ``StructureTemplate``.  Every group's static-name order is the
    template's -- it follows the bus-speed plan, which is why the
    template needs no schedule-side key -- and the results equal the
    Python oracle's, wcrt insertion order included."""
    from repro.analysis.backend import arrays

    built = []
    template_class = arrays.StructureTemplate

    def counting_template(*args):
        built.append(template_class(*args))
        return built[-1]

    monkeypatch.setattr(arrays, "StructureTemplate", counting_template)
    system = paper_system(3, 0, seed=23)
    configs = _sweep_configs(system, 16)
    context = AnalysisContext(
        system, AnalysisOptions(backend="native", fault_hypothesis=fault_k)
    )
    native = context.analyse_batch(configs)
    assert len(context._structure_cache) == 1
    assert len(built) == 1
    assert len(context._backend_plans) == len(
        {context.schedule_key(c) for c in configs}
    ) > 1
    for plan in context._backend_plans.values():
        assert plan.template is built[0]
        assert tuple(plan.arts.static_wcrt) == built[0].static_names
    python = AnalysisContext(
        system, AnalysisOptions(fault_hypothesis=fault_k)
    ).analyse_batch(configs)
    assert [list(r.wcrt.items()) for r in native] == [
        list(r.wcrt.items()) for r in python
    ]
    assert _result_docs(native) == _result_docs(python)


# ----------------------------------------------------------------------
# optimiser-level identity: traces, evaluations, cache hits
# ----------------------------------------------------------------------
def _native_bus(**kw) -> BusOptimisationOptions:
    return BusOptimisationOptions(
        analysis=AnalysisOptions(backend="native"), **kw
    )


@requires_native
@pytest.mark.native
def test_optimiser_trace_and_cache_accounting_identical():
    """A full search run is byte-identical across backends: same trace
    (points and estimates, in order), same exact-evaluation count, same
    cache-hit count, same best configuration and cost."""
    system = fig4_system()
    python = result_to_dict(optimise_obc(system, method="curvefit"))
    native = result_to_dict(
        optimise_obc(system, _native_bus(), method="curvefit")
    )
    python["elapsed_seconds"] = native["elapsed_seconds"] = 0.0
    assert native == python


def _legacy_fixture(case_id: str) -> dict:
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "legacy_traces",
        f"{case_id}.json",
    )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _native_legacy_cases():
    """Legacy cases re-run on the compiled backend: every strategy that
    takes plain ``BusOptimisationOptions`` (SA/GA ride the same
    evaluator, and are covered at the pinned-options level by
    test_legacy_equivalence)."""

    def small_bus():
        # The legacy-case ``_small_bus`` budgets on this backend.
        return _native_bus(
            ee_max_dyn_points=48,
            cf_candidates=64,
            max_extra_static_slots=1,
            max_slot_size_steps=1,
        )

    return (
        ("bbc_fig3", lambda: optimise_bbc(fig3_system(), _native_bus())),
        ("bbc_fig4", lambda: optimise_bbc(fig4_system(), _native_bus())),
        (
            "obc_cf_fig4",
            lambda: optimise_obc(fig4_system(), _native_bus(), "curvefit"),
        ),
        (
            "obc_ee_paper3",
            lambda: _paper3_case(small_bus(), "exhaustive"),
        ),
    )


NATIVE_LEGACY_CASES = _native_legacy_cases()


def _paper3_case(bus, method):
    from repro.synth import paper_suite

    return optimise_obc(paper_suite(3, count=1, seed=23)[0], bus, method)


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


@requires_native
@pytest.mark.native
def test_native_entry_points_keep_argument_refcounts():
    """``build_plan`` and ``run_batch`` give back every reference they
    take: 2,000 calls each on a real ``GroupPlan`` leave the refcount of
    every argument object -- the blob bytes, the plan capsule and the
    ``array('q')`` buffers -- where it started."""
    from array import array

    from repro.analysis.backend.native import plan_blob

    system = fig4_system()
    configs = _sweep_configs(system, 4)
    ctx = AnalysisContext(system, AnalysisOptions(backend="native"))
    ctx.analyse_batch(configs)
    key, plan = next(
        (key, plan) for key, plan in ctx._backend_plans.items() if plan.stair
    )
    group = [
        c for c in configs
        if (ctx.schedule_key(c), ctx.structure_key(c)) == key
    ]
    native = native_or_none()
    blob = plan_blob(plan).tobytes()
    capsule = native.build_plan(blob)
    cap_factor = ctx.options.cap_factor
    inputs = [
        array("q", [cap_factor * max(ctx._cap_base, c.gd_cycle) for c in group]),
        array("q", [c.n_minislots for c in group]),
        array("q", [c.gd_cycle for c in group]),
        array("q", [c.st_bus for c in group]),
    ]
    W = array("q", [0]) * (len(group) * plan.template.n_rows)
    conv = array("q", [0]) * len(group)
    watched = [blob, capsule, *inputs, W, conv]
    before = [sys.getrefcount(obj) for obj in watched]
    for _ in range(2000):
        native.build_plan(blob)
        native.run_batch(
            capsule,
            *inputs,
            group[0].gd_minislot,
            ctx._fault_k,
            ctx.options.max_holistic_iterations,
            W,
            conv,
        )
    assert [sys.getrefcount(obj) for obj in watched] == before
    assert list(conv) == [1] * len(group)  # the loop did converge


#: The loop runs in a fork of a fresh interpreter: ``ru_maxrss`` is a
#: high-water mark that survives ``exec`` (a child started by the test
#: reports the test process's own peak), and only a fork starts it
#: from this small process's footprint.
_RSS_LOOP = """
import importlib.util, os, pickle, resource, sys
spec = importlib.util.spec_from_file_location("repro._native", sys.argv[1])
native = importlib.util.module_from_spec(spec)
spec.loader.exec_module(native)
with open(sys.argv[2], "rb") as fh:
    blob, run_args = pickle.load(fh)
capsule = native.build_plan(blob)

def loop(calls):
    for _ in range(calls):
        native.build_plan(blob)
        native.run_batch(capsule, *run_args)

loop(2000)
pid = os.fork()
if pid == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop(20000)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    sys.stdout.flush()
    os._exit(0)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@requires_native
@pytest.mark.native
@pytest.mark.skipif(
    "libasan" in os.environ.get("LD_PRELOAD", ""),
    reason="ASan's quarantine holds freed memory back, so RSS grows "
    "under it whether or not the extension leaks",
)
def test_native_entry_points_keep_rss_flat(tmp_path):
    """After a warm-up, 20,000 calls each of ``build_plan`` and
    ``run_batch`` on a real group plan grow the peak RSS by less than
    1 MiB: a leaked plan struct alone (~100 bytes a call) would cost
    about 2 MB."""
    import pickle
    from array import array

    from repro.analysis.backend.native import plan_blob

    system = fig4_system()
    configs = _sweep_configs(system, 4)
    ctx = AnalysisContext(system, AnalysisOptions(backend="native"))
    ctx.analyse_batch(configs)
    key, plan = next(
        (key, plan) for key, plan in ctx._backend_plans.items() if plan.stair
    )
    group = [
        c for c in configs
        if (ctx.schedule_key(c), ctx.structure_key(c)) == key
    ]
    cap_factor = ctx.options.cap_factor
    run_args = (
        array("q", [cap_factor * max(ctx._cap_base, c.gd_cycle) for c in group]),
        array("q", [c.n_minislots for c in group]),
        array("q", [c.gd_cycle for c in group]),
        array("q", [c.st_bus for c in group]),
        group[0].gd_minislot,
        ctx._fault_k,
        ctx.options.max_holistic_iterations,
        array("q", [0]) * (len(group) * plan.template.n_rows),
        array("q", [0]) * len(group),
    )
    inputs = tmp_path / "inputs.pickle"
    inputs.write_bytes(pickle.dumps((plan_blob(plan).tobytes(), run_args)))
    proc = subprocess.run(
        [
            sys.executable, "-c", _RSS_LOOP,
            native_or_none().__file__, str(inputs),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth_kib = int(proc.stdout)
    assert growth_kib < 1024, f"peak RSS grew by {growth_kib} KiB"


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
        for backend in ("python", "native")
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


@requires_native
@pytest.mark.native
def test_campaign_resumes_across_backends(tmp_path):
    """A checkpoint written under the Python backend resumes -- job for
    job, nothing re-run -- when re-issued on the compiled backend: the
    fingerprint treats ``"native"`` like any result-identical knob."""
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
    schedule key, so the compiled backend runs it as a single group --
    the shape the benchmarks pin (see
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


@requires_native
@pytest.mark.native
@pytest.mark.perf_smoke
def test_native_backend_smoke_identical_and_not_slower():
    """<10s tier-1 smoke of the compiled sweep: bit identity on a
    96-point DYN-only sweep, and a deliberately loose speed floor
    (1.2x) -- wall-clock asserts on shared machines must not flake; the
    real claims live in ``BENCH_incremental_analysis.json``."""
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
