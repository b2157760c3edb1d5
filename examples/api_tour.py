#!/usr/bin/env python3
"""Doctest-style tour of the public analysis/optimisation API.

Every snippet below is a doctest: ``python examples/api_tour.py`` (or
the tier-1 example smoke test) executes them with ``doctest`` and fails
on any drift between the documented and the actual behaviour.  The tour
covers the three layers a user touches, with their determinism
guarantees:

1. one-off analysis -- ``repro.analysis.analyse_system``;
2. repeated analysis -- ``repro.analysis.AnalysisContext`` (the
   incremental engine: bit-identical to one-off, just faster);
3. backends -- ``AnalysisOptions.backend`` (the compiled native
   engine behind the ``repro[native]`` extra, bit-identical to the
   Python oracle);
4. optimisation -- the strategy registry (``repro.core.optimise``
   dispatches any registered strategy by name) on the unified search
   runtime, serial or parallel, always byte-identical at a fixed
   seed;
5. campaigns -- declarative (system x strategy) job matrices with
   JSON-persisted results and resumable checkpoints;
6. fault injection -- seeded channel fault models with
   retransmission-aware simulation, and the k-error analysis bound
   (``AnalysisOptions.fault_hypothesis``) that stays above every
   faulty run;
7. the service layer -- ``python -m repro serve`` puts the same stack
   behind a JSON/HTTP front (``repro.service``) with a warm evaluator
   pool, admission control and restart-surviving campaigns.

>>> from repro.synth import paper_suite
>>> from repro.analysis import AnalysisContext, AnalysisOptions, analyse_system
>>> from repro.core import optimise, optimise_obc
>>> from repro.core.bbc import basic_configuration
>>> from repro.core.search import (
...     BusOptimisationOptions,
...     dyn_segment_bounds,
...     min_static_slot,
... )

A deterministic workload: suites are regenerated from ``(class, count,
seed)`` alone, so every run of this file sees the same system.

>>> system = paper_suite(n_nodes=2, count=1, seed=23)[0]
>>> len(system.nodes)
2

**One-off analysis.**  ``dyn_segment_bounds`` gives the legal DYN
segment lengths for a static-segment size, ``basic_configuration``
derives the BBC bus setup for one such length, and ``analyse_system``
schedules the static segment and runs the holistic fix point.

>>> options = BusOptimisationOptions()
>>> st_bus = len(system.st_sender_nodes()) * min_static_slot(system, options)
>>> lo, hi = dyn_segment_bounds(system, st_bus, options)
>>> lo <= hi
True
>>> config = basic_configuration(system, n_minislots=lo, options=options)
>>> result = analyse_system(system, config)
>>> result.feasible
True
>>> sorted(result.wcrt) == sorted(
...     a.name for g in system.application.graphs
...     for a in (*g.tasks, *g.messages)
... )
True

**Repeated analysis.**  An ``AnalysisContext`` shares per-system
invariants, cached schedule artifacts and certified fix-point warm
starts across calls.  ``analyse`` is locked bit-identical to
``analyse_cold``, the fully cold oracle without any of those warm
starts (see docs/ANALYSIS.md), so a warm context is a pure speedup:

>>> warm = AnalysisContext(system)
>>> sweep = [config.with_dyn_length(lo + k) for k in (0, 4, 8)]
>>> [warm.analyse(c).wcrt for c in sweep] == [
...     warm.analyse_cold(c).wcrt for c in sweep
... ]
True

**Availability patterns.**  FPS tasks run only in the slack of the
static schedule.  ``NodeAvailability`` answers "when has the node
delivered *x* macroticks of slack?", and the FPS maximisation visits
its critical instants (time 0 and every busy start) longest initial
busy run first, so the per-instant bound prunes early:

>>> from repro.analysis import NodeAvailability
>>> av = NodeAvailability([(2, 5), (8, 10)], period=12)
>>> av.advance(0, 4)  # slack 0-2, then 5-7
7
>>> tables = av.instant_advance_tables()
>>> [tables.instants[i] for i in tables.eval_order]
[2, 8, 0]

**Evaluation backends.**  ``AnalysisOptions.backend`` selects the
fix-point engine: ``"python"`` (default), ``"native"`` -- the
compiled backend, which lowers the system's invariants once per group
of DYN lengths sharing a schedule and runs each length's entire fix
point inside the ``repro._native`` C extension.  ``analyse`` and
``AnalysisContext.analyse_sweep`` -- one static variant at many DYN
lengths, a compact row per length and a full result for the best --
run the same per-length path on either backend, and results are
bit-identical across backends; the extension is the optional
``repro[native]`` extra, so this snippet picks it when it is built and
the Python backend otherwise:

>>> AnalysisOptions().backend
'python'
>>> from repro.analysis.backend import native_or_none
>>> from repro.core.runtime import CandidateSweep
>>> backend = "native" if native_or_none() is not None else "python"
>>> swept = AnalysisContext(system, AnalysisOptions(backend=backend))
>>> rows = swept.analyse_sweep(
...     CandidateSweep(config, tuple(c.n_minislots for c in sweep))
... )
>>> [r.wcrt for r in rows] == [warm.analyse(c).wcrt for c in sweep]
True

**Optimisation.**  Every strategy -- BBC, OBC/CF, OBC/EE, SA, GA --
is a proposal generator executed by the unified search runtime
(``repro.core.runtime.SearchDriver``): the driver owns candidate
evaluation (batched through the ``Evaluator``'s warm context, LRU
result cache and opt-in process pool), budgets, trace recording and
deterministic best-selection.  Strategies dispatch by registry name:

>>> from repro.core import available_strategies
>>> [n for n in available_strategies()
...  if n in ("bbc", "obc-cf", "obc-ee", "sa", "ga")]
['bbc', 'ga', 'obc-cf', 'obc-ee', 'sa']
>>> small = BusOptimisationOptions(
...     ee_max_dyn_points=24, max_extra_static_slots=1, max_slot_size_steps=1
... )
>>> from repro.core import StrategyOptions
>>> by_name = optimise(system, "obc-ee", StrategyOptions(bus=small))
>>> direct = optimise_obc(system, small, method="exhaustive")
>>> by_name.trace == direct.trace
True

``OptimisationResult`` carries the audit trail the paper's experiment
tables are built from: exact analysis count, cache hits and the search
trace.

>>> direct.evaluations > 0
True
>>> len(direct.trace) == direct.evaluations
True

**Campaigns.**  A campaign is a (system x strategy x options) job
matrix run through the registry, with every job's full result
persisted as schema-versioned JSON when a checkpoint directory is
given -- re-running the same campaign resumes from those files.

>>> import tempfile
>>> from repro.core import campaign_matrix, run_campaign
>>> systems = {"s0": system}
>>> jobs = campaign_matrix(
...     systems, ["bbc", "obc-cf"], bus=small
... )
>>> [j.job_id for j in jobs]
['s0__bbc', 's0__obc-cf']
>>> with tempfile.TemporaryDirectory() as ckpt:
...     cold = run_campaign(systems, jobs, checkpoint_dir=ckpt)
...     warm = run_campaign(systems, jobs, checkpoint_dir=ckpt)
>>> len(cold.executed), len(cold.resumed)
(2, 0)
>>> len(warm.executed), len(warm.resumed)
(0, 2)
>>> warm.result_for("s0", "bbc").trace == cold.result_for("s0", "bbc").trace
True

**Fault injection.**  ``SimulationOptions.faults`` takes a seeded
channel fault model; corrupted frames are retransmitted (ST in the
next cycle, DYN by re-arbitration) and counted.  A rate-0 model is
byte-identical to a clean run, and analysing under
``AnalysisOptions.fault_hypothesis=k`` upper-bounds every simulated
response time of a run with at most ``k`` errors:

>>> from repro.flexray.faults import IidFaults
>>> from repro.flexray.simulator import SimulationOptions, simulate
>>> clean = simulate(system, config)
>>> zero = SimulationOptions(faults=IidFaults(rate=0.0, seed=1))
>>> simulate(system, config, zero).response_times == clean.response_times
True
>>> noisy = SimulationOptions(faults=IidFaults(rate=0.3, seed=1))
>>> faulty = simulate(system, config, noisy)
>>> k = faulty.total_retransmissions
>>> k > 0
True
>>> bound = analyse_system(
...     system, config, AnalysisOptions(fault_hypothesis=k)
... )
>>> all(
...     r <= bound.wcrt[name]
...     for (name, _instance), r in faulty.response_times.items()
... )
True

**Analysis as a service.**  ``python -m repro serve`` exposes the same
stack over JSON/HTTP (see ``docs/ARCHITECTURE.md``, "The service
layer"): ``POST /analyse`` answers from a warm evaluator pool keyed by
system fingerprint, ``POST /campaigns`` runs checkpoint-backed job
matrices that survive server restarts.  The client side is stdlib
urllib -- the wire documents are exactly the
``repro.io.serialization`` schemas:

>>> import json, tempfile, threading, urllib.request
>>> from repro.io.serialization import config_to_dict, system_to_dict
>>> from repro.service import ServiceConfig, create_server
>>> server = create_server(ServiceConfig(
...     port=0, state_dir=tempfile.mkdtemp(prefix="repro-service-")
... ))
>>> threading.Thread(target=server.serve_forever, daemon=True).start()
>>> url = "http://127.0.0.1:%d/analyse" % server.server_address[1]
>>> body = json.dumps({
...     "kind": "analyse_request",
...     "system": system_to_dict(system),
...     "config": config_to_dict(config),
... }).encode("utf-8")
>>> def analyse_remotely():
...     with urllib.request.urlopen(urllib.request.Request(
...         url, data=body, headers={"Content-Type": "application/json"}
...     )) as response:
...         return json.loads(response.read())
>>> cold = analyse_remotely()
>>> cold["result"]["schedulable"] == result.schedulable
True
>>> cold["service"]["pool_hit"]
False
>>> warm = analyse_remotely()  # same fingerprint: warm pool + cache
>>> warm["service"]["pool_hit"], warm["service"]["evaluations"]
(True, 0)
>>> warm["result"] == cold["result"]
True
>>> server.shutdown(); server.server_close()
"""

import doctest
import sys


def main() -> int:
    failures, tests = doctest.testmod(
        sys.modules[__name__], verbose=False, report=True
    )
    print(f"api_tour: {tests} doctests, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
