"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
generate   write a synthetic Section 7 system to JSON
analyse    run the holistic analysis of a system under a configuration
optimise   run a registered search strategy (bbc / obc-cf / obc-ee / sa / ga)
campaign   run a (system x strategy) job matrix with resumable checkpoints
work       drain jobs from a distributed campaign fabric directory
simulate   run the discrete-event simulator and print the trace
show       render a system or configuration as text/Gantt
serve      run the JSON/HTTP analysis service (repro.service)

``optimise`` and ``campaign`` dispatch by strategy *name* through
:mod:`repro.core.strategies`, so a strategy registered by third-party
code is immediately available on the command line.  Both always release
the evaluator's process pool, even on error paths: every run goes
through the :class:`~repro.core.runtime.SearchDriver`, which holds the
evaluator as a context manager.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.backend import BACKEND_MODES, describe_backends
from repro.analysis.holistic import AnalysisOptions, analyse_system
from repro.casestudy.cruise_control import cruise_controller
from repro.core.campaign import (
    CampaignOptions,
    campaign_matrix,
    ensure_writable_dir,
    ensure_writable_file,
    run_campaign,
)
from repro.core.fabric import (
    fabric_collect,
    fabric_status,
    fabric_submit,
    fabric_work,
)
from repro.core.ga import GAOptions
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import (
    available_strategies,
    get_strategy,
    optimise,
)
from repro.errors import ReproError
from repro.flexray.faults import IidFaults
from repro.flexray.simulator import SimulationOptions, simulate
from repro.io.serialization import (
    config_to_dict,
    load_config,
    load_system,
    result_to_dict,
    save_config,
    save_result,
    save_system,
)
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system
from repro.viz.gantt import render_bus_trace, render_cycle

#: Seconds between the fabric status polls of ``campaign --fabric-wait``.
FABRIC_POLL_S = 2.0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexRay bus access optimisation (DATE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic system")
    p_gen.add_argument("output", help="output JSON path")
    p_gen.add_argument("--nodes", type=int, default=3)
    p_gen.add_argument("--tasks-per-node", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument(
        "--cruise-controller",
        action="store_true",
        help="write the built-in case study instead of a random system",
    )

    p_ana = sub.add_parser("analyse", help="holistic schedulability analysis")
    p_ana.add_argument("system", help="system JSON path")
    p_ana.add_argument("config", help="bus configuration JSON path")
    p_ana.add_argument("--json", action="store_true", help="machine output")
    _add_backend_argument(p_ana)

    p_opt = sub.add_parser("optimise", help="search for a bus configuration")
    p_opt.add_argument("system", help="system JSON path")
    p_opt.add_argument(
        "--algorithm", choices=available_strategies(), default="obc-cf"
    )
    p_opt.add_argument("--output", help="write the best configuration JSON here")
    p_opt.add_argument(
        "--result-output", help="write the full result JSON (trace included) here"
    )
    _add_runtime_arguments(p_opt)

    p_camp = sub.add_parser(
        "campaign", help="run a (system x strategy) job matrix"
    )
    p_camp.add_argument(
        "systems", nargs="+", help="system JSON paths (ids = file stems)"
    )
    p_camp.add_argument(
        "--strategies",
        default="bbc,obc-cf",
        help="comma-separated strategy names (default: bbc,obc-cf)",
    )
    p_camp.add_argument(
        "--checkpoint-dir",
        help="persist per-job results here and resume finished jobs",
    )
    p_camp.add_argument(
        "--output", help="write the campaign summary JSON here"
    )
    p_camp.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds, checked between "
        "analysis batches; a job that exceeds it is recorded as failed "
        "and the campaign continues",
    )
    p_camp.add_argument(
        "--job-retries",
        type=int,
        default=0,
        help="retries per failing job before it is recorded as failed "
        "(default 0; backoff between attempts is jittered)",
    )
    p_camp.add_argument(
        "--fabric",
        metavar="DIR",
        help="submit the matrix to a distributed fabric directory "
        "instead of running it inline; this process then works the "
        "fabric alongside any 'repro work DIR' workers and collects "
        "the merged report when the matrix is drained",
    )
    p_camp.add_argument(
        "--fabric-wait",
        action="store_true",
        help="with --fabric: coordinate only -- submit, then poll until "
        "external workers drain the matrix (run none of the jobs here)",
    )
    _add_runtime_arguments(p_camp)

    p_work = sub.add_parser(
        "work",
        help="drain jobs from a distributed campaign fabric directory",
    )
    p_work.add_argument(
        "fabric", help="fabric directory (created by campaign --fabric)"
    )
    p_work.add_argument(
        "--worker-id",
        help="stable worker identity in leases and journals "
        "(default: host-pid)",
    )
    p_work.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a silent lease survives before other workers may "
        "presume this process dead and take its job over (default 30; "
        "heartbeats renew every ttl/4)",
    )
    p_work.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between scans while every open job is leased "
        "elsewhere (default 0.5)",
    )
    p_work.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after running this many jobs (default: unbounded)",
    )
    p_work.add_argument(
        "--once",
        action="store_true",
        help="exit when no job is immediately claimable instead of "
        "polling for leases to expire",
    )

    p_sim = sub.add_parser("simulate", help="discrete-event simulation")
    p_sim.add_argument("system", help="system JSON path")
    p_sim.add_argument("config", help="bus configuration JSON path")
    p_sim.add_argument("--trace", action="store_true", help="print every event")
    p_sim.add_argument("--gantt", action="store_true", help="ASCII bus Gantt")
    p_sim.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="i.i.d. per-transmission corruption probability in [0, 1]; "
        "corrupted frames are retransmitted (default 0 = clean channel)",
    )
    p_sim.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault process (default 0); runs are "
        "deterministic per (rate, seed)",
    )

    p_show = sub.add_parser("show", help="describe a system or configuration")
    p_show.add_argument("path", help="system or configuration JSON path")

    p_serve = sub.add_parser(
        "serve", help="run the JSON/HTTP analysis service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = pick a free one; the bound port is "
        "printed on startup)",
    )
    p_serve.add_argument(
        "--state-dir",
        default="service-state",
        help="campaign specs, checkpoints and reports live here; a "
        "restarted server pointed at the same directory resumes "
        "in-flight campaigns (default: service-state)",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="analyse requests processed at once; the rest get 429 "
        "(default 8)",
    )
    p_serve.add_argument(
        "--pool-entries",
        type=int,
        default=8,
        help="warm evaluators kept resident, LRU beyond this (default 8)",
    )
    p_serve.add_argument(
        "--max-campaigns",
        type=int,
        default=4,
        help="campaigns running at once before submissions get 429 "
        "(default 4)",
    )
    p_serve.add_argument(
        "--fabric",
        dest="serve_fabric",
        action="store_true",
        help="run campaigns through the distributed fabric: each "
        "campaign directory under the state dir becomes a fabric that "
        "external 'repro work' processes can join",
    )
    return parser


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Search-runtime knobs shared by ``optimise`` and ``campaign``."""
    parser.add_argument("--sa-iterations", type=int, default=400,
                        help="SA annealing budget (sa strategy only)")
    parser.add_argument("--seed", type=int, default=2007,
                        help="SA/GA random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel candidate-evaluation processes (default: serial; "
        "results are byte-identical either way)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget per run, enforced at batch boundaries",
    )
    parser.add_argument(
        "--max-evaluations",
        type=int,
        default=None,
        help="exact-analysis budget per run, enforced at batch boundaries",
    )
    _add_backend_argument(parser)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    # Choices and help both derive from repro.analysis.backend, so the
    # help shows each backend's availability on this interpreter.
    parser.add_argument(
        "--backend",
        choices=BACKEND_MODES,
        default="python",
        help="analysis evaluation backend; results are bit-identical "
        f"across all of them: {describe_backends()}",
    )
    parser.add_argument(
        "--fault-hypothesis",
        type=int,
        default=None,
        metavar="K",
        help="k-error fault hypothesis: charge up to K corrupted "
        "transmissions (each paid as retransmission delay) into the "
        "response-time bounds (default: clean channel)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "analyse":
        return _cmd_analyse(args)
    if args.command == "optimise":
        return _cmd_optimise(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "work":
        return _cmd_work(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_generate(args) -> int:
    if args.cruise_controller:
        system = cruise_controller()
    else:
        system = generate_system(
            GeneratorConfig(
                n_nodes=args.nodes,
                tasks_per_node=args.tasks_per_node,
                seed=args.seed,
            )
        )
    save_system(system, args.output)
    print(f"wrote {system.describe()} to {args.output}")
    return 0


def _cmd_analyse(args) -> int:
    system = load_system(args.system)
    config = load_config(args.config)
    result = analyse_system(
        system,
        config,
        options=AnalysisOptions(
            backend=args.backend, fault_hypothesis=args.fault_hypothesis
        ),
    )
    if args.json:
        payload = {
            "feasible": result.feasible,
            "schedulable": result.schedulable,
            "cost": result.cost_value,
            "wcrt": result.wcrt,
            "failure": result.failure,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.schedulable else 1
    print(system.describe())
    print(config.describe())
    if not result.feasible:
        print(f"INFEASIBLE: {result.failure}")
        return 1
    app = system.application
    for g in app.graphs:
        for name in g.topological_order():
            mark = " " if result.wcrt[name] <= app.deadline_of(name) else "!"
            print(
                f" {mark} {name:20s} R={result.wcrt[name]:>8} "
                f"D={app.deadline_of(name):>8}"
            )
    print(f"cost = {result.cost.value:.1f} "
          f"({'schedulable' if result.schedulable else 'NOT schedulable'})")
    from repro.analysis.sensitivity import bottlenecks

    print("tightest activities:")
    for entry in bottlenecks(system, result, count=3):
        print(
            f"    {entry.name:20s} slack={entry.slack:>8} "
            f"({entry.usage:.0%} of deadline)"
        )
    return 0 if result.schedulable else 1


def _runtime_bus_options(args) -> Optional[BusOptimisationOptions]:
    """Evaluator options from the shared runtime flags (None = defaults)."""
    if (
        args.workers is None
        and args.backend == "python"
        and args.fault_hypothesis is None
    ):
        return None
    return BusOptimisationOptions(
        parallel_workers=args.workers,
        analysis=AnalysisOptions(
            backend=args.backend, fault_hypothesis=args.fault_hypothesis
        ),
    )


def _strategy_options(args, name: str):
    """Build the named strategy's option record from the CLI flags.

    SA/GA get their dedicated flags; every other strategy (including
    third-party registrations) gets its registered ``options_type``
    with the shared runtime knobs.
    """
    base = dict(
        bus=_runtime_bus_options(args),
        max_seconds=args.max_seconds,
        max_evaluations=args.max_evaluations,
    )
    if name == "sa":
        return SAOptions(
            iterations=args.sa_iterations, seed=args.seed, **base
        )
    if name == "ga":
        return GAOptions(seed=args.seed, **base)
    return get_strategy(name).options_type(**base)


def _cmd_optimise(args) -> int:
    system = load_system(args.system)
    result = optimise(
        system, args.algorithm, _strategy_options(args, args.algorithm)
    )
    print(result.describe())
    if args.result_output:
        save_result(result, args.result_output)
        print(f"wrote full result to {args.result_output}")
    if result.config is not None and args.output:
        save_config(result.config, args.output)
        print(f"wrote best configuration to {args.output}")
    if result.config is not None and not args.output:
        print(json.dumps(config_to_dict(result.config), indent=2, sort_keys=True))
    return 0 if result.schedulable else 1


def _cmd_campaign(args) -> int:
    systems = {}
    for path in args.systems:
        system_id = os.path.splitext(os.path.basename(path))[0]
        if system_id in systems:
            print(f"error: duplicate system id {system_id!r}", file=sys.stderr)
            return 2
        systems[system_id] = load_system(path)
    strategies = [
        (name, _strategy_options(args, name))
        for name in args.strategies.split(",")
        if name
    ]
    jobs = campaign_matrix(systems, strategies)
    options = CampaignOptions(
        job_timeout=args.job_timeout,
        max_retries=args.job_retries,
    )

    # Fail fast on unwritable targets before any job burns CPU time.
    if args.checkpoint_dir:
        ensure_writable_dir(args.checkpoint_dir, flag="--checkpoint-dir")
    if args.output:
        ensure_writable_file(args.output, flag="--output")

    if args.fabric:
        report = _coordinate_fabric(args, systems, strategies, options)
    else:
        def progress(job, result, resumed) -> None:
            state = "resumed" if resumed else "ran"
            print(f"[{state}] {job.job_id}: {result.describe()}")

        report = run_campaign(
            systems,
            jobs,
            checkpoint_dir=args.checkpoint_dir,
            progress=progress,
            options=options,
        )
    schedulable = sum(r.schedulable for r in report.results.values())
    print(
        f"campaign: {len(jobs)} jobs ({len(report.resumed)} resumed, "
        f"{len(report.failures)} failed), "
        f"{schedulable} schedulable, {report.elapsed_seconds:.2f}s"
    )
    for failure in report.failures.values():
        print(f"[failed] {failure.describe()}", file=sys.stderr)
    if args.output:
        payload = {
            "jobs": {
                job_id: result_to_dict(result)
                for job_id, result in report.results.items()
            },
            "failures": {
                job_id: {
                    "kind": failure.kind,
                    "message": failure.message,
                    "attempts": failure.attempts,
                }
                for job_id, failure in report.failures.items()
            },
            "resumed": list(report.resumed),
            "quarantined": list(report.quarantined),
            "elapsed_seconds": report.elapsed_seconds,
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote campaign summary to {args.output}")
    if report.failures:
        return 1
    return 0 if schedulable == len(jobs) else 1


def _coordinate_fabric(args, systems, strategies, options):
    """The ``campaign --fabric`` path: submit, drain, collect.

    Submission is idempotent (content-addressed manifest), so rerunning
    the same command resumes the fabric.  Without ``--fabric-wait``
    this process doubles as a worker; with it, it only polls while
    external ``repro work`` processes drain the matrix.
    """
    import time as _time

    spec = fabric_submit(
        args.fabric,
        systems,
        strategies,
        bus=_runtime_bus_options(args),
        options=options,
    )
    print(
        f"fabric {spec.fabric_id}: {len(spec.jobs)} jobs under "
        f"{args.fabric} (add workers with: repro work {args.fabric})"
    )
    if args.fabric_wait:
        while True:
            status = fabric_status(args.fabric)
            print(status.describe())
            if status.complete:
                break
            _time.sleep(FABRIC_POLL_S)
    else:
        fabric_work(args.fabric, log=print)
    return fabric_collect(args.fabric)


def _cmd_work(args) -> int:
    report = fabric_work(
        args.fabric,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
        max_jobs=args.max_jobs,
        once=args.once,
        log=print,
    )
    print(
        f"worker {report.worker_id}: {len(report.completed)} completed, "
        f"{len(report.failed)} failed, {len(report.reaped)} leases reaped, "
        f"{len(report.lost)} lost"
    )
    print(fabric_status(args.fabric).describe())
    return 1 if report.failed else 0


def _cmd_simulate(args) -> int:
    system = load_system(args.system)
    config = load_config(args.config)
    faults = None
    if args.fault_rate:
        faults = IidFaults(rate=args.fault_rate, seed=args.fault_seed)
    result = simulate(system, config, SimulationOptions(faults=faults))
    if args.trace:
        for event in result.trace:
            print(event)
    if args.gantt:
        print(render_cycle(config))
        print(render_bus_trace(result.trace, config))
    print(
        f"finished={result.all_finished} misses={list(result.deadline_misses)}"
    )
    if faults is not None:
        print(f"retransmissions={result.total_retransmissions}")
    for name, r in sorted(result.observed_wcrt.items()):
        print(f"  {name:20s} observed R = {r}")
    return 0 if result.all_finished and not result.deadline_misses else 1


def _cmd_serve(args) -> int:
    # Imported here so the CLI's non-service commands never pay for the
    # HTTP stack (and a service bug cannot break `analyse`/`optimise`).
    from repro.service.server import ServiceConfig, serve

    return serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            state_dir=args.state_dir,
            max_concurrent=args.max_concurrent,
            pool_entries=args.pool_entries,
            max_campaigns=args.max_campaigns,
            fabric=args.serve_fabric,
        )
    )


def _cmd_show(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "application" in data:
        system = load_system(args.path)
        print(system.describe())
        for g in system.application.graphs:
            kind = "TT" if all(t.is_scs for t in g.tasks) else "ET"
            print(
                f"  graph {g.name} [{kind}] period={g.period} "
                f"deadline={g.deadline}: {len(g.tasks)} tasks, "
                f"{len(g.messages)} messages"
            )
    else:
        config = load_config(args.path)
        print(config.describe())
        print(render_cycle(config))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
