"""repro -- reproduction of "Bus Access Optimisation for FlexRay-based
Distributed Embedded Systems" (Pop, Pop, Eles, Peng -- DATE 2007).

Public API highlights
---------------------
Model:       :class:`Task`, :class:`Message`, :class:`TaskGraph`,
             :class:`Application`, :class:`System`
Bus:         :class:`FlexRayConfig`
Analysis:    :func:`analyse_system`
Optimisers:  :func:`optimise_bbc`, :func:`optimise_obc`, :func:`optimise_sa`
Simulation:  :func:`simulate`
Workloads:   :func:`generate_system`, :func:`cruise_controller`
"""

from importlib import import_module
from typing import TYPE_CHECKING

#: Exports, resolved lazily (PEP 562): ``import repro`` (and with it
#: every ``import repro.<module>``) loads no submodule, so a process
#: pays only for what it uses -- the optimisers never load the
#: simulator, the viz or the case study.
_EXPORTS = {
    "AnalysisError": "repro.errors",
    "AnalysisOptions": "repro.analysis.holistic",
    "AnalysisResult": "repro.analysis.holistic",
    "Application": "repro.model.application",
    "BusOptimisationOptions": "repro.core.search",
    "ConfigurationError": "repro.errors",
    "CostBreakdown": "repro.core.cost",
    "FlexRayConfig": "repro.core.config",
    "GAOptions": "repro.core.ga",
    "GeneratorConfig": "repro.synth.taskgraph_gen",
    "Message": "repro.model.message",
    "MessageKind": "repro.model.message",
    "ModelError": "repro.errors",
    "OptimisationError": "repro.errors",
    "OptimisationResult": "repro.core.result",
    "ReproError": "repro.errors",
    "SAOptions": "repro.core.sa",
    "SchedulingError": "repro.errors",
    "SchedulingPolicy": "repro.model.task",
    "SearchPoint": "repro.core.result",
    "SerializationError": "repro.errors",
    "SimulationError": "repro.errors",
    "SimulationOptions": "repro.flexray.simulator",
    "SimulationResult": "repro.flexray.simulator",
    "System": "repro.model.system",
    "Task": "repro.model.task",
    "TaskGraph": "repro.model.graph",
    "ValidationError": "repro.errors",
    "analyse_system": "repro.analysis.holistic",
    "basic_configuration": "repro.core.bbc",
    "bottlenecks": "repro.analysis.sensitivity",
    "bus_load": "repro.analysis.sensitivity",
    "cost_function": "repro.core.cost",
    "cruise_controller": "repro.casestudy.cruise_control",
    "generate_system": "repro.synth.taskgraph_gen",
    "load_system": "repro.io.serialization",
    "optimise_bbc": "repro.core.bbc",
    "optimise_ga": "repro.core.ga",
    "optimise_obc": "repro.core.obc",
    "optimise_sa": "repro.core.sa",
    "paper_suite": "repro.synth.suite",
    "render_bus_trace": "repro.viz.gantt",
    "render_cycle": "repro.viz.gantt",
    "render_schedule": "repro.viz.gantt",
    "save_system": "repro.io.serialization",
    "simulate": "repro.flexray.simulator",
    "slack_report": "repro.analysis.sensitivity",
    "validate_system": "repro.model.validation",
}

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisOptions",
    "AnalysisResult",
    "Application",
    "BusOptimisationOptions",
    "ConfigurationError",
    "CostBreakdown",
    "FlexRayConfig",
    "GAOptions",
    "GeneratorConfig",
    "Message",
    "MessageKind",
    "ModelError",
    "OptimisationError",
    "OptimisationResult",
    "ReproError",
    "SAOptions",
    "SchedulingError",
    "SchedulingPolicy",
    "SearchPoint",
    "SerializationError",
    "SimulationError",
    "SimulationOptions",
    "SimulationResult",
    "System",
    "Task",
    "TaskGraph",
    "ValidationError",
    "analyse_system",
    "basic_configuration",
    "bottlenecks",
    "bus_load",
    "cost_function",
    "cruise_controller",
    "generate_system",
    "load_system",
    "optimise_bbc",
    "optimise_ga",
    "optimise_obc",
    "optimise_sa",
    "paper_suite",
    "render_bus_trace",
    "render_cycle",
    "render_schedule",
    "save_system",
    "simulate",
    "slack_report",
    "validate_system",
    "__version__",
]


def __getattr__(name: str):
    """Resolve re-exported names on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static typing aid only
    from repro.analysis.holistic import AnalysisOptions, AnalysisResult, analyse_system
    from repro.analysis.sensitivity import bottlenecks, bus_load, slack_report
    from repro.casestudy.cruise_control import cruise_controller
    from repro.core.bbc import basic_configuration, optimise_bbc
    from repro.core.ga import GAOptions, optimise_ga
    from repro.core.config import FlexRayConfig
    from repro.core.cost import CostBreakdown, cost_function
    from repro.core.obc import optimise_obc
    from repro.core.result import OptimisationResult, SearchPoint
    from repro.core.sa import SAOptions, optimise_sa
    from repro.core.search import BusOptimisationOptions
    from repro.errors import (
        AnalysisError,
        ConfigurationError,
        ModelError,
        OptimisationError,
        ReproError,
        SchedulingError,
        SerializationError,
        SimulationError,
        ValidationError,
    )
    from repro.flexray.simulator import SimulationOptions, SimulationResult, simulate
    from repro.io.serialization import load_system, save_system
    from repro.model.application import Application
    from repro.model.graph import TaskGraph
    from repro.model.message import Message, MessageKind
    from repro.model.system import System
    from repro.model.task import SchedulingPolicy, Task
    from repro.model.validation import validate_system
    from repro.synth.suite import paper_suite
    from repro.synth.taskgraph_gen import GeneratorConfig, generate_system
    from repro.viz.gantt import render_bus_trace, render_cycle, render_schedule
