"""Synthetic workload generation (Section 7 experiment recipe)."""

from repro.synth.suite import (
    fault_grid,
    paper_suite,
    paper_system,
)
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system

__all__ = [
    "GeneratorConfig",
    "fault_grid",
    "generate_system",
    "paper_suite",
    "paper_system",
]
