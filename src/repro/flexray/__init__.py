"""FlexRay protocol substrate: constants, cycle geometry, simulator."""

from repro.flexray import params
from repro.flexray.faults import (
    BlackoutFaults,
    FaultModel,
    FaultPlan,
    GilbertElliottFaults,
    IidFaults,
    NO_FAULTS,
    resolve_faults,
)
from repro.flexray.timeline import cycle_start, st_slot_start

__all__ = [
    "BlackoutFaults",
    "FaultModel",
    "FaultPlan",
    "GilbertElliottFaults",
    "IidFaults",
    "NO_FAULTS",
    "cycle_start",
    "params",
    "resolve_faults",
    "st_slot_start",
]
