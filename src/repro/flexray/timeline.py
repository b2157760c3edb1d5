"""Bus-cycle geometry: where a static slot instance lies in time.

Pure functions mapping (cycle, slot) coordinates of a
:class:`~repro.core.config.FlexRayConfig` to absolute macrotick times.
The schedule table derives every ST message time from
:func:`st_slot_start`, so the static scheduler, the timing analysis and
the simulator agree on where each slot lies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.core.config import FlexRayConfig


def cycle_start(config: "FlexRayConfig", cycle: int) -> int:
    """Absolute start time of bus cycle *cycle* (0-based)."""
    if cycle < 0:
        raise ConfigurationError(f"cycle index must be >= 0, got {cycle}")
    return cycle * config.gd_cycle


def st_slot_start(config: "FlexRayConfig", cycle: int, slot: int) -> int:
    """Absolute start time of static slot *slot* (1-based) in *cycle*."""
    if not (1 <= slot <= config.n_static_slots):
        raise ConfigurationError(
            f"static slot {slot} outside [1, {config.n_static_slots}]"
        )
    return cycle_start(config, cycle) + (slot - 1) * config.gd_static_slot
