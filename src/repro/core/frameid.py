"""Criticality-driven FrameID assignment (Fig. 5, line 1 / Eq. (4)).

Every DYN message receives a unique FrameID (avoiding hp(m) delays);
messages with higher criticality -- smaller CP_m = D_m - LP_m, where
LP_m is the longest path from the graph root up to the message -- get
smaller FrameIDs so they suffer less lf(m)/ms(m) interference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.flexray import params
from repro.model.system import System
from repro.model.times import transmission_time


def message_criticalities(
    system: System,
    bits_per_mt: int = params.DEFAULT_BITS_PER_MT,
    frame_overhead_bytes: int = params.DEFAULT_FRAME_OVERHEAD_BYTES,
) -> Dict[str, int]:
    """CP_m = D_m - LP_m per DYN message; smaller = more critical."""
    app = system.application
    costs = {
        m.name: transmission_time(m.size, frame_overhead_bytes, bits_per_mt)
        for m in app.messages()
    }
    crit: Dict[str, int] = {}
    for m in app.dyn_messages():
        g = app.graph_of(m.name)
        lp = g.longest_path_to(m.name, costs)
        crit[m.name] = app.deadline_of(m.name) - lp
    return crit


def assign_frame_ids(
    system: System,
    bits_per_mt: int = params.DEFAULT_BITS_PER_MT,
    frame_overhead_bytes: int = params.DEFAULT_FRAME_OVERHEAD_BYTES,
) -> Dict[str, int]:
    """Unique FrameIDs 1..n, most critical message first.

    Ties are broken by name for determinism.  The implied DYN
    slot-to-node assignment follows from the messages' sender nodes.
    """
    crit = message_criticalities(system, bits_per_mt, frame_overhead_bytes)
    ordered: List[Tuple[int, str]] = sorted(
        (cp, name) for name, cp in crit.items()
    )
    return {name: fid for fid, (_, name) in enumerate(ordered, start=1)}
