"""FlexRay bus configuration -- the design variable of the paper.

A :class:`FlexRayConfig` bundles the six design decisions of Section 6:

1. the length of a static slot (``gd_static_slot``),
2. the number of static slots (``len(static_slots)``),
3. the assignment of static slots to nodes (``static_slots``),
4. the length of the dynamic segment (``n_minislots`` x ``gd_minislot``),
5. the assignment of dynamic slots to nodes, and
6. the FrameID of each dynamic message (``frame_ids``; the slot-to-node
   assignment is implied, because the slot of FrameID f belongs to the
   node that sends the message(s) with FrameID f).

Configurations are immutable; the optimisers derive neighbours with the
``with_*`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.flexray import params
from repro.model.message import Message
from repro.model.system import BusTable, System
from repro.model.times import ceil_div, transmission_time


@dataclass(frozen=True)
class FlexRayConfig:
    """Immutable FlexRay bus-cycle configuration.

    Parameters
    ----------
    static_slots:
        Node name per static slot; index i holds the owner of ST slot
        i + 1 (slots are 1-based on the bus).
    gd_static_slot:
        Length of every static slot, in macroticks.
    n_minislots:
        Number of minislots in the dynamic segment (may be 0 for a purely
        static cycle).
    frame_ids:
        Mapping from DYN message name to its FrameID (1-based dynamic
        slot number).  Messages of the same node may share a FrameID.
    gd_minislot:
        Length of one minislot in macroticks.
    bits_per_mt:
        Bus speed: payload bits transferred per macrotick (8 by default,
        i.e. one byte per macrotick -- see :mod:`repro.flexray.params`).
    frame_overhead_bytes:
        Per-frame protocol overhead added to every frame transmission.
    """

    static_slots: Tuple[str, ...]
    gd_static_slot: int
    n_minislots: int
    frame_ids: Mapping[str, int] = field(default_factory=dict)
    gd_minislot: int = params.DEFAULT_GD_MINISLOT
    bits_per_mt: int = params.DEFAULT_BITS_PER_MT
    frame_overhead_bytes: int = params.DEFAULT_FRAME_OVERHEAD_BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "static_slots", tuple(self.static_slots))
        object.__setattr__(self, "frame_ids", dict(self.frame_ids))
        if not self.static_slots and self.n_minislots == 0:
            raise ConfigurationError("bus cycle must contain at least one segment")
        if len(self.static_slots) > params.MAX_STATIC_SLOTS:
            raise ConfigurationError(
                f"{len(self.static_slots)} static slots exceed the protocol limit "
                f"of {params.MAX_STATIC_SLOTS}"
            )
        if self.static_slots:
            if not (1 <= self.gd_static_slot <= params.MAX_STATIC_SLOT_MT):
                raise ConfigurationError(
                    f"gd_static_slot={self.gd_static_slot} outside "
                    f"[1, {params.MAX_STATIC_SLOT_MT}]"
                )
            for node in self.static_slots:
                if not node:
                    raise ConfigurationError("static slot owner must be non-empty")
        elif self.gd_static_slot < 0:
            raise ConfigurationError("gd_static_slot must be >= 0")
        if not (0 <= self.n_minislots <= params.MAX_MINISLOTS):
            raise ConfigurationError(
                f"n_minislots={self.n_minislots} outside [0, {params.MAX_MINISLOTS}]"
            )
        if self.gd_minislot < 1:
            raise ConfigurationError("gd_minislot must be >= 1 macrotick")
        if self.bits_per_mt < 1:
            raise ConfigurationError("bits_per_mt must be >= 1")
        if self.frame_overhead_bytes < 0:
            raise ConfigurationError("frame_overhead_bytes must be >= 0")
        for name, fid in self.frame_ids.items():
            if not isinstance(fid, int) or isinstance(fid, bool) or fid < 1:
                raise ConfigurationError(
                    f"FrameID of message {name!r} must be a positive int, got {fid!r}"
                )
            if fid > max(self.n_minislots, 0):
                raise ConfigurationError(
                    f"FrameID {fid} of message {name!r} cannot fit in a dynamic "
                    f"segment of {self.n_minislots} minislots"
                )
        # Geometry is read on every hot-path iteration: precompute once
        # (the dataclass is frozen, so the derived values never go stale;
        # ``replace()`` re-runs this initialiser).
        st_bus = len(self.static_slots) * self.gd_static_slot
        dyn_bus = self.n_minislots * self.gd_minislot
        object.__setattr__(self, "_st_bus", st_bus)
        object.__setattr__(self, "_dyn_bus", dyn_bus)
        object.__setattr__(self, "_gd_cycle", st_bus + dyn_bus)
        if self.gd_cycle > params.MAX_CYCLE_MT:
            raise ConfigurationError(
                f"gd_cycle={self.gd_cycle} MT exceeds the protocol maximum "
                f"of {params.MAX_CYCLE_MT} MT (16 ms)"
            )
        if self.gd_cycle <= 0:
            raise ConfigurationError("gd_cycle must be positive")

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_static_slots(self) -> int:
        """Number of static slots (``gdNumberOfStaticSlots``)."""
        return len(self.static_slots)

    @property
    def st_bus(self) -> int:
        """Length of the static segment in macroticks."""
        return self._st_bus

    @property
    def dyn_bus(self) -> int:
        """Length of the dynamic segment in macroticks."""
        return self._dyn_bus

    @property
    def gd_cycle(self) -> int:
        """Length of the whole communication cycle in macroticks."""
        return self._gd_cycle

    @cached_property
    def frame_key(self) -> Tuple[Tuple[str, int], ...]:
        """``frame_ids`` as a name-sorted tuple of items (hashable).

        Sorted once, on first use: every analysis reads it several times
        (cache, validation and structure keys), while configurations
        that are only generated or serialised never pay for it.
        """
        return tuple(sorted(self.frame_ids.items()))

    # ------------------------------------------------------------------
    # message metrics
    # ------------------------------------------------------------------
    def message_ct(self, message: Message) -> int:
        """Transmission time C_m of *message* in macroticks (Eq. (1))."""
        return transmission_time(
            message.size, self.frame_overhead_bytes, self.bits_per_mt
        )

    def minislots_needed(self, message: Message) -> int:
        """Number of minislots the DYN frame of *message* occupies."""
        return ceil_div(self.message_ct(message), self.gd_minislot)

    def frame_id_of(self, message_name: str) -> int:
        """FrameID assigned to DYN message *message_name*."""
        try:
            return self.frame_ids[message_name]
        except KeyError:
            raise ConfigurationError(
                f"no FrameID assigned to DYN message {message_name!r}"
            ) from None

    # ------------------------------------------------------------------
    # slot ownership
    # ------------------------------------------------------------------
    def st_slots_of(self, node: str) -> Tuple[int, ...]:
        """1-based static slot numbers owned by *node*."""
        return tuple(
            i + 1 for i, owner in enumerate(self.static_slots) if owner == node
        )

    def bus_table(self, system: System) -> BusTable:
        """*system*'s :class:`~repro.model.system.BusTable` at this
        configuration's bus speed and minislot length."""
        return system.bus_table(
            self.bits_per_mt, self.frame_overhead_bytes, self.gd_minislot
        )

    def _fids_by_node(self, system: System) -> Dict[str, set]:
        """The FrameIDs of the DYN messages in ``frame_ids`` grouped by
        sender node (an ST message named there takes no dynamic slot);
        raises :class:`~repro.errors.ModelError` at the first name that
        is no message of *system*."""
        table = self.bus_table(system)
        frame_ids = self.frame_ids
        for name in frame_ids:
            if name not in table.senders:
                system.application.message(name)  # raises ModelError
        by_node: Dict[str, set] = {}
        for m, node in table.dyn:
            fid = frame_ids.get(m.name)
            if fid is not None:
                by_node.setdefault(node, set()).add(fid)
        return by_node

    def dyn_slots_of(self, node: str, system: System) -> Tuple[int, ...]:
        """Sorted 1-based dynamic slot numbers (FrameIDs) used by *node*."""
        return tuple(sorted(self._fids_by_node(system).get(node, ())))

    def p_latest_tx(self, node: str, system: System) -> Optional[int]:
        """``pLatestTx`` of *node*: the last minislot counter value at which
        the node may still start a dynamic transmission.

        Fixed per node at design time from the node's largest DYN frame
        (Section 3 of the paper), read from the system's bus table.
        ``None`` when the node sends no DYN message.  A value < 1 means
        the node's largest frame does not fit the dynamic segment at all.
        """
        largest = self.bus_table(system).dyn_largest.get(node)
        if largest is None:
            system.tasks_on(node)  # raises ModelError for an unknown node
            return None
        return self.n_minislots - largest + 1

    # ------------------------------------------------------------------
    # semantic validation against a system
    # ------------------------------------------------------------------
    def validate_for(self, system: System) -> None:
        """Raise :class:`ConfigurationError` unless the configuration is a
        legal bus setup for *system*:

        * every node appearing in ``static_slots`` exists,
        * every ST-sending node owns at least one static slot,
        * the static slot accommodates the largest ST message,
        * every DYN message has a FrameID,
        * messages sharing a FrameID originate from the same node,
        * every ``frame_ids`` key names a message of the system (else
          :class:`~repro.errors.ModelError`), and none an ST message,
        * every DYN frame fits the dynamic segment (pLatestTx >= 1) and
          no FrameID of a DYN-sending node exceeds its pLatestTx.

        The checks run in that order and read the system's bus table
        (:meth:`~repro.model.system.System.bus_table`), so a call costs
        one pass over the DYN messages and the ``frame_ids``.
        """
        table = self.bus_table(system)
        nodes = set(system.nodes)
        for owner in self.static_slots:
            if owner not in nodes:
                raise ConfigurationError(
                    f"static slot owner {owner!r} is not a node of the system"
                )
        slot_owners = set(self.static_slots)
        for m, sender in table.st:
            if sender not in slot_owners:
                raise ConfigurationError(
                    f"node {sender!r} sends ST message {m.name!r} but owns no "
                    "static slot"
                )
        if table.max_st_ct > self.gd_static_slot:
            raise ConfigurationError(
                f"gd_static_slot={self.gd_static_slot} cannot fit the largest ST "
                f"frame ({table.max_st_ct} MT)"
            )
        frame_ids = self.frame_ids
        fid_owner: Dict[int, str] = {}
        for m, sender in table.dyn:
            fid = frame_ids.get(m.name)
            if fid is None:
                raise ConfigurationError(
                    f"DYN message {m.name!r} has no FrameID in this configuration"
                )
            owner = fid_owner.setdefault(fid, sender)
            if owner != sender:
                raise ConfigurationError(
                    f"FrameID {fid} is shared by nodes {owner!r} and "
                    f"{sender!r}; a dynamic slot belongs to exactly one node"
                )
        fids_of = self._fids_by_node(system)
        if len(frame_ids) > len(table.dyn):  # the surplus keys are ST
            name = next(
                n for n in frame_ids
                if not system.application.message(n).is_dynamic
            )
            raise ConfigurationError(
                f"frame_ids names ST message {name!r}; only DYN messages "
                "take a FrameID"
            )
        for node, largest in table.dyn_largest.items():
            latest = self.n_minislots - largest + 1
            if latest < 1:
                raise ConfigurationError(
                    f"the largest DYN frame of node {node!r} does not fit a "
                    f"dynamic segment of {self.n_minislots} minislots"
                )
            for fid in sorted(fids_of.get(node, ())):
                if fid > latest:
                    raise ConfigurationError(
                        f"FrameID {fid} of node {node!r} exceeds its pLatestTx "
                        f"({latest}); the frame could never be sent"
                    )

    # ------------------------------------------------------------------
    # derivation helpers for optimisers
    # ------------------------------------------------------------------
    def with_dyn_length(self, n_minislots: int) -> "FlexRayConfig":
        """Copy with a different dynamic segment length."""
        return replace(self, n_minislots=n_minislots)

    def with_static(
        self, static_slots: Tuple[str, ...], gd_static_slot: int
    ) -> "FlexRayConfig":
        """Copy with a different static segment structure."""
        return replace(
            self, static_slots=tuple(static_slots), gd_static_slot=gd_static_slot
        )

    def with_frame_ids(self, frame_ids: Mapping[str, int]) -> "FlexRayConfig":
        """Copy with a different FrameID assignment."""
        return replace(self, frame_ids=dict(frame_ids))

    def static_key(self) -> tuple:
        """Hashable identity of the static segment and bus parameters.

        Everything the static schedule construction depends on *except*
        the cycle length: configurations sharing this key (plus
        ``gd_cycle`` when the application sends ST messages) produce
        byte-identical schedule tables, which is what the incremental
        analysis engine keys its per-static-segment cache on.
        """
        return (
            self.static_slots,
            self.gd_static_slot,
            self.gd_minislot,
            self.bits_per_mt,
            self.frame_overhead_bytes,
        )

    def cache_key(self) -> tuple:
        """Hashable identity of the full configuration (``frame_ids`` is a
        dict, so the dataclass itself is unhashable)."""
        return self.static_key() + (self.n_minislots, self.frame_key)

    def cache_keys(self, lengths) -> list:
        """``with_dyn_length(n).cache_key()`` per DYN length in
        *lengths*, without building those configurations."""
        static_key = self.static_key()
        frame_key = self.frame_key
        return [static_key + (n, frame_key) for n in lengths]

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"FlexRayConfig(ST: {self.n_static_slots} x {self.gd_static_slot} MT, "
            f"DYN: {self.n_minislots} x {self.gd_minislot} MT, "
            f"gdCycle={self.gd_cycle} MT)"
        )
