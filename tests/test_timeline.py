"""Unit tests for bus-cycle geometry: the slot start times of
``repro.flexray.timeline``, the slot-instance search of the schedule
replay (``scheduler._slot_instance``) and the DYN slot offset inside
``dyn.sigma``."""

import pytest

from repro.analysis.dyn import sigma
from repro.analysis.scheduler import _slot_instance
from repro.core.config import FlexRayConfig
from repro.errors import ConfigurationError
from repro.flexray import timeline

from tests.util import dyn_msg


@pytest.fixture
def cfg():
    # ST: 2 slots x 8 MT, DYN: 13 minislots x 1 MT -> gdCycle 29
    return FlexRayConfig(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=13)


def instances(config, node, horizon):
    """``(cycle, slot, start)`` of *node*'s static slot instances before
    *horizon*, found one after another by the replay's slot search."""
    slots = tuple(
        (slot, (slot - 1) * config.gd_static_slot)
        for slot in config.st_slots_of(node)
    )
    found, ready = [], 0
    while True:
        placed = _slot_instance(
            {}, slots, ready, 1, config.gd_cycle, config.gd_static_slot, horizon
        )
        if placed is None or placed[1] >= horizon:
            return found
        (cycle, slot), start, _ = placed
        assert start == timeline.st_slot_start(config, cycle, slot)
        found.append((cycle, slot, start))
        ready = start + 1


class TestCycleGeometry:
    def test_cycle_start(self, cfg):
        assert timeline.cycle_start(cfg, 0) == 0
        assert timeline.cycle_start(cfg, 3) == 87

    def test_rejects_negative_cycle(self, cfg):
        with pytest.raises(ConfigurationError):
            timeline.cycle_start(cfg, -1)

    def test_st_slot_start_and_end(self, cfg):
        assert timeline.st_slot_start(cfg, 0, 1) == 0
        assert timeline.st_slot_start(cfg, 0, 2) == 8
        assert timeline.st_slot_start(cfg, 1, 1) == 29
        assert timeline.st_slot_start(cfg, 1, 2) + cfg.gd_static_slot == 29 + 16

    def test_rejects_slot_out_of_range(self, cfg):
        with pytest.raises(ConfigurationError):
            timeline.st_slot_start(cfg, 0, 0)
        with pytest.raises(ConfigurationError):
            timeline.st_slot_start(cfg, 0, 3)

    def test_dyn_segment_bounds(self, cfg):
        # The DYN segment fills the cycle after the static slots.
        assert cfg.st_bus == 16 and cfg.dyn_bus == 13
        assert cfg.st_bus + cfg.dyn_bus == cfg.gd_cycle
        assert timeline.cycle_start(cfg, 2) + cfg.st_bus == 58 + 16

    def test_cycle_of(self, cfg):
        # The slot search starts in the cycle that contains ``ready``.
        slot2 = ((2, 8),)
        for ready, cycle in ((0, 0), (8, 0), (29, 1), (37, 1)):
            placed = _slot_instance({}, slot2, ready, 1, 29, 8, 1000)
            assert placed[0] == (cycle, 2)

    def test_earliest_dyn_slot_start(self, cfg):
        # sigma_m is the rest of the cycle after the earliest start of
        # slot f, reached when every lower dynamic slot is one minislot.
        m = dyn_msg("m", 4, "a", "b")

        def earliest(frame_id):
            frame_cfg = FlexRayConfig(
                static_slots=cfg.static_slots,
                gd_static_slot=cfg.gd_static_slot,
                n_minislots=cfg.n_minislots,
                frame_ids={"m": frame_id},
            )
            return frame_cfg.gd_cycle - sigma(m, frame_cfg)

        assert earliest(1) == 16
        assert earliest(4) == 19
        with pytest.raises(ConfigurationError):
            earliest(0)

    def test_next_cycle_start(self, cfg):
        # A ready time after the slot moves on to the next cycle.
        slot1 = ((1, 0),)
        assert _slot_instance({}, slot1, 1, 1, 29, 8, 1000)[1] == 29
        assert _slot_instance({}, slot1, 28, 1, 29, 8, 1000)[1] == 29
        assert _slot_instance({}, slot1, 30, 1, 29, 8, 1000)[1] == 58


class TestSlotInstances:
    def test_instances_ordered_and_bounded(self, cfg):
        assert instances(cfg, "N2", horizon=60) == [(0, 2, 8), (1, 2, 37)]

    def test_node_without_slots(self, cfg):
        assert instances(cfg, "N9", horizon=60) == []

    def test_multi_slot_node(self):
        cfg = FlexRayConfig(
            static_slots=("N1", "N2", "N1"), gd_static_slot=4, n_minislots=0
        )
        assert instances(cfg, "N1", horizon=13) == [(0, 1, 0), (0, 3, 8), (1, 1, 12)]
