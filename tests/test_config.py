"""Unit tests for FlexRayConfig (protocol limits, geometry, validation)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FlexRayConfig
from repro.errors import ConfigurationError
from repro.flexray import params

from tests.util import fig3_system, fig4_system


def make_config(**kw):
    defaults = dict(
        static_slots=("N1", "N2"),
        gd_static_slot=8,
        n_minislots=13,
        frame_ids={},
    )
    defaults.update(kw)
    return FlexRayConfig(**defaults)


class TestGeometry:
    def test_segment_lengths(self):
        cfg = make_config()
        assert cfg.n_static_slots == 2
        assert cfg.st_bus == 16
        assert cfg.dyn_bus == 13
        assert cfg.gd_cycle == 29

    def test_minislot_scaling(self):
        cfg = make_config(gd_minislot=3)
        assert cfg.dyn_bus == 39

    def test_describe(self):
        assert "gdCycle=29" in make_config().describe()


class TestProtocolLimits:
    def test_rejects_too_many_static_slots(self):
        with pytest.raises(ConfigurationError, match="protocol limit"):
            make_config(static_slots=("N1",) * (params.MAX_STATIC_SLOTS + 1))

    def test_rejects_oversized_static_slot(self):
        with pytest.raises(ConfigurationError):
            make_config(gd_static_slot=params.MAX_STATIC_SLOT_MT + 1)

    def test_rejects_too_many_minislots(self):
        with pytest.raises(ConfigurationError):
            make_config(n_minislots=params.MAX_MINISLOTS + 1)

    def test_rejects_cycle_above_16ms(self):
        with pytest.raises(ConfigurationError, match="16 ms"):
            FlexRayConfig(
                static_slots=("N1",) * 30,
                gd_static_slot=600,
                n_minislots=0,
            )

    def test_rejects_empty_cycle(self):
        with pytest.raises(ConfigurationError):
            FlexRayConfig(static_slots=(), gd_static_slot=0, n_minislots=0)

    def test_pure_dynamic_cycle_allowed(self):
        cfg = FlexRayConfig(static_slots=(), gd_static_slot=0, n_minislots=10)
        assert cfg.st_bus == 0 and cfg.gd_cycle == 10

    def test_rejects_bad_frame_id(self):
        with pytest.raises(ConfigurationError, match="positive"):
            make_config(frame_ids={"m": 0})

    def test_rejects_frame_id_beyond_segment(self):
        with pytest.raises(ConfigurationError, match="cannot fit"):
            make_config(frame_ids={"m": 14})


class TestMessageMetrics:
    def test_ct_default_byte_per_mt(self):
        sys_ = fig3_system()
        m1 = sys_.application.message("m1")
        assert make_config().message_ct(m1) == 4

    def test_ct_with_overhead(self):
        sys_ = fig3_system()
        m1 = sys_.application.message("m1")
        cfg = make_config(frame_overhead_bytes=8)
        assert cfg.message_ct(m1) == 12

    def test_ct_at_physical_rate(self):
        sys_ = fig3_system()
        m1 = sys_.application.message("m1")  # 4 bytes = 32 bits
        cfg = make_config(bits_per_mt=10)
        assert cfg.message_ct(m1) == 4  # ceil(32/10)

    def test_minislots_needed(self):
        sys_ = fig4_system()
        m1 = sys_.application.message("m1")  # 9 MT
        assert make_config(gd_minislot=2).minislots_needed(m1) == 5

    def test_frame_id_lookup(self):
        cfg = make_config(frame_ids={"m1": 3})
        assert cfg.frame_id_of("m1") == 3
        with pytest.raises(ConfigurationError):
            cfg.frame_id_of("zz")


class TestSlotOwnership:
    def test_st_slots_of(self):
        cfg = make_config(static_slots=("N1", "N2", "N1"), gd_static_slot=4)
        assert cfg.st_slots_of("N1") == (1, 3)
        assert cfg.st_slots_of("N2") == (2,)
        assert cfg.st_slots_of("N9") == ()

    def test_dyn_slots_of(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 2, "m3": 3})
        assert cfg.dyn_slots_of("N1", sys_) == (1, 3)
        assert cfg.dyn_slots_of("N2", sys_) == (2,)

    def test_p_latest_tx(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 2, "m3": 3})
        # N1 largest frame: m1 = 9 MT = 9 minislots -> 13 - 9 + 1 = 5
        assert cfg.p_latest_tx("N1", sys_) == 5
        # N2 largest frame: m2 = 5 -> 13 - 5 + 1 = 9
        assert cfg.p_latest_tx("N2", sys_) == 9

    def test_p_latest_tx_none_without_dyn(self):
        sys_ = fig3_system()
        assert make_config().p_latest_tx("N1", sys_) is None


class TestValidateFor:
    def test_valid_configuration_passes(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 2, "m3": 3})
        cfg.validate_for(sys_)  # no raise

    def test_rejects_unknown_slot_owner(self):
        sys_ = fig4_system()
        cfg = make_config(static_slots=("N1", "N9"))
        with pytest.raises(ConfigurationError, match="not a node"):
            cfg.validate_for(sys_)

    def test_rejects_missing_st_slot_for_sender(self):
        sys_ = fig3_system()
        cfg = make_config(static_slots=("N1",))
        with pytest.raises(ConfigurationError, match="owns no"):
            cfg.validate_for(sys_)

    def test_rejects_slot_too_small_for_st_frame(self):
        sys_ = fig3_system()
        cfg = make_config(gd_static_slot=3)
        with pytest.raises(ConfigurationError, match="largest ST frame"):
            cfg.validate_for(sys_)

    def test_rejects_missing_frame_id(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 2})
        with pytest.raises(ConfigurationError, match="no FrameID"):
            cfg.validate_for(sys_)

    def test_rejects_cross_node_frame_id_sharing(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 1, "m3": 2})
        with pytest.raises(ConfigurationError, match="shared by nodes"):
            cfg.validate_for(sys_)

    def test_same_node_frame_id_sharing_allowed(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 1, "m2": 2, "m3": 1})
        cfg.validate_for(sys_)

    def test_rejects_frame_that_never_fits(self):
        sys_ = fig4_system()
        cfg = make_config(n_minislots=8, frame_ids={"m1": 1, "m2": 2, "m3": 3})
        # N1 largest frame 9 > 8 minislots
        with pytest.raises(ConfigurationError, match="does not fit"):
            cfg.validate_for(sys_)

    def test_rejects_frame_id_beyond_p_latest_tx(self):
        sys_ = fig4_system()
        cfg = make_config(frame_ids={"m1": 5, "m2": 2, "m3": 6})
        # pLatestTx(N1) = 5, m3 has fid 6
        with pytest.raises(ConfigurationError, match="pLatestTx"):
            cfg.validate_for(sys_)


class TestDerivation:
    def test_with_dyn_length(self):
        cfg = make_config().with_dyn_length(20)
        assert cfg.n_minislots == 20
        assert cfg.gd_static_slot == 8  # untouched

    def test_with_static(self):
        cfg = make_config().with_static(("N2", "N1", "N2"), 6)
        assert cfg.static_slots == ("N2", "N1", "N2")
        assert cfg.gd_static_slot == 6

    def test_with_frame_ids(self):
        cfg = make_config().with_frame_ids({"m": 2})
        assert cfg.frame_id_of("m") == 2

    def test_original_unchanged(self):
        cfg = make_config()
        cfg.with_dyn_length(20)
        assert cfg.n_minislots == 13


def _sorted_cache_key(cfg):
    """``cache_key()`` spelled out, sorting the FrameIDs on every call."""
    return cfg.static_key() + (
        cfg.n_minislots,
        tuple(sorted(cfg.frame_ids.items())),
    )


_FRAME_IDS = st.dictionaries(
    st.text(alphabet="abmn0123", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=20),
    max_size=8,
)


class TestFrameKey:
    """The sorted FrameID items are computed once per configuration."""

    @settings(max_examples=200, deadline=None)
    @given(
        frame_ids=_FRAME_IDS,
        other=_FRAME_IDS,
        n=st.integers(min_value=20, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cache_key_unchanged_on_generated_configs(
        self, frame_ids, other, n, seed
    ):
        items = list(frame_ids.items())
        random.Random(seed).shuffle(items)
        cfg = make_config(n_minislots=n, frame_ids=dict(items))
        assert cfg.cache_key() == _sorted_cache_key(cfg)
        assert cfg.cache_key() == make_config(
            n_minislots=n, frame_ids=frame_ids
        ).cache_key()
        # Derived copies carry their own (new) key.
        for derived in (
            cfg.with_frame_ids(other),
            dataclasses.replace(cfg, frame_ids=other),
        ):
            assert derived.frame_key == tuple(sorted(other.items()))
            assert derived.cache_key() == _sorted_cache_key(derived)
        assert cfg.frame_key == tuple(sorted(frame_ids.items()))
        longer = cfg.with_dyn_length(n + 1)
        assert longer.frame_key == cfg.frame_key
        assert longer.cache_key() == _sorted_cache_key(longer)
