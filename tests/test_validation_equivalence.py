"""The table-driven bus validation against the original scanning one.

``FlexRayConfig.validate_for``, ``p_latest_tx`` and ``dyn_slots_of``
read the system's bus table; ``tests/util.py`` keeps the original
implementations, which rescan the application per call, as the oracle.
On legal and mutated configurations of small synthetic systems both
must raise the same exception type with the same message (so the same
check fires first), or both pass.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bbc import basic_configuration
from repro.core.config import FlexRayConfig
from repro.core.search import BusOptimisationOptions, dyn_segment_bounds, min_static_slot
from repro.errors import ConfigurationError, ModelError
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system

from tests.util import (
    dyn_msg,
    oracle_dyn_slots_of,
    oracle_p_latest_tx,
    oracle_validate_for,
    scs_task,
    single_graph_system,
    st_msg,
)

MUTATIONS = (
    "unknown_owner",
    "st_sender_without_slot",
    "small_static_slot",
    "missing_frame_id",
    "shared_frame_id",
    "unknown_frame_id_key",
    "st_message_frame_id",
    "short_dyn_segment",
    "bus_speed",
)


def _outcome(fn, *args):
    """``("value", result)`` or ``("raise", type, message)``."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return ("raise", type(exc), str(exc))


@st.composite
def small_system(draw):
    return generate_system(
        GeneratorConfig(
            n_nodes=draw(st.integers(2, 4)),
            tasks_per_node=draw(st.sampled_from((4, 2))),
            tasks_per_graph=2,
            tt_graph_share=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
            periods=(10_000, 20_000),
            seed=draw(st.integers(0, 10_000)),
        )
    )


def _legal(system, draw) -> FlexRayConfig:
    bus = BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, bus) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, bus)
    n = draw(st.integers(lo, min(hi, lo + 40))) if hi >= lo else 0
    return basic_configuration(system, n, bus)


def _messages(system, dynamic: bool):
    return [m for m in system.application.messages() if m.is_dynamic == dynamic]


def _mutate(system, config, kind, draw) -> FlexRayConfig:
    """*config* with one fault of *kind* (the configuration itself when
    the fault does not apply or the result is structurally illegal)."""
    slots = config.static_slots
    fids = dict(config.frame_ids)
    changes = {}
    if kind == "unknown_owner":
        i = draw(st.integers(0, len(slots)))
        changes = dict(
            static_slots=slots[:i] + ("ghost",) + slots[i + 1:],
            gd_static_slot=max(config.gd_static_slot, 1),
        )
    elif kind == "st_sender_without_slot" and system.st_sender_nodes():
        node = draw(st.sampled_from(system.st_sender_nodes()))
        changes = dict(static_slots=tuple(o for o in slots if o != node))
    elif kind == "small_static_slot" and slots and config.gd_static_slot > 1:
        changes = dict(
            gd_static_slot=draw(st.integers(1, config.gd_static_slot - 1))
        )
    elif kind == "missing_frame_id" and fids:
        del fids[draw(st.sampled_from(sorted(fids)))]
        changes = dict(frame_ids=fids)
    elif kind == "shared_frame_id":
        dyn = _messages(system, True)
        pairs = [
            (a.name, b.name)
            for a in dyn
            for b in dyn
            if a.name in fids and b.name in fids
            and system.sender_node(a) != system.sender_node(b)
        ]
        if pairs:
            a, b = draw(st.sampled_from(pairs))
            fids[a] = fids[b]
            changes = dict(frame_ids=fids)
    elif kind == "unknown_frame_id_key" and config.n_minislots:
        fids["ghost"] = draw(st.integers(1, config.n_minislots))
        changes = dict(frame_ids=fids)
    elif kind == "st_message_frame_id" and config.n_minislots:
        st_names = [m.name for m in _messages(system, False)]
        if st_names:
            fids[draw(st.sampled_from(st_names))] = draw(
                st.integers(1, config.n_minislots)
            )
            changes = dict(frame_ids=fids)
    elif kind == "short_dyn_segment" and fids:
        # Below the largest frame, or up to the top FrameID past it
        # (where that FrameID exceeds its node's pLatestTx).
        top = max(fids.values())
        largest = max(
            (config.minislots_needed(m) for m in _messages(system, True)),
            default=top,
        )
        changes = dict(n_minislots=draw(
            st.integers(top, largest + top)
            | st.integers(max(top, largest), largest + top)
        ))
    elif kind == "bus_speed":
        changes = dict(
            bits_per_mt=draw(st.sampled_from((1, 4, 8, 16))),
            frame_overhead_bytes=draw(st.integers(0, 8)),
            gd_minislot=draw(st.integers(1, 3)),
        )
    if not changes:
        return config
    try:
        return dataclasses.replace(config, **changes)
    except ConfigurationError:
        return config


def assert_same_as_oracle(config: FlexRayConfig, system) -> tuple:
    expected = _outcome(oracle_validate_for, config, system)
    assert _outcome(config.validate_for, system) == expected
    for node in system.nodes + ("ghost",):
        assert _outcome(config.p_latest_tx, node, system) == _outcome(
            oracle_p_latest_tx, config, node, system
        )
        assert _outcome(config.dyn_slots_of, node, system) == _outcome(
            oracle_dyn_slots_of, config, node, system
        )
    return expected


class TestValidationMatchesOracle:
    @given(system=small_system(), data=st.data())
    @settings(
        max_examples=500,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_legal_and_mutated_configurations(self, system, data):
        config = _legal(system, data.draw)
        assert_same_as_oracle(config, system)
        # One fault, then up to two more on top (the first check in
        # order must fire).
        for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
            config = _mutate(system, config, kind, data.draw)
            assert_same_as_oracle(config, system)


def _mixed_system():
    """N1 sends ST s1 and DYN d1, N2 sends DYN d2 (one minislot each
    byte at the default bus speed)."""
    return single_graph_system(
        tasks=[
            scs_task("a", node="N1"),
            scs_task("b", node="N2"),
            scs_task("c", node="N1"),
            scs_task("d", node="N2"),
        ],
        messages=[
            st_msg("s1", 4, "a", "b"),
            dyn_msg("d1", 3, "c", "d"),
            dyn_msg("d2", 2, "d", "a"),
        ],
    )


_LEGAL = dict(
    static_slots=("N1",), gd_static_slot=4, n_minislots=10,
    frame_ids={"d1": 1, "d2": 2},
)


@pytest.mark.parametrize(
    "changes, error, match",
    [
        ({}, None, None),
        ({"static_slots": ("N1", "N9")}, ConfigurationError, "not a node"),
        ({"static_slots": ("N2",)}, ConfigurationError, "owns no static slot"),
        ({"gd_static_slot": 3}, ConfigurationError, "largest ST frame"),
        ({"frame_ids": {"d1": 1}}, ConfigurationError, "no FrameID"),
        ({"frame_ids": {"d1": 1, "d2": 1}}, ConfigurationError, "shared by nodes"),
        ({"frame_ids": {"d1": 1, "d2": 2, "x": 3}}, ModelError, "no message 'x'"),
        ({"n_minislots": 2}, ConfigurationError, "does not fit"),
        ({"n_minislots": 3, "frame_ids": {"d1": 2, "d2": 3}},
         ConfigurationError, "exceeds its pLatestTx"),
        # pLatestTx(N1) = 10 - 3 + 1 = 8.
        ({"frame_ids": {"d1": 9, "d2": 2}},
         ConfigurationError, "FrameID 9 of node 'N1' exceeds its pLatestTx"),
        ({"frame_ids": {"d1": 8, "d2": 2}}, None, None),
        # Several faults: the first check in order fires.
        ({"static_slots": ("N9",), "gd_static_slot": 1, "frame_ids": {}},
         ConfigurationError, "not a node"),
        ({"gd_static_slot": 1, "frame_ids": {"d2": 2, "x": 1}},
         ConfigurationError, "largest ST frame"),
        ({"frame_ids": {"d1": 2, "d2": 3, "x": 1}, "n_minislots": 3},
         ModelError, "no message 'x'"),
        # An ST message takes no FrameID, even one within pLatestTx; the
        # unknown-name check comes first.
        ({"frame_ids": {"d1": 1, "d2": 2, "s1": 8}},
         ConfigurationError, "frame_ids names ST message 's1'"),
        ({"frame_ids": {"s1": 9, "d1": 1, "d2": 2}},
         ConfigurationError, "frame_ids names ST message 's1'"),
        ({"frame_ids": {"d1": 1, "d2": 2, "s1": 8, "x": 3}},
         ModelError, "no message 'x'"),
    ],
)
def test_each_check_fires_as_the_oracle(changes, error, match):
    system = _mixed_system()
    config = FlexRayConfig(**{**_LEGAL, **changes})
    outcome = assert_same_as_oracle(config, system)
    if error is None:
        assert outcome == ("value", None)
    else:
        assert outcome[1] is error and match in outcome[2]


def test_dyn_slots_of_skips_st_messages():
    """An ST message named in ``frame_ids`` takes no dynamic slot of
    its sender (``validate_for`` rejects the configuration), and an
    unknown name still raises first."""
    system = _mixed_system()
    config = FlexRayConfig(
        **{**_LEGAL, "frame_ids": {"d1": 1, "d2": 2, "s1": 8}}
    )
    assert config.dyn_slots_of("N1", system) == (1,)
    assert config.dyn_slots_of("N2", system) == (2,)
    assert oracle_dyn_slots_of(config, "N1", system) == (1,)
    unknown = FlexRayConfig(
        **{**_LEGAL, "frame_ids": {"s1": 8, "x": 3, "d1": 1, "d2": 2}}
    )
    with pytest.raises(ModelError, match="no message 'x'"):
        unknown.dyn_slots_of("N1", system)


def test_bus_table_is_built_once_per_bus_speed():
    system = _mixed_system()
    config = FlexRayConfig(**_LEGAL)
    table = config.bus_table(system)
    config.validate_for(system)
    assert config.with_dyn_length(20).bus_table(system) is table
    faster = dataclasses.replace(config, bits_per_mt=16)
    assert faster.bus_table(system) is not table
    assert faster.bus_table(system).max_st_ct == 2
    assert table.max_st_ct == 4
    assert table.dyn_largest == {"N1": 3, "N2": 2}
    assert table.st_nodes == system.st_sender_nodes() == ("N1",)
    assert table.dyn_nodes == system.dyn_sender_nodes() == ("N1", "N2")
    assert [m.name for m, _ in table.dyn] == ["d1", "d2"]
