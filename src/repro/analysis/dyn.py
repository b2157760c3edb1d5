"""Worst-case response times of DYN messages (Section 5.1 of the paper).

A ready DYN message m with FrameID f on node Np is delayed by

* ``hp(m)`` -- higher-priority messages of the same node sharing f
  (each occupies slot f for a whole cycle),
* ``lf(m)`` -- any message with a FrameID below f (its frame occupies
  whole minislots before slot f), and
* ``ms(m)`` -- the lower dynamic slots themselves: even when unused each
  costs one minislot of delay.

A bus cycle is *filled* (unusable for m) when slot f is taken by hp(m)
or when lower-slot traffic pushes the minislot counter past Np's
``pLatestTx``.  Following Eq. (3):

    w_m(t) = sigma_m + BusCycles_m(t) * gdCycle + w'_m(t)

with ``sigma_m`` the worst first-cycle loss, ``BusCycles_m`` the number
of filled cycles and ``w'_m`` the delay inside the final cycle.  The
recurrence is iterated to a fix point; divergence is truncated at a cap
and flagged.

Filled-cycle counting uses a polynomial bound in the spirit of the
paper's heuristic from [14].  Write q_j for the minislots of an lf frame
and a_j = q_j - 1 for its *adjusted* size (a transmitting frame also
replaces the one minislot its slot would cost anyway).  A cycle with
lower-slot frame set S is filled exactly when

    sum_{j in S} q_j + (f - 1 - |S|) > pLatestTx - 1
    <=>  sum_{j in S} a_j >= theta  with  theta = pLatestTx - f + 2.

So the adversary must cover disjoint bins of adjusted size >= theta from
the lf frame instances released in the window; the number of filled
cycles is bounded by ``min(#instances, total_adjusted // theta)`` -- an
upper bound on the real protocol (which additionally serialises slots),
hence sound for worst-case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.config import FlexRayConfig
from repro.errors import AnalysisError
from repro.analysis.fill import FILL_STRATEGIES, max_filled_cycles_aggregated
from repro.analysis.fps import MAX_FIXPOINT_ITERATIONS, WcrtResult
from repro.model.message import Message
from repro.model.system import System


@dataclass(frozen=True)
class DynInterference:
    """Interference sets of one DYN message (paper notation hp/lf/ms)."""

    hp: Tuple[Message, ...]
    lf: Tuple[Message, ...]
    lower_slots: int  # |ms(m)| = FrameID - 1


def interference_sets(
    message: Message, config: FlexRayConfig, system: System
) -> DynInterference:
    """Compute hp(m), lf(m) and |ms(m)| for *message* under *config*."""
    if not message.is_dynamic:
        raise AnalysisError(f"message {message.name!r} is not a DYN message")
    f = config.frame_id_of(message.name)
    node = system.sender_node(message)
    hp: List[Message] = []
    lf: List[Message] = []
    for other in system.application.dyn_messages():
        if other.name == message.name:
            continue
        other_fid = config.frame_id_of(other.name)
        if other_fid < f:
            lf.append(other)
        elif (
            other_fid == f
            and system.sender_node(other) == node
            and (other.priority, other.name) <= (message.priority, message.name)
        ):
            hp.append(other)
    return DynInterference(hp=tuple(hp), lf=tuple(lf), lower_slots=f - 1)


def sigma(message: Message, config: FlexRayConfig) -> int:
    """Worst loss in the arrival cycle: the message becomes ready just
    after the earliest possible start of its slot and waits out the rest
    of the cycle."""
    f = config.frame_id_of(message.name)
    return config.gd_cycle - config.st_bus - (f - 1) * config.gd_minislot


def dyn_message_busy_window(
    message: Message,
    config: FlexRayConfig,
    system: System,
    jitters: Mapping[str, int],
    period_of,
    cap: int,
    own_jitter: int = 0,
    ancestors: frozenset = frozenset(),
    fill_strategy: str = "bound",
) -> WcrtResult:
    """Worst-case queuing delay w_m (Eq. (3)); R_m = J_m + w_m + C_m.

    ``jitters`` maps activity names to release jitters inherited from the
    sender tasks; ``period_of`` maps an activity name to its period.
    ``cap`` truncates divergent recurrences (``converged=False``).
    ``own_jitter``/``ancestors`` drive the same-graph ancestor
    interference reduction (see :func:`repro.analysis.fps.interference_count`).
    ``fill_strategy`` selects the filled-cycle computation: the
    polynomial "bound" or the "exact" bin-covering search of
    :mod:`repro.analysis.fill` (ref. [14] offers both).
    """
    f = config.frame_id_of(message.name)
    node = system.sender_node(message)
    p_latest = config.p_latest_tx(node, system)
    if p_latest is None:  # pragma: no cover - message.is_dynamic guarantees it
        raise AnalysisError(f"node {node!r} has no pLatestTx")
    if f > p_latest or p_latest < 1:
        # The frame can never be sent under this configuration.
        return WcrtResult(value=cap, converged=False)

    sets = interference_sets(message, config, system)

    def row(j, size):
        # Resolved (period, jitter, size); an ancestor's jitter is the
        # offset ``own_jitter - period`` (see resolved_busy_window).
        p = period_of(j.name)
        jit = own_jitter - p if j.name in ancestors else jitters.get(j.name, 0)
        return (p, jit, size)

    hp = [row(j, 0) for j in sets.hp]
    lf = [row(j, config.minislots_needed(j) - 1) for j in sets.lf]
    lam = p_latest - 1  # max minislots consumed before slot f, still sendable
    theta = lam - f + 2  # adjusted minislots needed to fill one cycle
    value, converged, _ = resolved_busy_window(
        hp,
        lf,
        sets.lower_slots,
        lam,
        theta,
        sigma(message, config),
        config.message_ct(message),
        config.gd_cycle,
        config.st_bus,
        config.gd_minislot,
        cap,
        fill_strategy,
    )
    return WcrtResult(value=value, converged=converged)


def resolved_busy_window(
    hp_rows: Sequence[Tuple[int, int, int]],
    lf_rows: Sequence[Tuple[int, int, int]],
    lower_slots: int,
    lam: int,
    theta: int,
    sigma_m: int,
    ct: int,
    gd_cycle: int,
    st_bus: int,
    ms_len: int,
    cap: int,
    fill_strategy: str,
    seed: Optional[int] = None,
    extra_cycles: int = 0,
) -> Tuple[int, bool, Optional[int]]:
    """The DYN busy-window kernel: Eq. (3)'s fix point over resolved
    ``(period, jitter, adjusted size)`` hp and lf rows (an hp row's size
    is not read).

    Each row's jitter is already resolved -- the interferer's release
    jitter, or for a same-graph ancestor the offset ``own_jitter -
    period`` -- so one activation count ``ceil(s / period) if s > 0
    else 0`` with ``s = window + jitter`` covers both interferer kinds
    (:func:`repro.analysis.fps.interference_count`).  The result does
    not depend on the row order.  The holistic fix point resolves the
    rows from its int-row state, :func:`dyn_message_busy_window` from a
    jitter map.

    ``seed`` optionally supplies the starting window; it MUST be a
    certified lower bound of the converged busy window (Eq. (3)'s
    right-hand side is monotone in the window, so iterating from any
    start below the least fixed point reaches exactly the least fixed
    point).  The holistic fix point certifies its seeds through the
    monotone growth of its jitters across Kleene passes.  A descending
    step or an iteration-limit exit (an uncertified seed) restarts the
    recurrence cold; a seed above the least fixed point may also stop at
    a larger fixed point or at the cap, which only ever raises the
    result.

    ``extra_cycles`` charges that many additional whole bus cycles into
    every evaluation of the recurrence -- the k-error fault hypothesis
    (:attr:`~repro.analysis.holistic.AnalysisOptions.fault_hypothesis`)
    uses it to pay for up to k retransmitted frame instances at their
    worst per-error cycle cost.  The term is a constant, so the
    right-hand side stays monotone in the window and the warm-start
    certification argument is unaffected.

    Returns ``(busy window, converged, final window)`` -- the final
    window is the certified seed for the next evaluation under larger
    jitters, ``None`` after an iteration-limit exit (a truncated window
    would seed a different trajectory than the cold run).
    """
    if fill_strategy not in FILL_STRATEGIES:
        raise AnalysisError(
            f"unknown fill strategy {fill_strategy!r}; "
            f"choose from {FILL_STRATEGIES}"
        )
    seeded = seed is not None and seed > ct
    t = seed if seeded else ct
    w = 0
    exact = fill_strategy != "bound"
    # The window-independent terms of Eq. (3): sigma, the k-error
    # cycles and the static segment of the final cycle.
    base = sigma_m + extra_cycles * gd_cycle + st_bus
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        hp_cycles = 0
        for period, jitter, _ in hp_rows:
            s = t + jitter
            if s > 0:
                hp_cycles += -(-s // period)
        # Aggregate the lf frame instances: sums of adjusted sizes
        # (``lf_total``) and of instances with a positive one
        # (``lf_useful``); the bound strategy never materialises the
        # multiset, the exact one gets it as (adjusted size, count) pairs.
        lf_total = 0
        lf_useful = 0
        for period, jitter, adjusted in lf_rows:
            s = t + jitter
            if s > 0 and adjusted > 0:
                n = -(-s // period)
                lf_total += adjusted * n
                lf_useful += n
        if exact:
            lf_cycles = max_filled_cycles_aggregated(
                [(adjusted, -(-(t + jitter) // period))
                 for period, jitter, adjusted in lf_rows if t + jitter > 0],
                theta,
                fill_strategy,
            )
        else:
            # theta >= 1 is guaranteed by the caller's sendability check.
            lf_cycles = lf_total // theta
            if lf_useful < lf_cycles:
                lf_cycles = lf_useful
        leftover = lf_total - lf_cycles * theta
        if leftover < 0:
            leftover = 0
        consumed = lower_slots + leftover
        if consumed > lam:
            consumed = lam
        w = base + (hp_cycles + lf_cycles) * gd_cycle + consumed * ms_len
        if w >= cap:
            return cap, False, t
        if w <= t:
            if seeded and w < t:
                # The seed overshot the least fixed point: replay cold so
                # the result stays bit-identical to an unseeded run.
                return resolved_busy_window(
                    hp_rows, lf_rows, lower_slots, lam, theta, sigma_m, ct,
                    gd_cycle, st_bus, ms_len, cap, fill_strategy,
                    extra_cycles=extra_cycles,
                )
            return w, True, w
        t = w
    if seeded:
        # The truncated value is trajectory-dependent; only the cold
        # trajectory's truncation is the canonical result.
        return resolved_busy_window(
            hp_rows, lf_rows, lower_slots, lam, theta, sigma_m, ct,
            gd_cycle, st_bus, ms_len, cap, fill_strategy,
            extra_cycles=extra_cycles,
        )
    return w, False, None
