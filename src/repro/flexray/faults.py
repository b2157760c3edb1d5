"""Deterministic channel fault models for the FlexRay simulator.

A fault model describes *when transmissions are corrupted on the bus*.
Three models are provided:

* :class:`IidFaults` -- every transmission attempt is corrupted
  independently with a fixed probability;
* :class:`GilbertElliottFaults` -- the classic bursty two-state channel:
  a Markov chain alternates between a *good* and a *bad* state, each
  with its own corruption rate;
* :class:`BlackoutFaults` -- explicit time windows during which every
  transmission is lost (e.g. an EMI burst of known duration).

Models are *resolved once per run* into a :class:`FaultPlan` (see
:func:`resolve_faults`): the Gilbert--Elliott state walk is rolled out
into explicit elevated-rate windows up front, so the per-transmission
corruption decision is a pure function of ``(seed, activity, instance,
attempt)``.  Two consequences the test-suite relies on:

1. **Reproducibility** -- the same seed gives the same corrupted
   transmissions regardless of simulation event order, trace recording,
   or how many attempts other frames make.
2. **Zero-fault identity** -- a plan with rate 0 and no windows is
   :attr:`FaultPlan.active` == False and the simulator takes exactly
   the fault-free code paths, byte-identical to a run without faults.

Corruption decisions hash with :mod:`hashlib` (BLAKE2b), never the
built-in ``hash`` (which is salted per process by ``PYTHONHASHSEED``
and would break cross-run reproducibility).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from repro.errors import ModelError

__all__ = [
    "BlackoutFaults",
    "FaultModel",
    "FaultPlan",
    "GilbertElliottFaults",
    "IidFaults",
    "NO_FAULTS",
    "resolve_faults",
]

#: 2**64 as a float: maps a 64-bit digest to a uniform draw in [0, 1).
_DRAW_SCALE = float(2**64)


def _uniform_draw(seed: int, name: str, instance: int, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one transmission attempt."""
    key = f"{seed}|{name}|{instance}|{attempt}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / _DRAW_SCALE


def _check_rate(label: str, rate: float) -> None:
    if not (0.0 <= rate <= 1.0):
        raise ModelError(f"{label}={rate!r} must be a probability in [0, 1]")


def _check_probability(label: str, p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise ModelError(f"{label}={p!r} must be a probability in (0, 1]")


def _normalise_windows(windows: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Sorted, merged ``[start, end)`` windows; rejects malformed ones."""
    cleaned = []
    for window in windows:
        start, end = window
        if end <= start:
            raise ModelError(f"fault window {window!r} must satisfy start < end")
        cleaned.append((int(start), int(end)))
    cleaned.sort()
    merged: list = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


def _in_windows(windows: Tuple[Tuple[int, int], ...], time: int) -> bool:
    for start, end in windows:
        if start <= time < end:
            return True
        if time < start:
            return False
    return False


@dataclass(frozen=True)
class FaultPlan:
    """A fault model resolved for one simulation run.

    The plan is a flat description: a base corruption ``rate``, optional
    ``burst_windows`` during which ``burst_rate`` applies instead (if
    higher), and ``blackouts`` during which *every* transmission is
    corrupted.  :meth:`corrupts` is the single decision point the
    simulator consults per transmission attempt.
    """

    seed: int = 0
    rate: float = 0.0
    burst_windows: Tuple[Tuple[int, int], ...] = ()
    burst_rate: float = 0.0
    blackouts: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)
        _check_rate("burst_rate", self.burst_rate)
        object.__setattr__(
            self, "burst_windows", _normalise_windows(self.burst_windows)
        )
        object.__setattr__(self, "blackouts", _normalise_windows(self.blackouts))

    @property
    def active(self) -> bool:
        """True when this plan can corrupt at least one transmission."""
        return bool(
            self.rate > 0.0
            or (self.burst_rate > 0.0 and self.burst_windows)
            or self.blackouts
        )

    def rate_at(self, time: int) -> float:
        """The effective corruption probability at bus time *time*."""
        if _in_windows(self.blackouts, time):
            return 1.0
        if self.burst_rate > self.rate and _in_windows(self.burst_windows, time):
            return self.burst_rate
        return self.rate

    def corrupts(self, name: str, instance: int, attempt: int, time: int) -> bool:
        """Whether attempt *attempt* of ``(name, instance)`` at *time* fails.

        Pure and deterministic: the decision depends only on the plan
        and the arguments, never on process state or call order.
        """
        rate = self.rate_at(time)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return _uniform_draw(self.seed, name, instance, attempt) < rate


#: The trivial plan: no transmission is ever corrupted.
NO_FAULTS = FaultPlan()


class FaultModel:
    """Base class of seeded channel fault models.

    Subclasses implement :meth:`resolve`, turning model parameters into
    a concrete :class:`FaultPlan` for one run's time horizon.
    """

    def resolve(self, max_time: int, cycle_length: int) -> FaultPlan:
        raise NotImplementedError


@dataclass(frozen=True)
class IidFaults(FaultModel):
    """Independent per-transmission corruption with probability ``rate``."""

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)

    def resolve(self, max_time: int, cycle_length: int) -> FaultPlan:
        return FaultPlan(seed=self.seed, rate=self.rate)


@dataclass(frozen=True)
class GilbertElliottFaults(FaultModel):
    """Bursty two-state (good/bad) Gilbert--Elliott channel.

    The channel state advances once per bus cycle: from *good* it turns
    *bad* with probability ``good_to_bad``, from *bad* it recovers with
    probability ``bad_to_good``.  Transmissions are corrupted with
    ``good_rate`` (usually 0) in the good state and ``bad_rate`` in the
    bad state.  :meth:`resolve` walks the chain once over the run's
    horizon with ``random.Random(seed)`` and freezes the bad intervals
    into the plan's burst windows.
    """

    good_to_bad: float
    bad_to_good: float
    bad_rate: float = 1.0
    good_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probability("good_to_bad", self.good_to_bad)
        _check_probability("bad_to_good", self.bad_to_good)
        _check_rate("bad_rate", self.bad_rate)
        _check_rate("good_rate", self.good_rate)

    def resolve(self, max_time: int, cycle_length: int) -> FaultPlan:
        if cycle_length <= 0:
            raise ModelError(
                f"cycle_length={cycle_length} must be positive to resolve "
                "a Gilbert-Elliott fault model"
            )
        rng = random.Random(self.seed)
        windows = []
        bad = False
        bad_since = 0
        time = 0
        while time <= max_time:
            if bad:
                if rng.random() < self.bad_to_good:
                    windows.append((bad_since, time))
                    bad = False
            elif rng.random() < self.good_to_bad:
                bad = True
                bad_since = time
            time += cycle_length
        if bad:
            windows.append((bad_since, time))
        return FaultPlan(
            seed=self.seed,
            rate=self.good_rate,
            burst_windows=tuple(windows),
            burst_rate=self.bad_rate,
        )


@dataclass(frozen=True)
class BlackoutFaults(FaultModel):
    """Explicit ``[start, end)`` windows during which the channel is dead."""

    windows: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "windows", _normalise_windows(tuple(self.windows))
        )

    def resolve(self, max_time: int, cycle_length: int) -> FaultPlan:
        return FaultPlan(blackouts=self.windows)


#: What the simulator accepts as its ``faults`` option.
FaultSpec = Union[FaultModel, FaultPlan, None]


def resolve_faults(
    spec: FaultSpec, max_time: int, cycle_length: int
) -> FaultPlan:
    """Resolve a fault model (or pass a plan through) for one run.

    ``None`` resolves to :data:`NO_FAULTS`; a :class:`FaultPlan` is
    returned unchanged (it is already resolved); a :class:`FaultModel`
    is resolved against the run's horizon.
    """
    if spec is None:
        return NO_FAULTS
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, FaultModel):
        return spec.resolve(max_time, cycle_length)
    raise ModelError(
        f"faults must be a FaultModel, a FaultPlan, or None; got {spec!r}"
    )
