"""Time base and small arithmetic helpers.

All times in this library are **integers in macroticks (MT)**.  At the
nominal FlexRay bit rate of 10 Mbit/s one macrotick corresponds to 1 us
(gdBit = 0.1 us, so the FlexRay 2-byte payload granularity equals
20 * gdBit = 2 MT).  Integer time keeps schedule tables, the bus timeline
and the discrete-event simulator exact; no floating-point drift can make
two analyses disagree.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ValidationError

#: Type alias used throughout the code base for readability.
TimeMT = int

#: Number of macroticks per microsecond at the nominal 10 Mbit/s setup.
MT_PER_US = 1

#: gdBit expressed in macroticks (0.1 us = 0.1 MT); only used for the
#: documented conversion of the "20 * gdBit" payload step, which is 2 MT.
PAYLOAD_STEP_MT = 2


def check_time(value: int, name: str = "time", allow_zero: bool = True) -> int:
    """Validate that *value* is a usable time quantity and return it.

    Raises :class:`ValidationError` for non-integers and negatives, and for
    zero when ``allow_zero`` is false.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int (macroticks), got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    if value == 0 and not allow_zero:
        raise ValidationError(f"{name} must be positive, got 0")
    return value


def lcm(values: Iterable[int]) -> int:
    """Least common multiple of a non-empty iterable of positive ints."""
    result = 1
    seen = False
    for v in values:
        seen = True
        check_time(v, "lcm operand", allow_zero=False)
        result = result // math.gcd(result, v) * v
    if not seen:
        raise ValidationError("lcm() of an empty iterable is undefined")
    return result


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative numerator, positive denominator."""
    if denominator <= 0:
        raise ValidationError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValidationError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def transmission_time(size_bytes: int, overhead_bytes: int, bits_per_mt: int) -> int:
    """Frame transmission time C_m of Eq. (1), in whole macroticks.

    ``(size_bytes + overhead_bytes) * 8`` bits at ``bits_per_mt`` bits
    per macrotick, rounded up.  Checks nothing: ``Message`` and
    ``FlexRayConfig`` validate sizes and bus speeds when they are built,
    and the analysis calls this once per message and bus speed.
    """
    return -(-(size_bytes + overhead_bytes) * 8 // bits_per_mt)
