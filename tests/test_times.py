"""Unit tests for repro.model.times."""

import pytest

from repro.errors import ValidationError
from repro.model import Message, MessageKind
from repro.model.times import ceil_div, check_time, lcm, transmission_time


class TestCheckTime:
    def test_accepts_zero_by_default(self):
        assert check_time(0) == 0

    def test_accepts_positive(self):
        assert check_time(17, "x") == 17

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_time(-1, "x")

    def test_rejects_zero_when_disallowed(self):
        with pytest.raises(ValidationError, match="positive"):
            check_time(0, "x", allow_zero=False)

    def test_rejects_float(self):
        with pytest.raises(ValidationError, match="int"):
            check_time(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError, match="int"):
            check_time(True, "x")


class TestLcm:
    def test_single(self):
        assert lcm([7]) == 7

    def test_pair(self):
        assert lcm([4, 6]) == 12

    def test_many(self):
        assert lcm([2, 3, 5, 10]) == 30

    def test_idempotent(self):
        assert lcm([8, 8, 8]) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            lcm([])

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            lcm([0, 4])


class TestCeilDiv:
    @pytest.mark.parametrize(
        "n,d,expected",
        [(0, 5, 0), (1, 5, 1), (5, 5, 1), (6, 5, 2), (10, 3, 4), (9, 3, 3)],
    )
    def test_values(self, n, d, expected):
        assert ceil_div(n, d) == expected

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            ceil_div(4, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValidationError):
            ceil_div(-4, 2)


class TestBytesToMt:
    """C_m of Eq. (1): ``transmission_time(size, overhead, bits_per_mt)``."""

    def test_default_rate_10mbps(self):
        # 10 bits per MT: 5 bytes = 40 bits -> 4 MT
        assert transmission_time(5, 0, 10) == 4
        # the frame overhead is sent too: 5 + 5 bytes = 80 bits -> 8 MT
        assert transmission_time(5, 5, 10) == 8

    def test_rounding_up(self):
        # 1 byte = 8 bits -> ceil(8/10) = 1 MT
        assert transmission_time(1, 0, 10) == 1

    def test_byte_per_mt_rate(self):
        assert transmission_time(7, 0, 8) == 7

    def test_rejects_zero_size(self):
        # transmission_time checks nothing; a zero-size message is
        # rejected where it is built.
        with pytest.raises(ValidationError):
            Message(name="m", size=0, sender="a", receivers=("b",),
                    kind=MessageKind.ST)
