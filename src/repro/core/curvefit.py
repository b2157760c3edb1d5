"""Newton-polynomial curve fitting (Section 6.2.1).

The OBC/CF heuristic analyses only a handful of DYN segment lengths
exactly and interpolates every activity's response time at all other
lengths with a Newton polynomial -- "extremely fast, in particular when
recalculating the values after a new point has been added to the set
Points" (paper footnote 1).  The divided-difference form makes adding a
point an O(n) update.

Every feasible exact analysis yields a response time for *every*
activity, so all of the heuristic's interpolants share one node list.
:class:`NewtonCurves` holds them as one coefficient row per activity
over those shared nodes and scores all open candidate lengths in one
pass: Horner's rule runs column by column across the candidates, each
``(x - node)`` column computed once for every row.  Its floats are
bit-identical to one :class:`NewtonInterpolator` per activity: the rows
come from the same divided-difference recurrence and Horner keeps the
same op order.  Trailing coefficients that are exactly zero are trimmed
first, which is exact: ``±0.0 * d + 0.0`` stays a zero for finite
``d``, and ``±0.0 + c == c`` for the first nonzero ``c`` below them.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: Ints up to this magnitude convert to floats exactly, so their
#: differences round to the same float in every row.
_EXACT = 2**53


def _extend_diagonal(
    diag: Sequence[float], y: float, denoms: Sequence[float]
) -> List[float]:
    """The rising diagonal of the divided-difference table after a node
    with value *y* is added; ``denoms[k]`` is ``x - xs[-1 - k]``."""
    new_diag = [float(y)]
    for k, prev in enumerate(diag):
        new_diag.append((new_diag[k] - prev) / denoms[k])
    return new_diag


def _denominators(xs: Sequence[float], x: float) -> List[float]:
    """``x - xs[-1 - k]`` per existing node; rejects a duplicate node."""
    if any(x == old for old in xs):
        raise AnalysisError(f"duplicate interpolation node x={x}")
    return [x - old for old in reversed(xs)]


class NewtonInterpolator:
    """Incremental Newton divided-difference interpolation.

    Stores the diagonal of the divided-difference table, so
    :meth:`add_point` costs O(n) and evaluation costs O(n).
    """

    def __init__(self, xs: Sequence[float] = (), ys: Sequence[float] = ()):
        if len(xs) != len(ys):
            raise AnalysisError("xs and ys must have equal length")
        self._xs: List[float] = []
        self._coeffs: List[float] = []  # Newton coefficients c0, c1, ...
        self._diag: List[float] = []  # last row of the dd table
        for x, y in zip(xs, ys):
            self.add_point(x, y)

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def xs(self) -> List[float]:
        """Interpolation nodes added so far."""
        return list(self._xs)

    def add_point(self, x: float, y: float) -> None:
        """Add node (x, y); x must differ from all existing nodes."""
        self._diag = _extend_diagonal(self._diag, y, _denominators(self._xs, x))
        self._xs.append(float(x))
        self._coeffs.append(self._diag[-1])

    def __call__(self, x: float) -> float:
        """Evaluate the interpolating polynomial at *x* (Horner form)."""
        if not self._xs:
            raise AnalysisError("cannot evaluate an empty interpolator")
        result = self._coeffs[-1]
        for k in range(len(self._coeffs) - 2, -1, -1):
            result = result * (x - self._xs[k]) + self._coeffs[k]
        return result


class NewtonCurves:
    """Many Newton interpolants over one shared node list.

    Row *i* interpolates the *i*-th value of every :meth:`add_point`;
    :meth:`evaluate` returns, per row, the values at many points, each
    float equal to what a :class:`NewtonInterpolator` fed the same
    points would return.

    Rows whose values differ by one constant integer at every node
    share their Horner tail: integer differences are exact in floats,
    so such rows have bit-identical coefficients c1..c_top and differ
    only in c0, the last Horner step.  Sharing is keyed on each row's
    exact integer differences from its first value, never on float
    equality of coefficients (which would merge ``0.0`` and ``-0.0``).
    """

    def __init__(self, rows: int):
        self._xs: List[float] = []
        self._diags: List[List[float]] = [[] for _ in range(rows)]
        self._coeffs: List[List[float]] = [[] for _ in range(rows)]
        #: Per row, the index of the highest nonzero coefficient; an
        #: all-zero row keeps every term (-1), so even the sign of its
        #: zero is reproduced.
        self._tops: List[int] = [-1] * rows
        #: Per row, an id of its integer value differences so far (rows
        #: with one id share c1..c_top), or ``None`` once a value was not
        #: an int that converts to a float exactly.
        self._tails: List[Optional[int]] = [0] * rows
        self._firsts: Sequence[float] = ()

    def __len__(self) -> int:
        return len(self._xs)

    def add_point(self, x: float, ys: Sequence[float]) -> None:
        """Add node *x* with one value per row; *x* must be new."""
        if len(ys) != len(self._diags):
            raise AnalysisError(
                f"expected {len(self._diags)} values, got {len(ys)}"
            )
        denoms = _denominators(self._xs, x)
        degree = len(self._xs)
        if not degree:
            self._firsts = list(ys)
        tails = self._tails
        ids: Dict[tuple, int] = {}
        for i, y in enumerate(ys):
            diag = _extend_diagonal(self._diags[i], y, denoms)
            self._diags[i] = diag
            self._coeffs[i].append(diag[-1])
            if diag[-1] != 0.0:
                self._tops[i] = degree
            if tails[i] is not None:
                if type(y) is int and -_EXACT <= y <= _EXACT:
                    key = (tails[i], y - self._firsts[i])
                    tails[i] = ids.setdefault(key, len(ids))
                else:
                    tails[i] = None
        self._xs.append(float(x))

    def packed(self) -> Tuple[array, array, array]:
        """``(coeffs, tops, nodes)`` as C buffers: the coefficient rows
        flattened row-major (``len(self)`` per row), each row's Horner
        start (its top, or the last term for an all-zero row) and the
        nodes -- what :meth:`evaluate` reads."""
        last = len(self._xs) - 1
        return (
            array("d", chain.from_iterable(self._coeffs)),
            array("q", [top if top >= 0 else last for top in self._tops]),
            array("d", self._xs),
        )

    def evaluate(self, xs: Sequence[float]) -> List[List[float]]:
        """Every row's value at every finite point of *xs* (Horner form)."""
        if not self._xs:
            raise AnalysisError("cannot evaluate empty curves")
        columns: List[List[float]] = []  # x - node_j for every x, by j
        out: List[List[float]] = [[]] * len(self._coeffs)
        shared: Dict[int, List[int]] = {}
        last = len(self._xs) - 1
        for i, (coeffs, top, tail) in enumerate(
            zip(self._coeffs, self._tops, self._tails)
        ):
            if top >= 1 and tail is not None:
                shared.setdefault(tail, []).append(i)
            else:
                out[i] = self._horner(coeffs, top if top >= 0 else last, 0,
                                      columns, xs)
        for rows in shared.values():
            coeffs, top = self._coeffs[rows[0]], self._tops[rows[0]]
            if len(rows) == 1:
                out[rows[0]] = self._horner(coeffs, top, 0, columns, xs)
                continue
            tail = self._horner(coeffs, top, 1, columns, xs)
            for i in rows:
                c = self._coeffs[i][0]
                out[i] = [v * d + c for v, d in zip(tail, columns[0])]
        return out

    def _horner(
        self,
        coeffs: List[float],
        top: int,
        stop: int,
        columns: List[List[float]],
        xs: Sequence[float],
    ) -> List[float]:
        """Horner from ``coeffs[top]`` down through ``coeffs[stop]`` at
        every point of *xs*, extending the shared *columns* as needed."""
        while len(columns) < top:
            node = self._xs[len(columns)]
            columns.append([x - node for x in xs])
        values = [coeffs[top]] * len(xs)
        j = top - 1
        # Eight, then four Horner steps per pass over the candidates (the
        # same ops in the same order, less loop overhead).
        while j >= stop + 7:
            c7, c6, c5, c4, c3, c2, c1, c0 = coeffs[j - 7 : j + 1][::-1]
            values = [
                (((((((v * d7 + c7) * d6 + c6) * d5 + c5) * d4 + c4) * d3
                   + c3) * d2 + c2) * d1 + c1) * d0 + c0
                for v, d7, d6, d5, d4, d3, d2, d1, d0 in zip(
                    values, *columns[j - 7 : j + 1][::-1]
                )
            ]
            j -= 8
        while j >= stop + 3:
            c3, c2, c1, c0 = coeffs[j - 3 : j + 1][::-1]
            values = [
                (((v * d3 + c3) * d2 + c2) * d1 + c1) * d0 + c0
                for v, d3, d2, d1, d0 in zip(
                    values, *columns[j - 3 : j + 1][::-1]
                )
            ]
            j -= 4
        # The last one to three steps in one pass.
        if j == stop + 2:
            c2, c1, c0 = coeffs[stop : j + 1][::-1]
            values = [
                ((v * d2 + c2) * d1 + c1) * d0 + c0
                for v, d2, d1, d0 in zip(
                    values, *columns[stop : j + 1][::-1]
                )
            ]
        elif j == stop + 1:
            c1, c0 = coeffs[stop + 1], coeffs[stop]
            values = [
                (v * d1 + c1) * d0 + c0
                for v, d1, d0 in zip(values, columns[j], columns[stop])
            ]
        elif j == stop:
            c = coeffs[j]
            values = [v * d + c for v, d in zip(values, columns[j])]
        return values


def spread_points(lo: int, hi: int, count: int) -> List[int]:
    """*count* distinct integers evenly spread over [lo, hi], inclusive.

    Used to seed the initial ``Points`` set of the OBC/CF heuristic
    (the paper used five).
    """
    if hi < lo:
        raise AnalysisError(f"empty range [{lo}, {hi}]")
    if count < 1:
        raise AnalysisError("count must be >= 1")
    if hi == lo:
        return [lo]
    count = min(count, hi - lo + 1)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    points = {lo + round(i * step) for i in range(count)}
    return sorted(points)
