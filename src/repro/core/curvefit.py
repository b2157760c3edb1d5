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

from typing import List, Sequence

from repro.errors import AnalysisError


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
    """

    def __init__(self, rows: int):
        self._xs: List[float] = []
        self._diags: List[List[float]] = [[] for _ in range(rows)]
        self._coeffs: List[List[float]] = [[] for _ in range(rows)]
        #: Per row, the index of the highest nonzero coefficient; an
        #: all-zero row keeps every term (-1), so even the sign of its
        #: zero is reproduced.
        self._tops: List[int] = [-1] * rows

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
        for i, y in enumerate(ys):
            diag = _extend_diagonal(self._diags[i], y, denoms)
            self._diags[i] = diag
            self._coeffs[i].append(diag[-1])
            if diag[-1] != 0.0:
                self._tops[i] = degree
        self._xs.append(float(x))

    def evaluate(self, xs: Sequence[float]) -> List[List[float]]:
        """Every row's value at every finite point of *xs* (Horner form)."""
        if not self._xs:
            raise AnalysisError("cannot evaluate empty curves")
        columns: List[List[float]] = []  # x - node_j for every x, by j
        out = []
        for coeffs, top in zip(self._coeffs, self._tops):
            if top < 0:
                top = len(coeffs) - 1
            while len(columns) < top:
                node = self._xs[len(columns)]
                columns.append([x - node for x in xs])
            values = [coeffs[top]] * len(xs)
            j = top - 1
            # Four Horner steps per pass over the candidates (the same
            # ops in the same order, a quarter of the loop overhead).
            while j >= 3:
                c3, c2, c1, c0 = coeffs[j - 3 : j + 1][::-1]
                values = [
                    (((v * d3 + c3) * d2 + c2) * d1 + c1) * d0 + c0
                    for v, d3, d2, d1, d0 in zip(
                        values, *columns[j - 3 : j + 1][::-1]
                    )
                ]
                j -= 4
            for j in range(j, -1, -1):
                c = coeffs[j]
                values = [v * d + c for v, d in zip(values, columns[j])]
            out.append(values)
        return out


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
