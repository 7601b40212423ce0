"""Exact calculus of piecewise-linear test functions on the line.

Functions are stored as breakpoint/value lists with rational coordinates;
each is compactly supported (zero off its breakpoint span, so its first and
last values are 0).  A convolution against a measure is never built as a
function: it is read off one integer sweep (`_sweep`) as rows, a maximum
or a single value.  Because everything stays piecewise linear, suprema are
attained at breakpoints and every certificate below is an exact rational
statement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .measures import (
    Atom,
    DiscreteMeasure,
    Interval,
    RationalLike,
    common_denominator,
    on_grid,
    rational,
    span_within,
)


class FaithfulnessError(ValueError):
    """A value was requested where the measure is not certified."""


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Compactly supported continuous piecewise-linear function given by
    breakpoints and values: it vanishes off the breakpoint span, so the
    boundary values must be zero."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(rational(b) for b in self.breakpoints)
        vals = tuple(rational(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals):
            raise ValueError("breakpoint and value lists differ in length")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(bps) < 2 or vals[0] != 0 or vals[-1] != 0:
            raise ValueError("a compactly supported function must start and end at 0")

    def eval(self, x: RationalLike) -> Fraction:
        x = rational(x)
        bps = self.breakpoints
        if x < bps[0] or x > bps[-1]:
            return Fraction(0)
        i = bisect_right(bps, x) - 1
        if i == len(bps) - 1:
            return self.values[-1]
        x0, x1 = bps[i], bps[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (x - x0) / (x1 - x0)

    def slopes(self) -> list[Fraction]:
        return [
            (v1 - v0) / (x1 - x0)
            for (x0, x1, v0, v1) in zip(self.breakpoints, self.breakpoints[1:],
                                        self.values, self.values[1:])
        ]

    def max_abs_slope(self) -> Fraction:
        slopes = self.slopes()
        return max((abs(s) for s in slopes), default=Fraction(0))

    def slope_changes(self) -> list[tuple[Fraction, Fraction]]:
        """(breakpoint, slope jump) pairs, including the jumps from/to zero
        at the support boundary."""
        slopes = [Fraction(0)] + self.slopes() + [Fraction(0)]
        return [
            (b, after - before)
            for b, before, after in zip(self.breakpoints, slopes, slopes[1:])
            if after != before
        ]


def triangle_test_function(half_width: RationalLike = Fraction(1, 6),
                           height: RationalLike = 1) -> PiecewiseLinearFn:
    """Tent of the given height supported on [-half_width, half_width]."""
    h = rational(half_width)
    if h <= 0:
        raise ValueError("half width must be positive")
    return PiecewiseLinearFn((-h, Fraction(0), h), (Fraction(0), rational(height), Fraction(0)))


def bump(v: RationalLike, j: int) -> PiecewiseLinearFn:
    """Trapezoid bump: 1 on [-(3j-1)v, (3j-1)v], 0 outside [-(3j+1)v, (3j+1)v].

    This is the closed form of the normalized convolution of the interval
    indicators of [-v, v] and [-3jv, 3jv].
    """
    v = rational(v)
    if v <= 0:
        raise ValueError("bump half width must be positive")
    if j < 1:
        raise ValueError("bump index must be >= 1")
    inner = (3 * j - 1) * v
    outer = (3 * j + 1) * v
    one = Fraction(1)
    zero = Fraction(0)
    return PiecewiseLinearFn((-outer, -inner, inner, outer), (zero, one, one, zero))


# ---------------------------------------------------------------------------
# Convolution against discrete measures
# ---------------------------------------------------------------------------

def _needed_region(f: PiecewiseLinearFn, J: Interval) -> Interval:
    # Boundary atoms meet f exactly at its vanishing support endpoints, so
    # the open region suffices for faithfulness.
    return Interval.open(J.lo - f.breakpoints[-1], J.hi - f.breakpoints[0])


def _faithful_atoms(f: PiecewiseLinearFn, mu: DiscreteMeasure, J: Interval) -> tuple[Atom, ...]:
    """The atoms of mu that (f * mu) on J can see; `FaithfulnessError` unless mu's window covers them."""
    needed = _needed_region(f, J)
    if not mu.window.contains_interval(needed):
        raise FaithfulnessError(
            f"convolution on {J} needs the measure on {needed}, "
            f"but its window is {mu.window}")
    lo, hi = span_within(mu.atoms, needed)
    return mu.atoms[lo:hi]


def _events(points: list[tuple[int, int]], offset: int, factor: int
            ) -> Iterator[tuple[int, int]]:
    """(x + offset, m * factor) per point (x, m): one event stream, sorted by x.

    A function rather than an inline generator, so each stream binds its own
    offset and factor.
    """
    return ((x + offset, m * factor) for x, m in points)


def _walk(streams: list[Iterable[tuple[int, int]]], lo: int, hi: int
          ) -> Iterator[tuple[int, int]]:
    """`_sweep`'s left-to-right walk: (x, value) per reported point, on the
    integer events of `streams` and the integer window ends lo <= hi."""
    value = slope = 0
    at = lo
    for x, group in groupby(merge(*streams), key=itemgetter(0)):
        jump = sum(j for _, j in group)
        if x <= lo:
            value += jump * (lo - x)
        elif x < hi:
            yield at, value
            value += slope * (x - at)
            at = x
        else:
            break
        slope += jump
    yield at, value
    if hi > at:
        yield hi, value + slope * (hi - at)


def _sweep(f: PiecewiseLinearFn, parts: Sequence[tuple[tuple[Atom, ...], Fraction, int]],
           J: Interval, marks: Sequence[Fraction] = ()
           ) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """(D, V, points): the points (x*D, h(x)*V) at J.lo, at each distinct
    event x inside J, and at J.hi when J.hi > J.lo, left to right, for
    h(x) = the sum over the parts (atoms, shift, sign) of
    sign * (f * atoms)(x + shift).  Each of the increasing `marks` is one
    more event, of jump 0, so a mark inside J is reported too.

    One left-to-right sweep.  A compactly supported f is the sum of
    ds * (y - b)_+ over its slope changes (b, ds), so h(y) is the sum of
    jump * (y - x)_+ over the events x = position - shift + b,
    jump = sign * mass * ds.  Each part and b give an event stream sorted
    by x; the streams are merged and equal x coalesced.  Events at or left
    of J.lo fold into h(J.lo) and the slope there; each later x inside J is
    reported, even when its net jump is 0.  A point is reported when the
    sweep moves past it, so J.lo's value has every event at or left of
    J.lo folded in.

    The sweep runs on one integer grid per call.  D is the lcm of the
    denominators of J's ends, the marks, the b, the shifts and the atom
    positions, so every event is an int over D.  M and S are the lcms of
    the mass and the slope-jump denominators, so every jump, a mass over M
    times a slope jump over S, is an int over W = M*S (the lcm of M and S
    would not do: 1/2 * 1/2 = 1/4).  Each slope is an int over W and each
    value an int over V = D*W.  The caller makes `Fraction`s of what it
    keeps.
    """
    changes = f.slope_changes()
    atoms = [a for part, _, _ in parts for a in part]
    D = common_denominator([J.lo, J.hi, *marks, *(b for b, _ in changes),
                            *(shift for _, shift, _ in parts), *(a.position for a in atoms)])
    M = common_denominator(a.mass for a in atoms)
    S = common_denominator(ds for _, ds in changes)
    streams = [[(on_grid(x, D), 0) for x in marks]] if marks else []
    for part, shift, sign in parts:
        points = [(on_grid(a.position, D), on_grid(a.mass, M)) for a in part]
        streams += [_events(points, on_grid(b - shift, D), sign * on_grid(ds, S))
                    for b, ds in changes]
    return D, D * M * S, _walk(streams, on_grid(J.lo, D), on_grid(J.hi, D))


def convolution_rows(f: PiecewiseLinearFn, mu: DiscreteMeasure, J: Interval,
                     marks: Iterable[RationalLike] = ()) -> Iterator[tuple[Fraction, Fraction]]:
    """(x, (f * mu)(x)) exactly, left to right, at J's ends, at every distinct
    event position inside J (see `_sweep`) and at every mark inside J, each
    row as the sweep reaches it.

    Faithfulness is enforced before the first row: the measure window must
    cover everything the convolution can see from J.  f * mu is linear
    between consecutive rows.
    """
    D, V, points = _sweep(f, ((_faithful_atoms(f, mu, J), Fraction(0), 1),), J,
                          sorted(map(rational, marks)))
    return ((Fraction(x, D), Fraction(value, V)) for x, value in points)


def convolution_value(f: PiecewiseLinearFn, mu: DiscreteMeasure,
                      x: RationalLike) -> Fraction:
    """Exact value of (f * mu)(x) = sum of f(x - position) * mass: the one
    row of the point window [x, x]."""
    return next(convolution_rows(f, mu, Interval.closed(x, x)))[1]


# ---------------------------------------------------------------------------
# Exact suprema and almost-period defects
# ---------------------------------------------------------------------------

def _sup_abs(f: PiecewiseLinearFn, parts: Sequence[tuple[tuple[Atom, ...], Fraction, int]],
             J: Interval) -> tuple[Fraction, Fraction]:
    """Exact sup over J of |h| for `_sweep`'s h, with its leftmost witness: h is
    linear between the sweep's points, so the sup is the max of |value| there."""
    D, V, points = _sweep(f, parts, J)
    best, witness = -1, None
    for x, value in points:
        d = abs(value)
        if d > best:
            best, witness = d, x
    return Fraction(best, V), Fraction(witness, D)


def convolution_sup(f: PiecewiseLinearFn, mu: DiscreteMeasure, J: Interval
                    ) -> tuple[Fraction, Fraction]:
    """Exact sup of |f * mu| over J with its leftmost witness: the max over
    `convolution_rows`' points, faithfulness checked as there."""
    return _sup_abs(f, ((_faithful_atoms(f, mu, J), Fraction(0), 1),), J)


def almost_period_defect(f: PiecewiseLinearFn, source: Callable[[Interval], DiscreteMeasure],
                         tau: RationalLike, J: Interval) -> tuple[Fraction, Fraction]:
    """Exact sup over x in J of |(f * mu)(x + tau) - (f * mu)(x)|.

    `source` produces the measure on a requested interval (for instance
    `construction.limit_window`).  Returns (defect, witness x), the
    witness the leftmost point of the maximum.

    One sweep maximum (`_sup_abs`) over the far window's atoms shifted by
    -tau and the base window's atoms with their masses negated.  No
    intermediate function is built.
    """
    tau = rational(tau)
    pad_lo, pad_hi = f.breakpoints[0], f.breakpoints[-1]
    base_region = Interval.closed(J.lo - pad_hi, J.hi - pad_lo)
    base = _faithful_atoms(f, source(base_region), J)
    far = _faithful_atoms(f, source(base_region.translate(tau)), J.translate(tau))
    return _sup_abs(f, ((far, tau, 1), (base, Fraction(0), -1)), J)


@dataclass(frozen=True)
class DefectRow:
    tau: Fraction
    defect: Fraction
    witness: Fraction


@dataclass(frozen=True)
class AlmostPeriodCertificate:
    """Finite-window almost-period defect table for candidate shifts p*3**s.

    `density_gap` is the spacing of the candidate set: every interval of
    that length contains a candidate shift, which is what makes the
    candidates relatively dense.
    """

    scale_exponent: int
    epsilon: Fraction
    window: Interval
    tau_range: Fraction
    density_gap: Fraction
    rows: tuple[DefectRow, ...]
    max_defect: Fraction
    all_within: bool

    def __bool__(self) -> bool:
        return self.all_within


def almost_period_certificate(f: PiecewiseLinearFn, epsilon: RationalLike,
                              tau_range: RationalLike, s: int,
                              source: Callable[[Interval], DiscreteMeasure],
                              J: Interval = Interval.closed(Fraction(-1, 2), Fraction(1, 2)),
                              ) -> AlmostPeriodCertificate:
    """Measure the defect at every candidate shift tau = p*3**s, |tau| <= range.

    Defects are exact; the certificate passes when all of them are strictly
    below epsilon on the window J.
    """
    if s < 1:
        raise ValueError(f"scale exponent must be >= 1, got {s}")
    epsilon = rational(epsilon)
    tau_range = rational(tau_range)
    if tau_range < 0:
        raise ValueError(f"shift range must be >= 0, got {tau_range}")
    step = Fraction(3 ** s)
    p_max = int(tau_range / step)
    rows = []
    worst = Fraction(0)
    for p in range(-p_max, p_max + 1):
        tau = p * step
        defect, witness = almost_period_defect(f, source, tau, J)
        rows.append(DefectRow(tau, defect, witness))
        worst = max(worst, defect)
    return AlmostPeriodCertificate(
        scale_exponent=s,
        epsilon=epsilon,
        window=J,
        tau_range=tau_range,
        density_gap=step,
        rows=tuple(rows),
        max_defect=worst,
        all_within=worst < epsilon,
    )
