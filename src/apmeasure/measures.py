"""Exact algebra of finite discrete measures on the real line.

Every scalar (position, mass, interval endpoint) is a `fractions.Fraction`,
so all operations here are exact: rerunning a pipeline reproduces results
bit for bit.  A measure is a finite, sorted, duplicate-free atom list
together with a *window*, the closed or open interval on which the list is
a faithful description of the (possibly much larger) underlying measure.
Operations that would need atoms outside the window fail loudly instead of
truncating silently.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from heapq import merge
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TypeVar, Union

RationalLike = Union[Fraction, int, str]
T = TypeVar("T")

DEFAULT_ATOM_CAP = 10_000_000


class AtomBudgetError(RuntimeError):
    """Projected atom count exceeds the configured cap."""


class WindowError(ValueError):
    """An operation needed data outside a measure's faithfulness window."""


def rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or exact fraction string like '3/16' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def common_denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators of `values` (1 when there are none)."""
    return math.lcm(*{x.denominator for x in values})


def on_grid(x: Fraction, unit: int) -> int:
    """x * unit as an int: x on the grid (1/unit)Z, unit a multiple of x's denominator."""
    return x.numerator * (unit // x.denominator)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Interval:
    """Rational interval with explicit openness per endpoint."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    @staticmethod
    def closed(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(rational(lo), rational(hi))

    @staticmethod
    def open(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(rational(lo), rational(hi), True, True)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, x: RationalLike) -> bool:
        x = rational(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        """Set containment, honoring openness on both sides."""
        if other.is_empty:
            return True
        if other.lo < self.lo or (other.lo == self.lo and self.lo_open and not other.lo_open):
            return False
        if other.hi > self.hi or (other.hi == self.hi and self.hi_open and not other.hi_open):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection as a set; None when the sets are disjoint."""
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if lo > hi:
            return None
        out = Interval(lo, hi, lo_open, hi_open)
        return None if out.is_empty else out

    def translate(self, t: RationalLike) -> "Interval":
        t = rational(t)
        return Interval(self.lo + t, self.hi + t, self.lo_open, self.hi_open)

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


# ---------------------------------------------------------------------------
# Atoms and measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Atom:
    """A point mass: (position, mass), mass nonzero after canonicalization."""

    position: Fraction
    mass: Fraction

    def __post_init__(self):
        if not isinstance(self.position, Fraction):
            object.__setattr__(self, "position", rational(self.position))
        if not isinstance(self.mass, Fraction):
            object.__setattr__(self, "mass", rational(self.mass))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Canonical finite atom list, strictly increasing by position, plus window.

    Construct through :func:`make_measure`; the constructor itself trusts its
    input.  Equality is structural: same atoms and same window.
    """

    atoms: tuple[Atom, ...]
    window: Interval

    def __len__(self) -> int:
        return len(self.atoms)

    def positions(self) -> list[Fraction]:
        return [a.position for a in self.atoms]

    @property
    def total_mass(self) -> Fraction:
        """Summed as integer numerators over the lcm of the mass denominators."""
        unit = common_denominator(a.mass for a in self.atoms)
        return Fraction(sum(on_grid(a.mass, unit) for a in self.atoms), unit)

    def mass_at(self, x: RationalLike) -> Fraction:
        x = rational(x)
        i = bisect_left(self.atoms, x, key=lambda a: a.position)
        if i < len(self.atoms) and self.atoms[i].position == x:
            return self.atoms[i].mass
        return Fraction(0)

    def __str__(self) -> str:
        return f"DiscreteMeasure({len(self.atoms)} atoms on {self.window})"


def make_measure(pairs: Iterable[tuple[RationalLike, RationalLike]],
                 window: Interval) -> DiscreteMeasure:
    """Canonicalize (position, mass) pairs into a measure on `window`.

    Duplicate positions merge by summing masses, zero masses are dropped,
    atoms are sorted.  A position outside the window is a `WindowError`
    naming an end atom: once sorted, every position lies in the window
    exactly when the two ends do.
    """
    items = sorted(((rational(p), rational(m)) for p, m in pairs), key=itemgetter(0))
    for p, m in items[:1] + items[-1:]:
        if not window.contains(p):
            raise WindowError(f"atom at {p} (mass {m}) lies outside window {window}")
    return _merged(items, window)


def _merged(items: Iterable[tuple[Fraction, Fraction]], window: Interval) -> DiscreteMeasure:
    """Sorted (position, mass) pairs as a measure on `window`: equal positions add, zero masses drop."""
    atoms = []
    for p, group in groupby(items, key=itemgetter(0)):
        mass = sum(m for _, m in group)
        if mass:
            atoms.append(Atom(p, mass))
    return DiscreteMeasure(tuple(atoms), window)


def averaging_radius(k: int) -> Fraction:
    """Shift radius 2**-((k+1)**2) of the k-th averaging operator."""
    if k < 1:
        raise ValueError(f"averaging radius needs k >= 1, got {k}")
    return Fraction(1, 2 ** ((k + 1) ** 2))


@cache
def averaging_offsets(k: int) -> tuple[Fraction, ...]:
    """The 2k increasing shifts j*radius/k (0 < |j| <= k) of the k-th averaging operator."""
    radius = averaging_radius(k)
    return tuple(radius * j / k for j in range(-k, k + 1) if j != 0)


def combine(c1: RationalLike, mu: DiscreteMeasure,
            c2: RationalLike, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Exact linear combination c1*mu + c2*nu on the common window.

    The result window is the intersection of the operand windows; atoms
    outside it are no longer certified and are dropped.  Disjoint windows
    raise `WindowError`.

    Both operands' atoms in the window are already sorted and inside it, so
    they are merged in one pass (`_merged`, as in `make_measure`).
    """
    c1, c2 = rational(c1), rational(c2)
    window = mu.window.intersect(nu.window)
    if window is None:
        raise WindowError(f"windows {mu.window} and {nu.window} do not overlap")
    scaled = ([(a.position, c * a.mass) for a in restrict(m, window).atoms]
              for c, m in ((c1, mu), (c2, nu)))
    return _merged(merge(*scaled, key=itemgetter(0)), window)


def restrict(mu: DiscreteMeasure, J: Interval) -> DiscreteMeasure:
    """Atoms of mu inside J (honoring openness); the result window is J.

    J must sit inside mu's window: faithfulness cannot be certified outside.
    """
    if not mu.window.contains_interval(J):
        raise WindowError(f"cannot restrict to {J}: outside window {mu.window}")
    lo, hi = span_within(mu.atoms, J)
    return DiscreteMeasure(mu.atoms[lo:hi], J)


def _position(atom: Atom) -> Fraction:
    return atom.position


def span_within(items: Sequence[T], J: Interval,
                key: Callable[[T], Fraction] = _position) -> tuple[int, int]:
    """(lo, hi) such that items[lo:hi] are exactly the items whose key lies in J.

    The keys must increase strictly along `items`; by default they are atom
    positions.
    """
    lo = (bisect_right if J.lo_open else bisect_left)(items, J.lo, key=key)
    hi = (bisect_left if J.hi_open else bisect_right)(items, J.hi, key=key)
    return lo, max(lo, hi)


def _densest_run(anchors: Sequence[int], keys: Sequence[int], ahead: int,
                 weights: Sequence[int]) -> tuple[int, int, int]:
    """(w, i, j) for the leftmost i maximizing w = weights[i] + ... + weights[j], where j
    is the last index with keys[j] < anchors[i] + ahead; (0, 0, 0) for no index.

    One two-pointer scan on ints, anchors and keys increasing, keys[i] <= anchors[i] and
    ahead > 0: the sliding sups below and `matching.lump_decompose`'s lump count.
    """
    prefix = list(accumulate(weights, initial=0))
    best = best_i = best_j = j = 0
    last = len(keys) - 1
    for i, x in enumerate(anchors):
        end = x + ahead
        while j < last and keys[j + 1] < end:
            j += 1
        w = prefix[j + 1] - prefix[i]
        if w > best:
            best, best_i, best_j = w, i, j
    return best, best_i, best_j


def _sliding_run(mu: DiscreteMeasure, reach: Fraction, closed: bool,
                 weights: Sequence[int]) -> tuple[int, int, int]:
    """`_densest_run` on the grid of mu's positions and reach; a closed reach r is the open r + 1."""
    positions = mu.positions()
    D = common_denominator([reach, *positions])
    xs = [on_grid(p, D) for p in positions]
    return _densest_run(xs, xs, on_grid(reach, D) + closed, weights)


def sliding_variation_sup(mu: DiscreteMeasure, L: RationalLike) -> tuple[Fraction, Fraction]:
    """Exact sup over t of the variation on the closed window [t, t+L].

    The objective is piecewise constant in t and its sup is attained with an
    atom at the left endpoint, so scanning atom-anchored placements is exact.
    Returns (value, witness t), the leftmost such atom.
    """
    L = rational(L)
    if L <= 0:
        raise ValueError(f"window length must be positive, got {L}")
    if not mu.atoms:
        return Fraction(0), mu.window.lo
    unit = common_denominator(a.mass for a in mu.atoms)
    best, i, _ = _sliding_run(mu, L, True, [abs(on_grid(a.mass, unit)) for a in mu.atoms])
    return Fraction(best, unit), mu.atoms[i].position


def sliding_count_sup(mu: DiscreteMeasure, u: RationalLike) -> tuple[int, Fraction]:
    """Exact max number of atoms in any open interval (x-u, x+u).

    Returns (count, witness center x).  The witness is the center of the
    leftmost atom block realizing the max.
    """
    u = rational(u)
    if u <= 0:
        raise ValueError(f"neighborhood radius must be positive, got {u}")
    if not mu.atoms:
        return 0, mu.window.lo
    best, i, j = _sliding_run(mu, 2 * u, False, [1] * len(mu))
    return best, (mu.atoms[i].position + mu.atoms[j].position) / 2
