"""Independent oracle for the benchmark's output checks.

Nothing here imports `apmeasure`.  The construction is expanded literally
from its definition on an integer grid: stage 0 is a unit mass at the
origin, and stage k keeps stage k-1 and adds two copies of it, shifted by
+-3**(k-1) and averaged over the 2k offsets j*r_k/k (j = +-1..+-k,
r_k = 2**-((k+1)**2)), each copy carrying 1/(2k) of the mass.  A stage-s
atom is stored as (P, W) meaning position P/D and mass W/M, with D and M
common denominators, so the expansion needs no Fraction arithmetic and no
ordering argument: the atoms are sorted afterwards.

Convolution values are literal pointwise sums over the atoms, defect
suprema are taken over every candidate breakpoint, and lumps and
neighbourhood counts come from direct scans.  `self_check` ties the
expansion to closed forms.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction


def radius_denominator(k: int) -> int:
    """Denominator of the k-th averaging step r_k / k = 1 / (k * 2**((k+1)**2))."""
    return k * 2 ** ((k + 1) ** 2)


@dataclass(frozen=True)
class Expansion:
    """A literally expanded stage: sorted (P, W) with position P/D, mass W/M."""

    stage: int
    D: int
    M: int
    atoms: list[tuple[int, int]]

    def as_fractions(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(p, self.D), Fraction(w, self.M)) for p, w in self.atoms]

    def grid(self, x: Fraction) -> int:
        """x on the integer grid; x must be a multiple of 1/D."""
        scaled = x * self.D
        if scaled.denominator != 1:
            raise ValueError(f"{x} is not on the stage-{self.stage} grid")
        return scaled.numerator


def expand(s: int) -> Expansion:
    """Stage s of the construction, expanded literally from stage 0."""
    D = math.lcm(6, *(radius_denominator(k) for k in range(1, s + 1)))
    M = math.prod(2 * k for k in range(1, s + 1))
    atoms = [(0, M)]
    for k in range(1, s + 1):
        step = D // radius_denominator(k)
        offsets = [j * step for j in range(-k, k + 1) if j != 0]
        grown = list(atoms)
        for sign in (-1, 1):
            shift = sign * 3 ** (k - 1) * D
            for p, w in atoms:
                share, rest = divmod(w, 2 * k)
                if rest:
                    raise AssertionError(f"mass {w}/{M} is not divisible by {2 * k}")
                grown.extend((p + shift + off, share) for off in offsets)
        atoms = grown
    atoms.sort()
    if any(a[0] == b[0] for a, b in zip(atoms, atoms[1:])):
        raise AssertionError(f"stage {s}: two atoms share a position")
    return Expansion(s, D, M, atoms)


def self_check(max_stage: int = 4) -> None:
    """Check the expansion against closed forms; raises AssertionError."""
    one = expand(1)
    expected = [(Fraction(-17, 16), Fraction(1, 2)), (Fraction(-15, 16), Fraction(1, 2)),
                (Fraction(0), Fraction(1)),
                (Fraction(15, 16), Fraction(1, 2)), (Fraction(17, 16), Fraction(1, 2))]
    if one.as_fractions() != expected:
        raise AssertionError(f"stage 1 is {one.as_fractions()}, expected {expected}")
    for s in range(max_stage + 1):
        e = expand(s)
        count = math.prod(1 + 4 * k for k in range(1, s + 1))
        if len(e.atoms) != count:
            raise AssertionError(f"stage {s}: {len(e.atoms)} atoms, closed form {count}")
        total = Fraction(sum(w for _, w in e.atoms), e.M)
        if total != 3 ** s:
            raise AssertionError(f"stage {s}: total mass {total}, closed form {3 ** s}")


# ---------------------------------------------------------------------------
# Pointwise sums
# ---------------------------------------------------------------------------

TENT_HALF_WIDTH = Fraction(1, 6)


def tent(y: Fraction) -> Fraction:
    """The built-in test function: height 1, support [-1/6, 1/6]."""
    return max(Fraction(0), 1 - abs(y) / TENT_HALF_WIDTH)


def conv_at(atoms: list[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Literal sum of tent(x - position) * mass over the atoms (sorted by
    position); atoms 1/6 or farther from x add 0 and are skipped."""
    lo = bisect_right(atoms, (x - TENT_HALF_WIDTH, math.inf))
    hi = bisect_left(atoms, (x + TENT_HALF_WIDTH, -math.inf))
    return sum((m * tent(x - p) for p, m in atoms[lo:hi]), Fraction(0))


def _grid_conv(e: Expansion, X: int, h: int) -> int:
    """D*M * (tent * mu)(X/D), summing over atoms within h = D/6 of X."""
    lo = bisect_right(e.atoms, (X - h, math.inf))
    hi = bisect_left(e.atoms, (X + h, -math.inf))
    return sum(w * (h - abs(X - p)) for p, w in e.atoms[lo:hi]) * 6


def defect(e: Expansion, tau: Fraction, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """sup over x in [lo, hi] of |(tent*mu)(x+tau) - (tent*mu)(x)| and its leftmost witness.

    The difference is piecewise linear with breakpoints among p - tau + b
    and p + b (p an atom, b in {-1/6, 0, 1/6}), so every one of those
    inside the window, plus both endpoints, is evaluated by pointwise sums.
    `e` must cover both [lo, hi] and [lo, hi] + tau padded by 1/6.
    """
    T, L, H = e.grid(tau), e.grid(lo), e.grid(hi)
    h = e.D // 6
    candidates = {L, H}
    for base in (0, T):
        first = bisect_left(e.atoms, (L + base - h, -math.inf))
        last = bisect_right(e.atoms, (H + base + h, math.inf))
        for p, _ in e.atoms[first:last]:
            for b in (-h, 0, h):
                x = p - base + b
                if L < x < H:
                    candidates.add(x)
    best, witness = -1, L
    for X in sorted(candidates):
        d = abs(_grid_conv(e, X + T, h) - _grid_conv(e, X, h))
        if d > best:
            best, witness = d, X
    return Fraction(best, e.D * e.M), Fraction(witness, e.D)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def lump_count(positions: list[Fraction], v: Fraction) -> int:
    """Single-linkage lumps of a point multiset, linking gaps strictly below v."""
    ordered = sorted(positions)
    return sum(1 for a, b in zip(ordered, ordered[1:]) if b - a >= v) + (1 if ordered else 0)


def max_count(positions: list[Fraction], u: Fraction) -> int:
    """Largest number of points in an open interval of radius u."""
    ordered = sorted(positions)
    return max((bisect_left(ordered, p + 2 * u) - i for i, p in enumerate(ordered)), default=0)
