"""Stage-by-stage construction of the self-similar averaged lattice measure.

Stage 0 is a unit mass at the origin.  Stage s adds two translated copies
(by +-3**(s-1)) of the stage-(s-1) measure smeared by the s-th averaging
operator.  Every finite window of the weak limit is eventually frozen: once
a stage covers the window, later stages never change it.  All positions and
masses stay exact rationals.  Lattice cell n was made by the passes at the
nonzero balanced-ternary digits of n (`_passes`), and its atoms are their
shifts plus one offset each (`_pass`); stages, windows and cells all read
that decode.  It runs on Python ints, positions on (1/D)Z and masses on
(1/M)Z for a grid each query picks (`_Query`).  An atom's provenance is
decoded from its index.

Besides the builder, this module certifies the arithmetic facts the
construction relies on: support confinement, unit mass per lattice cell,
the geometric tail bound on the averaging radii, mass decay outside a
stage's window, stage stability, and per-cluster counting certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

from .measures import (
    DEFAULT_ATOM_CAP,
    Atom,
    AtomBudgetError,
    DiscreteMeasure,
    Interval,
    RationalLike,
    averaging_offsets,
    averaging_radius,
    common_denominator,
    on_grid,
    rational,
)

# an averaging group: (base, mass, kept offsets), the atoms base + offset of one mass
_Group = tuple[int, int, Sequence[int]]
# a lattice cell: (first atom, last atom, least step inside, atom count, total mass), atoms of mass total/count
_Cell = tuple[int, int, float, int, int]


class StageStabilityError(RuntimeError):
    """A later stage changed a window that should already be frozen.

    This cannot happen for a correct builder; treat it as an implementation
    bug, never as data.
    """


def stage_window(s: int) -> Interval:
    """Open interval confining the stage-s support: ((1-3^s)/2 - 1/3, (3^s-1)/2 + 1/3)."""
    if s < 0:
        raise ValueError(f"stage must be >= 0, got {s}")
    half = Fraction(3 ** s - 1, 2) + Fraction(1, 3)
    return Interval.open(-half, half)


def cell_center_bound(s: int) -> int:
    """Largest |n| of a lattice cell (n-1/3, n+1/3) inside the stage-s window."""
    return (3 ** s - 1) // 2


@cache
def projected_atom_count(s: int) -> int:
    """Closed-form atom count n_s = prod_{k<=s} (1+4k) before building."""
    return math.prod(1 + 4 * k for k in range(1, s + 1))


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ProvenanceStep:
    """One averaging pass applied to an atom: stage index, lattice shift, offset."""

    stage: int
    shift: Fraction
    offset: Fraction


def _check_walks(s: int, atom_cap: int, cells: bool = False) -> None:
    """Raise `AtomBudgetError` if a whole walk of stage s, n_s atoms (`build`'s), or its cell walk,
    c_s = 3*c_{s-1} + 3 = 3 + ... + 3^s cells (`verify`'s), passes the cap; stops at the first k past it."""
    w = 0 if cells else 1
    for k in range(1, s + 1):
        w = 3 * w + 3 if cells else w * (1 + 4 * k)
        if w > atom_cap:
            raise AtomBudgetError(f"walking stage {s} makes {'' if k == s else 'at least '}{w} "
                                  f"{'cells' if cells else 'atoms'}, cap is {atom_cap}")


@cache
def provenance_step(k: int, sign: int, j: int) -> ProvenanceStep:
    """The stage-k averaging pass on side `sign` (-1 left, +1 right) with offset index j."""
    return ProvenanceStep(k, Fraction(sign * 3 ** (k - 1)), averaging_offsets(k)[j])


def provenance_digits(s: int, i: int) -> list[tuple[int, int, int]]:
    """(stage k, side -1 or +1, offset index) of each averaging pass that made
    atom i of stage s, first pass first, decoded in O(s).

    Stage k is a left block of 2k*n_{k-1} atoms, then stage k-1, then a
    right block of the same size.  Inside a side block the index is
    (index in stage k-1) * 2k + (offset index), so the index is a
    mixed-radix number whose digits are the passes.
    """
    n = projected_atom_count(s)
    if not 0 <= i < n:
        raise IndexError(f"stage {s} has {n} atoms, no atom {i}")
    digits = []
    for k in range(s, 0, -1):
        n //= 1 + 4 * k
        side = 2 * k * n
        if i < side:
            i, j = divmod(i, 2 * k)
            digits.append((k, -1, j))
        elif i >= side + n:
            i, j = divmod(i - side - n, 2 * k)
            digits.append((k, 1, j))
        else:
            i -= side
    digits.reverse()
    return digits


def provenance(s: int, i: int) -> tuple[ProvenanceStep, ...]:
    """The averaging passes that produced atom i of stage s (see `provenance_digits`)."""
    return tuple(provenance_step(*digit) for digit in provenance_digits(s, i))


@cache
def _grid_denominator(s: int) -> int:
    """lcm(6, the denominators of the stage-k averaging offsets for k <= s)."""
    return math.lcm(6, *(off.denominator for k in range(1, s + 1) for off in averaging_offsets(k)))


class _Query:
    """One top-level expansion up to stage s: its integer grid and its atom budget.

    The kernel runs on Python ints.  A position x is the int x*D and a mass
    m the int m*M, with D = lcm(6, the stage-k offset denominators for
    k <= s, the denominators of J's ends) and M = prod_{k<=s} 2k: every
    stage-k position (a sum of integer shifts and stage-k offsets), every
    stage window end and every stage-k mass 1/prod(2j) lies on that grid.
    `pos` raises rather than rounds a position that is not on it.  `atoms`
    is the way back to `Fraction`.
    """

    def __init__(self, s: int, J: Interval, cap: int | float):
        if cap < 1:
            raise ValueError("atom cap must be >= 1")
        self.J = J
        self.cap = cap
        self.used = 0
        self.D = math.lcm(_grid_denominator(s), J.lo.denominator, J.hi.denominator)
        self.M = math.prod(range(2, 2 * s + 1, 2))
        self._offsets: dict[int, tuple[int, ...]] = {}

    def charge(self, n: int) -> None:
        self.used += n
        if self.used > self.cap:
            raise AtomBudgetError(
                f"expanding window {self.J} made {self.used} atoms and cells, cap is {self.cap}")

    def pos(self, x: Fraction) -> int:
        scale, rem = divmod(self.D, x.denominator)
        if rem:
            raise AssertionError(f"position {x} is not on the grid (1/{self.D})Z")
        return x.numerator * scale

    def window(self, J: Interval) -> tuple[int, int]:
        """The grid points of J as a closed range (lo, hi), empty when lo > hi."""
        return self.pos(J.lo) + J.lo_open, self.pos(J.hi) - J.hi_open

    def offsets(self, k: int) -> tuple[int, ...]:
        """The stage-k averaging offsets on the grid; raises unless they increase."""
        if k not in self._offsets:
            offsets = tuple(self.pos(off) for off in averaging_offsets(k))
            if not all(a < b for a, b in zip(offsets, offsets[1:])):
                raise AssertionError(f"stage {k} averaging offsets do not increase")
            self._offsets[k] = offsets
        return self._offsets[k]

    def atoms(self, groups: Iterable[_Group]) -> tuple[Atom, ...]:
        """The atoms of grid groups as `Atom`s; atoms of one mass share its `Fraction`."""
        D, mass = self.D, cache(partial(Fraction, denominator=self.M))
        return tuple(Atom(Fraction(base + off, D), mass(m)) for base, m, kept in groups for off in kept)


def _share(s: int, mass: int, parts: int) -> int:
    """mass/parts, each of `parts` equal shares of a stage-s mass (a cell's atoms)."""
    share, rem = divmod(mass, parts)
    if rem:
        raise AssertionError(f"stage {s}: a mass is not divisible by {parts}")
    return share


def _collision(t: int, last: int, start: int, query: _Query) -> AssertionError:
    return AssertionError(f"stage {t}: atom collision at {Fraction(last, query.D)}"
                          f" / {Fraction(start, query.D)}")


def _passes(n: int, t: int) -> list[tuple[int, int]]:
    """(stage k, side -1 or +1) of each averaging pass that made lattice cell n of stage t,
    first pass first: the nonzero digits of n in balanced ternary, n = sum of side*3^(k-1)."""
    if abs(n) > cell_center_bound(t):
        raise IndexError(f"stage {t} has no lattice cell {n}")
    passes, k = [], 1
    while n:
        side = (n + 1) % 3 - 1
        if side:
            passes.append((k, side))
        n, k = (n - side) // 3, k + 1
    return passes


def _pass(k: int, side: int, query: _Query) -> tuple[int, tuple[int, ...]]:
    """The grid shift side*3^(k-1) and the increasing grid offsets of the stage-k pass on `side`:
    the one place where groups and cells read the layout's numbers."""
    return side * 3 ** (k - 1) * query.D, query.offsets(k)


def _sides(k: int, query: _Query) -> list[_Cell]:
    """The three choices at pass k as cells, left to right: the origin's images under the
    pass on the left, the origin (no stage-k pass), and its images under the pass on the right."""
    cells = [(0, 0, math.inf, 1, query.M)]
    for side in (-1, 1):
        shift, offs = _pass(k, side, query)
        step = min(b - a for a, b in zip(offs, offs[1:]))
        cells.insert(side + 1, (shift + offs[0], shift + offs[-1], step, len(offs), query.M))
    return cells


def _images(t: int, cells: Sequence[_Cell], images: Iterable[_Cell], query: _Query) -> Iterator[_Cell]:
    """Each of `cells` imaged under each of `images`, the cells of later passes, image-major.

    Atoms x_1 < ... < x_m of a cell and y_1 < ... < y_q of an image make the m*q atoms
    x_i + y_j, x-major, of the cell's total mass.  So the least step is min(the cell's least
    step - span, the image's least step), span = y_q - y_1, and a cell's least step of at most
    the span is a collision; each cell made must start after the one before ends.
    """
    last = -math.inf
    for c, d, step, count, _ in images:
        span = d - c
        for a, b, gap, n, total in cells:
            if gap <= span:
                raise AssertionError(f"stage {t}: atom collision imaging the cell at {Fraction(a, query.D)}")
            if not last < a + c:
                raise _collision(t, last, a + c, query)
            last = b + d
            yield a + c, last, min(gap - span, step), n * count, total


def _layout(k0: int, k1: int, query: _Query) -> list[_Cell]:
    """The cells the passes of stages k0+1..k1 make from the origin, left to right (stage k1's
    for k0 = 0): at each stage, the cells so far imaged under its three choices (`_sides`)."""
    cells = [(0, 0, math.inf, 1, query.M)]
    for k in range(k0 + 1, k1 + 1):
        cells = list(_images(k, cells, _sides(k, query), query))
    return cells


def _cells(t: int, query: _Query) -> Iterator[_Cell]:
    """The lattice cells of stage t on the query's grid, left to right; its c_t = 3 + ... + 3^t
    cells are charged first, stage by stage.

    Images compose, so stage t's cells are stage h's, h = floor(t/2), imaged under the cells
    of passes h+1..t: two lists of at most 3^ceil(t/2) cells, and stage t streams.
    """
    for k in range(1, t + 1):
        query.charge(3 ** k)
    return _images(t, _layout(0, t // 2, query), _layout(t // 2, t, query), query)


def _lattice(t: int, J: tuple[int, int], query: _Query, top: Sequence[int] = (-1, 0, 1)
             ) -> Iterator[tuple[int, int, int, int]]:
    """(n, first atom, last atom, atom count) of each lattice cell n of stage t that may meet
    the grid range J, left to right, its side at pass t in `top` (0 for no pass).  The sides
    are chosen from pass t down; a prefix of them is pruned when its reach, plus the widest
    reach of the passes below, misses J."""
    lo, hi = J
    sides, reach = [_sides(k, query) for k in range(1, t + 1)], [(0, 0)]
    for cells in sides:
        reach.append((reach[-1][0] + min(c[0] for c in cells), reach[-1][1] + max(c[1] for c in cells)))

    def walk(k: int, n: int, a: int, b: int, count: int) -> Iterator[tuple[int, int, int, int]]:
        if a + reach[k][0] > hi or b + reach[k][1] < lo:
            return
        if not k:
            yield n, a, b, count
            return
        for side, (first, last, _, q, _) in zip((-1, 0, 1), sides[k - 1]):
            if k < t or side in top:
                yield from walk(k - 1, n + side * 3 ** (k - 1), a + first, b + last, count * q)

    return walk(t, 0, 0, 0, 1)


def _cell_groups(n: int, t: int, J: tuple[int, int], query: _Query) -> Iterator[_Group]:
    """The groups of lattice cell n of stage t in the grid range J, left to right, each charged
    as made.  Its atoms are its passes' shifts plus one offset of each pass, in the order of
    the first pass's offset, then the next one's (`_images`).  A group fixes every offset but
    the last pass's, and keeps those in J; a prefix whose reach misses J is pruned."""
    lo, hi = J
    passes = [_pass(k, side, query) for k, side in _passes(n, t)] or [(0, (0,))]
    mass = _share(t, query.M, math.prod(len(offs) for _, offs in passes))
    reach = [(0, 0)]  # of the offsets of passes i.., for i from the last down
    for _, offs in reversed(passes):
        reach.insert(0, (reach[0][0] + offs[0], reach[0][1] + offs[-1]))

    def walk(i: int, base: int) -> Iterator[_Group]:
        if base + reach[i][0] > hi or base + reach[i][1] < lo:
            return
        offs = passes[i][1]
        if i + 1 < len(passes):
            for off in offs:
                yield from walk(i + 1, base + off)
            return
        kept = offs if lo <= base + offs[0] and base + offs[-1] <= hi else [
            off for off in offs if lo <= base + off <= hi]
        if kept:
            query.charge(len(kept))
            yield base, mass, kept

    return walk(0, sum(shift for shift, _ in passes))


def _stage_groups(t: int, J: tuple[int, int], query: _Query, top: Sequence[int] = (-1, 0, 1)
                  ) -> Iterator[_Group]:
    """The groups (base, mass, kept offsets) of stage t in the grid range J, left to right:
    `_cell_groups` of each cell `_lattice` finds.  Strict increase is proved here, each group's
    end against the next group's start; inside a group the offsets increase."""
    last = -math.inf
    for n, *_ in _lattice(t, J, query, top):
        for group in _cell_groups(n, t, J, query):
            base, _, kept = group
            if not last < base + kept[0]:
                raise _collision(t, last, base + kept[0], query)
            last = base + kept[-1]
            yield group


def _whole_stage(s: int, atom_cap: int) -> tuple[_Query, Iterator[_Group]]:
    """The groups of stage s as a stream (`_stage_groups`), and their query.  The walk runs
    unclipped, so an atom outside the stage window is kept; its charge, n_s (`_check_walks`),
    is checked before any work."""
    _check_walks(s, atom_cap)
    query = _Query(s, stage_window(s), atom_cap)
    return query, _stage_groups(s, (-math.inf, math.inf), query)


def build_stage(s: int, atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """The stage-s measure on the closed stage window, as `Atom`s, afresh on
    every call (see `_whole_stage`); atom i's provenance is `provenance(s, i)`.
    The library calls it nowhere: it serves the tests and demos."""
    query, groups = _whole_stage(s, atom_cap)
    return DiscreteMeasure(query.atoms(groups), stage_window(s).closure())


def _covering_stage(J: Interval) -> int:
    """The smallest stage whose window contains J."""
    s = 0
    while not stage_window(s).contains_interval(J):
        s += 1
    return s


def _frozen(s: int, J: tuple[int, int], query: _Query) -> bool:
    """Whether stage s+1 agrees with stage s on the grid range J.

    Stage s+1 is stage s flanked by two new blocks, its cells |n| > (3^s-1)/2,
    whose pass s+1 is on a side; the two stages agree on J exactly when those
    cells put no atom in J.
    """
    return not any(_stage_groups(s + 1, J, query, top=(-1, 1)))


def _held(t: int, J: tuple[int, int], query: _Query) -> Iterator[int]:
    """The atom counts of the cells of stage t that the grid range J wholly holds, left to
    right: their sum is a lower bound on stage t's atoms in J, known before any group."""
    lo, hi = J
    return (count for _, first, last, count in _lattice(t, J, query) if lo <= first and last <= hi)


def limit_window(J: Interval, atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """The weak-limit measure restricted to the bounded interval J.

    Expands the smallest stage s whose window contains J, pruned to J; no
    stage is built.  That stage s+1 agrees with stage s on J is checked
    (`StageStabilityError`).  `atom_cap` bounds the atoms the expansion
    makes (stability check included): the atoms of the cells J wholly holds
    (`_held`) are checked against it before any group is made, and passing
    it raises `AtomBudgetError`.
    """
    s = _covering_stage(J)
    query = _Query(s + 1, J, atom_cap)
    grid_J = query.window(J)
    bound = next((n for n in accumulate(_held(s, grid_J, query)) if n > atom_cap), None)
    if bound is not None:
        raise AtomBudgetError(f"window {J} holds at least {bound} atoms, cap is {atom_cap}")
    out = DiscreteMeasure(query.atoms(_stage_groups(s, grid_J, query)), J)
    if not _frozen(s, grid_J, query):
        raise StageStabilityError(f"stage {s + 1} disagrees with stage {s} on {J}")
    return out


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def radius_series_tail_bound(n: int, terms: int = 8) -> Fraction:
    """Rigorous upper bound for the infinite sum of averaging radii from n on.

    Sums the radii for k = n..n+terms exactly, then dominates the remainder
    by a geometric series: consecutive radii shrink by at least
    2**-(2M+5) beyond the truncation point M.
    """
    if n < 1:
        raise ValueError(f"tail start must be >= 1, got {n}")
    m = n + terms
    partial = sum((averaging_radius(k) for k in range(n, m + 1)), Fraction(0))
    ratio = Fraction(1, 2 ** (2 * m + 5))
    return partial + averaging_radius(m + 1) / (1 - ratio)


@dataclass(frozen=True)
class TailEstimate:
    n: int
    lhs_upper_bound: Fraction
    rhs: Fraction
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def verify_tail_estimate(n: int, terms: int = 8) -> TailEstimate:
    """Certify that the radius tail from n is below radius(n-1)/(3(n-1)).

    For n = 1 the right-hand side is 1/3 (the comparison the support
    confinement argument needs).  Comparison is exact on rationals.
    """
    if n < 1:
        raise ValueError(f"tail estimate needs n >= 1, got {n}")
    lhs = radius_series_tail_bound(n, terms)
    rhs = Fraction(1, 3) if n == 1 else averaging_radius(n - 1) / (3 * (n - 1))
    return TailEstimate(n, lhs, rhs, lhs < rhs)


@dataclass(frozen=True)
class StageScan:
    """What one pass over a stage-s measure finds: the first atom outside the
    open stage window, the leftmost three cells (n-1/3, n+1/3), |n| <=
    `cell_center_bound(s)`, whose mass is not 1 (with that mass), the leftmost
    three atoms strictly inside no such cell, and the least gap between
    neighbours (None below two atoms)."""

    stage: int
    atoms: int
    total_mass: Fraction
    offender: Fraction | None
    bad_cells: tuple[tuple[int, Fraction], ...]
    strays: tuple[Fraction, ...]
    min_gap: Fraction | None


def verify_stage_scan(s: int, measure: DiscreteMeasure | None = None,
                      atom_cap: int = DEFAULT_ATOM_CAP) -> StageScan:
    """Count, total mass, support, unit mass per cell and least gap of stage s, in one pass over cells.

    With no `measure` the pass reads stage s's cells (`_cells`, charging its pre-check c_s)
    and makes no `Atom`; a measure's atoms go onto one grid first (positions over
    D = lcm(6, their denominators), masses over the lcm of theirs), each a cell of one atom,
    and its 3^s lattice cells are charged first.  An atom p/D lies in lattice cell
    n = floor(p/D + 1/2), strictly inside it when 3|p - n*D| < D.  A cell whose ends lie
    strictly inside one lattice cell |n| <= the bound counts at once; any other is read atom
    by atom, a stage's through `_stage_groups` over its range.
    """
    bound = cell_center_bound(s)
    if measure is None:
        _check_walks(s, atom_cap, cells=True)  # c_s is at least the 3^s lattice cells
        query = _Query(s, stage_window(s), atom_cap)
        D, M, cells = query.D, query.M, _cells(s, query)
    else:
        if 2 * bound + 1 > atom_cap:
            raise AtomBudgetError(f"stage {s} has 3^{s} lattice cells, cap is {atom_cap}")
        D = math.lcm(6, common_denominator(a.position for a in measure.atoms))
        M = common_denominator(a.mass for a in measure.atoms)
        cells = ((p, p, math.inf, 1, m) for p, m in
                 ((on_grid(a.position, D), on_grid(a.mass, M)) for a in measure.atoms))
    half = on_grid(stage_window(s).hi, D)  # the open window is (-half, half); 6 | D
    count = total = 0
    offender, last, gap = None, -math.inf, math.inf
    strays, bad = [], []  # the leftmost three stray atoms and (n, mass) of bad cells
    at, run = -bound, 0  # the lattice cell being summed and its mass so far

    def add(n: int, m: int) -> None:  # n never decreases, so the cells before it are settled
        nonlocal at, run
        while at < n and len(bad) < 3:
            if run != M:
                bad.append((at, Fraction(run, M)))
            at, run = at + 1, 0
        run += m

    for a, b, step, size, mass in cells:
        count += size
        total += mass
        gap, last = min(gap, step, a - last), b
        n = (2 * a + D) // (2 * D)
        if 3 * (n * D - a) < D and 3 * (b - n * D) < D and abs(n) <= bound:
            add(n, mass)
            continue
        atoms = ([(base + off, m) for base, m, kept in _stage_groups(s, (a, b), query) for off in kept]
                 if measure is None else [(a, mass)])
        for p, m in atoms:  # a cell straddling a lattice cell's boundary or the window
            if offender is None and not -half < p < half:
                offender = p
            n = (2 * p + D) // (2 * D)
            if 3 * abs(p - n * D) >= D or abs(n) > bound:
                if len(strays) < 3:
                    strays.append(Fraction(p, D))
            else:
                add(n, m)
    add(bound + 1, 0)
    return StageScan(s, count, Fraction(total, M),
                     None if offender is None else Fraction(offender, D), tuple(bad), tuple(strays),
                     None if gap == math.inf else Fraction(gap, D))


@dataclass(frozen=True)
class MassDecayCheck:
    stage: int
    max_mass_outside: Fraction
    bound: Fraction
    holds: bool
    witness: Fraction | None

    def __bool__(self) -> bool:
        return self.holds


def verify_mass_decay(s: int, J: Interval, atom_cap: int = DEFAULT_ATOM_CAP) -> MassDecayCheck:
    """Check that atom masses outside the stage-s window stay below 1/(2s).

    J must strictly contain the stage window.  On J the limit is stage t > s,
    the smallest stage whose window contains J (stage t+1 agreeing there is
    checked, as in `limit_window`).  The maximum runs over stage t's cells
    (`_cells`) inside J and outside the stage-s window, each read as its one
    mass total/count at its first atom, the witness; a cell that J or that
    window cuts is read atom by atom (`_stage_groups` over its range in J).
    `atom_cap` bounds the cells and atoms made (`AtomBudgetError`); the cells
    of stages 1..s+1, which every such J makes, are checked first.
    """
    if s < 1:
        raise ValueError("mass decay bound is undefined for stage 0")
    inner = stage_window(s)
    if not J.contains_interval(inner) or (J.lo == inner.lo and J.hi == inner.hi):
        raise ValueError(f"window {J} must strictly contain the stage window {inner}")
    _check_walks(s + 1, atom_cap, cells=True)
    t = _covering_stage(J)
    query = _Query(t + 1, J, atom_cap)
    lo, hi = query.window(J)
    half = query.pos(inner.hi)  # the stage-s window is the open range (-half, half)
    worst, witness = 0, None
    for a, b, _, count, total in _cells(t, query):
        if b < lo or hi < a or -half < a and b < half or (mass := _share(t, total, count)) <= worst:
            continue  # no atom in J outside the stage-s window, or no heavier one
        if lo <= a and b <= hi and (b <= -half or half <= a):
            worst, witness = mass, a
        else:  # a cell that J or the stage-s window cuts
            groups = _stage_groups(t, (max(lo, a), min(hi, b)), query)
            for p, m in ((base + off, m) for base, m, kept in groups for off in kept):
                if m > worst and not -half < p < half:
                    worst, witness = m, p
    if not _frozen(t, (lo, hi), query):
        raise StageStabilityError(f"stage {t + 1} disagrees with stage {t} on {J}")
    worst, bound = Fraction(worst, query.M), Fraction(1, 2 * s)
    return MassDecayCheck(s, worst, bound, worst < bound,
                          None if witness is None else Fraction(witness, query.D))


def verify_stage_stability(s: int, atom_cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Whether stage s+1 equals stage s on the closure of the stage-s window (`_frozen`);
    `atom_cap` bounds the atoms of the groups the expansion makes (`AtomBudgetError`)."""
    window = stage_window(s).closure()
    query = _Query(s + 1, window, atom_cap)
    return _frozen(s, query.window(window), query)


@dataclass(frozen=True)
class ClusterCertificate:
    """Counting certificate for one descendant cluster of an ancestor atom.

    Following `branch` (one (stage, lattice shift) pair per averaging pass),
    the ancestor's unit of mass spreads over exactly q = prod(2k) atoms, all
    within `spread` = sum of radii of the cluster center, each carrying
    ancestor mass / q.
    """

    ancestor_stage: int
    ancestor_position: Fraction
    stages: tuple[int, ...]
    shifts: tuple[Fraction, ...]
    center: Fraction
    q: int
    spread: Fraction
    members: tuple[Fraction, ...]
    member_mass: Fraction


def cluster_certificate(target_stage: int, ancestor_stage: int,
                        ancestor_position: RationalLike,
                        branch: Sequence[tuple[int, RationalLike]]) -> ClusterCertificate:
    """Certify the cluster obtained from an ancestor atom along a branch.

    `branch` lists the averaging passes applied after `ancestor_stage`, as
    (stage, shift) with shift = +-3**(stage-1).  The certificate is built by
    re-expanding the iterated averaging offsets independently of the stage
    builder, checking that the intermediate offset sets are collision free
    and mutually disjoint, and then comparing against the actual atoms of
    stage `target_stage` near the shifted center.

    No stage is built: a stage agrees with the limit on its window, so the
    ancestor's mass is the limit's if y lies in the ancestor stage's window,
    and the atoms near the center (whose ends are members, so inside the
    target stage's window) are `limit_window`'s.
    """
    y = rational(ancestor_position)
    if not 0 <= ancestor_stage <= target_stage:
        raise ValueError(f"ancestor stage {ancestor_stage} out of range for target {target_stage}")
    inside = stage_window(ancestor_stage).contains(y)
    ancestor_mass = limit_window(Interval.closed(y, y)).mass_at(y) if inside else 0
    if ancestor_mass == 0:
        raise ValueError(f"{y} is not an atom of stage {ancestor_stage}")

    stages, shifts = [k for k, _ in branch], [rational(sh) for _, sh in branch]
    for prev, k, sh in zip([ancestor_stage, *stages], stages, shifts):
        if k <= prev or k > target_stage:
            raise ValueError(f"branch stage {k} must increase within ({ancestor_stage}, {target_stage}]")
        if abs(sh) != 3 ** (k - 1):
            raise ValueError(f"branch shift {sh} is not a stage-{k} lattice step")

    level_offsets: list[set[Fraction]] = [{Fraction(0)}]
    for k in stages:
        step = {base + off for base in level_offsets[-1] for off in averaging_offsets(k)}
        if len(step) != len(level_offsets[-1]) * 2 * k:
            raise AssertionError(f"offset collision while expanding stage {k}")
        level_offsets.append(step)
    if any(a & b for a, b in combinations(level_offsets, 2)):
        raise AssertionError("iterated averaging images are not disjoint")

    q = math.prod(2 * k for k in stages)
    spread = sum((averaging_radius(k) for k in stages), Fraction(0))
    center = y + sum(shifts, Fraction(0))
    expected = sorted(center + off for off in level_offsets[-1])
    hood = Interval.closed(center - spread, center + spread)
    found = limit_window(hood)
    if found.positions() != expected:
        raise AssertionError(f"cluster near {center} does not match the branch expansion")
    mass = ancestor_mass / q
    if any(a.mass != mass for a in found.atoms):
        raise AssertionError(f"cluster near {center} has masses differing from {mass}")
    return ClusterCertificate(ancestor_stage, y, tuple(stages), tuple(shifts), center, q, spread,
                              tuple(expected), mass)
