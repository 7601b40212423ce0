"""Point-set matching, lump decomposition, and the smoothed-difference harness.

Two discrete measures "come close" when their supports admit a bijection
whose position gaps and mass gaps vanish outside growing compact sets.
This module exhibits such bijections on finite windows (minimum total
position displacement, deterministic tie-breaks), decomposes supports into
lumps, and runs the product harness: the product over bump scales of the
smoothed difference is provably large at a disagreement point and provably
small far away once the matching hypothesis holds.  Everything is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from heapq import merge
from itertools import accumulate, chain, islice
from typing import Sequence

from .construction import DEFAULT_ATOM_CAP, AtomBudgetError
from .measures import (
    Atom,
    DiscreteMeasure,
    Interval,
    RationalLike,
    combine,
    common_denominator,
    on_grid,
    rational,
    restrict,
    sliding_count_sup,
    span_within,
)
from .piecewise import PiecewiseLinearFn, bump, convolution_sup, convolution_value


class HarnessConfigError(ValueError):
    """Harness parameters violate the geometric side conditions."""


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MatchedPair:
    """Two matched atoms and their gaps, left minus right."""

    left: Atom
    right: Atom
    position_gap: Fraction
    mass_gap: Fraction


@dataclass(frozen=True)
class WindowProfile:
    """Closeness of the matching over pairs escaping one window."""

    window: Interval
    pairs_outside: int
    max_abs_position_gap: Fraction
    max_abs_mass_gap: Fraction
    unmatched_outside: int


@dataclass(frozen=True)
class MatchReport:
    window: Interval
    pairs: tuple[MatchedPair, ...]
    unmatched_left: tuple[Atom, ...]
    unmatched_right: tuple[Atom, ...]
    profiles: tuple[WindowProfile, ...]
    profile_decreasing: bool
    coincide_on_window: bool


def _align_partial(short: Sequence[int], long: Sequence[int],
                   atom_cap: int) -> tuple[list[int], list[int]]:
    """Order-preserving min-cost matching of all of `short` into `long`, both
    increasing grid positions: the index into `long` of each item of `short`,
    and the indices of `long` left over.

    Cost cell (i, j) reads (i-1, j-1) and (i, j-1), so only the diagonals
    0 <= j - i <= n - m reach (m, n): band[i][d] = cost[i][i + d] holds
    m * (n - m + 1) cells, checked against `atom_cap` before allocating.
    """
    m, n = len(short), len(long)
    width = n - m + 1
    if m * width > atom_cap:
        raise AtomBudgetError(f"matching {m} against {n} atoms needs {m * width} "
                              f"DP cells, cap is {atom_cap}")
    band = [[0] * width]
    for i, x in enumerate(short):
        row: list[int] = []
        for d, above in enumerate(band[-1]):
            pay = above + abs(x - long[i + d])
            row.append(pay if (d == 0 or pay <= row[-1]) else row[-1])
        band.append(row)
    matched: list[int] = []
    leftovers: list[int] = []
    i, d = m, width - 1
    while i + d > 0:  # row 0 is all zeros, so it skips the rest of `long`
        if d > 0 and band[i][d] == band[i][d - 1]:
            d -= 1
            leftovers.append(i + d)
        else:
            i -= 1
            matched.append(i + d)
    return matched[::-1], leftovers[::-1]


def _inside_range(pairs: Sequence[MatchedPair], K: Interval) -> tuple[int, int]:
    """(lo, hi) such that pairs[lo:hi] are the pairs with both ends in K.
    The matching preserves order, so those pairs are one index range."""
    left_lo, left_hi = span_within(pairs, K, key=lambda p: p.left.position)
    right_lo, right_hi = span_within(pairs, K, key=lambda p: p.right.position)
    lo = max(left_lo, right_lo)
    return lo, max(lo, min(left_hi, right_hi))


def _stray_atoms(K: Interval, *unmatched: Sequence[Atom]) -> list[Atom]:
    """The atoms of the sorted `unmatched` lists outside K, list by list, in order."""
    stray: list[Atom] = []
    for atoms in unmatched:
        lo, hi = span_within(atoms, K)
        stray += [*atoms[:lo], *atoms[hi:]]
    return stray


def _max_abs_outside(values: Sequence[int], lo: int, hi: int) -> int:
    """The largest |x| of values[:lo] and values[hi:], 0 when both are empty."""
    return max(map(abs, chain(islice(values, lo), islice(values, hi, None))), default=0)


def match_close(mu: DiscreteMeasure, nu: DiscreteMeasure,
                nested_windows: Sequence[Interval],
                atom_cap: int = DEFAULT_ATOM_CAP) -> MatchReport:
    """Match the supports on the outermost window and profile the closeness.

    The bijection minimizes total |position gap| (for equal atom counts the
    sorted order pairing; unequal counts degrade to a partial matching of
    the smaller support with the leftovers reported).  Profiles list, per
    nested window, the exact sup of |position gap| and |mass gap| over pairs
    with either endpoint outside the window.  `atom_cap` bounds the cells of
    the partial matching (`AtomBudgetError`).

    Both supports go on one position grid and one mass grid once, so the
    matching, the gaps, the profiles and the coincidence flag are integer
    work; `Fraction`s are made only for the reported values.
    """
    if not nested_windows:
        raise ValueError("need at least one window")
    for inner, outer in zip(nested_windows, nested_windows[1:]):
        if not outer.contains_interval(inner):
            raise ValueError(f"windows are not nested: {inner} is not inside {outer}")
    outermost = nested_windows[-1]
    left = restrict(mu, outermost).atoms
    right = restrict(nu, outermost).atoms
    grid = common_denominator(a.position for a in chain(left, right))
    unit = common_denominator(a.mass for a in chain(left, right))

    unmatched_left: list[Atom] = []
    unmatched_right: list[Atom] = []
    # For equal counts the order-preserving pairing minimizes the total
    # |position gap|: any crossing pair can be uncrossed without increasing
    # the cost of the convex distance.
    if len(left) != len(right):
        xs = [on_grid(a.position, grid) for a in left]
        ys = [on_grid(a.position, grid) for a in right]
        if len(left) < len(right):
            matched, rest = _align_partial(xs, ys, atom_cap)
            unmatched_right = [right[j] for j in rest]
            right = [right[j] for j in matched]
        else:
            matched, rest = _align_partial(ys, xs, atom_cap)
            unmatched_left = [left[j] for j in rest]
            left = [left[j] for j in matched]
    position_gaps = [on_grid(a.position, grid) - on_grid(b.position, grid)
                     for a, b in zip(left, right)]
    mass_gaps = [on_grid(a.mass, unit) - on_grid(b.mass, unit) for a, b in zip(left, right)]
    # one `Fraction` per distinct gap value
    pairs = tuple(map(MatchedPair, left, right,
                      map(cache(partial(Fraction, denominator=grid)), position_gaps),
                      map(cache(partial(Fraction, denominator=unit)), mass_gaps)))

    profiles = []
    for K in nested_windows:
        lo, hi = _inside_range(pairs, K)
        profiles.append(WindowProfile(
            window=K,
            pairs_outside=len(pairs) - (hi - lo),
            max_abs_position_gap=Fraction(_max_abs_outside(position_gaps, lo, hi), grid),
            max_abs_mass_gap=Fraction(_max_abs_outside(mass_gaps, lo, hi), unit),
            unmatched_outside=len(_stray_atoms(K, unmatched_left, unmatched_right)),
        ))
    decreasing = all(
        nxt.max_abs_position_gap <= cur.max_abs_position_gap
        and nxt.max_abs_mass_gap <= cur.max_abs_mass_gap
        for cur, nxt in zip(profiles, profiles[1:])
    )
    coincide = (not unmatched_left and not unmatched_right
                and not any(position_gaps) and not any(mass_gaps))
    return MatchReport(
        window=outermost,
        pairs=pairs,
        unmatched_left=tuple(unmatched_left),
        unmatched_right=tuple(unmatched_right),
        profiles=tuple(profiles),
        profile_decreasing=decreasing,
        coincide_on_window=coincide,
    )


def sparsity_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, u: RationalLike) -> int:
    """Strict bound N: every open interval of radius u holds < N support
    points of either measure (computed exactly on the given windows)."""
    u = rational(u)
    count_mu, _ = sliding_count_sup(mu, u)
    count_nu, _ = sliding_count_sup(nu, u)
    return 1 + max(count_mu, count_nu)


# ---------------------------------------------------------------------------
# Lumps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lump:
    """A maximal chain of support points with consecutive gaps below the
    linking distance.  `pairwise_close` records whether the lump really sits
    inside one translate of the open neighborhood (diameter < link)."""

    left_positions: tuple[Fraction, ...]
    right_positions: tuple[Fraction, ...]
    lo: Fraction
    hi: Fraction
    left_mass: Fraction
    right_mass: Fraction

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mass_gap(self) -> Fraction:
        return abs(self.left_mass - self.right_mass)


@dataclass(frozen=True)
class LumpDecomposition:
    link: Fraction
    count_radius: Fraction
    lumps: tuple[Lump, ...]
    max_lumps_per_neighborhood: int
    count_witness: Fraction
    all_pairwise_close: bool


def lump_decompose(mu: DiscreteMeasure, nu: DiscreteMeasure, v: RationalLike,
                   u: RationalLike | None = None) -> LumpDecomposition:
    """Single-linkage decomposition of both supports with linking distance v.

    Points exactly v apart are NOT linked (the closeness condition uses the
    open neighborhood, so ties split).  Also reports the exact sliding sup
    of the number of lumps meeting an open interval of radius `u`
    (default v).
    """
    v = rational(v)
    if v <= 0:
        raise ValueError("linking distance must be positive")
    radius = v if u is None else rational(u)
    if radius <= 0:
        raise ValueError("count radius must be positive")
    # Positions, v and the radius on one grid, masses on one unit: the
    # linking, the lump masses and the sweep below are integer work.
    sides = (mu.atoms, nu.atoms)
    grid = common_denominator([v, radius, *(a.position for atoms in sides for a in atoms)])
    unit = common_denominator(a.mass for atoms in sides for a in atoms)
    link, reach = on_grid(v, grid), on_grid(radius, grid)
    xs = [[on_grid(a.position, grid) for a in atoms] for atoms in sides]
    positions = [[a.position for a in atoms] for atoms in sides]
    sums = [list(accumulate((on_grid(a.mass, unit) for a in atoms), initial=0))
            for atoms in sides]
    mass = cache(partial(Fraction, denominator=unit))  # one `Fraction` per distinct lump mass

    # a lump ends where the merged support has a gap of at least v; each
    # side's atoms in a lump are one index range of that side
    merged = sorted(xs[0] + xs[1])
    cuts = [k for k in range(1, len(merged)) if merged[k] - merged[k - 1] >= link]
    spans = [(merged[a], merged[b - 1]) for a, b in zip([0, *cuts], [*cuts, len(merged)])
             ] if merged else []
    lumps = []
    i = k = 0
    for lo_x, hi_x in spans:
        j, m = bisect_right(xs[0], hi_x, i), bisect_right(xs[1], hi_x, k)
        # at a shared position mu's atom comes first and nu's last
        lo = positions[0][i] if i < j and xs[0][i] == lo_x else positions[1][k]
        hi = positions[1][m - 1] if k < m and xs[1][m - 1] == hi_x else positions[0][j - 1]
        lumps.append(Lump(
            left_positions=tuple(positions[0][i:j]),
            right_positions=tuple(positions[1][k:m]),
            lo=lo,
            hi=hi,
            left_mass=mass(sums[0][j] - sums[0][i]),
            right_mass=mass(sums[1][m] - sums[1][k]),
        ))
        i, k = j, m

    # Sliding sup of lumps meeting (x - radius, x + radius): sweep the open
    # cover intervals (lo - radius, hi + radius); at equal positions an end
    # (-1) is processed before a start (1), since open intervals do not share
    # their boundary point.  The lumps are disjoint and in order, so starts
    # and ends are each increasing and one merge sorts them.
    events = list(merge([(lo_x - reach, 1) for lo_x, _ in spans],
                        [(hi_x + reach, -1) for _, hi_x in spans]))
    best, cur = 0, 0
    witness = lumps[0].lo if lumps else Fraction(0)
    for idx, (pos, delta) in enumerate(events):
        cur += delta
        nxt = events[idx + 1][0] if idx + 1 < len(events) else pos + grid
        if cur > best and nxt > pos:
            best = cur
            witness = Fraction(pos + nxt, 2 * grid)
    return LumpDecomposition(
        link=v,
        count_radius=radius,
        lumps=tuple(lumps),
        max_lumps_per_neighborhood=best,
        count_witness=witness,
        all_pairwise_close=all(hi_x - lo_x < link for lo_x, hi_x in spans),
    )


# ---------------------------------------------------------------------------
# Product harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarnessConfig:
    """Geometry of the product harness.

    v is the bump half width, n the number of bump factors, epsilon the mass
    tolerance of the matching hypothesis, `compact` the region outside which
    closeness is assumed, and u the separation radius.  The widest bump must
    fit inside the separation neighborhood: (3n+2) v <= u.
    """

    v: Fraction
    n: int
    epsilon: Fraction
    compact: Interval
    u: Fraction

    def __post_init__(self):
        object.__setattr__(self, "v", rational(self.v))
        object.__setattr__(self, "epsilon", rational(self.epsilon))
        object.__setattr__(self, "u", rational(self.u))
        if self.n < 1:
            raise HarnessConfigError(f"need at least one factor, got n={self.n}")
        if self.v <= 0:
            raise HarnessConfigError(f"bump half width must be positive, got {self.v}")
        if self.u <= 0:
            raise HarnessConfigError(f"separation radius must be positive, got {self.u}")
        if (3 * self.n + 2) * self.v > self.u:
            raise HarnessConfigError(
                f"(3n+2)v = {(3 * self.n + 2) * self.v} exceeds the separation radius u = {self.u}")

    def bumps(self) -> list[PiecewiseLinearFn]:
        return [bump(self.v, j) for j in range(1, self.n + 1)]


def disagreement_product(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         cfg: HarnessConfig, x: RationalLike,
                         diff: DiscreteMeasure | None = None) -> Fraction:
    """Product over j = 1..n of the smoothed difference ((mu-nu) * bump_j)(x).

    `diff` is mu - nu (`combine(1, mu, -1, nu)`) when the caller has built it already.
    """
    x = rational(x)
    if diff is None:
        diff = combine(1, mu, -1, nu)
    value = Fraction(1)
    for phi in cfg.bumps():
        value *= convolution_value(phi, diff, x)
    return value


@dataclass(frozen=True)
class OriginIdentityCheck:
    value: Fraction
    expected: Fraction
    holds: bool
    degenerate: bool

    def __bool__(self) -> bool:
        return self.holds


def origin_product_identity(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            cfg: HarnessConfig,
                            diff: DiscreteMeasure | None = None) -> OriginIdentityCheck:
    """Check that the product at 0 equals (mu(0) - nu(0))**n exactly.

    Requires the origin to be the only support point of either measure in
    the open separation neighborhood of radius (3n+2)v; an intruding atom is
    an error.  A zero mass difference makes the identity trivially true and
    is flagged degenerate.  `diff` is mu - nu, as in `disagreement_product`.
    """
    sep = (3 * cfg.n + 2) * cfg.v
    hood = Interval.open(-sep, sep)
    for m in (mu, nu):
        lo, hi = span_within(m.atoms, hood)
        for a in m.atoms[lo:hi]:
            if a.position != 0:
                raise HarnessConfigError(
                    f"atom at {a.position} intrudes into the separation neighborhood {hood}")
    difference = mu.mass_at(0) - nu.mass_at(0)
    expected = difference ** cfg.n
    value = disagreement_product(mu, nu, cfg, 0, diff)
    return OriginIdentityCheck(value, expected, value == expected, difference == 0)


@dataclass(frozen=True)
class FarFieldSample:
    point: Fraction
    product: Fraction
    bound: Fraction
    holds: bool


@dataclass(frozen=True)
class FarFieldReport:
    """Exact check of |product(b)| < n * epsilon * C**(n-1) at far samples.

    C is the exact sup of the smoothed differences over the examined window
    (the hull of the compact and the samples), which is the uniform bound
    the inequality needs where it is evaluated.
    """

    examined: Interval
    c_bound: Fraction
    n: int
    epsilon: Fraction
    samples: tuple[FarFieldSample, ...]
    hypothesis_ok: bool
    hypothesis_note: str
    all_hold: bool

    def __bool__(self) -> bool:
        return self.all_hold


def far_field_check(mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: HarnessConfig,
                    sample_points: Sequence[RationalLike],
                    atom_cap: int = DEFAULT_ATOM_CAP,
                    diff: DiscreteMeasure | None = None) -> FarFieldReport:
    """Validate the far-field smallness of the product at the given samples.

    Each sample must lie outside the compact enlarged by the separation
    radius.  The matching hypothesis (position gaps within v, mass gaps
    below epsilon for every pair escaping the compact, and no unmatched
    atom outside it) is read off the compact's profile of the matching on
    [compact, common window] (under `atom_cap`) before the inequality is
    asserted; the offending pair or atom is looked up only when it fails.
    `diff` is mu - nu, as in `disagreement_product`.
    """
    samples = [rational(b) for b in sample_points]
    if not samples:
        raise ValueError("need at least one sample point")
    k = cfg.compact
    for b in samples:
        if k.lo - cfg.u < b < k.hi + cfg.u:
            raise ValueError(f"sample {b} lies inside the enlarged compact "
                             f"({k.lo - cfg.u}, {k.hi + cfg.u})")
    examined = Interval.closed(min(k.lo, min(samples)), max(k.hi, max(samples)))

    common = mu.window.intersect(nu.window)
    if common is None or not common.contains_interval(k):
        raise ValueError("the compact must lie inside the common measure window")
    report = match_close(mu, nu, [k, common], atom_cap)
    outside = report.profiles[0]
    ok = (outside.max_abs_position_gap <= cfg.v and outside.max_abs_mass_gap < cfg.epsilon
          and outside.unmatched_outside == 0)
    note = "position gaps within v and mass gaps below epsilon outside the compact"
    if not ok:
        lo, hi = _inside_range(report.pairs, k)
        far = next((p for p in report.pairs[:lo] + report.pairs[hi:]
                    if abs(p.position_gap) > cfg.v or abs(p.mass_gap) >= cfg.epsilon), None)
        if far is not None:
            note = (f"pair ({far.left.position}, {far.right.position}) escapes the compact "
                    f"with position gap {far.position_gap} and mass gap {far.mass_gap}")
        else:
            stray = _stray_atoms(k, report.unmatched_left, report.unmatched_right)
            note = f"unmatched atom at {stray[0].position} outside the compact"

    if diff is None:
        diff = combine(1, mu, -1, nu)
    c_bound = max(convolution_sup(phi, diff, examined)[0] for phi in cfg.bumps())
    rhs = cfg.n * cfg.epsilon * c_bound ** (cfg.n - 1)
    products = [(b, disagreement_product(mu, nu, cfg, b, diff)) for b in samples]
    rows = [FarFieldSample(b, product, rhs, abs(product) < rhs) for b, product in products]
    return FarFieldReport(
        examined=examined,
        c_bound=c_bound,
        n=cfg.n,
        epsilon=cfg.epsilon,
        samples=tuple(rows),
        hypothesis_ok=ok,
        hypothesis_note=note,
        all_hold=ok and all(r.holds for r in rows),
    )
