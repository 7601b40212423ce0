"""Independent oracles and scenario builders shared across the test suite.

Everything here deliberately avoids the library's own fast paths: counts go
through quadratic scans, matchings through permutation enumeration or the
full DP table, and convolution values through literal pointwise sums, so
that agreement is an actual cross-check.  From the library this module
imports only types and the measure constructor (`tests/test_independence.py`
holds the list).
"""

import json
import math
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from typing import Sequence

from apmeasure import Atom, DiscreteMeasure, Interval, MatchReport, make_measure
from apmeasure.construction import StageScan
from apmeasure.matching import MatchedPair, WindowProfile


def brute_count_sup(mu: DiscreteMeasure, u: Fraction) -> int:
    """Max atoms in an open interval of length 2u via full pair scan."""
    positions = mu.positions()
    best = 0
    for i, p in enumerate(positions):
        count = sum(1 for q in positions if p <= q < p + 2 * u)
        best = max(best, count)
    return best


def brute_variation_sup(mu: DiscreteMeasure, L: Fraction) -> Fraction:
    """Max variation on closed [t, t+L] over atom-anchored t via full scan."""
    best = Fraction(0)
    for a in mu.atoms:
        t = a.position
        value = sum((abs(b.mass) for b in mu.atoms if t <= b.position <= t + L), Fraction(0))
        best = max(best, value)
    return best


def brute_min_matching_cost(a_positions, b_positions) -> Fraction:
    """Minimum total |position difference| over all bijections (n <= 7)."""
    assert len(a_positions) == len(b_positions) <= 7
    best = None
    for perm in permutations(range(len(b_positions))):
        cost = sum(abs(a_positions[i] - b_positions[j]) for i, j in enumerate(perm))
        if best is None or cost < best:
            best = cost
    return best


def full_table_align_partial(short: Sequence[Atom], long: Sequence[Atom]) -> tuple[list[tuple[Atom, Atom]], list[Atom]]:
    """Order-preserving min-cost matching of all of `short` into `long`.

    The whole (m+1)(n+1) cost table, with the library's recurrence and
    tie-breaks: the reference for its banded DP.
    """
    m, n = len(short), len(long)
    inf = None
    cost = [[inf] * (n + 1) for _ in range(m + 1)]
    for j in range(n + 1):
        cost[0][j] = Fraction(0)
    for i in range(1, m + 1):
        for j in range(i, n + 1):
            pay = cost[i - 1][j - 1] + abs(short[i - 1].position - long[j - 1].position)
            skip = cost[i][j - 1]
            cost[i][j] = pay if (skip is None or pay <= skip) else skip
    pairs: list[tuple[Atom, Atom]] = []
    used = [False] * n
    i, j = m, n
    while i > 0:
        if j > i and cost[i][j] == cost[i][j - 1]:
            j -= 1
        else:
            pairs.append((short[i - 1], long[j - 1]))
            used[j - 1] = True
            i -= 1
            j -= 1
    pairs.reverse()
    leftovers = [long[k] for k in range(n) if not used[k]]
    return pairs, leftovers


def literal_match_report(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         nested_windows: Sequence[Interval]) -> MatchReport:
    """The match report by `Fraction` arithmetic: the supports restricted to
    the outermost window, paired in order for equal counts and by
    `full_table_align_partial` otherwise, each gap a subtraction, and each
    profile a `contains` scan of every pair and unmatched atom.  The
    reference for `match_close`."""
    outermost = nested_windows[-1]
    a, b = ([x for x in side.atoms if outermost.contains(x.position)] for side in (mu, nu))
    unmatched_left: list[Atom] = []
    unmatched_right: list[Atom] = []
    if len(a) == len(b):
        raw = list(zip(a, b))
    elif len(a) < len(b):
        raw, unmatched_right = full_table_align_partial(a, b)
    else:
        swapped, unmatched_left = full_table_align_partial(b, a)
        raw = [(x, y) for y, x in swapped]
    pairs = tuple(MatchedPair(x, y, x.position - y.position, x.mass - y.mass) for x, y in raw)
    profiles = []
    for K in nested_windows:
        outside = [p for p in pairs
                   if not (K.contains(p.left.position) and K.contains(p.right.position))]
        profiles.append(WindowProfile(
            window=K,
            pairs_outside=len(outside),
            max_abs_position_gap=max((abs(p.position_gap) for p in outside), default=Fraction(0)),
            max_abs_mass_gap=max((abs(p.mass_gap) for p in outside), default=Fraction(0)),
            unmatched_outside=sum(1 for x in (*unmatched_left, *unmatched_right)
                                  if not K.contains(x.position)),
        ))
    decreasing = all(nxt.max_abs_position_gap <= cur.max_abs_position_gap
                     and nxt.max_abs_mass_gap <= cur.max_abs_mass_gap
                     for cur, nxt in zip(profiles, profiles[1:]))
    coincide = (not unmatched_left and not unmatched_right
                and all(p.position_gap == 0 and p.mass_gap == 0 for p in pairs))
    return MatchReport(outermost, pairs, tuple(unmatched_left), tuple(unmatched_right),
                       tuple(profiles), decreasing, coincide)


def literal_hypothesis(report: MatchReport, compact: Interval, v: Fraction,
                       epsilon: Fraction) -> tuple[bool, str]:
    """(hypothesis_ok, hypothesis_note) of the far-field check by a `contains`
    scan of every pair and unmatched atom of `report`: the first pair with an
    end outside the compact and a position gap above v or a mass gap of at
    least epsilon, else the first unmatched atom outside the compact.  The
    reference for `far_field_check`'s reading of the compact's profile."""
    for p in report.pairs:
        inside = compact.contains(p.left.position) and compact.contains(p.right.position)
        if not inside and (abs(p.position_gap) > v or abs(p.mass_gap) >= epsilon):
            return False, (f"pair ({p.left.position}, {p.right.position}) escapes the compact "
                           f"with position gap {p.position_gap} and mass gap {p.mass_gap}")
    for a in (*report.unmatched_left, *report.unmatched_right):
        if not compact.contains(a.position):
            return False, f"unmatched atom at {a.position} outside the compact"
    return True, "position gaps within v and mass gaps below epsilon outside the compact"


def pointwise_convolution(f, mu: DiscreteMeasure, x: Fraction) -> Fraction:
    """Literal sum of f(x - position) * mass over every atom."""
    return sum((a.mass * f.eval(x - a.position) for a in mu.atoms), Fraction(0))


def literal_convolution_sup(f, mu: DiscreteMeasure, J: Interval) -> tuple[Fraction, Fraction]:
    """Max of |f * mu| (and its leftmost witness) over J's ends and every
    atom position + breakpoint of f inside J, each value a pointwise sum:
    the reference for the library's sweep maximum."""
    candidates = {J.lo, J.hi}
    candidates.update(x for x in (a.position + b for a in mu.atoms for b in f.breakpoints)
                      if J.lo < x < J.hi)
    best = Fraction(-1)
    witness = J.lo
    for x in sorted(candidates):
        d = abs(pointwise_convolution(f, mu, x))
        if d > best:
            best = d
            witness = x
    return best, witness


def two_convolution_defect(f, source, tau, J: Interval) -> tuple[Fraction, Fraction]:
    """Max of |(f * far)(x + tau) - (f * base)(x)| (and its leftmost witness)
    over J's ends and every event inside J, base = source(base region) and
    far = source(base region + tau), each value two pointwise sums.  The
    events are base position + breakpoint and far position - tau +
    breakpoint.  The reference for the library's one-sweep defect."""
    tau = Fraction(tau)
    pad_lo, pad_hi = f.breakpoints[0], f.breakpoints[-1]
    base_region = Interval.closed(J.lo - pad_hi, J.hi - pad_lo)
    base, far = source(base_region), source(base_region.translate(tau))
    events = {a.position + b for a in base.atoms for b in f.breakpoints}
    events.update(a.position - tau + b for a in far.atoms for b in f.breakpoints)
    best = Fraction(-1)
    witness = J.lo
    for x in sorted({J.lo, J.hi, *(x for x in events if J.lo < x < J.hi)}):
        d = abs(pointwise_convolution(f, far, x + tau) - pointwise_convolution(f, base, x))
        if d > best:
            best = d
            witness = x
    return best, witness


def grid_max_abs_convolution(f, mu: DiscreteMeasure, J: Interval, steps: int = 200) -> Fraction:
    """Lower bound for sup |f * mu| on J from pointwise sums on a uniform rational grid."""
    return max(abs(pointwise_convolution(f, mu, J.lo + (J.hi - J.lo) * i / steps))
               for i in range(steps + 1))


def indicator_overlap_bump(v: Fraction, j: int, x: Fraction) -> Fraction:
    """Normalized overlap |[x-v, x+v] cap [-3jv, 3jv]| / (2v).

    The defining form of the trapezoid bump, evaluated directly from
    interval overlap lengths.
    """
    lo = max(x - v, -3 * j * v)
    hi = min(x + v, 3 * j * v)
    return max(Fraction(0), hi - lo) / (2 * v)


def widened(J: Interval, delta) -> Interval:
    """J enlarged by delta on each side, its openness kept."""
    return Interval(J.lo - delta, J.hi + delta, J.lo_open, J.hi_open)


def shifted(mu: DiscreteMeasure, t) -> DiscreteMeasure:
    """mu with every atom and its window moved right by t, masses unchanged."""
    return DiscreteMeasure(tuple(Atom(a.position + t, a.mass) for a in mu.atoms),
                           mu.window.translate(t))


def integer_comb(n_lo: int, n_hi: int, mass=Fraction(1),
                 pad=Fraction(1, 2)) -> DiscreteMeasure:
    """Unit masses at the integers n_lo..n_hi."""
    return make_measure([(Fraction(n), mass) for n in range(n_lo, n_hi + 1)],
                        Interval.closed(n_lo - pad, n_hi + pad))


def perturbed_comb(n_lo: int, n_hi: int, pad=Fraction(1, 2)) -> DiscreteMeasure:
    """Integer comb with each point n nudged right by 1/(8(|n|+1))."""
    return make_measure(
        [(n + Fraction(1, 8 * (abs(n) + 1)), Fraction(1)) for n in range(n_lo, n_hi + 1)],
        Interval.closed(n_lo - pad, n_hi + pad))


def literal_offsets(k: int) -> list[Fraction]:
    """The k-th averaging shifts j * 2^-((k+1)^2) / k for 0 < |j| <= k, increasing."""
    radius = Fraction(1, 2 ** ((k + 1) ** 2))
    return [radius * j / k for j in range(-k, k + 1) if j != 0]


def averaging_operator(mu: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """Average mu over the 2k shifts of `literal_offsets(k)`.

    Each atom becomes 2k copies carrying 1/(2k) of its mass, so total mass
    is preserved exactly; the window widens by the radius on each side.
    """
    if k < 1:
        raise ValueError(f"averaging operator needs k >= 1, got {k}")
    offsets = literal_offsets(k)
    pairs = [(a.position + off, a.mass / (2 * k)) for a in mu.atoms for off in offsets]
    return make_measure(pairs, widened(mu.window, offsets[-1]))


def literal_stage(s: int):
    """Stage s by the literal recursion: no pruning, no cache, provenance carried.

    Stage k is stage k-1 shifted by -3^(k-1) and averaged, then stage k-1,
    then stage k-1 shifted by +3^(k-1) and averaged; the k-th averaging
    moves each atom by every shift of `literal_offsets(k)`, with mass/(2k).
    Returns the index-aligned (position, mass, provenance) triples, each
    provenance a tuple of (stage, shift, offset) steps.
    """
    entries = [(Fraction(0), Fraction(1), ())]
    for k in range(1, s + 1):
        offsets = literal_offsets(k)

        def averaged(shift):
            return [(pos + shift + off, mass / (2 * k), prov + ((k, shift, off),))
                    for pos, mass, prov in entries for off in offsets]

        entries = averaged(Fraction(-3 ** (k - 1))) + entries + averaged(Fraction(3 ** (k - 1)))
    return entries


def literal_cells(s: int) -> list[tuple[Fraction, Fraction, Fraction | None, Fraction, Fraction,
                                         int, Fraction]]:
    """Stage s's lattice cells by a scan of `literal_stage(s)`, left to right.

    An atom p lies in cell n = floor(p + 1/2).  Each cell holding an atom is
    (first atom, last atom, least step between neighbours in it (None for
    one atom), largest mass, first atom of that mass, atom count, total mass).
    """
    by_cell: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for p, m, _ in sorted(literal_stage(s), key=lambda entry: entry[0]):
        by_cell.setdefault(math.floor(p + Fraction(1, 2)), []).append((p, m))
    cells = []
    for n in sorted(by_cell):
        positions = [p for p, _ in by_cell[n]]
        top = max(m for _, m in by_cell[n])
        cells.append((positions[0], positions[-1],
                      min((b - a for a, b in zip(positions, positions[1:])), default=None),
                      top, next(p for p, m in by_cell[n] if m == top),
                      len(positions), sum((m for _, m in by_cell[n]), Fraction(0))))
    return cells


def whole_walk_atoms(s: int) -> int:
    """w_s, the atoms a whole walk of stage s makes, summed block by block: for
    each stage k <= s, the 2k*n_{k-1} atoms of each of its two side blocks and
    the whole walk of stage k-1 that is each block's source, n_k = prod(1+4j)."""
    def n(k):
        return math.prod(1 + 4 * j for j in range(1, k + 1))
    return sum(2 * (2 * k * n(k - 1) + whole_walk_atoms(k - 1)) for k in range(1, s + 1))


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    """The measure file of `mu` as a dict.

    `json.dumps(d, indent=1) + "\\n"` is the byte oracle for what
    `serialize.save_measure` writes.
    """
    J = mu.window
    return {"window": {"lo": str(J.lo), "hi": str(J.hi),
                       "lo_open": J.lo_open, "hi_open": J.hi_open},
            "atoms": [{"pos": str(a.position), "mass": str(a.mass)} for a in mu.atoms]}


def stage_to_dicts(s: int) -> tuple[dict, dict]:
    """The measure file and the provenance sidecar of stage s as dicts, from
    the literal recursion (`literal_stage`) on the closed stage window
    [-h, h], h = (3^s - 1)/2 + 1/3.

    `json.dumps(d, indent=1) + "\\n"` of each is the byte oracle for what
    `serialize.save_stage` writes.
    """
    entries = literal_stage(s)
    half = Fraction(3 ** s - 1, 2) + Fraction(1, 3)
    measure = {"window": {"lo": str(-half), "hi": str(half), "lo_open": False, "hi_open": False},
               "atoms": [{"pos": str(p), "mass": str(m)} for p, m, _ in entries]}
    sidecar = {"stage": s,
               "atoms": [{"pos": str(p),
                          "stages": [k for k, _, _ in prov],
                          "shifts": [str(shift) for _, shift, _ in prov],
                          "offsets": [str(off) for _, _, off in prov]}
                         for p, _, prov in entries]}
    return measure, sidecar


def literal_total_variation(mu: DiscreteMeasure) -> Fraction:
    """The absolute atom masses added one `Fraction` at a time."""
    return sum((abs(a.mass) for a in mu.atoms), Fraction(0))


def literal_total_mass(mu: DiscreteMeasure) -> Fraction:
    """The atom masses added one `Fraction` at a time."""
    return sum((a.mass for a in mu.atoms), Fraction(0))


def literal_stage_support(s: int, mu: DiscreteMeasure) -> Fraction | None:
    """The first atom outside the open stage-s window
    ((1-3^s)/2 - 1/3, (3^s-1)/2 + 1/3), by a `Fraction` scan of every atom."""
    half = Fraction(3 ** s - 1, 2) + Fraction(1, 3)
    window = Interval.open(-half, half)
    return next((a.position for a in mu.atoms if not window.contains(a.position)), None)


def literal_cell_mass(s: int, mu: DiscreteMeasure
                      ) -> tuple[tuple[tuple[int, Fraction], ...], tuple[Fraction, ...]]:
    """(bad cells, strays) by `Fraction` arithmetic: each atom's cell is floor(p + 1/2),
    an atom at distance >= 1/3 from it, or in a cell past the stage, is a stray,
    and a bad cell is (n, its mass) for every cell |n| <= the bound whose mass is not 1."""
    bound = (3 ** s - 1) // 2
    third = Fraction(1, 3)
    totals: dict[int, Fraction] = {}
    strays: list[Fraction] = []
    for a in mu.atoms:
        n = math.floor(a.position + Fraction(1, 2))
        if abs(a.position - n) >= third or abs(n) > bound:
            strays.append(a.position)
            continue
        totals[n] = totals.get(n, Fraction(0)) + a.mass
    bad = [(n, totals.get(n, Fraction(0)))
           for n in range(-bound, bound + 1)
           if totals.get(n, Fraction(0)) != 1]
    return tuple(bad), tuple(strays)


def literal_min_gap(mu: DiscreteMeasure) -> Fraction | None:
    """The least `Fraction` difference of neighbouring positions, sorted afresh; None below two atoms."""
    positions = sorted(mu.positions())
    return min((b - a for a, b in zip(positions, positions[1:])), default=None)


def literal_scan(s: int, mu: DiscreteMeasure) -> StageScan:
    """The stage scan of mu assembled from the literal scans above."""
    bad, strays = literal_cell_mass(s, mu)
    return StageScan(s, len(mu.atoms), literal_total_mass(mu), literal_stage_support(s, mu),
                     bad, strays, literal_min_gap(mu))


def literal_load_measure(path) -> DiscreteMeasure:
    """The measure file at `path` as the loader read every file before its
    canonical one-pass path: the window ends, positions and masses each through
    `Fraction(str(x))`, JSON booleans for the window flags, and the atoms
    through `make_measure`.  The reference for `serialize.load_measure`."""
    d = json.loads(Path(path).read_text())
    w = d["window"]
    flags = [w.get(key, False) for key in ("lo_open", "hi_open")]
    if not all(isinstance(flag, bool) for flag in flags):
        raise ValueError(f"window flags must be true or false, got {flags}")
    window = Interval(Fraction(str(w["lo"])), Fraction(str(w["hi"])), *flags)
    return make_measure([(Fraction(str(a["pos"])), Fraction(str(a["mass"]))) for a in d["atoms"]],
                        window)


def literal_lumps(mu: DiscreteMeasure, nu: DiscreteMeasure, v: Fraction, u: Fraction | None = None):
    """Single-linkage lumps of both supports and the sliding lump count, by `Fraction`
    arithmetic over every pair of points.

    Two points are linked when they lie less than v apart, and a lump is a
    connected component: (left positions, right positions, lo, hi, left mass,
    right mass), in order.  The count is the most open cover intervals
    (lo - r, hi + r), r = u or v, holding the midpoint of two neighbouring
    cover ends, and the witness is the leftmost such midpoint (lo of the
    first lump when no midpoint counts).  Returns (lumps, count, witness,
    every diameter below v).  The reference for `lump_decompose`.
    """
    r = v if u is None else u
    points = [(a.position, side, a.mass) for side, m in enumerate((mu, nu)) for a in m.atoms]
    root = list(range(len(points)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in combinations(range(len(points)), 2):
        if abs(points[i][0] - points[j][0]) < v:
            root[find(i)] = find(j)
    components: dict[int, list] = {}
    for i, point in enumerate(points):
        components.setdefault(find(i), []).append(point)
    lumps = []
    for c in sorted(components.values(), key=lambda c: min(p for p, _, _ in c)):
        lumps.append((tuple(sorted(p for p, side, _ in c if side == 0)),
                      tuple(sorted(p for p, side, _ in c if side == 1)),
                      min(p for p, _, _ in c), max(p for p, _, _ in c),
                      sum((m for _, side, m in c if side == 0), Fraction(0)),
                      sum((m for _, side, m in c if side == 1), Fraction(0))))
    ends = sorted({x for lump in lumps for x in (lump[2] - r, lump[3] + r)})
    best, witness = 0, lumps[0][2] if lumps else Fraction(0)
    for a, b in zip(ends, ends[1:]):
        x = (a + b) / 2
        count = sum(1 for lump in lumps if lump[2] - r < x < lump[3] + r)
        if count > best:
            best, witness = count, x
    return lumps, best, witness, all(lump[3] - lump[2] < v for lump in lumps)


def literal_combination(c1: Fraction, mu: DiscreteMeasure,
                        c2: Fraction, nu: DiscreteMeasure) -> DiscreteMeasure:
    """c1*mu + c2*nu by a dict of `Fraction` sums over the atoms in the
    intersected window, zero sums dropped.  The reference for `combine`."""
    window = mu.window.intersect(nu.window)
    total: dict[Fraction, Fraction] = {}
    for c, m in ((c1, mu), (c2, nu)):
        for a in m.atoms:
            if window.contains(a.position):
                total[a.position] = total.get(a.position, Fraction(0)) + c * a.mass
    return DiscreteMeasure(tuple(Atom(p, m) for p, m in sorted(total.items()) if m != 0), window)
