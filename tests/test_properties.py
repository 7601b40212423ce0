"""Property tests for the exact measure algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apmeasure import (
    Interval,
    WindowError,
    averaging_radius,
    combine,
    lump_decompose,
    make_measure,
    restrict,
    sliding_count_sup,
    sliding_variation_sup,
    verify_stage_scan,
)
from helpers import (averaging_operator, brute_count_sup, brute_variation_sup,
                     literal_combination, literal_lumps, literal_total_variation)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)
masses = st.fractions(min_value=-3, max_value=3, max_denominator=32).filter(lambda m: m != 0)
WINDOW = Interval.closed(-4, 4)


@st.composite
def measures(draw, min_atoms=0, max_atoms=6):
    """A measure with at least `min_atoms` atoms once canonical.  The drawn
    positions may repeat, so merged and cancelled masses are drawn too."""
    pairs = draw(st.lists(st.tuples(rationals, masses),
                          min_size=min_atoms, max_size=max_atoms))
    mu = make_measure(pairs, WINDOW)
    assume(len(mu) >= min_atoms)
    return mu


@given(measures())
def test_canonical_form_idempotent(mu):
    rebuilt = make_measure([(a.position, a.mass) for a in mu.atoms], mu.window)
    assert rebuilt == mu


@given(measures())
def test_canonical_form_sorted_nonzero(mu):
    positions = mu.positions()
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)
    assert all(a.mass != 0 for a in mu.atoms)


@given(measures())
def test_combine_with_empty_is_identity(mu):
    empty = make_measure([], WINDOW)
    assert combine(1, mu, 1, empty) == mu


@given(measures(), measures())
def test_combine_mass_is_linear(mu, nu):
    out = combine(2, mu, -3, nu)
    assert out.total_mass == 2 * mu.total_mass - 3 * nu.total_mass


# with k = 1 (shifts of +-1/16) copies of 5/24 and of 1/3 both land on 13/48
COLLIDING = make_measure([(F(5, 24), 1), (F(1, 3), 1)], WINDOW)


def test_averaged_copies_merge():
    assert len(averaging_operator(COLLIDING, 1)) == 3


@given(measures(min_atoms=1), st.integers(min_value=1, max_value=4))
@example(COLLIDING, 1)
@settings(max_examples=40)
def test_averaging_preserves_mass_and_variation(mu, k):
    out = averaging_operator(mu, k)
    assert out.total_mass == mu.total_mass
    # each atom's 2k copies lie within the radius of it, so they stay
    # distinct when the atoms are more than twice the radius apart
    if all(b.position - a.position > 2 * averaging_radius(k)
           for a, b in zip(mu.atoms, mu.atoms[1:])):
        assert len(out) == 2 * k * len(mu)
    else:
        assert len(out) <= 2 * k * len(mu)
    if all(a.mass > 0 for a in mu.atoms):
        assert literal_total_variation(out) == literal_total_variation(mu)


@given(measures(),
       st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64),
       st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64))
def test_count_sup_monotone_in_radius(mu, u1, u2):
    lo, hi = sorted((u1, u2))
    assert sliding_count_sup(mu, lo)[0] <= sliding_count_sup(mu, hi)[0]


@given(measures(), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16))
def test_variation_sup_bounded_by_total(mu, L):
    value, _ = sliding_variation_sup(mu, L)
    assert value <= literal_total_variation(mu)


@given(measures(), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16))
def test_variation_sup_witness_attains(mu, L):
    value, witness = sliding_variation_sup(mu, L)
    hood = Interval.closed(witness, witness + L)
    attained = sum((abs(a.mass) for a in mu.atoms if hood.contains(a.position)), F(0))
    assert attained == value


@given(measures(), st.fractions(min_value=F(1, 32), max_value=2, max_denominator=32))
def test_count_sup_witness_attains(mu, u):
    count, witness = sliding_count_sup(mu, u)
    hood = Interval.open(witness - u, witness + u)
    assert sum(1 for a in mu.atoms if hood.contains(a.position)) == count



# Positions over mixed denominators, all of them products of 2s and 3s, and
# few masses, so that windows often tie and the leftmost witness is tested.
mixed_positions = st.builds(F, st.integers(-24, 24), st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
few_masses = st.sampled_from([F(-1), F(1, 2), F(1), F(3, 2)])
MIXED_WINDOW = Interval.closed(-12, 12)


@st.composite
def mixed_measures_and_widths(draw):
    """A measure on mixed-denominator positions and a width: either over a
    denominator that shares no factor with theirs, or the distance between
    two of its atoms, where the ends of the interval decide the count."""
    mu = make_measure(draw(st.lists(st.tuples(mixed_positions, few_masses), max_size=12)),
                      MIXED_WINDOW)
    widths = st.builds(F, st.integers(1, 60), st.sampled_from([5, 7, 11, 13, 35]))
    positions = mu.positions()
    ties = sorted({b - a for a in positions for b in positions if b > a})
    return mu, draw(widths | st.sampled_from(ties) if ties else widths)


@given(mixed_measures_and_widths())
@settings(max_examples=150)
def test_count_sup_matches_brute_scan(case):
    mu, width = case
    count, witness = sliding_count_sup(mu, width / 2)
    assert count == brute_count_sup(mu, width / 2)
    positions = mu.positions()
    if positions:  # the witness centers the leftmost block of `count` atoms
        counts = [sum(1 for q in positions if p <= q < p + width) for p in positions]
        i = counts.index(count)
        assert witness == (positions[i] + positions[i + count - 1]) / 2


@given(mixed_measures_and_widths())
@settings(max_examples=150)
def test_variation_sup_matches_brute_scan(case):
    mu, L = case
    value, witness = sliding_variation_sup(mu, L)
    assert value == brute_variation_sup(mu, L)
    positions = mu.positions()
    if positions:  # the witness is the leftmost atom starting a heaviest window
        values = [sum((abs(a.mass) for a in mu.atoms if t <= a.position <= t + L), F(0))
                  for t in positions]
        assert witness == positions[values.index(value)]


# Lumps of two mixed-denominator supports, linked at a v over a denominator
# prime to theirs or at a distance between two of their atoms (neighbours
# exactly v apart must split), counted at a radius u drawn apart from v.
coprime_widths = st.builds(F, st.integers(1, 60), st.sampled_from([5, 7, 11, 13, 35]))


@st.composite
def lump_cases(draw):
    mu, nu = (make_measure(draw(st.lists(st.tuples(mixed_positions, few_masses), max_size=10)),
                           MIXED_WINDOW) for _ in range(2))
    positions = mu.positions() + nu.positions()
    ties = sorted({b - a for a in positions for b in positions if b > a})
    widths = st.sampled_from(ties) | coprime_widths if ties else coprime_widths
    return mu, nu, draw(widths), draw(st.none() | widths)


@given(lump_cases())
@example((make_measure([(0, 1), (F(1, 7), 1)], MIXED_WINDOW),  # gaps of exactly v: three lumps
          make_measure([(F(2, 7), 2), (F(1, 2), F(1, 2))], MIXED_WINDOW), F(1, 7), F(1, 3)))
@settings(max_examples=150)
def test_lumps_match_literal_single_linkage(case):
    mu, nu, v, u = case
    dec = lump_decompose(mu, nu, v, u)
    lumps, count, witness, close = literal_lumps(mu, nu, v, u)
    assert [(lump.left_positions, lump.right_positions, lump.lo, lump.hi,
             lump.left_mass, lump.right_mass) for lump in dec.lumps] == lumps
    assert (dec.max_lumps_per_neighborhood, dec.count_witness, dec.all_pairwise_close) == \
        (count, witness, close)
    assert (dec.link, dec.count_radius) == (v, v if u is None else u)


@st.composite
def windowed_measures(draw):
    """A measure on a window inside [-4, 4], open or closed at each end; few
    positions and masses, so two such measures share positions and cancel."""
    lo, hi = sorted((draw(rationals), draw(rationals)))
    window = Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    assume(not window.is_empty)
    positions = st.builds(F, st.integers(-32, 32), st.sampled_from([3, 4, 8]))
    pairs = draw(st.lists(st.tuples(positions, few_masses), max_size=10))
    return make_measure([(p, m) for p, m in pairs if window.contains(p)], window)


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(windowed_measures(), windowed_measures(), coefficients, coefficients)
@example(make_measure([(0, 1), (F(1, 2), 2)], WINDOW), make_measure([(0, 2), (1, 1)], WINDOW),
         F(2), F(-1))
@settings(max_examples=150)
def test_combine_matches_literal_sum(mu, nu, c1, c2):
    if mu.window.intersect(nu.window) is None:
        with pytest.raises(WindowError):
            combine(c1, mu, c2, nu)
        return
    assert combine(c1, mu, c2, nu) == literal_combination(c1, mu, c2, nu)


@given(measures())
def test_min_gap_is_the_least_difference(mu):
    gaps = [b.position - a.position for a, b in zip(mu.atoms, mu.atoms[1:])]
    assert verify_stage_scan(2, mu).min_gap == (min(gaps) if gaps else None)


@given(measures())
def test_restriction_tower(mu):
    mid = restrict(mu, Interval.closed(-2, 2))
    inner = restrict(mid, Interval.closed(-1, 1))
    assert inner == restrict(mu, Interval.closed(-1, 1))


@given(measures(min_atoms=1), st.data(), st.booleans(), st.booleans())
def test_restrict_matches_literal_filter(mu, data, lo_open, hi_open):
    # endpoints sit on atom positions, where openness decides membership
    endpoints = st.sampled_from(mu.positions()) | rationals
    a, b = sorted((data.draw(endpoints), data.draw(endpoints)))
    J = Interval(a, b, lo_open, hi_open)
    out = restrict(mu, J)
    assert out.atoms == tuple(x for x in mu.atoms if J.contains(x.position))
    assert out.window == J
