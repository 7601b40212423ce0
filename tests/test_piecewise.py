from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmeasure import (
    FaithfulnessError,
    Interval,
    PiecewiseLinearFn,
    almost_period_certificate,
    almost_period_defect,
    build_stage,
    bump,
    combine,
    convolution_rows,
    convolution_sup,
    convolution_value,
    limit_window,
    make_measure,
    radius_series_tail_bound,
    restrict,
    triangle_test_function,
)
from helpers import (
    grid_max_abs_convolution,
    indicator_overlap_bump,
    integer_comb,
    literal_convolution_sup,
    pointwise_convolution,
    two_convolution_defect,
)

TRIANGLE = triangle_test_function()
J_UNIT = Interval.closed(F(-1, 2), F(1, 2))


def whole(mu):
    """A measure source that hands out all of mu, whatever region is asked for."""
    return lambda region: mu


class TestPiecewiseLinearFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 0), (1, 1))
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 1), (1, 0))  # nonzero at left support edge
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0,), (1,))  # single point cannot be zero outside

    def test_eval_and_extension(self):
        assert TRIANGLE.eval(0) == 1
        assert TRIANGLE.eval(F(1, 12)) == F(1, 2)
        assert TRIANGLE.eval(5) == 0
        assert TRIANGLE.eval(F(-1, 6)) == TRIANGLE.eval(-5) == 0

    def test_max_abs_slope(self):
        assert TRIANGLE.max_abs_slope() == 6

    def test_slope_changes_roundtrip(self):
        changes = TRIANGLE.slope_changes()
        assert [c[0] for c in changes] == [F(-1, 6), F(0), F(1, 6)]
        assert sum(c[1] for c in changes) == 0


class TestBump:
    def test_plateau_and_support_edges(self):
        phi = bump(1, 1)
        assert phi.eval(2) == 1
        assert phi.eval(4) == 0
        assert phi.eval(3) == F(1, 2)
        assert phi.eval(0) == 1

    def test_plateau_everywhere(self):
        for v, j in [(F(1, 16), 1), (F(1, 3), 2), (F(2), 5)]:
            phi = bump(v, j)
            assert phi.eval(0) == 1
            assert phi.eval((3 * j - 1) * v) == 1
            assert phi.eval(-(3 * j + 1) * v) == 0

    def test_bounded_by_one(self):
        phi = bump(F(1, 5), 3)
        assert all(0 <= val <= 1 for val in phi.values)

    def test_matches_indicator_overlap(self):
        v, j = F(1, 4), 2
        phi = bump(v, j)
        for i in range(-40, 41):
            x = F(i, 16)
            assert phi.eval(x) == indicator_overlap_bump(v, j, x)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            bump(0, 1)
        with pytest.raises(ValueError):
            bump(1, 0)


def rows_at(f, mu, J, xs):
    """{x: (f * mu)(x)} for the points xs inside J, read off the rows with xs as marks."""
    return dict(convolution_rows(f, mu, J, xs))


class TestConvolve:
    def test_identity_with_origin_mass(self):
        mu = make_measure([(0, 1)], Interval.closed(-2, 2))
        xs = [F(i, 12) for i in range(-12, 13)]
        rows = rows_at(TRIANGLE, mu, Interval.closed(-1, 1), xs)
        for x in xs:
            assert rows[x] == TRIANGLE.eval(x)

    def test_stage1_value(self):
        mu1 = build_stage(1)
        # both atoms 15/16 and 17/16 are within reach 1/6 of x = 15/16
        expected = F(1, 2) * 1 + F(1, 2) * F(1, 4)
        assert convolution_value(TRIANGLE, mu1, F(15, 16)) == expected == F(5, 8)
        assert pointwise_convolution(TRIANGLE, mu1, F(15, 16)) == expected

    def test_cell_three_value(self):
        mu = limit_window(Interval.closed(2, 4))
        assert convolution_value(TRIANGLE, mu, 3) == 1 - F(9, 1024)

    def test_curve_matches_pointwise_oracle(self):
        mu2 = build_stage(2)
        J = Interval.closed(F(-5, 4), F(5, 4))
        rows = rows_at(TRIANGLE, mu2, J, [F(i, 16) for i in range(-20, 21)])
        assert len(rows) > 41
        for x, value in rows.items():
            assert value == pointwise_convolution(TRIANGLE, mu2, x)

    def test_linear_in_measure(self):
        W = Interval.closed(-3, 3)
        mu = make_measure([(F(-1, 2), 2), (F(1, 3), -1)], W)
        nu = make_measure([(F(1, 3), F(1, 2)), (1, 1)], W)
        mix = combine(3, mu, -2, nu)
        J = Interval.closed(-2, 2)
        xs = {x for m in (mix, mu, nu) for x, _ in convolution_rows(TRIANGLE, m, J)}
        g_mix, g_mu, g_nu = (rows_at(TRIANGLE, m, J, xs) for m in (mix, mu, nu))
        assert g_mix.keys() == g_mu.keys() == g_nu.keys() == xs
        for x in xs:
            assert g_mix[x] == 3 * g_mu[x] - 2 * g_nu[x]

    def test_faithfulness_enforced(self):
        # checked when the rows are asked for, before the first one is made
        mu = make_measure([(0, 1)], Interval.closed(-1, 1))
        with pytest.raises(FaithfulnessError, match="window"):
            convolution_rows(TRIANGLE, mu, Interval.closed(-1, 1))
        assert rows_at(TRIANGLE, mu, Interval.closed(F(-1, 2), F(1, 2)), [0])[0] == 1

    def test_degenerate_window(self):
        mu = make_measure([(0, 1)], Interval.closed(-1, 1))
        J = Interval.closed(F(1, 12), F(1, 12))
        assert list(convolution_rows(TRIANGLE, mu, J)) == [(F(1, 12), F(1, 2))]
        assert list(convolution_rows(TRIANGLE, mu, J, [F(1, 12), 0, 1])) == [(F(1, 12), F(1, 2))]

    def test_requires_compact_support(self):
        # a function that does not vanish at its span's ends cannot be made
        with pytest.raises(ValueError, match="compactly supported"):
            PiecewiseLinearFn((0, 1), (2, 4))


# Positions on (1/4)Z, test-function breakpoints and window ends on (1/8)Z:
# events (position + breakpoint) coincide often, and masses of both signs
# make coinciding events cancel.
GRID_MEASURE = Interval.closed(-6, 6)


@st.composite
def compact_functions(draw):
    """A tent, a bump, or a random compactly supported function, inside [-2, 2]."""
    kind = draw(st.sampled_from(["tent", "bump", "random"]))
    if kind == "tent":
        return triangle_test_function(F(draw(st.integers(1, 8)), 8), draw(st.integers(-3, 3)))
    if kind == "bump":
        return bump(F(draw(st.integers(1, 2)), 8), draw(st.integers(1, 2)))
    bps = draw(st.lists(st.integers(-16, 16), min_size=2, max_size=6, unique=True))
    inner = draw(st.lists(st.integers(-3, 3), min_size=len(bps) - 2, max_size=len(bps) - 2))
    return PiecewiseLinearFn(tuple(F(b, 8) for b in sorted(bps)), (0, *inner, 0))


@st.composite
def grid_measures(draw):
    pairs = draw(st.lists(st.tuples(st.integers(-24, 24), st.sampled_from([-2, -1, 1, 2])),
                          max_size=12))
    return make_measure([(F(p, 4), m) for p, m in pairs], GRID_MEASURE)


@st.composite
def grid_windows(draw):
    """A window inside [-4, 4] on (1/8)Z, a point window one time in four."""
    lo = draw(st.integers(-32, 32))
    hi = lo if draw(st.integers(0, 3)) == 0 else draw(st.integers(lo, 32))
    return Interval.closed(F(lo, 8), F(hi, 8))


def check_rows(f, mu, J):
    rows = list(convolution_rows(f, mu, J))
    events = {a.position + b for a in mu.atoms for b, _ in f.slope_changes()}
    inner = sorted(x for x in events if J.lo < x < J.hi)
    assert [x for x, _ in rows] == [J.lo, *inner, *([J.hi] if J.hi > J.lo else [])]
    for x, value in rows:
        assert value == pointwise_convolution(f, mu, x)
    assert convolution_value(f, mu, J.hi) == pointwise_convolution(f, mu, J.hi)


@given(compact_functions(), grid_measures(), grid_windows())
@example(triangle_test_function(F(1, 4)),  # the events at 1/4 cancel; J.lo is an event
         make_measure([(0, 1), (F(1, 2), -1)], GRID_MEASURE), Interval.closed(F(-1, 4), 1))
@settings(max_examples=300, deadline=None)
def test_convolve_matches_pointwise_sums(f, mu, J):
    check_rows(f, mu, J)


# Off the (1/8)Z grid: atom positions and function breakpoints each on their
# own (1/q)Z, masses and function values with distinct denominators (so the
# slope jumps are fractions), window ends on (1/q)Z and shifts over primes
# that divide none of the other denominators.  The sweep's grid is then an
# lcm that no single one of them gives, and a jump mass * ds has a
# denominator that can exceed the lcm of the mass and slope-jump ones.
MIXED_DENOMINATORS = (3, 5, 7, 9, 16)


def mixed_points(bound):
    """Rationals in [-bound, bound] on (1/q)Z for q drawn from MIXED_DENOMINATORS."""
    return st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda q: st.integers(-bound * q, bound * q).map(lambda n: F(n, q)))


fractions_with_distinct_denominators = st.builds(
    F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([1, 2, 3, 4, 5, 7, 8]))


@st.composite
def fractional_functions(draw):
    """A tent of fractional height, or a random compactly supported function
    with mixed-denominator breakpoints and fractional values, inside [-2, 2]."""
    if draw(st.booleans()):
        return triangle_test_function(draw(mixed_points(2).filter(lambda h: h > 0)),
                                      draw(fractions_with_distinct_denominators))
    bps = draw(st.lists(mixed_points(2), min_size=2, max_size=5, unique=True))
    inner = draw(st.lists(fractions_with_distinct_denominators,
                          min_size=len(bps) - 2, max_size=len(bps) - 2))
    return PiecewiseLinearFn(tuple(sorted(bps)), (0, *inner, 0))


@st.composite
def mixed_measures(draw):
    pairs = draw(st.lists(st.tuples(mixed_points(3), fractions_with_distinct_denominators),
                          max_size=10))
    return make_measure(pairs, GRID_MEASURE)


@st.composite
def mixed_windows(draw):
    """A window inside [-1, 1] with mixed-denominator ends, either end open or closed."""
    lo, hi = sorted(draw(st.lists(mixed_points(1), min_size=2, max_size=2)))
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


coprime_shifts = st.sampled_from([11, 13, 17]).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda n: F(n, d)))

# mass 1/2 times slope jump 1/2: a jump over 4, where the lcm of the mass and
# slope-jump denominators is 2
HALVES = (triangle_test_function(2, 1), make_measure([(F(1, 3), F(1, 2))], GRID_MEASURE))


@given(fractional_functions(), mixed_measures(), mixed_windows())
@example(*HALVES, Interval.closed(F(-1, 5), F(1, 7)))
@settings(max_examples=150, deadline=None)
def test_convolve_matches_pointwise_sums_off_grid(f, mu, J):
    check_rows(f, mu, J)


@st.composite
def windows_with_marks(draw):
    """A `grid_windows` window J and up to six marks in any order, repeats
    allowed: J's ends, points of (1/8)Z (where events lie), and rationals of
    other denominators, in J or past it."""
    J = draw(grid_windows())
    mark = (st.sampled_from([J.lo, J.hi]) | st.integers(-40, 40).map(lambda n: F(n, 8))
            | st.fractions(min_value=-5, max_value=5, max_denominator=15))
    return J, draw(st.lists(mark, max_size=6))


@given(compact_functions(), grid_measures(), windows_with_marks())
@example(triangle_test_function(F(1, 4)), make_measure([(0, 1), (F(1, 2), -1)], GRID_MEASURE),
         (Interval.closed(F(1, 4), F(1, 4)), [F(1, 4), F(1, 4), 0]))  # a point window
@example(TRIANGLE, make_measure([(F(1, 4), 2)], GRID_MEASURE),
         (Interval.closed(F(-1, 2), 1), [1, F(1, 7), F(-1, 2), F(1, 4), F(1, 4)]))
@settings(max_examples=300, deadline=None)
def test_marks_join_the_rows(f, mu, window_and_marks):
    # the rows with marks are the rows without them and each mark in J, sorted
    J, marks = window_and_marks
    want = set(convolution_rows(f, mu, J))
    want.update((x, pointwise_convolution(f, mu, x)) for x in marks if J.lo <= x <= J.hi)
    assert list(convolution_rows(f, mu, J, marks)) == sorted(want)


@st.composite
def open_or_closed_windows(draw):
    """A window inside [-1, 1] on (1/8)Z, either end open or closed, a point one time in four."""
    lo = draw(st.integers(-8, 8))
    hi = lo if draw(st.integers(0, 3)) == 0 else draw(st.integers(lo, 8))
    return Interval(F(lo, 8), F(hi, 8), draw(st.booleans()), draw(st.booleans()))


@given(compact_functions(), grid_measures(), grid_windows())
@settings(max_examples=200, deadline=None)
def test_sups_match_literal_candidate_scan(f, mu, J):
    assert convolution_sup(f, mu, J) == literal_convolution_sup(f, mu, J)


@given(fractional_functions(), mixed_measures(), mixed_windows())
@example(*HALVES, Interval.closed(F(-1, 5), F(1, 7)))
@settings(max_examples=100, deadline=None)
def test_sups_match_literal_candidate_scan_off_grid(f, mu, J):
    assert convolution_sup(f, mu, J) == literal_convolution_sup(f, mu, J)


class TestSup:
    def test_against_zero(self):
        mu = make_measure([(0, 1)], Interval.closed(-2, 2))
        assert convolution_sup(TRIANGLE, mu, Interval.closed(-1, 1)) == (1, 0)
        empty = make_measure([], Interval.closed(-2, 2))
        assert convolution_sup(TRIANGLE, empty, J_UNIT) == (0, J_UNIT.lo)

    def test_grid_oracle_never_exceeds(self):
        mu = build_stage(1)
        J = Interval.closed(-1, 1)
        sup, _ = convolution_sup(TRIANGLE, mu, J)
        assert grid_max_abs_convolution(TRIANGLE, mu, J) <= sup

    def test_outside_definition_range(self):
        # on [-1, 1] the triangle sees atoms in (-7/6, 7/6)
        mu = make_measure([(0, 1)], Interval.closed(-1, 1))
        with pytest.raises(FaithfulnessError):
            convolution_sup(TRIANGLE, mu, Interval.closed(-1, 1))


class TestAlmostPeriodDefect:
    def test_zero_shift(self):
        defect, _ = almost_period_defect(TRIANGLE, limit_window, 0, J_UNIT)
        assert defect == 0

    def test_shift_three(self):
        defect, witness = almost_period_defect(TRIANGLE, limit_window, 3, J_UNIT)
        assert defect == F(9, 1024)
        assert witness == 0
        assert defect <= 6 * (F(1, 512) + F(1, 65536) + F(1, 2 ** 25))

    def test_integer_comb_periodicity(self):
        comb = integer_comb(-30, 30)
        for tau in (1, 2, -7):
            defect, _ = almost_period_defect(TRIANGLE, whole(comb), tau, Interval.closed(-5, 5))
            assert defect == 0

    def test_measure_source_window_too_small(self):
        comb = integer_comb(-2, 2)
        with pytest.raises(FaithfulnessError):
            almost_period_defect(TRIANGLE, whole(comb), 10, J_UNIT)

    def test_short_far_window_is_named(self):
        # the base window is checked first, then the far one, each by its own message
        comb = integer_comb(-10, 10)

        def cut_short(region):
            return restrict(comb, Interval.closed(region.lo, region.hi - F(1, 4)))

        def far_cut_short(region):
            return cut_short(region) if region.lo > 0 else restrict(comb, region)

        with pytest.raises(FaithfulnessError, match=r"^convolution on \[5/2, 7/2\] needs"):
            almost_period_defect(TRIANGLE, far_cut_short, 3, J_UNIT)
        with pytest.raises(FaithfulnessError, match=r"^convolution on \[-1/2, 1/2\] needs"):
            almost_period_defect(TRIANGLE, cut_short, 3, J_UNIT)

    @pytest.mark.parametrize("tau", [F(5, 2), F(-7, 3), F(10, 7), 0, 9])
    def test_limit_matches_two_convolutions(self, tau):
        # shifts that are not multiples of 3^s put the far window across cluster boundaries
        J = Interval(F(-1, 2), F(1, 3), True, False)
        assert almost_period_defect(TRIANGLE, limit_window, tau, J) == \
            two_convolution_defect(TRIANGLE, limit_window, tau, J)


# Shifts in [-3, 3]: 0, points of (1/8)Z (where far and base events coincide),
# and rationals of other small denominators.  With f inside [-2, 2] and J
# inside [-1, 1], both windows lie inside the measures' window [-6, 6].
shifts = (st.just(F(0)) | st.integers(-24, 24).map(lambda n: F(n, 8))
          | st.fractions(min_value=-3, max_value=3, max_denominator=24))


@given(compact_functions(), grid_measures(), shifts, open_or_closed_windows())
@example(triangle_test_function(F(1, 4)),  # far and base events meet and cancel at 1/4
         make_measure([(0, 1), (F(1, 2), 1)], GRID_MEASURE), F(1, 2), Interval.open(F(-1, 2), 1))
@settings(max_examples=300, deadline=None)
def test_defect_matches_two_convolutions(f, mu, tau, J):
    source = whole(mu)
    assert almost_period_defect(f, source, tau, J) == two_convolution_defect(f, source, tau, J)


@given(fractional_functions(), mixed_measures(), coprime_shifts, mixed_windows())
@example(*HALVES, F(1, 11), Interval(F(-1, 5), F(1, 7), True, False))
@settings(max_examples=150, deadline=None)
def test_defect_matches_two_convolutions_off_grid(f, mu, tau, J):
    source = whole(mu)
    assert almost_period_defect(f, source, tau, J) == two_convolution_defect(f, source, tau, J)


class TestAlmostPeriodCertificate:
    def test_scale_two_small_range(self):
        cert = almost_period_certificate(TRIANGLE, F(1, 10), 27, 2, limit_window)
        assert cert.all_within
        assert cert.density_gap == 9
        assert cert.max_defect <= F(3, 512)
        assert [row.tau for row in cert.rows] == [-27, -18, -9, 0, 9, 18, 27]
        assert cert.rows[3].defect == 0

    def test_zero_epsilon_fails(self):
        cert = almost_period_certificate(TRIANGLE, 0, 9, 2, limit_window)
        assert not cert.all_within

    def test_generous_epsilon_scale_one(self):
        cert = almost_period_certificate(TRIANGLE, 1, 9, 1, limit_window)
        assert cert.all_within
        assert cert.max_defect <= 1

    def test_defect_below_lipschitz_times_tail(self):
        cert = almost_period_certificate(TRIANGLE, F(1, 10), 27, 2, limit_window)
        bound = TRIANGLE.max_abs_slope() * radius_series_tail_bound(3)
        assert cert.max_defect <= bound

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            almost_period_certificate(TRIANGLE, 1, 9, 0, limit_window)

    def test_negative_range(self):
        with pytest.raises(ValueError, match="shift range must be >= 0"):
            almost_period_certificate(TRIANGLE, F(1, 10), -3, 1, limit_window)
        cert = almost_period_certificate(TRIANGLE, F(1, 10), 0, 1, limit_window)
        assert [row.tau for row in cert.rows] == [0] and cert.all_within
