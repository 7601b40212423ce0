from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmeasure import (
    AtomBudgetError,
    HarnessConfig,
    HarnessConfigError,
    Interval,
    build_stage,
    combine,
    convolution_value,
    bump,
    disagreement_product,
    far_field_check,
    lump_decompose,
    make_measure,
    match_close,
    origin_product_identity,
    sparsity_bound,
)
from helpers import (
    brute_min_matching_cost,
    full_table_align_partial,
    integer_comb,
    literal_hypothesis,
    literal_match_report,
    perturbed_comb,
    shifted,
)

BIG = Interval.closed(-100, 100)


def measure(pairs, window=BIG):
    return make_measure(pairs, window)


class TestMatchClose:
    def test_three_atom_example(self):
        mu = measure([(0, 1), (1, 1), (2, 1)])
        nu = measure([(F(1, 10), 1), (F(21, 20), 1), (F(201, 100), 1)])
        windows = [Interval.closed(F(-1, 20), F(1, 20)),
                   Interval.closed(F(-1, 2), F(1, 2)),
                   Interval.closed(F(-3, 2), F(3, 2)),
                   Interval.closed(-3, 3)]
        report = match_close(mu, nu, windows)
        assert [(p.left.position, p.right.position) for p in report.pairs] == [
            (0, F(1, 10)), (1, F(21, 20)), (2, F(201, 100))]
        gaps = [pr.max_abs_position_gap for pr in report.profiles]
        assert gaps == [F(1, 10), F(1, 20), F(1, 100), 0]
        assert report.profile_decreasing
        total = sum(abs(p.position_gap) for p in report.pairs)
        assert total == brute_min_matching_cost(mu.positions(), nu.positions())

    def test_identical_measures(self):
        mu = measure([(0, 1), (F(3, 2), F(1, 3))])
        report = match_close(mu, mu, [Interval.closed(-2, 2)])
        assert report.coincide_on_window
        assert all(p.position_gap == 0 and p.mass_gap == 0 for p in report.pairs)

    def test_sorted_matching_is_min_cost(self):
        cases = [
            ([0, F(1, 2), 3], [F(1, 4), F(5, 2), F(7, 2)]),
            ([0, 1, 2, 3], [F(-1, 2), F(3, 4), F(9, 4), 5]),
            ([0, 0 + F(1, 64), 1], [F(-3), 0, 2]),
            ([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2]),
        ]
        for a_pos, b_pos in cases:
            mu = measure([(p, 1) for p in a_pos])
            nu = measure([(p, 1) for p in b_pos])
            report = match_close(mu, nu, [BIG])
            total = sum(abs(p.position_gap) for p in report.pairs)
            assert total == brute_min_matching_cost(list(a_pos), list(b_pos))

    def test_partial_matching(self):
        mu = measure([(0, 1), (10, 1)])
        nu = measure([(F(1, 4), 1), (5, 1), (F(41, 4), 1), (50, 1)])
        report = match_close(mu, nu, [BIG])
        assert [(p.left.position, p.right.position) for p in report.pairs] == [
            (0, F(1, 4)), (10, F(41, 4))]
        assert [a.position for a in report.unmatched_right] == [5, 50]
        assert not report.coincide_on_window

    def test_partial_matching_is_min_cost(self):
        from itertools import combinations, permutations
        cases = [
            ([0, 10], [F(1, 4), 5, F(41, 4), 50]),
            ([F(1, 2), 1, F(3, 2)], [0, F(3, 4), F(5, 4), 2, 7]),
            ([0], [-3, F(1, 8), 4]),
        ]
        for a_pos, b_pos in cases:
            mu = measure([(p, 1) for p in a_pos])
            nu = measure([(p, 1) for p in b_pos])
            report = match_close(mu, nu, [BIG])
            total = sum(abs(p.position_gap) for p in report.pairs)
            best = min(
                sum(abs(a - b_pos[j]) for a, j in zip(a_pos, perm))
                for subset in combinations(range(len(b_pos)), len(a_pos))
                for perm in permutations(subset)
            )
            assert total == best

    def test_symmetry(self):
        mu = measure([(0, 1), (1, 2), (4, 1)])
        nu = measure([(F(1, 8), 2), (F(9, 8), 1), (F(17, 4), 3)])
        fwd = match_close(mu, nu, [BIG])
        rev = match_close(nu, mu, [BIG])
        assert [(p.left, p.right) for p in fwd.pairs] == [(p.right, p.left) for p in rev.pairs]

    def test_windows_must_nest(self):
        mu = measure([(0, 1)])
        with pytest.raises(ValueError, match="nested"):
            match_close(mu, mu, [Interval.closed(-1, 1), Interval.closed(0, 5)])


@st.composite
def tie_heavy_pairs(draw):
    """Two measures on one coarse grid, so that many matchings tie."""
    step = draw(st.sampled_from([1, F(1, 2), F(1, 3)]))
    sides = []
    for _ in range(2):
        cells = draw(st.lists(st.integers(-6, 6), unique=True, max_size=10))
        sides.append(measure([(c * step, draw(st.sampled_from([1, 2, F(1, 2)])))
                              for c in cells]))
    return tuple(sides)


@st.composite
def nested_windows(draw):
    """Two or three strictly nested windows on a 1/6 grid, each end open or closed."""
    ends = sorted(draw(st.lists(st.integers(-42, 42), min_size=4, max_size=6, unique=True)))
    k = len(ends) // 2
    return [Interval(F(ends[k - 1 - i], 6), F(ends[k + i], 6), draw(st.booleans()), draw(st.booleans()))
            for i in range(k)]


@given(tie_heavy_pairs(), nested_windows())
@settings(max_examples=200, deadline=None)
def test_profiles_match_literal_scan(pair, windows):
    mu, nu = pair
    report = match_close(mu, nu, windows)
    for K, profile in zip(windows, report.profiles):
        outside = [p for p in report.pairs
                   if not (K.contains(p.left.position) and K.contains(p.right.position))]
        stray = [a for a in (*report.unmatched_left, *report.unmatched_right)
                 if not K.contains(a.position)]
        assert profile.pairs_outside == len(outside)
        assert profile.max_abs_position_gap == max((abs(p.position_gap) for p in outside), default=0)
        assert profile.max_abs_mass_gap == max((abs(p.mass_gap) for p in outside), default=0)
        assert profile.unmatched_outside == len(stray)


@st.composite
def stepped_pairs(draw):
    """Two measures, each on its own step, with masses of coprime denominators
    (some negative), of equal or unequal atom counts, out to about 8."""
    equal = draw(st.booleans())
    size = draw(st.integers(0, 12))
    sides = []
    for _ in range(2):
        step = draw(st.sampled_from([F(1, 6), F(1, 10), F(1, 7)]))
        reach = int(8 / step)
        cells = draw(st.lists(st.integers(-reach, reach), unique=True,
                              min_size=size if equal else 0, max_size=size if equal else 12))
        sides.append(measure([(c * step, draw(st.sampled_from(
            [1, 2, F(1, 2), F(1, 3), F(2, 5), F(-1, 7), F(3, 11)]))) for c in cells]))
    return tuple(sides)


@given(stepped_pairs(), nested_windows())
@example((measure([]), measure([])), [BIG])
@example((measure([(0, 1), (1, 1)]), measure([(0, 1), (F(1, 2), 1), (1, 2)])),
         [Interval.open(0, 1), BIG])
@settings(max_examples=300, deadline=None)
def test_report_matches_the_literal_oracle(pair, windows):
    mu, nu = pair
    report = match_close(mu, nu, windows)
    want = literal_match_report(mu, nu, windows)
    assert report == want
    # == holds between an int and a Fraction: each stored gap must be a Fraction
    assert all(type(p.position_gap) is F and type(p.mass_gap) is F for p in report.pairs)


def test_equal_values_share_one_fraction():
    mu = build_stage(3)
    nu = combine(2, mu, 0, mu)
    report = match_close(mu, nu, [mu.window])
    dec = lump_decompose(mu, nu, F(1, 100))
    for values in ([p.position_gap for p in report.pairs], [p.mass_gap for p in report.pairs],
                   [m for lump in dec.lumps for m in (lump.left_mass, lump.right_mass)]):
        assert len({id(x) for x in values}) == len(set(values)) < len(values)


@given(stepped_pairs(), nested_windows(),
       st.sampled_from([F(1, 70), F(1, 30), F(1, 6), F(1)]),
       st.sampled_from([F(1, 6), F(1, 2), F(2)]))
# ties: a mass gap of exactly epsilon fails, a position gap of exactly v passes
@example((measure([(5, 1)]), measure([(5, F(1, 2))])), [Interval.closed(-1, 1)], F(1, 6), F(1, 2))
@example((measure([(5, 1)]), measure([(5 + F(1, 6), 1)])), [Interval.closed(-1, 1)], F(1, 6), F(2))
@settings(max_examples=150, deadline=None)
def test_far_field_hypothesis_matches_the_literal_scan(pair, windows, v, epsilon):
    mu, nu = pair
    compact = windows[0]
    cfg = HarnessConfig(v=v, n=1, epsilon=epsilon, compact=compact, u=5 * v)
    report = far_field_check(mu, nu, cfg, [compact.hi + 5 * v])
    literal = literal_match_report(mu, nu, [compact, BIG])
    assert (report.hypothesis_ok, report.hypothesis_note) == \
        literal_hypothesis(literal, compact, v, epsilon)


ABC = measure([(0, 1), (1, 1), (2, 1)])


class TestBandedPartialMatching:
    @given(tie_heavy_pairs())
    @example((measure([]), ABC))
    @example((ABC, measure([])))
    @example((ABC, measure([(F(1, 2), 1), (F(3, 2), 1), (F(5, 2), 1)])))
    @example((measure([(1, 1)]), ABC))
    @example((ABC, measure([(1, 1)])))
    @settings(max_examples=400, deadline=None)
    def test_same_as_full_table(self, pair):
        mu, nu = pair
        report = match_close(mu, nu, [BIG])
        if len(mu) <= len(nu):
            pairs, leftovers = full_table_align_partial(mu.atoms, nu.atoms)
            want = (pairs, [], leftovers)
        else:
            pairs, leftovers = full_table_align_partial(nu.atoms, mu.atoms)
            want = ([(x, y) for y, x in pairs], leftovers, [])
        got = ([(p.left, p.right) for p in report.pairs],
               list(report.unmatched_left), list(report.unmatched_right))
        assert got == want

    def test_drop_one_runs_in_the_band(self):
        # the full table would need about 10**8 cells; the band needs 2 * 10_000
        n = 10_001
        full = integer_comb(0, n - 1)
        dropped = make_measure([(k, 1) for k in range(n) if k != 4321], full.window)
        report = match_close(dropped, full, [full.window], atom_cap=2 * n)
        assert len(report.pairs) == n - 1
        assert [a.position for a in report.unmatched_right] == [4321]
        assert all(p.position_gap == 0 for p in report.pairs)
        swapped = match_close(full, dropped, [full.window], atom_cap=2 * (n - 1))
        assert [a.position for a in swapped.unmatched_left] == [4321]
        with pytest.raises(AtomBudgetError, match=r"20000 DP cells, cap is 19999"):
            match_close(full, dropped, [full.window], atom_cap=2 * (n - 1) - 1)

    def test_far_field_check_passes_the_cap(self):
        mu = integer_comb(-30, 30)
        nu = make_measure([(a.position, a.mass) for a in mu.atoms if a.position != 25],
                          mu.window)
        cfg = HarnessConfig(v=F(1, 32), n=2, epsilon=F(1, 8),
                            compact=Interval.closed(-10, 10), u=F(1, 2))
        with pytest.raises(AtomBudgetError, match="cap"):
            far_field_check(mu, nu, cfg, [12], atom_cap=60 * 2 - 1)
        assert not far_field_check(mu, nu, cfg, [12], atom_cap=60 * 2).hypothesis_ok


class TestSparsityBound:
    def test_comb(self):
        comb = integer_comb(-10, 10)
        assert sparsity_bound(comb, comb, F(1, 4)) == 2

    def test_stage2(self):
        mu2 = build_stage(2)
        doubled = combine(2, mu2, 0, mu2)
        assert sparsity_bound(mu2, doubled, F(1, 16)) == 5

    def test_empty(self):
        empty = measure([])
        assert sparsity_bound(empty, empty, 1) == 1

    def test_shift_invariance(self):
        mu = measure([(0, 1), (F(1, 3), 1), (F(2, 3), 1)])
        nu = measure([(F(1, 6), 1)])
        t = F(7, 5)
        assert sparsity_bound(mu, nu, F(1, 4)) == sparsity_bound(
            shifted(mu, t), shifted(nu, t), F(1, 4))


class TestLumps:
    def test_two_pairs(self):
        mu = measure([(0, 1), (1, 1)])
        nu = measure([(F(1, 100), 1), (F(101, 100), 1)])
        dec = lump_decompose(mu, nu, F(1, 10))
        assert len(dec.lumps) == 2
        assert all(lump.diameter == F(1, 100) for lump in dec.lumps)
        assert all(lump.mass_gap == 0 for lump in dec.lumps)
        assert dec.all_pairwise_close

    def test_small_link_gives_singletons(self):
        mu = measure([(0, 1), (1, 1), (3, 1)])
        nu = measure([])
        dec = lump_decompose(mu, nu, F(1, 1000))
        assert len(dec.lumps) == 3
        assert all(lump.diameter == 0 for lump in dec.lumps)
        assert dec.max_lumps_per_neighborhood == 1

    def test_tie_at_link_distance_splits(self):
        mu = measure([(0, 1), (F(1, 10), 1)])
        dec = lump_decompose(mu, measure([]), F(1, 10))
        assert len(dec.lumps) == 2

    def test_stage2_clusters(self):
        mu2 = build_stage(2)
        dec = lump_decompose(mu2, measure([], mu2.window), F(1, 100))
        assert len(dec.lumps) == 15
        multi = [lump for lump in dec.lumps if len(lump.left_positions) > 1]
        assert len(multi) == 10
        assert all(lump.diameter == F(1, 256) for lump in multi)
        assert all(lump.diameter <= F(2, 512) for lump in multi)

    def test_mass_gap_against_pairing(self):
        mu = measure([(0, F(2, 3))])
        nu = measure([(F(1, 1000), F(1, 2))])
        dec = lump_decompose(mu, nu, F(1, 100))
        assert len(dec.lumps) == 1
        assert dec.lumps[0].mass_gap == F(2, 3) - F(1, 2)

    def test_count_radius(self):
        mu = measure([(0, 1), (1, 1), (2, 1)])
        dec = lump_decompose(mu, measure([]), F(1, 10), u=F(3, 4))
        assert dec.max_lumps_per_neighborhood == 2
        dec_wide = lump_decompose(mu, measure([]), F(1, 10), u=F(3, 2))
        assert dec_wide.max_lumps_per_neighborhood == 3


class TestHarnessConfig:
    def test_valid(self):
        HarnessConfig(v=F(1, 32), n=3, epsilon=F(1, 8),
                      compact=Interval.closed(-1, 1), u=F(1, 2))

    def test_bump_width_constraint(self):
        with pytest.raises(HarnessConfigError, match="separation radius"):
            HarnessConfig(v=F(1, 16), n=3, epsilon=F(1, 8),
                          compact=Interval.closed(-1, 1), u=F(1, 2))

    def test_bad_counts(self):
        with pytest.raises(HarnessConfigError):
            HarnessConfig(v=F(1, 32), n=0, epsilon=F(1, 8),
                          compact=Interval.closed(-1, 1), u=F(1, 2))


def harness(n, v=F(1, 32), eps=F(1, 8), compact=Interval.closed(-1, 1), u=F(1, 2)):
    return HarnessConfig(v=v, n=n, epsilon=eps, compact=compact, u=u)


class TestDisagreementProduct:
    def test_far_from_single_difference(self):
        mu = measure([(0, 1)])
        nu = measure([])
        cfg = harness(3)
        assert disagreement_product(mu, nu, cfg, 5) == 0

    def test_origin_unit_difference(self):
        mu = measure([(0, 1)])
        nu = measure([])
        assert disagreement_product(mu, nu, harness(3), 0) == 1

    def test_origin_double_difference(self):
        mu = measure([(0, 2)])
        nu = measure([])
        assert disagreement_product(mu, nu, harness(2), 0) == 4

    def test_n_one_equals_single_convolution(self):
        mu = measure([(0, 1), (F(1, 5), F(1, 2))])
        nu = measure([(F(1, 5), F(1, 3))])
        cfg = harness(1)
        diff = combine(1, mu, -1, nu)
        assert disagreement_product(mu, nu, cfg, F(1, 10)) == convolution_value(
            bump(cfg.v, 1), diff, F(1, 10))

    def test_scale_covariance(self):
        mu = measure([(0, 1), (F(1, 5), F(1, 2))])
        nu = measure([(F(1, 7), F(1, 3))])
        cfg = harness(2)
        x = F(1, 11)
        base = disagreement_product(mu, nu, cfg, x)
        scaled = disagreement_product(combine(3, mu, 0, mu), combine(3, nu, 0, nu), cfg, x)
        assert scaled == 3 ** cfg.n * base


class TestOriginIdentity:
    def test_comb_with_extra_mass(self):
        mu = measure([(n, 1) for n in range(-5, 6)] + [(0, 1)], Interval.closed(-6, 6))
        nu = integer_comb(-5, 5, pad=1)
        check = origin_product_identity(mu, nu, harness(2, v=F(1, 16)))
        assert check.holds and check.value == 1 and not check.degenerate

    def test_degenerate_equal_measures(self):
        comb = integer_comb(-5, 5, pad=1)
        check = origin_product_identity(comb, comb, harness(2, v=F(1, 16)))
        assert check.holds and check.value == 0 and check.degenerate

    def test_half_difference(self):
        mu = measure([(n, 1) for n in range(-5, 6)] + [(0, F(1, 2))], Interval.closed(-6, 6))
        nu = integer_comb(-5, 5, pad=1)
        check = origin_product_identity(mu, nu, harness(3))
        assert check.holds and check.value == F(1, 8)

    def test_hood_wider_than_the_window(self):
        # the hood is (-1/2, 1/2); the widest bump sees (-7/16, 7/16), inside the window
        window = Interval.closed(F(-7, 16), F(7, 16))
        mu, nu = measure([(0, 3)], window), measure([(0, 1)], window)
        check = origin_product_identity(mu, nu, harness(2, v=F(1, 16)))
        assert check.holds and check.value == 4

    def test_intruder_rejected(self):
        mu = measure([(0, 1), (F(1, 64), 1)])
        nu = measure([])
        with pytest.raises(HarnessConfigError, match="intrudes"):
            origin_product_identity(mu, nu, harness(2))


class TestFarField:
    def test_single_difference_far_sample(self):
        mu = measure([(0, 1)], Interval.closed(-200, 200))
        nu = measure([], Interval.closed(-200, 200))
        cfg = harness(2, v=F(1, 64), eps=F(1, 2), compact=Interval.closed(-1, 1), u=F(1, 4))
        report = far_field_check(mu, nu, cfg, [100])
        assert report.hypothesis_ok
        assert report.c_bound == 1
        assert report.samples[0].product == 0
        assert report.all_hold

    def test_sample_inside_enlarged_compact_rejected(self):
        mu = measure([(0, 1)], Interval.closed(-200, 200))
        cfg = harness(2, v=F(1, 64), eps=F(1, 2), compact=Interval.closed(-1, 1), u=F(1, 4))
        with pytest.raises(ValueError, match="enlarged compact"):
            far_field_check(mu, mu, cfg, [F(9, 8)])

    def test_perturbed_comb_scenario(self):
        mu = integer_comb(-55, 55)
        nu = perturbed_comb(-55, 55)
        n = sparsity_bound(mu, nu, F(1, 2))
        assert n == 3
        cfg = HarnessConfig(v=F(1, 32), n=n, epsilon=F(1, 8),
                            compact=Interval.closed(-10, 10), u=F(1, 2))
        report = far_field_check(mu, nu, cfg, [12, 20, 50])
        assert report.hypothesis_ok
        assert report.all_hold
        assert report.c_bound > 0
        # curve evaluation and direct pointwise products must agree
        for row in report.samples:
            assert row.product == disagreement_product(mu, nu, cfg, row.point)

    def test_given_difference_gives_the_same_reports(self):
        nu = integer_comb(-30, 30)
        mu = make_measure([(a.position, a.mass) for a in nu.atoms] + [(0, 1)], nu.window)
        cfg = harness(2, v=F(1, 16))
        diff = combine(1, mu, -1, nu)
        assert far_field_check(mu, nu, cfg, [3, 20], diff=diff) == \
            far_field_check(mu, nu, cfg, [3, 20])
        assert origin_product_identity(mu, nu, cfg, diff) == origin_product_identity(mu, nu, cfg)
        assert disagreement_product(mu, nu, cfg, F(1, 40), diff) == \
            disagreement_product(mu, nu, cfg, F(1, 40))

    def test_hypothesis_violation_reported(self):
        mu = integer_comb(-30, 30)
        # a mass jump far outside the compact violates the closeness hypothesis
        pairs = [(a.position, a.mass) for a in mu.atoms]
        pairs[-3] = (pairs[-3][0], 5)
        nu = make_measure(pairs, mu.window)
        cfg = HarnessConfig(v=F(1, 32), n=2, epsilon=F(1, 8),
                            compact=Interval.closed(-10, 10), u=F(1, 2))
        report = far_field_check(mu, nu, cfg, [15])
        assert not report.hypothesis_ok
        assert "mass gap" in report.hypothesis_note
        assert not report.all_hold
