from fractions import Fraction as F

import pytest

from apmeasure import (
    Interval,
    WindowError,
    averaging_radius,
    build_stage,
    combine,
    make_measure,
    restrict,
    sliding_count_sup,
    sliding_variation_sup,
)
from helpers import (averaging_operator, brute_count_sup, brute_variation_sup,
                     literal_total_variation, widened)

W = Interval.closed(-1, 1)


def atoms_of(mu):
    return [(a.position, a.mass) for a in mu.atoms]


class TestInterval:
    def test_contains_openness(self):
        open_iv = Interval.open(0, 1)
        assert not open_iv.contains(0) and not open_iv.contains(1)
        assert open_iv.contains(F(1, 2))
        closed = Interval.closed(0, 1)
        assert closed.contains(0) and closed.contains(1)

    def test_contains_interval(self):
        assert Interval.open(0, 1).contains_interval(Interval.open(0, 1))
        assert not Interval.open(0, 1).contains_interval(Interval.closed(0, 1))
        assert Interval.closed(0, 1).contains_interval(Interval.open(0, 1))

    def test_intersect_disjoint(self):
        assert Interval.closed(0, 1).intersect(Interval.closed(2, 3)) is None
        assert Interval.open(0, 1).intersect(Interval.open(1, 2)) is None
        touching = Interval.closed(0, 1).intersect(Interval.closed(1, 2))
        assert touching == Interval.closed(1, 1)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval.closed(1, 0)


class TestMakeMeasure:
    def test_singleton(self):
        assert atoms_of(make_measure([(0, 1)], W)) == [(0, 1)]

    def test_cancellation(self):
        assert atoms_of(make_measure([(0, 1), (0, -1)], W)) == []

    @pytest.mark.parametrize("pairs, atoms", [
        ([(0, 1), (0, -1), (0, 1)], [(0, 1)]),  # a run that cancels, then refills
        ([(0, 0), (0, 1)], [(0, 1)]),  # a zero mass first
        ([(-1, 2), (-1, -2), (0, 1), (1, 3), (1, -3)], [(0, 1)]),  # a cancelling run at each end
    ], ids=["cancel-then-refill", "zero-then-mass", "cancelling-ends"])
    def test_merge_edge_runs(self, pairs, atoms):
        assert atoms_of(make_measure(pairs, W)) == atoms

    def test_merge_by_sum(self):
        mu = make_measure([(F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))], Interval.closed(0, 1))
        assert atoms_of(mu) == [(F(1, 2), F(2, 3))]

    def test_outside_window_rejected(self):
        with pytest.raises(WindowError, match="7/2"):
            make_measure([(F(7, 2), 1)], W)

    @pytest.mark.parametrize("pairs", [
        [(0, 1), (2, 1), (-3, 1)],  # outside at both ends
        [(2, 1), (0, 1), (3, 1)],  # several outside on one side
        [(F(1, 2), 1), (2, 0), (-2, 0)],  # zero masses outside
        [(2, 1), (0, 1), (2, -1)],  # masses that cancel outside
        [(-2, F(1, 3)), (-2, F(-1, 3)), (2, 5), (2, -5)],  # nothing left, all outside
    ])
    def test_several_outside_window_rejected(self, pairs):
        with pytest.raises(WindowError, match="outside window"):
            make_measure(pairs, W)

    def test_canonical_idempotent(self):
        mu = make_measure([(1, 2), (0, 1), (1, 3)], Interval.closed(-2, 2))
        again = make_measure(atoms_of(mu), mu.window)
        assert again == mu


class TestAveragingOperator:
    def test_radius_values(self):
        assert averaging_radius(1) == F(1, 16)
        assert averaging_radius(2) == F(1, 512)
        assert averaging_radius(3) == F(1, 65536)
        with pytest.raises(ValueError):
            averaging_radius(0)

    def test_single_atom_k1(self):
        out = averaging_operator(make_measure([(0, 1)], W), 1)
        assert atoms_of(out) == [(F(-1, 16), F(1, 2)), (F(1, 16), F(1, 2))]

    def test_single_atom_k2(self):
        # direct expansion: offsets r2*j/2 with r2 = 1/512, weights 1/4
        out = averaging_operator(make_measure([(0, 1)], W), 2)
        assert atoms_of(out) == [
            (F(-1, 512), F(1, 4)), (F(-1, 1024), F(1, 4)),
            (F(1, 1024), F(1, 4)), (F(1, 512), F(1, 4)),
        ]

    def test_mass_and_variation_preserved(self):
        mu = make_measure([(0, 1), (1, 2)], Interval.closed(-1, 2))
        out = averaging_operator(mu, 3)
        assert out.total_mass == mu.total_mass == 3
        assert literal_total_variation(out) == literal_total_variation(mu)

    def test_window_widens_by_radius(self):
        out = averaging_operator(make_measure([(0, 1)], W), 2)
        assert out.window == widened(W, F(1, 512))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            averaging_operator(make_measure([(0, 1)], W), 0)


class TestCombine:
    def test_cancel(self):
        mu = make_measure([(0, 1)], W)
        assert atoms_of(combine(1, mu, -1, mu)) == []

    def test_scale(self):
        mu = make_measure([(0, 1), (F(1, 2), 3)], W)
        out = combine(2, mu, 0, mu)
        assert atoms_of(out) == [(0, 2), (F(1, 2), 6)]

    def test_union(self):
        mu = make_measure([(0, 1)], Interval.closed(-2, 2))
        nu = make_measure([(1, 1)], Interval.closed(-2, 2))
        assert atoms_of(combine(1, mu, 1, nu)) == [(0, 1), (1, 1)]

    def test_window_intersects(self):
        mu = make_measure([(0, 1)], Interval.closed(-2, 1))
        nu = make_measure([(F(1, 2), 1)], Interval.closed(0, 5))
        out = combine(1, mu, 1, nu)
        assert out.window == Interval.closed(0, 1)

    def test_disjoint_windows_rejected(self):
        mu = make_measure([(0, 1)], Interval.closed(0, 1))
        nu = make_measure([(3, 1)], Interval.closed(3, 4))
        with pytest.raises(WindowError):
            combine(1, mu, 1, nu)

    def test_empty_identity(self):
        mu = make_measure([(0, 1)], W)
        empty = make_measure([], W)
        assert combine(1, mu, 1, empty) == mu

    @pytest.mark.parametrize("flags", [(a, b, c, d) for a in (False, True) for b in (False, True)
                                       for c in (False, True) for d in (False, True)])
    def test_matches_literal_filter(self, flags):
        # partly overlapping windows [-2, 1] and [0, 3] under every openness: the
        # intersection ends at 0 and 1, where both measures may have atoms
        mu_window = Interval(F(-2), F(1), flags[0], flags[1])
        nu_window = Interval(F(0), F(3), flags[2], flags[3])
        mu = make_measure([(p, 1) for p in (-2, -1, 0, F(1, 2), 1) if mu_window.contains(p)],
                          mu_window)
        nu = make_measure([(p, 2) for p in (0, F(1, 2), 1, 2, 3) if nu_window.contains(p)],
                          nu_window)
        window = mu_window.intersect(nu_window)
        literal = make_measure(
            [(a.position, 2 * a.mass) for a in mu.atoms if window.contains(a.position)]
            + [(a.position, -a.mass) for a in nu.atoms if window.contains(a.position)], window)
        assert combine(2, mu, -1, nu) == literal


class TestRestrict:
    def test_basic(self):
        mu = make_measure([(0, 1), (2, 1)], Interval.closed(-3, 3))
        assert atoms_of(restrict(mu, W)) == [(0, 1)]

    def test_stage1_center_cell(self):
        mu1 = build_stage(1)
        out = restrict(mu1, Interval.open(F(-1, 3), F(1, 3)))
        assert atoms_of(out) == [(0, 1)]

    def test_identity(self):
        mu = make_measure([(0, 1)], W)
        assert restrict(mu, mu.window) == mu

    def test_outside_window_rejected(self):
        mu = make_measure([(0, 1)], W)
        with pytest.raises(WindowError):
            restrict(mu, Interval.closed(-2, 2))

    def test_open_endpoint_excludes_atom(self):
        mu = make_measure([(0, 1), (1, 1)], Interval.closed(0, 1))
        out = restrict(mu, Interval(F(0), F(1), lo_open=False, hi_open=True))
        assert atoms_of(out) == [(0, 1)]


class TestSlidingVariationSup:
    def test_adjacent_pair(self):
        mu = make_measure([(0, 1), (1, 1), (2, 1)], Interval.closed(0, 2))
        value, witness = sliding_variation_sup(mu, 1)
        assert value == 2 and witness == 0

    def test_stage2_unit_window(self):
        mu2 = build_stage(2)
        value, _ = sliding_variation_sup(mu2, 1)
        assert value <= 2
        assert value == brute_variation_sup(mu2, F(1))

    def test_empty(self):
        assert sliding_variation_sup(make_measure([], W), 1)[0] == 0

    def test_bounded_by_total_variation(self):
        mu = make_measure([(0, -2), (F(1, 3), 1), (F(2, 3), 5)], W)
        assert sliding_variation_sup(mu, F(1, 10))[0] <= literal_total_variation(mu)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            sliding_variation_sup(make_measure([], W), 0)


class TestSlidingCountSup:
    def test_two_separated(self):
        mu = make_measure([(0, 1), (1, 1)], W)
        assert sliding_count_sup(mu, F(1, 4))[0] == 1

    def test_stage2(self):
        mu2 = build_stage(2)
        count, witness = sliding_count_sup(mu2, F(1, 16))
        assert count == 4 == brute_count_sup(mu2, F(1, 16))
        hood = Interval.open(witness - F(1, 16), witness + F(1, 16))
        assert sum(1 for a in mu2.atoms if hood.contains(a.position)) == 4

    def test_stage3(self):
        mu3 = build_stage(3)
        count, _ = sliding_count_sup(mu3, F(1, 16))
        assert count == 24 == brute_count_sup(mu3, F(1, 16))

    def test_monotone_in_radius(self):
        mu2 = build_stage(2)
        counts = [sliding_count_sup(mu2, u)[0]
                  for u in (F(1, 1024), F(1, 64), F(1, 16), F(1, 2), F(2))]
        assert counts == sorted(counts)

    def test_empty(self):
        assert sliding_count_sup(make_measure([], W), 1)[0] == 0

    def test_open_window_excludes_exact_diameter(self):
        # two atoms exactly 2u apart never share an open radius-u interval
        mu = make_measure([(0, 1), (F(1, 8), 1)], W)
        assert sliding_count_sup(mu, F(1, 16))[0] == 1
