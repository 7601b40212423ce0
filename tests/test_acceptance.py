"""Acceptance suite: one test per criterion, exact tolerances, timed where required.

Run with `pytest tests/test_acceptance.py -v` to get one PASSED/FAILED line
per criterion, or add `-s` to see the printed witness values.
"""

import time
from fractions import Fraction as F

import pytest

from apmeasure import (
    HarnessConfig,
    HarnessConfigError,
    Interval,
    averaging_radius,
    build_stage,
    combine,
    convolution_value,
    far_field_check,
    limit_window,
    make_measure,
    match_close,
    origin_product_identity,
    projected_atom_count,
    radius_series_tail_bound,
    sliding_count_sup,
    sparsity_bound,
    stage_window,
    triangle_test_function,
    verify_mass_decay,
    verify_stage_scan,
    verify_stage_stability,
    verify_tail_estimate,
    almost_period_certificate,
    almost_period_defect,
)
from helpers import brute_count_sup, integer_comb, perturbed_comb

TRIANGLE = triangle_test_function()


def test_criterion_01_stage_reproduction():
    start = time.perf_counter()
    mu1 = build_stage(1)
    elapsed = time.perf_counter() - start
    r1 = averaging_radius(1)
    assert r1 == F(1, 16)
    expected = [
        (-1 - r1, F(1, 2)), (-1 + r1, F(1, 2)),
        (F(0), F(1)),
        (1 - r1, F(1, 2)), (1 + r1, F(1, 2)),
    ]
    assert [(a.position, a.mass) for a in mu1.atoms] == sorted(expected)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: stage 1 matches the explicit five-atom formula "
          f"(built in {elapsed:.3f}s)")


def test_criterion_02_counting_and_mass_laws():
    start = time.perf_counter()
    expected_counts = [1, 5, 45, 585, 9945, 208845]
    for s in range(6):
        mu = build_stage(s)
        n = len(mu)
        assert n == expected_counts[s] == projected_atom_count(s)
        if s >= 1:
            assert n == expected_counts[s - 1] * (1 + 4 * s)
        assert mu.total_mass == 3 ** s
        positions = mu.positions()
        assert all(a < b for a, b in zip(positions, positions[1:]))  # zero merges
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: counts {expected_counts} and masses 3^s for s<=5, "
          f"no merge events ({elapsed:.2f}s)")


def test_criterion_03_cell_mass():
    for s in range(1, 5):
        scan = verify_stage_scan(s)
        assert not scan.bad_cells, (s, scan.bad_cells)
        assert not scan.strays  # support inside the union of cells
        assert scan.offender is None
    print("ACCEPTANCE 3 PASS: unit mass on every full cell and confined support, s=1..4")


def test_criterion_04_tail_estimate():
    for n in range(2, 13):
        est = verify_tail_estimate(n)
        assert est.holds, (n, est.lhs_upper_bound, est.rhs)
    two = verify_tail_estimate(2)
    assert two.rhs == F(1, 48)
    print("ACCEPTANCE 4 PASS: radius tail bound below radius(n-1)/(3(n-1)) for n=2..12")


def test_criterion_05_mass_decay():
    for s in range(1, 5):
        report = verify_mass_decay(s, stage_window(s + 1))
        assert report.holds, (s, report.max_mass_outside, report.bound)
        assert report.max_mass_outside < F(1, 2 * s)
        assert report.max_mass_outside <= F(1, 2 * (s + 1))
    print("ACCEPTANCE 5 PASS: masses outside the stage window stay below 1/(2s), s=1..4")


def test_criterion_06_stage_stability():
    for s in range(1, 5):
        assert verify_stage_stability(s), s
    print("ACCEPTANCE 6 PASS: stage s+1 restricted to the stage-s window equals stage s, s=1..4")


def test_criterion_07_almost_period_certificate():
    start = time.perf_counter()
    cert = almost_period_certificate(TRIANGLE, F(3, 512), 81, 2, limit_window)
    assert [int(row.tau) for row in cert.rows] == [9 * p for p in range(-9, 10)]
    tail_from_three = radius_series_tail_bound(3)
    assert cert.max_defect <= 6 * tail_from_three
    assert cert.max_defect <= F(3, 512)  # 6 * radius(2)/2
    assert cert.all_within

    # exact witness: comparing the convolution at 3 and at 0
    near_three = limit_window(Interval.closed(2, 4))
    near_zero = limit_window(Interval.closed(-1, 1))
    witness = abs(convolution_value(TRIANGLE, near_three, 3)
                  - convolution_value(TRIANGLE, near_zero, 0))
    assert witness == F(9, 1024)
    defect3, at = almost_period_defect(TRIANGLE, limit_window, 3,
                                       Interval.closed(F(-1, 2), F(1, 2)))
    assert defect3 == F(9, 1024) and at == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS: max defect {cert.max_defect} over tau=9p, |tau|<=81; "
          f"witness |conv(3)-conv(0)| = 9/1024 ({elapsed:.2f}s)")


def test_criterion_08_sparsity_violation():
    mu2 = build_stage(2)
    mu3 = build_stage(3)
    c2, _ = sliding_count_sup(mu2, F(1, 16))
    c3, _ = sliding_count_sup(mu3, F(1, 16))
    assert c2 == 4 == brute_count_sup(mu2, F(1, 16))
    assert c3 == 24 == brute_count_sup(mu3, F(1, 16))
    assert c3 > c2
    print("ACCEPTANCE 8 PASS: neighborhood counts grow 4 -> 24 from stage 2 to 3 "
          "(unbounded cluster growth)")


def test_criterion_08_one_stage_further():
    # the counts are the products 2k over the stages: 4, 4*6 = 24, then 4*6*8 = 192
    assert sliding_count_sup(build_stage(4), F(1, 16)) == (192, F(-641, 16))


def test_criterion_09_product_identities():
    # origin identity for difference masses 1, 2, 1/2 and 1..3 factors
    base = integer_comb(-5, 5, pad=1)
    for d in (F(1), F(2), F(1, 2)):
        mu = make_measure([(a.position, a.mass) for a in base.atoms] + [(0, d)],
                          base.window)
        for n in (1, 2, 3):
            cfg = HarnessConfig(v=F(1, 32), n=n, epsilon=F(1, 8),
                                compact=Interval.closed(-1, 1), u=F(1, 2))
            check = origin_product_identity(mu, base, cfg)
            assert check.holds and check.value == d ** n, (d, n, check)

    # far field, scenario 1: integer comb against its perturbation
    comb = integer_comb(-55, 55)
    moved = perturbed_comb(-55, 55)
    n = sparsity_bound(comb, moved, F(1, 2))
    cfg = HarnessConfig(v=F(1, 32), n=n, epsilon=F(1, 8),
                        compact=Interval.closed(-10, 10), u=F(1, 2))
    report = far_field_check(comb, moved, cfg, [12, 20, 50])
    assert report.hypothesis_ok
    assert len(report.samples) >= 3
    assert all(abs(s.product) < s.bound for s in report.samples)

    # far field, scenario 2: the constructed measure against its double
    mu = limit_window(Interval.closed(-10, F(27, 2)))
    nu = combine(2, mu, 0, mu)
    n2 = sparsity_bound(mu, nu, F(1, 16))
    cfg2 = HarnessConfig(v=F(1, 2048), n=n2, epsilon=F(1, 4),
                         compact=Interval.closed(-9, 9), u=F(1, 16))
    report2 = far_field_check(mu, nu, cfg2, [10, 12, 13])
    assert report2.hypothesis_ok
    assert len(report2.samples) >= 3
    assert all(abs(s.product) < s.bound for s in report2.samples)
    print(f"ACCEPTANCE 9 PASS: origin identity exact for all difference/factor combos; "
          f"far-field bound strict at 3 samples in both scenarios (n={n}, n={n2})")


def test_criterion_10_counterexample_demonstration():
    window = Interval.closed(-40, 40)
    mu = limit_window(window)
    nu = combine(2, mu, 0, mu)
    shells = [stage_window(1).closure(), stage_window(2).closure(),
              stage_window(3).closure(), window]
    report = match_close(mu, nu, shells)
    assert not report.unmatched_left and not report.unmatched_right
    assert all(p.position_gap == 0 for p in report.pairs)
    assert all(p.mass_gap != 0 for p in report.pairs)  # differ at every atom
    for s, profile in zip((1, 2, 3), report.profiles):
        assert profile.max_abs_position_gap == 0
        assert profile.max_abs_mass_gap < F(1, 2 * s), (s, profile)
    assert report.profiles[-1].pairs_outside == 0
    assert report.profile_decreasing  # "monotone profile on the given windows: yes"
    assert not report.coincide_on_window  # "coincide: no"
    print(f"ACCEPTANCE 10 PASS: {len(report.pairs)} pairs on [-40, 40], zero position "
          f"gaps, mass profile below 1/(2s) per shell, measures do not coincide")


def test_criterion_11_negative_controls():
    mu2 = build_stage(2)
    pairs = [(a.position, a.mass) for a in mu2.atoms]
    idx = next(i for i, (p, _) in enumerate(pairs) if p == 3 - F(1, 512))
    pairs[idx] = (pairs[idx][0], pairs[idx][1] + F(1, 8))
    corrupted = make_measure(pairs, mu2.window)
    scan = verify_stage_scan(2, corrupted)
    assert scan.bad_cells and scan.bad_cells[0][0] == 3  # named witness cell

    with pytest.raises(HarnessConfigError):
        HarnessConfig(v=F(1, 16), n=3, epsilon=F(1, 8),
                      compact=Interval.closed(-1, 1), u=F(1, 2))
    print("ACCEPTANCE 11 PASS: corrupted mass breaks the cell check at cell 3; "
          "oversized bump geometry is rejected")
