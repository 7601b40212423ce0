"""Point-set matching and the smoothed-difference product harness.

Two stories.  First, an integer comb against a slightly perturbed comb:
the supports drift together at infinity, the product harness certifies the
far-field smallness bound, and the origin identity pins the product's value
at a disagreement point.  Second, the constructed measure against its
double: positions agree everywhere, masses halve their gap shell by shell
(a monotone profile on the examined windows), yet the measures never coincide.

Run:  python demos/matching_and_harness.py
"""

from fractions import Fraction as F

from apmeasure import (
    HarnessConfig,
    Interval,
    combine,
    far_field_check,
    limit_window,
    lump_decompose,
    make_measure,
    match_close,
    origin_product_identity,
    sparsity_bound,
    stage_window,
)

# --- scenario 1: comb vs perturbed comb -----------------------------------

comb = make_measure([(n, 1) for n in range(-55, 56)], Interval.closed(F(-111, 2), F(111, 2)))
moved = make_measure([(n + F(1, 8 * (abs(n) + 1)), 1) for n in range(-55, 56)],
                     comb.window)

print("comb vs perturbed comb: displacement at n shrinks like 1/(8(|n|+1))")
report = match_close(comb, moved, [Interval.closed(-10, 10), comb.window])
for profile in report.profiles:
    print(f"  outside {profile.window}: max position gap {profile.max_abs_position_gap}")

n = sparsity_bound(comb, moved, F(1, 2))
cfg = HarnessConfig(v=F(1, 32), n=n, epsilon=F(1, 8),
                    compact=Interval.closed(-10, 10), u=F(1, 2))
far = far_field_check(comb, moved, cfg, [12, 20, 50])
print(f"  harness with {n} bump factors, uniform bound C = {far.c_bound}")
for s in far.samples:
    print(f"  at b = {s.point}: |product| = {abs(s.product)} < {s.bound}  ({s.holds})")

extra = make_measure([(a.position, a.mass) for a in comb.atoms] + [(0, 1)], comb.window)
ident = origin_product_identity(extra, comb, HarnessConfig(
    v=F(1, 32), n=2, epsilon=F(1, 8), compact=Interval.closed(-1, 1), u=F(1, 2)))
print(f"  with an extra unit at 0 the product there equals {ident.value} "
      f"(predicted {ident.expected})")

# --- scenario 2: the constructed measure vs its double ---------------------

print("\nconstructed measure vs its double on [-40, 40]:")
mu = limit_window(Interval.closed(-40, 40))
nu = combine(2, mu, 0, mu)
shells = [stage_window(1).closure(), stage_window(2).closure(),
          stage_window(3).closure(), Interval.closed(-40, 40)]
report = match_close(mu, nu, shells)
print(f"  {len(report.pairs)} pairs, every position gap zero")
for s, profile in zip((1, 2, 3), report.profiles):
    print(f"  outside shell {s}: max mass gap {profile.max_abs_mass_gap} < 1/{2 * s}")
print(f"  monotone profile on the given windows: {'yes' if report.profile_decreasing else 'no'}")
print(f"  coincide: {'yes' if report.coincide_on_window else 'no'}")

print("\nlumps of the doubled pair at linking distance 1/100 (first few):")
dec = lump_decompose(limit_window(Interval.closed(-5, 5)),
                     combine(2, limit_window(Interval.closed(-5, 5)), 0, mu),
                     F(1, 100))
for lump in dec.lumps[:5]:
    print(f"  [{lump.lo}, {lump.hi}] diameter {lump.diameter}, mass gap {lump.mass_gap}")
print(f"  {len(dec.lumps)} lumps in all; "
      f"at most {dec.max_lumps_per_neighborhood} meet one neighborhood")
