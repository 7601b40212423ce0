"""Walk through the staged construction of the averaged lattice measure.

Stage 0 is a unit mass at the origin.  Each later stage k adds two shifted
copies (by +-3**(k-1)) of the previous stage, smeared by an averaging
operator that splits every atom into 2k nearby copies.  The result: a
discrete measure whose lattice cells each carry unit mass while the
individual point masses shrink to zero further out.

Run:  python demos/stage_construction.py
"""

from fractions import Fraction as F

from apmeasure import (
    Interval,
    averaging_radius,
    build_stage,
    cluster_certificate,
    limit_window,
    sliding_count_sup,
    stage_window,
    verify_mass_decay,
    verify_stage_scan,
    verify_stage_stability,
)

print("averaging radii shrink super-exponentially:")
for k in range(1, 5):
    print(f"  radius({k}) = {averaging_radius(k)}")

print("\nstage 1, atom by atom:")
for a in build_stage(1).atoms:
    print(f"  position {a.position}  mass {a.mass}")

print("\natom counts and total masses through stage 4:")
for s in range(5):
    mu = build_stage(s)
    print(f"  stage {s}: {len(mu):5d} atoms, total mass {mu.total_mass}, "
          f"window {stage_window(s)}")

print("\nevery full lattice cell carries exactly unit mass:")
for s in range(1, 4):
    scan = verify_stage_scan(s)
    print(f"  stage {s}: cell-mass check -> {'ok' if not scan.bad_cells and not scan.strays else 'BROKEN'}")

print("\nonce a stage covers a window, later stages never change it:")
for s in range(1, 4):
    print(f"  stage {s} vs stage {s + 1}: {'frozen' if verify_stage_stability(s) else 'CHANGED'}")

print("\nthe weak limit near 3 (four atoms, each a quarter of the cell mass):")
for a in limit_window(Interval.closed(F(5, 2), F(7, 2))).atoms:
    print(f"  position {a.position}  mass {a.mass}")

print("\na counting certificate for the cluster that lands near 12:")
cert = cluster_certificate(3, 0, 0, [(2, 3), (3, 9)])
print(f"  {cert.q} descendants of the origin atom, all within {cert.spread} of {cert.center},")
print(f"  each carrying mass {cert.member_mass}")

print("\nmasses outside a stage window decay like 1/(2s):")
for s in (1, 2, 3):
    rep = verify_mass_decay(s, stage_window(s + 1))
    print(f"  stage {s}: max outside mass {rep.max_mass_outside} < {rep.bound}")

print("\nbut neighborhood counts explode (the measure is not uniformly sparse):")
for s in (2, 3):
    count, witness = sliding_count_sup(build_stage(s), F(1, 16))
    print(f"  stage {s}: up to {count} atoms in one open 1/8-interval (near {witness})")
