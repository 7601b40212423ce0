import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmeasure import (
    AtomBudgetError,
    Interval,
    StageStabilityError,
    averaging_radius,
    build_stage,
    cluster_certificate,
    limit_window,
    projected_atom_count,
    provenance,
    radius_series_tail_bound,
    restrict,
    stage_window,
    verify_mass_decay,
    verify_stage_scan,
    verify_stage_stability,
    verify_tail_estimate,
)
from apmeasure import construction
from apmeasure.construction import cell_center_bound
from apmeasure.measures import make_measure
from helpers import literal_cells, literal_scan, literal_stage, whole_walk_atoms, widened


def atoms_of(mu):
    return [(a.position, a.mass) for a in mu.atoms]


class TestStageWindow:
    def test_values(self):
        assert stage_window(0) == Interval.open(F(-1, 3), F(1, 3))
        assert stage_window(1) == Interval.open(F(-4, 3), F(4, 3))
        assert stage_window(2) == Interval.open(F(-13, 3), F(13, 3))

    def test_cell_bound(self):
        assert [cell_center_bound(s) for s in range(4)] == [0, 1, 4, 13]


class TestBuildStage:
    def test_stage0(self):
        assert atoms_of(build_stage(0)) == [(0, 1)]

    def test_stage1_explicit(self):
        assert atoms_of(build_stage(1)) == [
            (F(-17, 16), F(1, 2)), (F(-15, 16), F(1, 2)),
            (F(0), F(1)),
            (F(15, 16), F(1, 2)), (F(17, 16), F(1, 2)),
        ]

    def test_equal_masses_share_one_fraction(self):
        atoms = build_stage(3).atoms
        assert len({id(a.mass) for a in atoms}) == len({a.mass for a in atoms}) < len(atoms)

    def test_stage2_counts(self):
        mu2 = build_stage(2)
        assert len(mu2) == 45
        assert mu2.total_mass == 9

    def test_projected_counts(self):
        assert [projected_atom_count(s) for s in range(6)] == [1, 5, 45, 585, 9945, 208845]
        for s in range(4):
            assert len(build_stage(s)) == projected_atom_count(s)

    def test_recurrence(self):
        for s in range(1, 4):
            assert len(build_stage(s)) == len(build_stage(s - 1)) * (1 + 4 * s)

    def test_mass_provenance_consistency(self):
        for i, atom in enumerate(build_stage(3).atoms):
            q = 1
            for step in provenance(3, i):
                q *= 2 * step.stage
            assert atom.mass == F(1, q)

    def test_provenance_reconstructs_position(self):
        for i, atom in enumerate(build_stage(3).atoms):
            assert atom.position == sum((step.shift + step.offset for step in provenance(3, i)), F(0))

    def test_provenance_stages_increase(self):
        for i in range(projected_atom_count(3)):
            stages = [step.stage for step in provenance(3, i)]
            assert stages == sorted(stages) and len(set(stages)) == len(stages)

    def test_atom_cap(self):
        with pytest.raises(AtomBudgetError):
            build_stage(3, atom_cap=100)

    def test_negative_stage(self):
        with pytest.raises(ValueError):
            build_stage(-1)


class TestLiteralOracle:
    """The one expansion kernel and the index decode against the literal recursion."""

    @pytest.mark.parametrize("s", range(5))
    def test_builder_matches(self, s):
        built = atoms_of(build_stage(s))
        assert built == [(p, m) for p, m, _ in literal_stage(s)]

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_window_cutting_clusters_matches(self, lo_open, hi_open):
        # both ends inside the outermost stage-3 clusters, so the side blocks are clipped
        literal = literal_stage(3)
        J = Interval(literal[1][0], literal[-2][0], lo_open, hi_open)
        windowed = atoms_of(limit_window(J))
        assert windowed == [(p, m) for p, m, _ in literal if J.contains(p)]

    @pytest.mark.parametrize("s", range(4))
    def test_provenance_decode_matches(self, s):
        decoded = [tuple((step.stage, step.shift, step.offset) for step in provenance(s, i))
                   for i in range(projected_atom_count(s))]
        assert decoded == [prov for _, _, prov in literal_stage(s)]

    @pytest.mark.parametrize("s", range(4))
    def test_provenance_index_out_of_range(self, s):
        with pytest.raises(IndexError):
            provenance(s, projected_atom_count(s))
        with pytest.raises(IndexError):
            provenance(s, -1)


class TestSupportAndCells:
    def test_support(self):
        for s in range(3):
            assert verify_stage_scan(s).offender is None

    def test_cell_mass_small_stages(self):
        for s in range(3):
            scan = verify_stage_scan(s)
            assert not scan.bad_cells and not scan.strays

    def test_count_and_mass(self):
        for s in range(4):
            scan = verify_stage_scan(s)
            assert (scan.atoms, scan.total_mass) == (projected_atom_count(s), 3 ** s)

    def test_stage_cap(self):
        # the scan reads the cells of stages 1..3, 3 + 9 + 27
        with pytest.raises(AtomBudgetError, match="walking stage 3 makes 39 cells, cap is 38$"):
            verify_stage_scan(3, atom_cap=38)

    def test_cell_budget(self):
        # stage 5 has 243 cells: a file is charged its cells, not its atoms
        mu = build_stage(1)
        assert verify_stage_scan(5, mu, atom_cap=243).bad_cells[0] == (-121, 0)
        with pytest.raises(AtomBudgetError, match="stage 5 has 3\\^5 lattice cells, cap is 242$"):
            verify_stage_scan(5, mu, atom_cap=242)

    def test_stage1_side_cell(self):
        mu1 = build_stage(1)
        cell = Interval.open(F(-4, 3), F(-2, 3))
        assert restrict(mu1, cell).total_mass == 1

    def test_corrupted_mass_detected(self):
        mu2 = build_stage(2)
        pairs = atoms_of(mu2)
        # flip the mass of one atom in the cell centered at 3
        idx = next(i for i, (p, _) in enumerate(pairs) if p == 3 - F(1, 512))
        pairs[idx] = (pairs[idx][0], F(5, 4))
        bad = make_measure(pairs, mu2.window)
        scan = verify_stage_scan(2, bad)
        assert scan.bad_cells == ((3, F(2)),) and not scan.strays

    def test_stray_atom_detected(self):
        mu = make_measure([(0, 1), (F(1, 2), 1)], widened(stage_window(0).closure(), 1))
        scan = verify_stage_scan(0, mu)
        assert scan.strays == (F(1, 2),) and not scan.bad_cells and scan.offender == F(1, 2)


@st.composite
def perturbed_stages(draw):
    """A stage s <= 3 and its measure with a few atoms moved or masses changed:
    onto n -+ 1/3 or a half-integer (n the atom's cell), onto or past an end
    of the stage window, or a mass shifted."""
    s = draw(st.integers(min_value=0, max_value=3))
    built = atoms_of(build_stage(s))
    pairs = list(built)
    window = stage_window(s)
    edits = st.tuples(st.integers(min_value=0, max_value=len(pairs) - 1),
                      st.sampled_from(["third", "half", "past", "mass"]),
                      st.sampled_from([-1, 1]),
                      st.fractions(min_value=0, max_value=1, max_denominator=12))
    for i, kind, sign, amount in draw(st.lists(edits, min_size=1, max_size=4)):
        p, m = built[i]  # each edit starts from the built atom, so none drifts out of the window
        n = math.floor(p + F(1, 2))
        if kind == "third":
            pairs[i] = (n + sign * F(1, 3), m)
        elif kind == "half":
            pairs[i] = (n + sign * F(1, 2), m)
        elif kind == "past":
            pairs[i] = ((window.hi if sign > 0 else window.lo) + sign * amount, m)
        else:
            pairs[i] = (p, m + sign * amount)
    return s, make_measure(pairs, widened(window.closure(), 2))


@st.composite
def off_grid_measures(draw):
    """A stage s <= 3 and up to 8 atoms anywhere near its window, each
    position over 7, 11 or 16 (7 and 11 divide no stage grid) and each mass
    a signed fraction."""
    s = draw(st.integers(min_value=0, max_value=3))
    window = widened(stage_window(s).closure(), 2)
    position = st.builds(lambda den, x: F(math.floor(x * den), den), st.sampled_from([7, 11, 16]),
                         st.fractions(min_value=window.lo, max_value=window.hi))
    mass = st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(bool)
    pairs = draw(st.lists(st.tuples(position, mass), max_size=8))
    return s, make_measure(pairs, widened(window, 1))


def trimmed(scan):
    """A literal scan as the stage scan reports it: the leftmost three bad cells and strays."""
    return dataclasses.replace(scan, bad_cells=scan.bad_cells[:3], strays=scan.strays[:3])


@pytest.mark.parametrize("s", range(6))
def test_group_scan_matches_literal_scan(s):
    assert verify_stage_scan(s) == trimmed(literal_scan(s, build_stage(s)))


@given(perturbed_stages() | off_grid_measures())
@example((0, make_measure([], Interval.closed(-1, 1))))
@example((2, make_measure([(F(1, 7), F(1, 3))], Interval.closed(-1, 1))))
@settings(max_examples=200, deadline=None)
def test_certificates_match_literal_scans(case):
    s, mu = case
    assert verify_stage_scan(s, mu) == trimmed(literal_scan(s, mu))


def test_real_cells_are_clean(monkeypatch):
    # every cell of a real stage lies strictly inside one lattice cell of the window,
    # so the scan reads no cell atom by atom
    def refuse(*args, **kwargs):
        raise AssertionError("the scan read a cell atom by atom")

    monkeypatch.setattr(construction, "_stage_groups", refuse)
    for s in range(9):
        scan = verify_stage_scan(s)
        assert scan.atoms == projected_atom_count(s) and scan.total_mass == 3 ** s
        assert scan.offender is None and not scan.bad_cells and not scan.strays


@pytest.mark.parametrize("check", [lambda: verify_stage_scan(4),
                                   lambda: verify_mass_decay(4, stage_window(5))],
                         ids=["stage-scan", "mass-decay"])
def test_expansion_streams(check):
    # stage 4 has 9945 atoms, never held as one list; the scan holds stage 2's 9
    # cells and the decay, walking stage 5's, stage 3's 27
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_cells_hold_two_stages_below():
    # the decay walks stage 9's cells holding stage 7's 2,187 as a list and streaming
    # stages 8 and 9; a list of stage 8's 6,561 cells would pass 1 MB
    tracemalloc.start()
    try:
        assert verify_mass_decay(8, stage_window(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


class TestTailEstimate:
    def test_n1_below_third(self):
        est = verify_tail_estimate(1)
        assert est.holds and est.rhs == F(1, 3)

    def test_n2(self):
        est = verify_tail_estimate(2)
        assert est.rhs == F(1, 48)
        assert est.holds

    def test_range(self):
        for n in range(2, 13):
            assert verify_tail_estimate(n).holds

    def test_bound_dominates_partial_sums(self):
        for n in (1, 2, 5):
            bound = radius_series_tail_bound(n)
            partial = sum((averaging_radius(k) for k in range(n, 31)), F(0))
            assert partial < bound

    def test_truncation_free(self):
        # any truncation point gives a valid bound; longer is tighter
        a = radius_series_tail_bound(2, terms=1)
        b = radius_series_tail_bound(2, terms=12)
        assert b <= a
        assert verify_tail_estimate(2, terms=1).holds

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            verify_tail_estimate(0)


# sources are (base, mass, kept offsets) groups on the query's integer grid; grid.M is mass 1
COLLIDING_SOURCES = pytest.mark.parametrize("alter", [
    # a source atom one radius right of the first: its group starts inside the first group
    lambda source, grid: [source[0], (source[0][0] + source[0][2][0] + grid.pos(averaging_radius(2)),
                                      grid.M, (0,)), *source[1:]],
    # a source atom that the shift -3 takes to the origin, inside the stage-1 window
    lambda source, grid: [*source, (grid.pos(F(3)), grid.M, (0,))],
    # the first source group's atoms one radius apart: their groups overlap inside its image
    lambda source, grid: [(source[0][0], source[0][1],
                           (source[0][2][0], source[0][2][0] + grid.pos(averaging_radius(2)))),
                          *source[1:]],
], ids=["overlapping-groups", "group-inside-stage-window", "overlapping-groups-in-one-image"])


def alter_stage_two_source(monkeypatch, alter):
    """Make `alter` rewrite the source of stage 2's left block."""
    side_sources = construction._side_sources

    def altered(s, J, budget):
        for sh, source in side_sources(s, J, budget):
            yield sh, alter(list(source), budget) if s == 2 and sh < 0 else source

    monkeypatch.setattr(construction, "_side_sources", altered)


@pytest.mark.parametrize("s", range(6))
def test_whole_stage_charges_its_closed_form(s):
    # the unclipped walk of stage s ends its running charge at exactly w_s
    query, groups = construction._whole_stage(s, whole_walk_atoms(s) or 1)
    assert sum(len(kept) for _, _, kept in groups) == projected_atom_count(s)
    assert query.used == whole_walk_atoms(s)


def cells_walked(s):
    """The cells of stages 1..s, 3 + 9 + ... + 3^s."""
    return (3 ** (s + 1) - 3) // 2


@pytest.mark.parametrize("s", range(1, 6))
def test_scan_least_cap_is_the_walk(s):
    # the scan reads the cells of stages 1..s, so it charges exactly its pre-check c_s
    assert verify_stage_scan(s, atom_cap=cells_walked(s)).atoms == projected_atom_count(s)
    with pytest.raises(AtomBudgetError, match=f"makes {cells_walked(s)} cells, "
                                              f"cap is {cells_walked(s) - 1}$"):
        verify_stage_scan(s, atom_cap=cells_walked(s) - 1)


@pytest.mark.parametrize("s", range(6))
def test_cells_match_literal_cells(s):
    # every field of every cell, on the grid of a query up to stage s, and the charge
    query = construction._Query(s, stage_window(s), cells_walked(s) or 1)
    cells = [(F(a, query.D), F(b, query.D), None if gap == math.inf else F(gap, query.D),
              F(mass, query.M), F(at, query.D), count, F(total, query.M))
             for a, b, gap, mass, at, count, total in construction._cells(s, query)]
    assert cells == literal_cells(s)
    assert query.used == cells_walked(s)


def one_atom_cell(x, grid):
    return x, x, math.inf, grid.M, x, 1, grid.M


# cells are (first, last, least step, largest mass, its first atom, atom count, total mass)
# on the query's grid
COLLIDING_CELLS = pytest.mark.parametrize("alter", [
    # a source cell one radius right of the first cell's first atom: its image starts
    # inside the first cell's image
    lambda cells, grid: [cells[0], one_atom_cell(cells[0][0] + grid.pos(averaging_radius(2)), grid),
                         *cells[1:]],
    # a source cell that the shift -3 takes to the origin, inside the stage-1 window
    lambda cells, grid: [*cells, one_atom_cell(grid.pos(F(3)), grid)],
    # the first source cell's atoms one radius apart: their groups overlap inside its image
    lambda cells, grid: [(*cells[0][:2], grid.pos(averaging_radius(2)), *cells[0][3:]), *cells[1:]],
], ids=["overlapping-groups", "group-inside-stage-window", "overlapping-groups-in-one-image"])


def alter_stage_two_cells(monkeypatch, alter):
    """Make `alter` rewrite the source cells of stage 2's left block."""
    cell_block = construction._cell_block

    def altered(k, sh, cells, query):
        return cell_block(k, sh, alter(list(cells), query) if k == 2 and sh < 0 else cells, query)

    monkeypatch.setattr(construction, "_cell_block", altered)


@COLLIDING_CELLS
def test_scan_collisions_are_reported(monkeypatch, alter):
    alter_stage_two_cells(monkeypatch, alter)
    with pytest.raises(AssertionError, match="collision"):
        verify_stage_scan(2)


def test_straddling_groups_match_literal_scan(monkeypatch):
    # two source atoms of mass 1 added to stage 2's left block, as groups and as cells:
    # the shift -3 centres one image of 4 atoms on the window end -13/3 and one on the
    # boundary -3 + 1/3 of cell -3, so the scan reads both atom by atom through the
    # groups; the two atoms past the window end are kept, and the first is the offender
    def add(source, item):
        return [item(F(-4, 3)), *source[:2], item(F(1, 3)), *source[2:]]

    alter_stage_two_source(monkeypatch, lambda source, grid: add(
        source, lambda x: (grid.pos(x), grid.M, (0,))))
    alter_stage_two_cells(monkeypatch, lambda cells, grid: add(
        cells, lambda x: one_atom_cell(grid.pos(x), grid)))
    scan = verify_stage_scan(2)
    assert scan == trimmed(literal_scan(2, build_stage(2)))
    assert scan.atoms == projected_atom_count(2) + 8 and scan.offender == F(-6659, 1536)
    assert scan.strays == (F(-6659, 1536), F(-13315, 3072), F(-8189, 3072))
    assert scan.bad_cells == ((-4, F(3, 2)), (-3, F(3, 2)))


def test_cell_outside_the_window_fails_loudly(monkeypatch):
    # a source atom of mass 1 at -5 added to stage 2's left block, as a group and as a cell:
    # its image, 4 atoms near -8, lies wholly outside the stage-2 window, where the kernel
    # prunes stage 2, so the kernel's read of the cell comes back short
    alter_stage_two_source(monkeypatch, lambda source, grid: [(grid.pos(F(-5)), grid.M, (0,)), *source])
    alter_stage_two_cells(monkeypatch, lambda cells, grid: [one_atom_cell(grid.pos(F(-5)), grid), *cells])
    with pytest.raises(AssertionError, match="^stage 2: kernel reads 0 of 4 atoms at -4097/512$"):
        verify_stage_scan(2)


class TestMassDecay:
    def test_stage1(self):
        report = verify_mass_decay(1, Interval.closed(-5, 5))
        assert report.holds
        assert report.max_mass_outside <= F(1, 4) < F(1, 2) == report.bound

    def test_stage2(self):
        report = verify_mass_decay(2, Interval.closed(-14, 14))
        assert report.holds
        assert report.max_mass_outside <= F(1, 6) < F(1, 4) == report.bound

    def test_cap_bounds_the_window(self):
        with pytest.raises(AtomBudgetError, match="cap is 100"):
            verify_mass_decay(2, Interval.closed(-14, 14), atom_cap=100)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_charge_is_the_atoms_walked(self, s):
        # the cells of stages 1..s+1, checked before any walk: W_{s+1} cuts no cell
        # of stage s+1, so nothing is read atom by atom.  At s = 6 this is 3279
        assert cells_walked(7) == 3279
        assert verify_mass_decay(s, stage_window(s + 1), atom_cap=cells_walked(s + 1))
        with pytest.raises(AtomBudgetError, match=f"walking stage {s + 1} makes "
                                                  f"{cells_walked(s + 1)} cells, cap is "
                                                  f"{cells_walked(s + 1) - 1}$"):
            verify_mass_decay(s, stage_window(s + 1), atom_cap=cells_walked(s + 1) - 1)

    def test_a_step_near_the_span_collides_a_stage_later(self, monkeypatch):
        # a stage-1 cell whose least step is one grid point above stage 2's offset span:
        # its stage-2 image holds, with least step 1, and that image's stage-3 image collides
        alter_stage_two_cells(monkeypatch, lambda cells, grid: [
            (*cells[0][:2], grid.offsets(2)[-1] - grid.offsets(2)[0] + 1, *cells[0][3:]), *cells[1:]])
        assert verify_mass_decay(1, stage_window(2))
        with pytest.raises(AssertionError, match="stage 3: atom collision imaging the cell"):
            verify_mass_decay(2, stage_window(3))

    def test_huge_stage_refuses_at_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the decay started a query")

        monkeypatch.setattr(construction, "_covering_stage", refuse)
        monkeypatch.setattr(construction, "_Query", refuse)
        with pytest.raises(AtomBudgetError, match="^walking stage 100001 makes at least 21523359 "
                                                  "cells, cap is 10000000$"):
            verify_mass_decay(100000, stage_window(100001))

    def test_stage0_rejected(self):
        with pytest.raises(ValueError):
            verify_mass_decay(0, Interval.closed(-5, 5))

    def test_non_strict_window_rejected(self):
        with pytest.raises(ValueError):
            verify_mass_decay(1, stage_window(1))

    @COLLIDING_CELLS
    def test_collisions_are_reported(self, monkeypatch, alter):
        alter_stage_two_cells(monkeypatch, alter)
        with pytest.raises(AssertionError, match="collision"):
            verify_mass_decay(1, stage_window(2))


@COLLIDING_SOURCES
def test_expansion_collisions_are_reported(monkeypatch, alter):
    alter_stage_two_source(monkeypatch, alter)
    with pytest.raises(AssertionError, match="collision"):
        build_stage(2)


@pytest.fixture(scope="module")
def literal_four():
    """Stage 4 by the literal recursion: the limit on the closure of its window."""
    return [(p, m) for p, m, _ in literal_stage(4)]


def decay_windows(s, literal):
    """Windows strictly containing the stage-s window, all inside the stage-4 window."""
    inner = stage_window(s)
    windows = [stage_window(s + 1), Interval.closed(-5, 5), Interval.closed(-14, 14),
               # ends inside the outermost stage-4 clusters, then inside a stage-4
               # cluster of the left block and the rightmost stage-3 cluster
               Interval.closed(literal[1][0], literal[-2][0]),
               Interval.open(literal[len(literal) // 3][0], literal[len(literal) // 2 + 290][0])]
    witness = literal_decay(s, windows[2], literal)[1]
    windows.append(Interval(witness, 14, lo_open=True))  # the closed window's witness left out
    windows.append(stage_window(s + 1).closure())
    return [J for J in windows
            if J.contains_interval(inner) and (J.lo, J.hi) != (inner.lo, inner.hi)]


def literal_decay(s, J, literal):
    """(max mass, witness, holds) by a scan of every atom of J outside the stage-s window."""
    inner = stage_window(s)
    worst, witness = F(0), None
    for p, m in literal:
        if J.contains(p) and not inner.contains(p) and abs(m) > worst:
            worst, witness = abs(m), p
    return worst, witness, worst < F(1, 2 * s)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_mass_decay_matches_literal_scan(s, literal_four):
    windows = decay_windows(s, literal_four)
    assert len(windows) >= 4
    for J in windows:
        report = verify_mass_decay(s, J)
        assert (report.max_mass_outside, report.witness, report.holds) == \
            literal_decay(s, J, literal_four), J


@pytest.mark.parametrize("kind", ["open", "closed", "cut"])
def test_mass_decay_matches_literal_scan_of_stage_five(kind):
    literal = atoms_of(build_stage(5))
    J = {"open": stage_window(5), "closed": stage_window(5).closure(),
         "cut": Interval.closed(literal[1][0], literal[-2][0])}[kind]
    report = verify_mass_decay(4, J)
    assert (report.max_mass_outside, report.witness, report.holds) == literal_decay(4, J, literal)


class TestLimitWindow:
    def test_center_cell(self):
        out = limit_window(Interval.closed(F(-1, 3), F(1, 3)))
        assert atoms_of(out) == [(0, 1)]

    def test_cell_three_cluster(self):
        out = limit_window(Interval.closed(F(5, 2), F(7, 2)))
        assert atoms_of(out) == [
            (3 - F(1, 512), F(1, 4)), (3 - F(1, 1024), F(1, 4)),
            (3 + F(1, 1024), F(1, 4)), (3 + F(1, 512), F(1, 4)),
        ]

    def test_restriction_coherence(self):
        inner = Interval.closed(-1, 1)
        outer = Interval.closed(-4, 4)
        assert restrict(limit_window(outer), inner) == limit_window(inner)

    def test_far_window_prunes(self):
        # forces a pruned stage-5 stability expansion without building stage 5
        out = limit_window(Interval.closed(F(53, 2), F(55, 2)))
        assert out.total_mass == 1
        assert all(abs(a.position - 27) < F(1, 3) for a in out.atoms)

    def test_builds_no_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("limit_window must not walk a whole stage")

        monkeypatch.setattr(construction, "_whole_stage", refuse)
        # the window needs stage 10: the whole cell at 3^9 and half of each neighbour
        out = limit_window(Interval.closed(3 ** 9 - 1, 3 ** 9 + 1))
        assert out.total_mass == 2
        assert restrict(out, Interval.open(3 ** 9 - F(1, 3), 3 ** 9 + F(1, 3))).total_mass == 1

    def test_cap_bounds_the_expansion(self):
        # the window needs stage 9; its expansion passes 10k atoms long before the end
        with pytest.raises(AtomBudgetError, match="cap is 10000"):
            limit_window(Interval.closed(-3 ** 8, 3 ** 8), atom_cap=10_000)

    def test_budget_outcome(self):
        # (3/2, 13] cuts stage-3 clusters at both ends; its expansion returns
        # 266 atoms and charges 317, counting the sources of the side blocks
        J = Interval(F(3, 2), F(13), True, False)
        with pytest.raises(AtomBudgetError, match="cap is 316$"):
            limit_window(J, atom_cap=316)
        assert len(limit_window(J, atom_cap=317)) == 266

    def test_unstable_stage_is_reported(self, monkeypatch):
        # a new block of stage s+1 that lands in J means stage s was not frozen there
        side_blocks = construction._side_blocks

        def stray_stage_two_atom(s, J, query):  # one group of stage 2 at the origin
            return iter([(0, query.M, (0,))]) if s == 2 else side_blocks(s, J, query)

        monkeypatch.setattr(construction, "_side_blocks", stray_stage_two_atom)
        with pytest.raises(StageStabilityError, match="stage 2 disagrees with stage 1"):
            limit_window(Interval.closed(-1, 1))


class TestGrid:
    def test_window_end_off_the_grid_raises(self):
        query = construction._Query(2, Interval.closed(F(1, 5), 1), 100)
        assert query.window(Interval(F(1, 5), F(1), True, False)) == (query.D // 5 + 1, query.D)
        with pytest.raises(AssertionError, match="not on the grid"):
            query.window(Interval.closed(F(1, 7), 1))


@st.composite
def stage_subwindows(draw):
    """A stage s <= 4 and a window inside its open window, often ending on atoms."""
    s = draw(st.integers(min_value=0, max_value=4))
    inner = stage_window(s)
    positions = build_stage(s).positions()
    point = (st.sampled_from(positions)
             | st.fractions(min_value=inner.lo, max_value=inner.hi, max_denominator=1024)
             .filter(inner.contains))
    a, b = sorted((draw(point), draw(point)))
    return s, Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@given(stage_subwindows())
@settings(max_examples=60, deadline=None)
def test_window_expansion_agrees_with_builder(case):
    s, J = case
    assert limit_window(J) == restrict(build_stage(s), J)


class TestStability:
    def test_small_stages(self):
        for s in range(3):
            assert verify_stage_stability(s)

    @pytest.mark.parametrize("s", range(4))
    def test_literal_next_stage_agrees(self, s):
        window = stage_window(s).closure()
        restricted = [(p, m) for p, m, _ in literal_stage(s + 1) if window.contains(p)]
        assert restricted == [(p, m) for p, m, _ in literal_stage(s)]
        assert verify_stage_stability(s)

    def test_stray_side_block_atom_is_reported(self, monkeypatch):
        side_blocks = construction._side_blocks

        def stray_stage_three_atom(s, J, query):  # one group of stage 3 at 4
            return iter([(query.pos(F(4)), query.M, (0,))]) if s == 3 else side_blocks(s, J, query)

        monkeypatch.setattr(construction, "_side_blocks", stray_stage_three_atom)
        assert not verify_stage_stability(2)
        assert verify_stage_stability(1)

    def test_cap_covers_the_next_stage(self, monkeypatch):
        # stage 4's side blocks read no atom of stage 3, so they make none in its window ...
        assert verify_stage_stability(3, atom_cap=1)
        # ... and a group they did make there, here the 8 stage-4 copies of the
        # origin, would be charged
        side_sources = construction._side_sources

        def origin_source(s, J, query):
            return iter([(0, iter([(0, query.M, (0,))]))]) if s == 4 else side_sources(s, J, query)

        monkeypatch.setattr(construction, "_side_sources", origin_source)
        with pytest.raises(AtomBudgetError, match="made 8 atoms and cells, cap is 7$"):
            verify_stage_stability(3, atom_cap=7)
        assert not verify_stage_stability(3, atom_cap=8)


class TestClusterCertificate:
    def test_single_averaging_branch(self):
        cert = cluster_certificate(2, 0, 0, [(2, 3)])
        assert cert.q == 4
        assert cert.spread == F(1, 512)
        assert cert.center == 3
        assert cert.members == (
            3 - F(1, 512), 3 - F(1, 1024), 3 + F(1, 1024), 3 + F(1, 512))
        assert cert.member_mass == F(1, 4)

    def test_two_step_branch(self):
        cert = cluster_certificate(3, 0, 0, [(2, 3), (3, 9)])
        assert cert.q == 24
        assert cert.spread == F(1, 512) + F(1, 65536)
        assert cert.center == 12
        assert len(cert.members) == 24
        assert cert.member_mass == F(1, 24)
        assert all(abs(m - 12) <= cert.spread for m in cert.members)

    def test_empty_branch(self):
        cert = cluster_certificate(2, 1, F(15, 16), [])
        assert cert.q == 1 and cert.spread == 0
        assert cert.members == (F(15, 16),)
        assert cert.member_mass == F(1, 2)

    def test_nontrivial_ancestor(self):
        cert = cluster_certificate(2, 1, F(15, 16), [(2, -3)])
        assert cert.q == 4
        assert cert.center == F(15, 16) - 3
        assert cert.member_mass == F(1, 8)

    def test_not_an_atom(self):
        with pytest.raises(ValueError, match="not an atom"):
            cluster_certificate(2, 0, F(1, 7), [(2, 3)])

    def test_limit_atom_outside_the_ancestor_stage(self):
        # 15/16 is an atom of the limit (mass 1/2) but lies outside the stage-0 window
        with pytest.raises(ValueError, match="not an atom of stage 0"):
            cluster_certificate(2, 0, F(15, 16), [(2, 3)])

    def test_builds_no_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cluster_certificate must not walk a whole stage")

        monkeypatch.setattr(construction, "_whole_stage", refuse)
        cert = cluster_certificate(5, 1, F(-17, 16), [(3, 9), (5, -81)])
        assert cert.q == 60 and cert.member_mass == F(1, 120)
        assert cert.center == F(-17, 16) - 72

    @pytest.mark.parametrize("ancestor_stage", range(3))
    def test_every_branch_into_stage_three(self, ancestor_stage):
        # every atom of the ancestor stage and every branch of signed passes up to stage 3
        later = range(ancestor_stage + 1, 4)
        branches = [[(k, sign * 3 ** (k - 1)) for k, sign in zip(later, signs) if sign]
                    for signs in itertools.product((-1, 0, 1), repeat=len(later))]
        for y, mass, _ in literal_stage(ancestor_stage):
            for branch in branches:
                cert = cluster_certificate(3, ancestor_stage, y, branch)
                assert cert.member_mass == mass / cert.q

    def test_bad_shift(self):
        with pytest.raises(ValueError, match="lattice step"):
            cluster_certificate(2, 0, 0, [(2, 5)])

    def test_stage_order_enforced(self):
        with pytest.raises(ValueError, match="must increase"):
            cluster_certificate(3, 0, 0, [(3, 9), (2, 3)])


class TestSeparation:
    def test_min_gap_floor(self):
        for s in (1, 2, 3):
            gap = verify_stage_scan(s).min_gap
            floor = averaging_radius(s) / s - 2 * radius_series_tail_bound(s + 1)
            assert gap > 0
            assert gap >= floor
