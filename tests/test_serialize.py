import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmeasure import (Interval, PiecewiseLinearFn, build_stage, make_measure, match_close,
                       projected_atom_count, provenance, triangle_test_function)
from apmeasure import construction, serialize
from apmeasure.serialize import (
    load_measure,
    load_plf,
    match_report_to_dict,
    measure_from_dict,
    provenance_sidecar_path,
    save_match_report,
    save_measure,
    save_plf,
    save_stage,
)
from helpers import literal_load_measure, measure_to_dict, stage_to_dicts


def test_measure_round_trip(tmp_path):
    mu = make_measure(
        [(F(-17, 16), F(1, 2)), (0, 1), (F(15, 16), F(1, 2))],
        Interval(F(-4, 3), F(4, 3), True, True))
    path = tmp_path / "m.json"
    save_measure(mu, path)
    assert load_measure(path) == mu


def test_measure_file_is_decimal_free(tmp_path):
    mu = build_stage(2)
    path = tmp_path / "m.json"
    save_measure(mu, path)
    payload = json.loads(path.read_text())
    for atom in payload["atoms"]:
        assert "." not in atom["pos"] and "." not in atom["mass"]
    assert load_measure(path) == mu


def dumped(d):
    return json.dumps(d, indent=1) + "\n"


@pytest.mark.parametrize("s", range(5))
def test_stage_files_are_json_dumps(s, tmp_path):
    # stage 0's one atom has empty stages/shifts/offsets lists
    path = tmp_path / "stage.json"
    side = save_stage(s, path)
    measure, sidecar = stage_to_dicts(s)
    assert path.read_text() == dumped(measure)
    assert side.read_text() == dumped(sidecar)


@pytest.mark.parametrize("s", range(5))
def test_sidecar_rows_are_the_decoded_provenance(s, tmp_path):
    # the writer decodes one index per run of copies of a source atom; `provenance`
    # decodes every index afresh, and the passes sum to the atom's position
    path = tmp_path / "stage.json"
    rows = json.loads(save_stage(s, path).read_text())["atoms"]
    atoms = json.loads(path.read_text())["atoms"]
    assert len(rows) == len(atoms) == projected_atom_count(s)
    for i, (row, atom) in enumerate(zip(rows, atoms)):
        steps = provenance(s, i)
        assert row == {"pos": atom["pos"], "stages": [step.stage for step in steps],
                       "shifts": [str(step.shift) for step in steps],
                       "offsets": [str(step.offset) for step in steps]}
        assert F(row["pos"]) == sum((step.shift + step.offset for step in steps), F(0))


def test_streamed_file_is_json_dumps(tmp_path):
    # empty and signed measures, with negative and integer positions and masses,
    # under every window openness
    path = tmp_path / "m.json"
    for flags in [(False, False), (True, False), (False, True), (True, True)]:
        window = Interval(F(-7, 2), F(5), *flags)
        signed = make_measure([(F(-3), F(-2)), (F(-5, 4), F(1, 3)), (0, 7),
                               (F(1, 6), F(-5, 8)), (F(4), 1)], window)
        for mu in (make_measure([], window), signed):
            save_measure(mu, path)
            assert path.read_text() == dumped(measure_to_dict(mu))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_batch_boundary_is_json_dumps(extra, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    n = serialize._BATCH + extra
    mu = make_measure([(F(i, 3), F(-1) ** i * F(1, i + 1)) for i in range(n)],
                      Interval.closed(0, n))
    save_measure(mu, path)
    assert path.read_text() == dumped(measure_to_dict(mu))
    # the 45 atoms of stage 2 at a batch boundary, measure file and sidecar
    monkeypatch.setattr(serialize, "_BATCH", 45 + extra)
    side = save_stage(2, path)
    measure, sidecar = stage_to_dicts(2)
    assert (path.read_text(), side.read_text()) == (dumped(measure), dumped(sidecar))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_match_report_is_json_dumps(extra, tmp_path, monkeypatch):
    # no pairs, pairs with signed gaps and unmatched atoms on either side,
    # half-open windows, and a pair count at a batch boundary
    path = tmp_path / "r.json"
    window = Interval(F(-9, 2), F(9, 2), True, False)
    mu = make_measure([(F(k, 3), F(1, k % 4 + 1)) for k in range(-12, 12)], window)
    nu = make_measure([(F(k, 5), F(-2, 7) if k % 3 else 1) for k in range(-20, 15)], window)
    monkeypatch.setattr(serialize, "_BATCH", 24 + extra)
    windows = [Interval.open(-1, 1), Interval(F(-3), F(4), False, True), window]
    for a, b in [(mu, mu), (mu, nu), (nu, mu), (make_measure([], window), nu)]:
        report = match_close(a, b, windows)
        save_match_report(report, path)
        assert path.read_text() == dumped(match_report_to_dict(report))


def test_window_openness_round_trip():
    for flags in [(False, False), (True, False), (False, True), (True, True)]:
        mu = make_measure([(0, 1)], Interval(F(-1), F(1), *flags))
        assert measure_from_dict(measure_to_dict(mu)) == mu



# atoms at both ends of [0, 1]: an open window would reject them
UNIT_ENDS = [{"pos": "0", "mass": "1"}, {"pos": "1", "mass": "1"}]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
@pytest.mark.parametrize("key", ["lo_open", "hi_open"])
def test_window_flags_must_be_json_booleans(key, value):
    window = {"lo": "0", "hi": "1", key: value}
    with pytest.raises(ValueError, match=f"^{key} must be true or false"):
        measure_from_dict({"window": window, "atoms": UNIT_ENDS})


def test_window_flags_default_to_closed():
    absent = measure_from_dict({"window": {"lo": "0", "hi": "1"}, "atoms": UNIT_ENDS})
    given = measure_from_dict({"window": {"lo": "0", "hi": "1", "lo_open": False,
                                          "hi_open": False}, "atoms": UNIT_ENDS})
    assert absent == given and absent.window == Interval.closed(0, 1) and len(absent) == 2


@pytest.mark.parametrize("value", ["false", 0, None])
def test_zero_outside_must_be_a_json_boolean(value):
    d = serialize.plf_to_dict(triangle_test_function())
    d["zero_outside"] = value
    with pytest.raises(ValueError, match="^zero_outside must be true or false"):
        serialize.plf_from_dict(d)
    del d["zero_outside"]
    assert serialize.plf_from_dict(d) == triangle_test_function()

def test_loading_canonicalizes():
    raw = {
        "window": {"lo": "-1", "hi": "1", "lo_open": False, "hi_open": False},
        "atoms": [{"pos": "1/2", "mass": "1/3"}, {"pos": "1/2", "mass": "1/3"},
                  {"pos": "0", "mass": "0"}],
    }
    mu = measure_from_dict(raw)
    assert [(a.position, a.mass) for a in mu.atoms] == [(F(1, 2), F(2, 3))]


def test_canonical_file_is_read_in_one_pass(tmp_path, monkeypatch):
    # a file as `save_measure` writes it never reaches `make_measure`, and
    # its atoms share one Fraction per distinct mass
    mu = build_stage(3)
    path = tmp_path / "m.json"
    save_measure(mu, path)

    def fail(*args, **kwargs):
        raise AssertionError("a canonical file took the general path")
    monkeypatch.setattr(serialize, "make_measure", fail)
    loaded = load_measure(path)
    assert loaded == mu
    assert len({id(a.mass) for a in loaded.atoms}) == len({a.mass for a in loaded.atoms})


# Entries the one-pass path hands to the general path (or refuses, like
# "1/0"), each read as `Fraction(str(x))` reads it or failing as it fails.
# 1_000 and 1e3 are 1000, on the window's upper end.
ODD_ENTRIES = ["2/4", "+3", " 3 ", "1_000", "1e3", "1.5", "3/1", "-0", 3, -2, "-6/4", "0",
               "1/0", "0/0", "x", "1 / 2", "-3/-4", "٣", None]
doc_values = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@st.composite
def measure_documents(draw):
    """A canonical measure file on [-1000, 1000], open or closed at each
    end, with up to three changes: an odd position, mass or spelling, two
    atoms swapped, a duplicate position, a zero mass, a cancelling
    duplicate, or an end atom on or past the window's end."""
    positions = sorted(draw(st.sets(doc_values, max_size=8)))
    pairs = [(p, draw(doc_values.filter(bool))) for p in positions]
    atoms = [{"pos": str(p), "mass": str(m)} for p, m in pairs]
    for _ in range(draw(st.integers(0, 3)) if atoms else 0):
        i = draw(st.integers(0, len(atoms) - 1))
        change = draw(st.sampled_from(["pos", "mass", "unreduced", "swap", "duplicate",
                                       "zero", "cancel", "end"]))
        if change in ("pos", "mass"):
            atoms[i][change] = draw(st.sampled_from(ODD_ENTRIES))
        elif change == "unreduced":
            p, k = pairs[i % len(pairs)][0], draw(st.integers(2, 3))
            atoms[i]["pos"] = f"{p.numerator * k}/{p.denominator * k}"
        elif change == "swap":
            j = draw(st.integers(0, len(atoms) - 1))
            atoms[i], atoms[j] = atoms[j], atoms[i]
        elif change == "duplicate":
            atoms.insert(i, dict(atoms[i]))
        elif change == "zero":
            atoms[i]["mass"] = "0"
        elif change == "cancel":
            p, m = pairs[i % len(pairs)]
            atoms.append({"pos": str(p), "mass": str(-m)})
        else:
            atoms[draw(st.sampled_from([0, -1]))]["pos"] = draw(st.sampled_from(
                ["-1000", "1000", "-1001", "1001"]))
    window = {"lo": "-1000", "hi": "1000",
              "lo_open": draw(st.booleans()), "hi_open": draw(st.booleans())}
    return {"window": window, "atoms": atoms}


@given(doc=measure_documents())
@settings(max_examples=300)
def test_loader_matches_the_literal_loader(tmp_path_factory, doc):
    # same measure, or the same exception type; a zero denominator is now a ValueError
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        want = literal_load_measure(path)
    except (ValueError, ZeroDivisionError, TypeError, KeyError) as exc:
        expected = ValueError if isinstance(exc, ZeroDivisionError) else type(exc)
        with pytest.raises(Exception) as info:
            load_measure(path)
        assert type(info.value) is expected
        return
    assert load_measure(path) == want


def test_stage_sidecar(tmp_path):
    path = tmp_path / "stage2.json"
    side = save_stage(2, path)
    assert side == provenance_sidecar_path(path)
    assert load_measure(path) == build_stage(2)
    payload = json.loads(side.read_text())
    assert payload["stage"] == 2
    assert len(payload["atoms"]) == 45
    by_pos = {entry["pos"]: entry for entry in payload["atoms"]}
    cluster_atom = by_pos[str(3 - F(1, 512))]
    assert cluster_atom["stages"] == [2]
    assert cluster_atom["shifts"] == ["3"]
    assert cluster_atom["offsets"] == ["-1/512"]


def test_sidecar_reconstructs_positions(tmp_path):
    sidecar = json.loads(save_stage(2, tmp_path / "stage2.json").read_text())
    for entry in sidecar["atoms"]:
        total = sum((F(s) for s in entry["shifts"]), F(0))
        total += sum((F(o) for o in entry["offsets"]), F(0))
        assert total == F(entry["pos"])


def _patch_groups(monkeypatch, change):
    """Make `save_stage` read `change(list of the stage's groups)` instead of its walk."""
    whole_stage = construction._whole_stage

    def changed(*args):
        query, groups = whole_stage(*args)
        return query, iter(change(list(groups)))

    monkeypatch.setattr(construction, "_whole_stage", changed)


def test_save_stage_checks_what_it_wrote(tmp_path, monkeypatch):
    # a stream that disagrees with the closed-form count n_s fails loudly
    _patch_groups(monkeypatch, lambda groups: groups[:-1])
    with pytest.raises(AssertionError, match="stage 2 streamed 41 atoms of mass 17/2"):
        save_stage(2, tmp_path / "stage2.json")


def test_save_stage_checks_each_group(tmp_path, monkeypatch):
    # a group that is not the 2k copies of one atom under its cell's last pass fails loudly,
    # naming its first atom: here the stage-2 group at atoms 4..7 split in two
    def split(groups):
        base, m, kept = groups[1]
        return [groups[0], (base, m, kept[:1]), (base, m, kept[1:]), *groups[2:]]

    _patch_groups(monkeypatch, split)
    with pytest.raises(AssertionError, match="stage 2: the group at atom 4 has 1 atoms, "
                                             "not the 4 copies of one atom"):
        save_stage(2, tmp_path / "stage2.json")


@pytest.mark.parametrize("load", [load_measure, load_plf])
def test_json_floats_are_refused_and_ints_load(load, tmp_path):
    # a JSON float would load through str(float), rounded; a JSON int is exact
    path = tmp_path / "f.json"
    text = ('{"window": {"lo": -1, "hi": "1"}, "atoms": [{"pos": 0, "mass": MASS}]}'
            if load is load_measure else '{"breakpoints": [-1, "0", 1], "values": [0, MASS, 0]}')
    path.write_text(text.replace("MASS", "1"))
    loaded = load(path)
    path.write_text(text.replace("MASS", '"1"'))
    assert loaded == load(path)
    for number in ("0.3333333333333333333", "1.0", "1e3"):
        path.write_text(text.replace("MASS", number))
        with pytest.raises(ValueError, match=f"^JSON number {number} is not exact"):
            load(path)


def test_plf_round_trip(tmp_path):
    for fn in (triangle_test_function(),
               PiecewiseLinearFn((0, F(1, 3), 1, F(5, 2)), (0, 2, F(-1, 4), 0))):
        path = tmp_path / "f.json"
        save_plf(fn, path)
        assert load_plf(path) == fn


def test_window_function_file_is_refused():
    # every test function is compactly supported; a file that says otherwise is a usage error
    d = {"breakpoints": ["0", "1"], "values": ["2", "4"], "zero_outside": False}
    with pytest.raises(ValueError, match="must be compactly supported"):
        serialize.plf_from_dict(d)
    d = {**d, "values": ["0", "0"], "zero_outside": True}
    assert serialize.plf_from_dict(d) == PiecewiseLinearFn((0, 1), (0, 0))


def test_save_stage_walks_the_stage_once(tmp_path, monkeypatch):
    # both files are written from one walk, so each position is rendered once
    walks = []
    whole_stage = construction._whole_stage

    def counted(*args):
        walks.append(args)
        return whole_stage(*args)

    monkeypatch.setattr(construction, "_whole_stage", counted)
    side = save_stage(3, tmp_path / "stage3.json")
    assert len(walks) == 1
    monkeypatch.undo()
    assert load_measure(tmp_path / "stage3.json") == build_stage(3)
    assert len(json.loads(side.read_text())["atoms"]) == projected_atom_count(3)
