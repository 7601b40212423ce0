import argparse
import contextlib
import io
import json
import time
from fractions import Fraction as F

import pytest

from apmeasure import (Interval, build_stage, combine, construction, make_measure, matching, measures,
                       piecewise, projected_atom_count, serialize)
from apmeasure.cli import build_parser, main, parse_window, parse_windows
from apmeasure.serialize import load_measure, provenance_sidecar_path, save_measure
from helpers import integer_comb, perturbed_comb, whole_walk_atoms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


AP3_FAR = ("ap", "3", "--epsilon", "1/10", "--range", "81")


@pytest.fixture(scope="module")
def ap3_table():
    """stdout of the uncapped `ap 3 --epsilon 1/10 --range 81` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(AP3_FAR)) == 0
    return buf.getvalue()


class TestParsing:
    def test_windows(self):
        assert parse_window("-1/2:1/2") == Interval.closed(F(-1, 2), F(1, 2))
        assert parse_window("(0:1)") == Interval.open(0, 1)
        assert parse_window("[0:1]") == Interval.closed(0, 1)
        assert parse_windows("-1:1;-2:2") == [Interval.closed(-1, 1), Interval.closed(-2, 2)]

    def test_half_open_windows(self):
        assert parse_window("[0:1)") == Interval(F(0), F(1), False, True)
        assert parse_window("(-1/2:1/2]") == Interval(F(-1, 2), F(1, 2), True, False)

    def test_each_command_takes_only_the_options_it_reads(self):
        # build prints no fraction, and conv and lump run no expansion or matching
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {name: {opt for action in sub._actions for opt in action.option_strings
                          if opt not in ("-h", "--help")}
                   for name, sub in commands.items()}
        assert options == {
            "build": {"--out", "--cap"},
            "verify": {"--measure", "--tail-max", "--decimal", "--cap"},
            "ap": {"--epsilon", "--range", "--fn", "--window", "--decimal", "--cap", "--out-report"},
            "conv": {"--measure", "--window", "--fn", "--csv", "--samples", "--decimal"},
            "match": {"--windows", "--decimal", "--cap", "--out-report"},
            "psi": {"--mu", "--nu", "--v", "--u", "--epsilon", "--compact", "--n", "--samples",
                    "--zero-identity", "--decimal", "--cap", "--out-report"},
            "lump": {"--mu", "--nu", "--v", "--u", "--decimal", "--out-report"},
        }


class TestBuild:
    def test_stage1(self, tmp_path, capsys):
        out_path = tmp_path / "s1.json"
        code, out, _ = run(capsys, "build", "1", "--out", str(out_path))
        assert code == 0
        assert "atoms=5 mass=3" in out
        assert load_measure(out_path) == build_stage(1)
        assert provenance_sidecar_path(out_path).exists()

    def test_stage0(self, tmp_path, capsys):
        code, out, _ = run(capsys, "build", "0", "--out", str(tmp_path / "s0.json"))
        assert code == 0 and "atoms=1 mass=1" in out

    def test_stage3(self, tmp_path, capsys):
        code, out, _ = run(capsys, "build", "3", "--out", str(tmp_path / "s3.json"))
        assert code == 0 and "atoms=585 mass=27" in out

    def test_cap_exceeded(self, tmp_path, capsys):
        out_path = tmp_path / "s4.json"
        code, _, err = run(capsys, "build", "4", "--cap", "100", "--out", str(out_path))
        assert code == 1 and "cap" in err
        assert list(tmp_path.iterdir()) == []  # refused before any file is opened

    def test_builds_no_stage(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build must not build a stage or make its atoms")

        # the kernel's grid pairs become `Atom`s only through `_Query.atoms`
        monkeypatch.setattr(construction, "build_stage", refuse)
        monkeypatch.setattr(construction._Query, "atoms", refuse)
        out_path = tmp_path / "s3.json"
        code, out, _ = run(capsys, "build", "3", "--out", str(out_path))
        assert code == 0 and out == "atoms=585 mass=27\n"
        monkeypatch.undo()
        assert load_measure(out_path) == build_stage(3)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_least_cap_is_the_walk(self, s, tmp_path, capsys):
        # each stage file is one unclipped walk of w_s atoms; one less is refused first
        code, _, err = run(capsys, "build", str(s), "--cap", str(whole_walk_atoms(s) - 1),
                           "--out", str(tmp_path / "s.json"))
        assert code == 1 and err.endswith(f"makes {whole_walk_atoms(s)} atoms, "
                                          f"cap is {whole_walk_atoms(s) - 1}\n")
        assert list(tmp_path.iterdir()) == []
        code, out, _ = run(capsys, "build", str(s), "--cap", str(whole_walk_atoms(s)),
                           "--out", str(tmp_path / "s.json"))
        assert code == 0 and out == f"atoms={projected_atom_count(s)} mass={3 ** s}\n"

    def test_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("APMEASURE_ATOM_CAP", "3")
        code, _, err = run(capsys, "build", "2", "--out", str(tmp_path / "s2.json"))
        assert code == 1 and "cap" in err

    def test_missing_out_dir_fails_before_building(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the stage expansion started")
        monkeypatch.setattr(serialize, "save_stage", no_build)
        monkeypatch.setattr(construction, "_whole_stage", no_build)
        out_path = tmp_path / "missing_dir" / "stage5.json"
        code, _, err = run(capsys, "build", "5", "--out", str(out_path))
        assert code == 2
        assert "No such file or directory" in err and str(out_path) in err


def _no_cells(monkeypatch):
    """Make the walk of a stage's cells fail as it starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell walk started")

    monkeypatch.setattr(construction, "_cell_block", refuse)


class TestVerify:
    def test_stage2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "2")
        assert code == 0
        for token in ("counting_law s=2: PASS", "total_mass s=2: PASS",
                      "stage_support s=2: PASS", "cell_mass s=2: PASS",
                      "min_gap s=2: PASS", "stage_stability s=2: PASS",
                      "mass_decay s=2: PASS", "tail_estimate n=2: PASS",
                      "tail_estimate n=12: PASS", "overall: PASS"):
            assert token in out

    def test_corrupted_measure_fails_with_witness(self, tmp_path, capsys):
        mu = build_stage(1)
        pairs = [(a.position, a.mass) for a in mu.atoms]
        pairs[0] = (pairs[0][0], F(3, 4))  # bump one mass in the cell at -1
        bad = make_measure(pairs, mu.window)
        path = tmp_path / "bad.json"
        save_measure(bad, path)
        code, out, _ = run(capsys, "verify", "1", "--measure", str(path))
        assert code == 1
        assert "cell_mass s=1: FAIL" in out
        assert "cell n=-1 mass=5/4" in out
        assert "overall: FAIL" in out

    def test_cap_covers_the_next_stage(self, capsys):
        # the decay walks the cells of stages 1..5, 363, the most any check of verify 4 makes
        code, _, err = run(capsys, "verify", "4", "--cap", "362")
        assert code == 1 and err == "error: walking stage 5 makes 363 cells, cap is 362\n"
        code, out, _ = run(capsys, "verify", "4", "--cap", "363")
        assert code == 0 and out.endswith("overall: PASS\n")

    def test_builds_no_stage(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s2.json"
        save_measure(build_stage(2), path)

        def refuse(*args, **kwargs):
            raise AssertionError("verify must not build a stage or make its atoms")

        # the kernel's grid pairs become `Atom`s only through `_Query.atoms`
        monkeypatch.setattr(construction, "build_stage", refuse)
        monkeypatch.setattr(construction._Query, "atoms", refuse)
        for argv in (("verify", "4"), ("verify", "2", "--measure", str(path))):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "overall: PASS" in out

    def test_cell_budget_covers_a_file(self, tmp_path, capsys):
        # a stage-1 file checked as stage 5 has 243 cells to scan
        path = tmp_path / "s1.json"
        save_measure(build_stage(1), path)
        code, _, err = run(capsys, "verify", "5", "--measure", str(path), "--cap", "100")
        assert code == 1 and "cap" in err
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "30", "--measure", str(path))
        assert code == 1 and "cap" in err
        assert time.perf_counter() - start < 1.0

    def test_file_far_below_its_stage_fails_quickly(self, tmp_path, capsys):
        # a stage-1 file checked as stage 14: 4.78M cells, all but the first three
        # bad ones walked without a `Fraction`
        path = tmp_path / "s1.json"
        save_measure(build_stage(1), path)
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "14", "--measure", str(path), "--tail-max", "2")
        assert code == 1
        assert "cell_mass s=14: FAIL cell n=-2391484 mass=0; cell n=-2391483 mass=0; " \
            "cell n=-2391482 mass=0" in out
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("argv", [("build", "1500", "--out", "unused.json"),
                                      ("verify", "100000")], ids=["build", "verify"])
    def test_huge_stage_trips_the_cap_quickly(self, capsys, argv):
        # the closed-form walk total stops at the first stage past the cap: w_7 for
        # build's walk, and c_15 for the cells of verify's decay, which runs first
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == {"build": "error: walking stage 1500 makes at least 163327536 atoms, "
                                "cap is 10000000\n",
                       "verify": "error: walking stage 100001 makes at least 21523359 "
                                 "cells, cap is 10000000\n"}[argv[0]]
        assert time.perf_counter() - start < 1.0

    def test_next_stage_cap_refuses_before_the_scan(self, capsys, monkeypatch):
        # the decay's cells of stages 1..7, c_7 = 3279, are the largest total verify 6
        # checks (the scan's cells of stages 1..6 are 1092): one below it, no cell is
        # made and no line prints
        _no_cells(monkeypatch)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "6", "--cap", "3278")
        assert code == 1 and out == ""
        assert err == "error: walking stage 7 makes 3279 cells, cap is 3278\n"
        assert time.perf_counter() - start < 1.0

    def test_first_stage_past_the_default_cap_refuses_at_once(self, capsys, monkeypatch):
        # verify 13 passes at the default cap; the cells of stages 1..15 that verify 14's
        # decay would walk are 21,523,359
        _no_cells(monkeypatch)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "14")
        assert code == 1 and out == ""
        assert err == "error: walking stage 15 makes 21523359 cells, cap is 10000000\n"
        assert time.perf_counter() - start < 1.0

    def test_next_stage_cap_message(self, capsys):
        # a total that passes the cap only at the stage asked for is printed whole:
        # the decay's cells of stages 1..2 are 12
        code, out, err = run(capsys, "verify", "1", "--cap", "11")
        assert code == 1 and out == ""
        assert err == "error: walking stage 2 makes 12 cells, cap is 11\n"

    def test_decimal_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "--tail-max", "2", "--decimal", "4")
        assert code == 0
        assert "approx" in out

    @pytest.mark.parametrize("digits", ["-1", "x"])
    def test_bad_decimal_is_a_usage_error(self, capsys, digits):
        code, out, err = run(capsys, "verify", "1", "--tail-max", "2", "--decimal", digits)
        assert code == 2 and out == ""
        assert "error: argument --decimal: digit count must be an int >= 0" in err

    @pytest.mark.parametrize("n", ["1", "0", "-5", "x"])
    def test_tail_max_below_two_is_a_usage_error(self, capsys, n):
        # tail estimates start at n = 2, so a smaller --tail-max would check none
        code, out, err = run(capsys, "verify", "1", "--tail-max", n)
        assert code == 2 and out == ""
        assert "error: argument --tail-max: tail index must be an int >= 2" in err

    def test_tail_max_two_checks_one_estimate(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "--tail-max", "2")
        tails = [l for l in out.splitlines() if l.startswith("tail_estimate")]
        assert code == 0 and len(tails) == 1
        assert tails[0].startswith("tail_estimate n=2: PASS")


class TestAp:
    def test_scale_one_pass(self, capsys):
        code, out, _ = run(capsys, "ap", "1", "--epsilon", "1", "--range", "3")
        assert code == 0
        assert "tau=0 defect=0" in out
        assert "ap_certificate: PASS" in out

    def test_negative_range_is_rejected(self, capsys):
        code, out, err = run(capsys, "ap", "1", "--epsilon", "1/10", "--range", "-3")
        assert code == 2 and out == ""
        assert err == "error: shift range must be >= 0, got -3\n"

    def test_zero_epsilon_fails(self, capsys):
        code, out, _ = run(capsys, "ap", "1", "--epsilon", "0", "--range", "3")
        assert code == 1
        assert "ap_certificate: FAIL" in out

    def test_scale_two(self, capsys):
        code, out, _ = run(capsys, "ap", "2", "--epsilon", "1/10", "--range", "27")
        assert code == 0
        assert "ap_certificate: PASS" in out
        max_line = next(l for l in out.splitlines() if l.startswith("max_defect="))
        assert F(max_line.split("=")[1].split()[0]) <= F(3, 512)

    @pytest.mark.parametrize("window", ["1", "1:2:3", "(1)"])
    def test_malformed_window_is_named(self, capsys, window):
        code, out, err = run(capsys, "ap", "1", "--epsilon", "1", "--range", "3", "--window", window)
        assert code == 2 and out == ""
        assert err == f"error: window {window!r} is not LO:HI\n"

    def test_far_table_within_small_cap(self, capsys, ap3_table):
        code, out, _ = run(capsys, *AP3_FAR, "--cap", "10000")
        assert code == 0 and out == ap3_table

    def test_far_table_builds_no_stage(self, capsys, ap3_table, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ap must not walk a whole stage")

        monkeypatch.setattr(construction, "_whole_stage", refuse)
        code, out, _ = run(capsys, *AP3_FAR)
        assert code == 0 and out == ap3_table

    def test_report_written(self, tmp_path, capsys):
        report = tmp_path / "ap.json"
        code, _, _ = run(capsys, "ap", "1", "--epsilon", "1", "--range", "3",
                         "--out-report", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["density_gap"] == "3"
        assert payload["all_within"] is True


class TestConv:
    def test_print_and_csv(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        save_measure(build_stage(1), mpath)
        code, out, _ = run(capsys, "conv", "--measure", str(mpath),
                           "--window", "-1:1")
        assert code == 0
        assert "x=0 value=1" in out
        csv_path = tmp_path / "g.csv"
        code, out, _ = run(capsys, "conv", "--measure", str(mpath),
                           "--window", "-1:1", "--csv", str(csv_path), "--samples", "8")
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,value"
        assert any(line.startswith("0,") for line in lines)

    def test_half_open_window(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        save_measure(build_stage(1), mpath)
        code, out, _ = run(capsys, "conv", "--measure", str(mpath), "--window", "[0:1)")
        assert code == 0
        assert "x=0 value=1" in out

    def test_faithfulness_error_is_usage(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        save_measure(build_stage(1), mpath)
        code, _, err = run(capsys, "conv", "--measure", str(mpath), "--window", "-10:10")
        assert code == 2 and "window" in err
        # refused before the first row: no stdout and no CSV file
        csv_path = tmp_path / "g.csv"
        code, out, err = run(capsys, "conv", "--measure", str(mpath), "--window", "-10:10",
                             "--csv", str(csv_path))
        assert code == 2 and out == "" and "window" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("count", ["-3", "-1", "x"])
    def test_bad_sample_count_is_a_usage_error(self, tmp_path, capsys, count):
        mpath = tmp_path / "m.json"
        save_measure(build_stage(1), mpath)
        code, out, err = run(capsys, "conv", "--measure", str(mpath), "--window", "-1:1",
                             "--samples", count)
        assert code == 2 and out == ""
        assert "error: argument --samples: sample count must be an int >= 0" in err

    def test_zero_samples_adds_no_rows(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        save_measure(build_stage(1), mpath)
        _, plain, _ = run(capsys, "conv", "--measure", str(mpath), "--window", "-1:1")
        code, out, _ = run(capsys, "conv", "--measure", str(mpath), "--window", "-1:1",
                           "--samples", "0")
        assert code == 0 and out == plain


class TestMatch:
    def test_doubled_stage(self, tmp_path, capsys):
        mu = build_stage(2)
        nu = combine(2, mu, 0, mu)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(mu, mpath)
        save_measure(nu, npath)
        code, out, _ = run(capsys, "match", str(mpath), str(npath),
                           "--windows", "-4/3:4/3;-13/3:13/3")
        assert code == 0
        assert "pairs=45" in out
        assert "max_pos_gap=0" in out
        assert "monotone profile on the given windows: yes" in out
        assert "coincide: no" in out
        assert "measures differ: yes" in out

    def test_identical_files(self, tmp_path, capsys):
        mu = build_stage(1)
        path = tmp_path / "m.json"
        save_measure(mu, path)
        code, out, _ = run(capsys, "match", str(path), str(path), "--windows", "-4/3:4/3")
        assert code == 0
        assert "coincide: yes" in out

    def test_malformed_window_is_named(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_measure(build_stage(1), path)
        code, out, err = run(capsys, "match", str(path), str(path), "--windows", "-4/3:4/3;2")
        assert code == 2 and out == ""
        assert err == "error: window '2' is not LO:HI\n"

    def test_partial_match_cap(self, tmp_path, capsys):
        # 10_000 atoms into 10_001 fill a band of 2 * 10_000 DP cells
        full = integer_comb(0, 10_000)
        dropped = make_measure([(a.position, a.mass) for a in full.atoms if a.position != 777],
                               full.window)
        mpath, npath = tmp_path / "full.json", tmp_path / "dropped.json"
        save_measure(full, mpath)
        save_measure(dropped, npath)
        argv = ("match", str(mpath), str(npath), "--windows", "-1/2:20001/2")
        code, out, _ = run(capsys, *argv, "--cap", "20000")
        assert code == 0 and "pairs=10000 unmatched_left=1 unmatched_right=0" in out
        code, _, err = run(capsys, *argv, "--cap", "19999")
        assert code == 1 and "cap" in err

    def test_psi_checks_the_hypothesis_outside_the_windows(self, tmp_path, capsys):
        # the heavy atom at 8 lies outside the compact; the harness matches
        # on [compact, common window] and sees it
        mu = make_measure([(k, 1) for k in range(-9, 10)], Interval.closed(-10, 10))
        nu = make_measure([(k, 5 if k == 8 else 1) for k in range(-9, 10)], mu.window)
        mpath, npath = tmp_path / "a.json", tmp_path / "b.json"
        save_measure(mu, mpath)
        save_measure(nu, npath)
        fail = ("matching_hypothesis: FAIL pair (8, 8) escapes the compact "
                "with position gap 0 and mass gap -4\n")
        code, out, _ = run(capsys, "psi", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/1000", "--u", "1/10", "--epsilon", "1/5",
                           "--compact", "-2:2", "--samples", "5")
        assert code == 1 and fail in out and "harness: FAIL" in out

    @pytest.mark.parametrize("extra", [["--psi"], ["--v", "1/32"]])
    def test_harness_options_are_usage_errors(self, extra, capsys, monkeypatch):
        # the harness runs only as `psi`
        _no_work(monkeypatch)
        code, out, err = run(capsys, "match", "a.json", "b.json", "--windows", "-1:1", *extra)
        assert code == 2 and out == ""
        assert "usage:" in err and f"unrecognized arguments: {' '.join(extra)}" in err


class TestPsi:
    def _write_combs(self, tmp_path):
        mu = integer_comb(-30, 30)
        nu = perturbed_comb(-30, 30)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(mu, mpath)
        save_measure(nu, npath)
        return mpath, npath

    def test_far_field_pass(self, tmp_path, capsys):
        mpath, npath = self._write_combs(tmp_path)
        code, out, _ = run(capsys, "psi", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/32", "--u", "1/2", "--epsilon", "1/8",
                           "--compact", "-10:10", "--samples", "12,20")
        assert code == 0
        assert "far_field b=12: PASS" in out
        assert "harness: PASS" in out

    def test_zero_identity_flag(self, tmp_path, capsys):
        mu = integer_comb(-5, 5, pad=1)
        extra = make_measure([(a.position, a.mass) for a in mu.atoms] + [(0, 1)], mu.window)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(extra, mpath)
        save_measure(mu, npath)
        code, out, _ = run(capsys, "psi", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/16", "--u", "1/2", "--epsilon", "1/8",
                           "--compact", "-1:1", "--n", "2", "--zero-identity")
        assert code == 0
        assert "origin_identity: PASS" in out
        assert "value=1" in out

    def test_builds_the_difference_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_combine(*args):
            calls.append(args)
            return combine(*args)

        monkeypatch.setattr(measures, "combine", counting_combine)
        monkeypatch.setattr(matching, "combine", counting_combine)
        mu = integer_comb(-30, 30)
        extra = make_measure([(a.position, a.mass) for a in mu.atoms] + [(0, 1)], mu.window)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(extra, mpath)
        save_measure(mu, npath)
        code, out, _ = run(capsys, "psi", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/16", "--u", "1/2", "--epsilon", "1/8",
                           "--compact", "-1:1", "--n", "2", "--samples", "3,20",
                           "--zero-identity")
        assert code == 0
        assert "origin_identity: PASS" in out and "far_field b=20: PASS" in out
        assert len(calls) == 1

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        mpath, npath = self._write_combs(tmp_path)
        code, _, err = run(capsys, "psi", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/16", "--u", "1/2", "--epsilon", "1/8",
                           "--compact", "-10:10", "--n", "3", "--samples", "12")
        assert code == 2
        assert "separation radius" in err


class TestLump:
    def test_basic(self, tmp_path, capsys):
        mu = build_stage(2)
        empty = make_measure([], mu.window)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(mu, mpath)
        save_measure(empty, npath)
        code, out, _ = run(capsys, "lump", "--mu", str(mpath), "--nu", str(npath),
                           "--v", "1/100")
        assert code == 0
        assert "lumps=15" in out
        assert "all_pairwise_close: yes" in out


class TestExitCodes:
    def test_bad_fraction_is_usage(self, capsys):
        code, _, err = run(capsys, "ap", "1", "--epsilon", "nonsense", "--range", "3")
        assert code == 2

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_usage(self, capsys, tmp_path):
        code, _, err = run(capsys, "match", str(tmp_path / "none.json"),
                           str(tmp_path / "none.json"), "--windows", "-1:1")
        assert code == 2

    def test_string_flag_in_a_file_is_usage(self, capsys, tmp_path):
        # "false" is a string, not a JSON boolean: it must not load an open window
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "window": {"lo": "0", "hi": "1", "lo_open": "false", "hi_open": "false"},
            "atoms": [{"pos": "0", "mass": "1"}, {"pos": "1", "mass": "1"}]}))
        code, out, err = run(capsys, "conv", "--measure", str(path), "--window", "1/3:2/3")
        assert code == 2 and out == ""
        assert "lo_open must be true or false, got 'false'" in err

    @pytest.mark.parametrize("case", ["epsilon", "window", "v", "pos", "mass", "array"])
    def test_zero_denominator_or_array_file_is_usage(self, case, capsys, tmp_path):
        # exit 1 means a failed check or a tripped guard, never a parse error
        good = {"window": {"lo": "-1", "hi": "1"}, "atoms": [{"pos": "0", "mass": "1"}]}
        doc = {"pos": {**good, "atoms": [{"pos": "1/0", "mass": "1"}]},
               "mass": {**good, "atoms": [{"pos": "0", "mass": "1/0"}]},
               "array": [good]}.get(case, good)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        argv = {"epsilon": ["ap", "2", "--epsilon", "1/0", "--range", "9"],
                "window": ["ap", "2", "--epsilon", "1/10", "--range", "9", "--window", "0:1/0"],
                "v": ["lump", "--mu", str(path), "--nu", str(path), "--v", "1/0"],
                }.get(case, ["lump", "--mu", str(path), "--nu", str(path), "--v", "1/4"])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("list" if case == "array" else "'1/0'") in err

    @pytest.mark.parametrize("case", ["window", "atoms", "atom", "breakpoints", "fn-list"])
    def test_wrong_json_type_in_a_file_is_usage(self, case, capsys, tmp_path):
        good = {"window": {"lo": "-1", "hi": "1"}, "atoms": [{"pos": "0", "mass": "1"}]}
        doc = {"window": {**good, "window": [0, 1]},
               "atoms": {**good, "atoms": 5},
               "atom": {**good, "atoms": [["0", "1"]]},
               "breakpoints": {"breakpoints": 5, "values": ["0"]},
               "fn-list": [{"breakpoints": ["-1", "0", "1"], "values": ["0", "1", "0"]}],
               }[case]
        path, measure = tmp_path / "f.json", tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        measure.write_text(json.dumps(good))
        argv = (["verify", "1", "--measure", str(path)] if case in ("window", "atoms", "atom")
                else ["conv", "--fn", str(path), "--measure", str(measure), "--window", "-1:1"])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", ["measure", "test-function"])
    def test_json_float_in_a_file_is_usage(self, case, capsys, tmp_path):
        # a JSON float is no exact rational: it is refused, never rounded to 3333333333333333/10^16
        third = "0.3333333333333333333"
        path, measure = tmp_path / "f.json", tmp_path / "m.json"
        measure.write_text('{"window": {"lo": "-1", "hi": "1"}, "atoms": [{"pos": 0, "mass": 1}]}')
        if case == "measure":
            path.write_text(measure.read_text().replace('"mass": 1', f'"mass": {third}'))
            argv = ["verify", "0", "--measure", str(path)]
        else:
            path.write_text(f'{{"breakpoints": ["-1", "0", "1"], "values": [0, {third}, 0]}}')
            argv = ["conv", "--fn", str(path), "--measure", str(measure), "--window", "-1:1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: JSON number {third} is not exact: write it as a fraction string\n"

    @pytest.mark.parametrize("command", ["conv", "ap"])
    def test_window_function_file_is_usage(self, command, tmp_path, capsys):
        # every test function is compactly supported; a file saying otherwise is refused
        fn, mpath = tmp_path / "f.json", tmp_path / "m.json"
        fn.write_text(json.dumps({"breakpoints": ["0", "1"], "values": ["0", "0"],
                                  "zero_outside": False}))
        save_measure(build_stage(1), mpath)
        argv = (["conv", "--fn", str(fn), "--measure", str(mpath), "--window", "-1/2:1/2"]
                if command == "conv" else
                ["ap", "1", "--fn", str(fn), "--epsilon", "1", "--range", "3"])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "compactly supported" in err

    def test_out_report_only_where_a_report_is_written(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", "1", "--out-report", str(report))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --out-report" in err and "usage:" in err
        assert not report.exists()
        offered = set()
        for command in ("build", "verify", "ap", "conv", "match", "psi", "lump"):
            code, out, _ = run(capsys, command, "-h")
            assert code == 0
            if "--out-report" in out:
                offered.add(command)
        assert offered == {"ap", "match", "psi", "lump"}

    @pytest.mark.parametrize("command", ["ap", "psi", "lump"])
    def test_report_built_only_when_asked(self, command, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a report nobody asked for was built")
        for name in ("ap_certificate_to_dict", "far_field_report_to_dict",
                     "lump_decomposition_to_dict"):
            monkeypatch.setattr(serialize, name, refuse)
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(integer_comb(-30, 30), mpath)
        save_measure(perturbed_comb(-30, 30), npath)
        argv = {
            "ap": ["ap", "1", "--epsilon", "1", "--range", "3"],
            "psi": ["psi", "--mu", str(mpath), "--nu", str(npath), "--v", "1/32", "--u", "1/2",
                    "--epsilon", "1/8", "--compact", "-10:10", "--samples", "12,20"],
            "lump": ["lump", "--mu", str(mpath), "--nu", str(npath), "--v", "1/4"],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


def _no_work(monkeypatch):
    """Make the library calls that start the work of the commands below fail."""
    def fail(*args, **kwargs):
        raise AssertionError("the command started its work")
    for module, name in ((serialize, "load_measure"), (serialize, "save_stage"),
                         (construction, "_whole_stage"),
                         (piecewise, "almost_period_certificate"), (piecewise, "convolution_rows"),
                         (matching, "match_close"), (matching, "lump_decompose")):
        monkeypatch.setattr(module, name, fail)


class TestRefusedBeforeWork:
    @pytest.fixture
    def files(self, tmp_path):
        mpath, npath = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(integer_comb(-3, 3), mpath)
        save_measure(perturbed_comb(-3, 3), npath)
        return str(mpath), str(npath)

    @pytest.mark.parametrize("command", ["ap", "conv", "match", "psi", "lump"])
    def test_missing_output_dir(self, command, files, tmp_path, capsys, monkeypatch):
        mpath, npath = files
        missing = str(tmp_path / "missing_dir" / "out")
        argv = {
            "ap": ["ap", "2", "--epsilon", "1/10", "--range", "9", "--out-report", missing],
            "conv": ["conv", "--measure", mpath, "--window", "-1:1", "--csv", missing],
            "match": ["match", mpath, npath, "--windows", "-1:1", "--out-report", missing],
            "psi": ["psi", "--mu", mpath, "--nu", npath, "--v", "1/16", "--u", "1/2",
                    "--epsilon", "1/8", "--compact", "-1:1", "--out-report", missing],
            "lump": ["lump", "--mu", mpath, "--nu", npath, "--v", "1/4", "--out-report", missing],
        }[command]
        _no_work(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "No such file or directory" in err and missing in err

    @pytest.mark.parametrize("cap", ["0", "-3", "x", None])
    @pytest.mark.parametrize("command", ["match", "build"])
    def test_invalid_cap(self, command, cap, files, tmp_path, capsys, monkeypatch):
        mpath, npath = files
        argv = (["match", mpath, npath, "--windows", "-1:1"] if command == "match"
                else ["build", "2", "--out", str(tmp_path / "s2.json")])
        if cap is None:
            monkeypatch.setenv("APMEASURE_ATOM_CAP", "0")
        else:
            argv += ["--cap", cap]
        _no_work(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"atom cap must be an int >= 1, got '{cap or 0}'" in err

    @pytest.mark.parametrize("command", ["build", "conv", "lump"])
    def test_option_a_command_never_reads(self, command, files, tmp_path, capsys, monkeypatch):
        mpath, npath = files
        argv, option = {
            "build": (["build", "2", "--out", str(tmp_path / "s2.json")], "--decimal"),
            "conv": (["conv", "--measure", mpath, "--window", "-1:1"], "--cap"),
            "lump": (["lump", "--mu", mpath, "--nu", npath, "--v", "1/4"], "--cap"),
        }[command]
        _no_work(monkeypatch)
        code, out, err = run(capsys, *argv, option, "5")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {option} 5" in err

    def test_valid_cap_overrides_an_invalid_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("APMEASURE_ATOM_CAP", "x")
        code, out, _ = run(capsys, "build", "1", "--cap", "5", "--out", str(tmp_path / "s1.json"))
        assert code == 0 and "atoms=5" in out
