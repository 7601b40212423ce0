"""Golden SHA-256 digests of the CLI outputs that certify the construction.

Any rewrite of the builder, the windowed expansion, the convolution, the
matching or the serializer must leave these bytes unchanged; a mismatch
names the stage and the file.
"""

import contextlib
import hashlib
import io
from fractions import Fraction as F

import pytest

from apmeasure import DiscreteMeasure, Interval, build_stage, make_measure, restrict, stage_window
from apmeasure.cli import main
from apmeasure.serialize import save_measure
from helpers import integer_comb, perturbed_comb, widened

STAGE_FILES = {
    0: ("e8f6512a6614b52dd5531333f44e47b2c609e131d83d8ae57fe881145ee76b25",
        "b08ae61fa82d71dc56087bbe1c5f50d4ff19954159193c91cb238f2882abb39e"),
    1: ("ee6ceb7266fc181b44a5c3480ae8ada5e59cb0d9357fb5fed6ff5c4d86e97e50",
        "56b8ad8cdc7f7e3533be9f2e17da68719b719a53de9469f170e098a9889b7015"),
    2: ("579cdf8a6246adf221dc8b2f2c0d93aa553d169811222b195b989fddcecc4a12",
        "9133ad72ddd750c96467d3888463ff738aed041f30d1f6ce479648c0af846a1e"),
    3: ("5170a6092aed16a2e34f0832be7bdb2e1230c6dd8ef49ef36a1d74aa833cdc93",
        "fd308bffe46bc801d9833e0053fa962aafc16e98d11b7e7c9cd087c82212b932"),
    4: ("3f41cd4ba389a6003eda0c6d094f34c031a439f476bceea03a8ed6bf744f7c01",
        "e9c772e36b4d13c87f33ac4f0692c3ead0b3369e0b97711a56cdaacc1209ca4f"),
    5: ("3f03f7114810c789c43581ed7e56175f2e9888f2f5e6681a99c2f76d9851408d",
        "4ce0c44c84ac05178a06edf8938e6ea0d3adab40387fa39fdb3b2d8eb6a71633"),
}

STDOUT = {
    ("ap", "2", "--epsilon", "1/10", "--range", "81"):
        "a66e6a93792cdd939e2c9b6a6526f4892df7b2df6ca8b82237ab4613820c07f1",
    ("ap", "3", "--epsilon", "1/10", "--range", "81"):
        "74cc803bdb1dae15b456c819e09898bf3ecd9dbe9d8afc252672ceabd0a4e01a",
    ("verify", "4"):
        "d58056596fd3d8dc127d1aa2c5f5dedaa58bad2d7e5474401d7826161ef4a3cd",
    ("verify", "5"):
        "e6f12c3df1769db641f438b9917e5236f72e77e015e108c7f256e9dafa396621",
    # each at the default cap: the least cap that passes is the decay's cell total
    # c_{s+1} = (3^(s+2) - 3)/2, 3279 for verify 6
    ("verify", "6", "--tail-max", "2"):
        "a4cc91e413bc0b3c79e4baa604611bc204991ebdc251d4d03e48f9929144087b",
    ("verify", "7", "--tail-max", "2"):
        "ffcd7f2d07f457f8a037d3ed96591e7b4c4e73744dbfa72073fe1cde497b4eb1",
    # the stdout of the earlier stage scan, an atom-by-atom group walk that took about
    # 430 s at --cap 5335186608 (2-CPU host, CPython 3.11); the cell scan prints the same bytes
    ("verify", "8", "--tail-max", "2"):
        "1f51b80de57ba9ad77e79d81b497f00c051de8352e3546322dfa4ec7fcc3bb17",
    ("verify", "9", "--tail-max", "2"):
        "e1b781591ef9ff0d7755c26f6651d8bd6a7a6df35717fdc2ec6351625daa9270",
    ("verify", "10", "--tail-max", "2"):
        "15c6f6e732bba84e1e2813a220de721e34a3fc944ff2c692166bc25040bf78c9",
    ("verify", "11", "--tail-max", "2"):
        "2862e1e7f2e53dd52eb4fbc4640d3346f4d891c52fce00a58ad35e4127ed5230",
}

# `verify 12` and `verify 13`: about 3 s and 9 s, so they run only when asked for
# (`python -m pytest -m slow`)
SLOW_STDOUT = {
    ("verify", "12", "--tail-max", "2"):
        "2b34ce2c5344a0bdd6ffc6a4f174e4468c06dcce75a2daf9fbe5e07940f4ffff",
    ("verify", "13", "--tail-max", "2"):
        "b6f9ef41d1f013071440a307f51caa3161152974a3c5ab3f9f7f0cfb277b1349",
}

# `verify --measure` on a stage file: the stage-4 file, all PASS, and a
# stage-3 file with one mass doubled, one atom moved onto a half-integer and
# one atom moved past the window end, which fails with an offender, bad
# cells, strays and a `min_gap` line
VERIFY_MEASURE = {
    "stage4.json": "b2e0e86a114775033b94898a15c4c685d64449ffb3b27f373aa145594dd2f0d2",
    "corrupt3.json": "41d5c47fdd80d7b0b98a796196af672f8b662687892dbcc870559166300e973f",
}

# `ap 2 --epsilon 1/10 --range 81 --out-report`: every shift's exact defect and witness
AP2_REPORT = "62c11e4cdd6e6b80ff221e5bbe6d9fb72adad87eefa1eb4cb03ee324a95a146e"

# `conv` of the built-in triangle against the stage-4 measure file on [-40, 40]
CONV_STAGE4 = "f25ee6d23d6cb22910ce24febd8eabcb2fb977830785413a61ff981ad882777c"

# the same with uniform sample points merged into the rows: the stdout of
# `--samples 37 --decimal 5`, and the CSV file of `--samples 11 --csv`
CONV_SAMPLES = {
    ("--samples", "37", "--decimal", "5"):
        "a95b4bf2ff9d9292edab2aa336c7e13d6d676bdf2f760f7c47581d328148b62c",
    ("--samples", "11", "--csv"):
        "5c8180181c531eba2481343609b71c5ae8858733d13097a2aacc4a69efafd5e0",
}

# `psi` of the stage-4 atoms on [-40, 40] against the same atoms with their
# masses doubled: the origin identity and three far-field samples, each a
# sweep over the signed difference mu - nu
PSI_STAGE4 = "d973b9d3cbf662f53234996b2979cedd09376de260a71ab22975fa8d79fdd99b"
PSI_ARGS = ("--v", "1/33554432", "--u", "1/1048576", "--epsilon", "1/5",
            "--compact", "-13/3:13/3", "--samples", "9,-9,11", "--zero-identity")

# `lump --v 1/1024 --out-report` of the same two files: stdout and report.
# Every lump holds both copies of its positions, and some neighbouring
# atoms are exactly 1/1024 apart, so they must split.
LUMP_STAGE4 = ("28e413ba04ee3c5ce88244074ece64b20a19ccfad9931c0ed83e57c9705e3d50",
               "30b2f73e2f4b0e82aff2d5b7627d9a7ed5d339f63ace6ef70c8e4fb268a4ce89")

# `match --out-report` of the same two files on the nested windows
# [-4/3, 4/3], [-13/3, 13/3], [-40, 40]: stdout and report.  Every one of the
# 9,561 pairs has a zero position gap and a nonzero mass gap.
MATCH_STAGE4 = ("3c3743f28a13379b357184854a7e5dd725d3db49f4374314404425d13ef34ed9",
                "8e26700b551a8682deafceb8931622c4b06d9a89df45030308d708d6e2b5cf3e")

# `psi`, and `match` followed by `psi`, of the integer comb on [-30, 30]
# against the perturbed comb with one atom changed, each failing its matching
# hypothesis: with the atom near 28 given mass 5/4 on a named pair (and
# |product| = 1/64 at 28), with the atom near -20 removed on an unmatched
# atom.  Each pins the joined stdout and `psi`'s far-field report; the harness
# matches on the compact and the common window, which is also `match`'s
# outermost window here.
HARNESS_ARGS = ("--v", "1/32", "--u", "1/2", "--epsilon", "1/8", "--compact", "-10:10",
                "--samples", "12,28,-25")
HARNESS = {
    ("psi", "heavy.json"):
        ("e80ea4422d791c7221ca6042dc5befdcb4a35c3bf0eeb28229eb5124cead2409",
         "e20d0dc43d3ea28e484b9c58fea7d12c1910a2fccaa4f69b4787877c1ba75f15"),
    ("psi", "holed.json"):
        ("8be9f0c23ce995e0b40a826525cbc325ce9e0e2b4f3cc197d67fba129e15204e",
         "708fc02adb0bcbb811200e3e2280ee87f67e111bdba5aaf476e08a243f8aa5cc"),
    ("match", "heavy.json"):
        ("ed4da78e08463b487768041ce992ff5333440e8de9f0acd122d2f932886b781d",
         "e20d0dc43d3ea28e484b9c58fea7d12c1910a2fccaa4f69b4787877c1ba75f15"),
    ("match", "holed.json"):
        ("d11478ccb8f686481672e4ad87909b2501d433c049a38b94b0e4c7cb48f77afa",
         "708fc02adb0bcbb811200e3e2280ee87f67e111bdba5aaf476e08a243f8aa5cc"),
}

# `match --out-report` of the 960 stage-4 atoms on [63/2, 69/2] against the
# same atoms with atom 479 dropped, in both orders (the partial matching DP)
MATCH_REPORTS = {
    ("far.json", "far_drop.json"):
        "3174ef5e58186ab707b503f239bbdbf67303ded9664e92332d2e9416d1db0b00",
    ("far_drop.json", "far.json"):
        "d61f6db6027f17e5e4a78b2d4c2aa57b302bba02a2efbcd87a81ee201d6f9d31",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("s", sorted(STAGE_FILES))
def test_stage_files(s, tmp_path, capsys):
    out = tmp_path / f"stage{s}.json"
    assert main(["build", str(s), "--out", str(out)]) == 0
    capsys.readouterr()
    for path, want in zip((out, tmp_path / f"stage{s}.provenance.json"), STAGE_FILES[s]):
        got = sha256(path.read_bytes())
        assert got == want, f"stage {s}: {path.name} digest {got}, expected {want}"


@pytest.mark.parametrize("argv", [*sorted(STDOUT), *(pytest.param(argv, marks=pytest.mark.slow)
                                                      for argv in SLOW_STDOUT)],
                         ids=lambda argv: "".join(argv[:2]))
def test_stdout(argv):
    want = STDOUT.get(argv) or SLOW_STDOUT[argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    got = sha256(buf.getvalue().encode())
    assert got == want, f"`apmeasure {' '.join(argv)}` stdout digest {got}, expected {want}"


def test_ap_report(tmp_path, capsys):
    report = tmp_path / "ap2.json"
    assert main(["ap", "2", "--epsilon", "1/10", "--range", "81", "--out-report", str(report)]) == 0
    capsys.readouterr()
    got = sha256(report.read_bytes())
    assert got == AP2_REPORT, f"`apmeasure ap 2 --out-report`: report digest {got}"


@pytest.mark.parametrize("files", sorted(MATCH_REPORTS), ids=lambda files: files[0])
def test_partial_match_report(files, tmp_path, capsys):
    J = Interval.closed(F(63, 2), F(69, 2))
    far = restrict(build_stage(4), J)
    assert len(far) == 960
    save_measure(far, tmp_path / "far.json")
    save_measure(DiscreteMeasure(far.atoms[:479] + far.atoms[480:], J), tmp_path / "far_drop.json")
    report = tmp_path / "report.json"
    assert main(["match", *(str(tmp_path / f) for f in files), "--windows", "32:33;63/2:69/2",
                 "--out-report", str(report)]) == 0
    capsys.readouterr()
    got = sha256(report.read_bytes())
    assert got == MATCH_REPORTS[files], f"match {' '.join(files)}: report digest {got}"


def test_conv_stdout(tmp_path):
    path = tmp_path / "stage4.json"
    save_measure(build_stage(4), path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["conv", "--measure", str(path), "--window", "-40:40"]) == 0
    got = sha256(buf.getvalue().encode())
    assert got == CONV_STAGE4, f"`apmeasure conv` on stage 4, -40:40: stdout digest {got}"


@pytest.mark.parametrize("flags", sorted(CONV_SAMPLES), ids=lambda flags: "-".join(f.lstrip("-") for f in flags))
def test_conv_samples(flags, tmp_path):
    path, csv = tmp_path / "stage4.json", tmp_path / "g.csv"
    save_measure(build_stage(4), path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["conv", "--measure", str(path), "--window", "-40:40", *flags,
                     *([str(csv)] if "--csv" in flags else [])]) == 0
    if "--csv" in flags:
        assert buf.getvalue() == f"wrote 28695 rows to {csv}\n"
        got = sha256(csv.read_bytes())
    else:
        got = sha256(buf.getvalue().encode())
    assert got == CONV_SAMPLES[flags], f"`apmeasure conv {' '.join(flags)}` on stage 4: digest {got}"


def stage4_files(tmp_path) -> None:
    """mu.json: the stage-4 atoms on [-40, 40]; double.json: the same atoms, masses doubled."""
    mu = restrict(build_stage(4), Interval.closed(-40, 40))
    save_measure(mu, tmp_path / "mu.json")
    save_measure(make_measure([(a.position, 2 * a.mass) for a in mu.atoms], mu.window),
                 tmp_path / "double.json")


def test_psi_stdout(tmp_path):
    stage4_files(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["psi", "--mu", str(tmp_path / "mu.json"),
                     "--nu", str(tmp_path / "double.json"), *PSI_ARGS]) == 0
    got = sha256(buf.getvalue().encode())
    assert got == PSI_STAGE4, f"`apmeasure psi` on stage 4, -40:40: stdout digest {got}"


def test_lump_stage4(tmp_path):
    stage4_files(tmp_path)
    report = tmp_path / "lump.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["lump", "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "double.json"),
                     "--v", "1/1024", "--out-report", str(report)]) == 0
    got = (sha256(buf.getvalue().encode()), sha256(report.read_bytes()))
    assert got == LUMP_STAGE4, f"`apmeasure lump --v 1/1024` on stage 4, -40:40: digests {got}"


def test_match_stage4(tmp_path):
    stage4_files(tmp_path)
    report = tmp_path / "match.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["match", str(tmp_path / "mu.json"), str(tmp_path / "double.json"),
                     "--windows", "-4/3:4/3;-13/3:13/3;-40:40", "--out-report", str(report)]) == 0
    got = (sha256(buf.getvalue().encode()), sha256(report.read_bytes()))
    assert got == MATCH_STAGE4, f"`apmeasure match` on stage 4, -40:40: digests {got}"


def corrupted_stage3() -> DiscreteMeasure:
    atoms = build_stage(3).atoms
    pairs = [(a.position, a.mass) for a in atoms]
    pairs[0] = (pairs[0][0], 2 * pairs[0][1])
    moved = next(i for i, (p, _) in enumerate(pairs) if p == 3 - F(1, 512))
    pairs[moved] = (F(7, 2), pairs[moved][1])
    pairs[-1] = (F(14), pairs[-1][1])
    return make_measure(pairs, widened(stage_window(3).closure(), 2))


@pytest.mark.parametrize("name", sorted(VERIFY_MEASURE))
def test_verify_measure_stdout(name, tmp_path, monkeypatch):
    s, mu, code = (4, build_stage(4), 0) if name == "stage4.json" \
        else (3, corrupted_stage3(), 1)
    save_measure(mu, tmp_path / name)
    monkeypatch.chdir(tmp_path)  # stdout names the file
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["verify", str(s), "--measure", name]) == code
    got = sha256(buf.getvalue().encode())
    assert got == VERIFY_MEASURE[name], f"`apmeasure verify {s} --measure {name}`: stdout digest {got}"


def harness_files(tmp_path) -> None:
    comb, nu = integer_comb(-30, 30), perturbed_comb(-30, 30)
    save_measure(comb, tmp_path / "comb.json")
    heavy = [(a.position, F(5, 4) if round(a.position) == 28 else a.mass) for a in nu.atoms]
    save_measure(make_measure(heavy, nu.window), tmp_path / "heavy.json")
    holed = [(a.position, a.mass) for a in nu.atoms if round(a.position) != -20]
    save_measure(make_measure(holed, nu.window), tmp_path / "holed.json")


@pytest.mark.parametrize("command, nu", sorted(HARNESS), ids="-".join)
def test_harness_failures(command, nu, tmp_path):
    harness_files(tmp_path)
    mu, nu_path, report = (str(tmp_path / name) for name in ("comb.json", nu, "report.json"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if command == "match":
            assert main(["match", mu, nu_path, "--windows", "-10:10;-61/2:61/2"]) == 0
        assert main(["psi", "--mu", mu, "--nu", nu_path, *HARNESS_ARGS,
                     "--out-report", report]) == 1
    got = (sha256(buf.getvalue().encode()), sha256((tmp_path / "report.json").read_bytes()))
    assert got == HARNESS[command, nu], f"`apmeasure {command}` against {nu}: digests {got}"
