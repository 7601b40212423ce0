"""The three workloads: their inputs, their timed commands and their checks.

Each workload is a round of apmeasure CLI commands.  `setup` makes the
inputs in a fresh work directory, `commands` lists the round's argument
lists, and `check` returns the problems found in one round's outputs
(empty when every output is right).  The checks compare against the oracle
in `oracle.py`, or against properties the method must have, never against
a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

F = Fraction


@dataclass
class Output:
    """What one command left behind."""

    argv: list[str]
    code: int
    stdout: str
    stderr: str


def _lines(out: Output) -> list[str]:
    return out.stdout.splitlines()


def _parse_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _measure_dict(atoms, lo: Fraction, hi: Fraction) -> dict:
    """The library's measure file format: fraction strings, closed window."""
    return {"window": {"lo": str(lo), "hi": str(hi), "lo_open": False, "hi_open": False},
            "atoms": [{"pos": str(p), "mass": str(m)} for p, m in atoms]}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def _read_measure(path: Path) -> list[tuple[Fraction, Fraction]]:
    return [(F(a["pos"]), F(a["mass"])) for a in json.loads(path.read_text())["atoms"]]


# ---------------------------------------------------------------------------
# certify: the full-stage path
# ---------------------------------------------------------------------------

class Certify:
    """`verify 4`, then `build 4 --out`: builder, certificates, scans, serializer."""

    name = "certify"
    stage = 4

    def setup(self, work: Path, seed: int) -> None:
        self.expected = None

    def commands(self, work: Path, rdir: Path) -> list[list[str]]:
        return [["verify", str(self.stage)],
                ["build", str(self.stage), "--out", str(rdir / "stage.json")]]

    def check(self, rdir: Path, outs: dict[int, Output]) -> list[str]:
        problems = []
        s = self.stage
        n_s = math.prod(1 + 4 * k for k in range(1, s + 1))
        if 0 in outs:
            lines = _lines(outs[0])
            bad = [ln for ln in lines if ": PASS" not in ln]
            names = {ln.split(":")[0] for ln in lines}
            wanted = {f"{c} s={s}" for c in ("counting_law", "total_mass", "stage_support",
                                             "cell_mass", "min_gap", "stage_stability",
                                             "mass_decay")}
            wanted |= {f"tail_estimate n={n}" for n in range(2, 13)} | {"overall"}
            if bad or names != wanted:
                problems.append(f"verify: non-PASS lines {bad[:3]}, "
                                f"missing {sorted(wanted - names)}")
        if 1 in outs:
            if _lines(outs[1]) != [f"atoms={n_s} mass={3 ** s}"]:
                problems.append(f"build: printed {_lines(outs[1])[:2]}")
            problems += self._check_files(rdir / "stage.json",
                                          rdir / "stage.provenance.json", n_s)
        return problems

    def _check_files(self, path: Path, side_path: Path, n_s: int) -> list[str]:
        s = self.stage
        atoms = _read_measure(path)
        if len(atoms) != n_s:
            return [f"stage file has {len(atoms)} atoms, closed form {n_s}"]
        problems = []
        if sum(m for _, m in atoms) != 3 ** s:
            problems.append("stage file total mass is not 3^s")
        if any(a[0] >= b[0] for a, b in zip(atoms, atoms[1:])):
            problems.append("stage file positions are not strictly increasing")
        cells: dict[int, Fraction] = {}
        for p, m in atoms:
            n = math.floor(p + F(1, 2))
            if abs(p - n) >= F(1, 3):
                problems.append(f"atom {p} lies outside every lattice cell")
                break
            cells[n] = cells.get(n, F(0)) + m
        half = (3 ** s - 1) // 2
        if sorted(cells) != list(range(-half, half + 1)) or any(v != 1 for v in cells.values()):
            problems.append("stage file has a lattice cell whose mass is not 1")
        if self.expected is None:
            self.expected = oracle.expand(s).as_fractions()
        if atoms != self.expected:
            problems.append("stage file differs from the literal expansion")

        side = json.loads(side_path.read_text())
        if side["stage"] != s or len(side["atoms"]) != n_s:
            return problems + ["sidecar stage or atom count is wrong"]
        for (p, m), rec in zip(atoms, side["atoms"]):
            moved = sum(map(F, rec["shifts"]), F(0)) + sum(map(F, rec["offsets"]), F(0))
            weight = F(1, math.prod(2 * k for k in rec["stages"]))
            if F(rec["pos"]) != p or moved != p or weight != m:
                problems.append(f"sidecar provenance of the atom at {p} does not "
                                f"reproduce its position and mass")
                break
        return problems


# ---------------------------------------------------------------------------
# ap_far: almost-period defect tables with shifts past the stage-4 window
# ---------------------------------------------------------------------------

class ApFar:
    """`ap 2` and `ap 3` with --range 81: windowed limit queries and convolutions.

    `ap 1` would add 36 more rows of the same work and make a round too long
    to repeat several times within one run.
    """

    name = "ap_far"
    tables = ((2, 3), (3, 2))  # (scale exponent, rows recomputed by the oracle)
    tau_range = 81
    epsilon = "1/10"
    oracle_stage = 5  # its window (|x| < 121 + 1/3) covers every shifted window

    def setup(self, work: Path, seed: int) -> None:
        self.rng = random.Random(seed)
        self.picks: dict[int, list[Fraction]] = {}
        self.truth: dict[Fraction, tuple[Fraction, Fraction]] = {}

    def commands(self, work: Path, rdir: Path) -> list[list[str]]:
        return [["ap", str(s), "--epsilon", self.epsilon, "--range", str(self.tau_range)]
                for s, _ in self.tables]

    def _oracle_rows(self, s: int, taus: list[Fraction], picks: int) -> list[Fraction]:
        if s not in self.picks:
            self.picks[s] = self.rng.sample(sorted(taus), picks)
            e = None
            for tau in self.picks[s]:
                if tau not in self.truth:
                    e = e or oracle.expand(self.oracle_stage)
                    self.truth[tau] = oracle.defect(e, tau, F(-1, 2), F(1, 2))
        return self.picks[s]

    def check(self, rdir: Path, outs: dict[int, Output]) -> list[str]:
        problems = []
        for i, (s, picks) in enumerate(self.tables):
            if i not in outs:
                continue
            lines = _lines(outs[i])
            rows = {}
            for ln in lines:
                if ln.startswith("tau="):
                    f = _parse_fields(ln)
                    rows[F(f["tau"])] = (F(f["defect"]), F(f["witness"]))
            step = 3 ** s
            want = {F(p * step) for p in range(-(self.tau_range // step),
                                               self.tau_range // step + 1)}
            if set(rows) != want:
                problems.append(f"ap {s}: table has shifts {sorted(rows)[:3]}..., "
                                f"expected multiples of {step} up to {self.tau_range}")
                continue
            if rows[F(0)][0] != 0:
                problems.append(f"ap {s}: defect(0) = {rows[F(0)][0]}")
            asym = [t for t in rows if rows[t][0] != rows[-t][0]]
            if asym:
                problems.append(f"ap {s}: defect(tau) != defect(-tau) at {asym[:3]}")
            if lines[-1] != "ap_certificate: PASS":
                problems.append(f"ap {s}: last line {lines[-1]!r}")
            for tau in self._oracle_rows(s, list(rows), picks):
                if rows[tau] != self.truth[tau]:
                    problems.append(f"ap {s}: row tau={tau} is {rows[tau]}, "
                                    f"pointwise sums give {self.truth[tau]}")
        return problems


# ---------------------------------------------------------------------------
# match_files: the file-based comparison workflow
# ---------------------------------------------------------------------------

class MatchFiles:
    """conv, match (equal and partial), lump and psi on files written in set-up."""

    name = "match_files"
    stage = 4
    shells = "-4/3:4/3;-13/3:13/3;-40:40"  # nested windows, outermost [-40, 40]
    far = (F(63, 2), F(69, 2))              # lattice cells 32..34: 960 stage-4 atoms
    conv_window = (F(-40), F(40))
    conv_points = 16
    lump_v = "1/1024"  # some gaps are exactly 1/1024: ties must split
    # (3n+2)v <= u holds for n up to 9; the sparsity bound at u = 2^-20 is 9
    psi = ["--v", "1/33554432", "--u", "1/1048576", "--epsilon", "1/5",
           "--compact", "-13/3:13/3", "--samples", "9,-9,11", "--zero-identity"]

    def setup(self, work: Path, seed: int) -> None:
        rng = random.Random(seed)
        e = oracle.expand(self.stage)
        atoms = e.as_fractions()
        half = F(3 ** self.stage - 1, 2) + F(1, 3)
        _write_json(work / "stage.json", _measure_dict(atoms, -half, half))

        lo, hi = F(-40), F(40)
        inner = [(p, m) for p, m in atoms if lo <= p <= hi]
        _write_json(work / "mu.json", _measure_dict(inner, lo, hi))
        _write_json(work / "double.json", _measure_dict([(p, 2 * m) for p, m in inner], lo, hi))

        far = [(p, m) for p, m in atoms if self.far[0] <= p <= self.far[1]]
        drop = rng.randrange(len(far))
        _write_json(work / "far.json", _measure_dict(far, *self.far))
        _write_json(work / "far_drop.json",
                    _measure_dict(far[:drop] + far[drop + 1:], *self.far))

        near = [p + F(rng.randrange(-999, 1000), 6000) for p, _ in
                rng.sample([a for a in atoms if lo + 1 <= a[0] <= hi - 1], self.conv_points // 2)]
        uniform = [F(rng.randrange(-40 * 997, 40 * 997 + 1), 997)
                   for _ in range(self.conv_points - len(near))]
        self.work, self.atoms, self.dropped = work, atoms, far[drop][0]
        self.conv_at = sorted(near + uniform)
        self.truth = None

    def commands(self, work: Path, rdir: Path) -> list[list[str]]:
        w = lambda name: str(work / name)
        lo, hi = self.conv_window
        return [
            ["conv", "--measure", w("stage.json"), "--window", f"{lo}:{hi}"],
            ["match", w("mu.json"), w("double.json"), "--windows", self.shells,
             "--out-report", str(rdir / "match_double.json")],
            ["match", w("far.json"), w("far_drop.json"),
             "--windows", f"{self.far[0]}:{self.far[1]}",
             "--out-report", str(rdir / "match_drop.json")],
            ["lump", "--mu", w("mu.json"), "--nu", w("double.json"), "--v", self.lump_v],
            ["psi", "--mu", w("mu.json"), "--nu", w("double.json"), *self.psi],
        ]

    def _truth(self) -> dict:
        if self.truth is None:
            self.inner = _read_measure(self.work / "mu.json")
            positions = [p for p, _ in self.inner]
            u = F(self.psi[self.psi.index("--u") + 1])
            self.truth = {
                "conv": [oracle.conv_at(self.atoms, x) for x in self.conv_at],
                "lumps": oracle.lump_count(positions + positions, F(self.lump_v)),
                "n": 1 + oracle.max_count(positions, u),
            }
        return self.truth

    def check(self, rdir: Path, outs: dict[int, Output]) -> list[str]:
        truth = self._truth()
        problems = []
        if 0 in outs:
            problems += self._check_conv(outs[0], truth["conv"])
        if 1 in outs:
            problems += self._check_double(json.loads((rdir / "match_double.json").read_text()))
        if 2 in outs:
            rep = json.loads((rdir / "match_drop.json").read_text())
            if ([F(x) for x in rep["unmatched_left"]] != [self.dropped] or rep["unmatched_right"]
                    or any(F(p["position_gap"]) or F(p["mass_gap"]) for p in rep["pairs"])):
                problems.append(f"drop-one match: unmatched {rep['unmatched_left'][:3]} / "
                                f"{rep['unmatched_right'][:3]}, dropped {self.dropped}")
        if 3 in outs:
            got = int(_parse_fields(_lines(outs[3])[0])["lumps"])
            if got != truth["lumps"]:
                problems.append(f"lump: {got} lumps, direct scan gives {truth['lumps']}")
        if 4 in outs:
            problems += self._check_psi(outs[4], truth["n"])
        return problems

    def _check_conv(self, out: Output, truth: list[Fraction]) -> list[str]:
        rows = [(F(f["x"]), F(f["value"])) for f in map(_parse_fields, _lines(out))]
        xs = [x for x, _ in rows]
        if xs[0] != self.conv_window[0] or xs[-1] != self.conv_window[1] or \
                any(a >= b for a, b in zip(xs, xs[1:])):
            return ["conv: breakpoints do not run increasing across the window"]
        for x, want in zip(self.conv_at, truth):
            i = min(bisect_right(xs, x), len(xs) - 1)
            (x0, v0), (x1, v1) = rows[i - 1], rows[i]
            got = v0 + (v1 - v0) * (x - x0) / (x1 - x0)
            if got != want:
                return [f"conv: value {got} at {x}, pointwise sum gives {want}"]
        return []

    def _check_double(self, rep: dict) -> list[str]:
        if (len(rep["pairs"]) != len(self.inner) or rep["unmatched_left"]
                or rep["unmatched_right"] or any(F(p["position_gap"]) for p in rep["pairs"])):
            return ["double match: not every atom is paired with a zero position gap"]
        for prof in rep["profiles"]:
            w = prof["window"]
            lo, hi = F(w["lo"]), F(w["hi"])
            outside = [m for p, m in self.inner if not lo <= p <= hi]
            want = max(outside, default=F(0))
            if F(prof["max_abs_mass_gap"]) != want or F(prof["max_abs_position_gap"]) != 0:
                return [f"double match: profile on [{lo}, {hi}] has mass gap "
                        f"{prof['max_abs_mass_gap']}, largest mass outside is {want}"]
        return []

    def _check_psi(self, out: Output, n_truth: int) -> list[str]:
        lines = _lines(out)
        n = int(_parse_fields(lines[0])["n"])
        ident = next((ln for ln in lines if ln.startswith("origin_identity:")), "")
        f = _parse_fields(ident)
        problems = []
        if n != n_truth:
            problems.append(f"psi: n={n}, direct count gives {n_truth}")
        if ": PASS" not in ident or F(f["value"]) != (1 - 2) ** n:
            problems.append(f"psi: origin identity line {ident!r}, expected (1-2)^{n}")
        if lines[-1] != "harness: PASS":
            problems.append(f"psi: last line {lines[-1]!r}")
        return problems


WORKLOADS = {w.name: w for w in (Certify(), ApFar(), MatchFiles())}
