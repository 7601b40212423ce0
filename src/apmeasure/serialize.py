"""Lossless text formats: every rational is an exact fraction string.

Measures, stage provenance sidecars, piecewise-linear functions and the
report objects all serialize to JSON whose numeric fields are strings like
"-17/16" or "3".  Parsing them back reproduces the original values bit for
bit; no decimals ever enter a file.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .construction import (DEFAULT_ATOM_CAP, _whole_stage, projected_atom_count, provenance_digits,
                           provenance_step, stage_window)
from .measures import Atom, DiscreteMeasure, Interval, make_measure, rational

if TYPE_CHECKING:  # annotations only: a command that writes no report loads neither module
    from .matching import FarFieldReport, LumpDecomposition, MatchReport
    from .piecewise import AlmostPeriodCertificate, PiecewiseLinearFn


def frac(x: Fraction) -> str:
    return str(x)


def parse_frac(text: str) -> Fraction:
    return rational(str(text))


def _inexact(text: str) -> Any:
    """`json.loads`' parse_float: a JSON number with a fraction or exponent is no exact rational."""
    raise ValueError(f"JSON number {text} is not exact: write it as a fraction string")


_PLAIN = re.compile(r"-?[0-9]+(?:/[0-9]+)?").fullmatch


def _plain(text: Any) -> tuple[int, int] | None:
    """(n, d) for a str "n" or "n/d" of ASCII digits with d > 0; None for anything else."""
    if type(text) is not str or not _PLAIN(text):
        return None
    num, _, den = text.partition("/")
    d = int(den) if den else 1
    return (int(num), d) if d else None


def _json(value: Any, kind: type, what: str) -> Any:
    """`value` if it is a JSON object (kind dict) or list (kind list); else `ValueError`."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ValueError(f"{what} holds a JSON {name}, not {type(value).__name__} {value!r:.40}")
    return value


def interval_to_dict(J: Interval) -> dict[str, Any]:
    return {"lo": frac(J.lo), "hi": frac(J.hi),
            "lo_open": J.lo_open, "hi_open": J.hi_open}


def _flag(d: dict[str, Any], key: str, default: bool) -> bool:
    """d[key] if it is a JSON boolean, `default` if the key is absent; else `ValueError`."""
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def interval_from_dict(d: dict[str, Any]) -> Interval:
    _json(d, dict, "a window")
    return Interval(parse_frac(d["lo"]), parse_frac(d["hi"]),
                    _flag(d, "lo_open", False), _flag(d, "hi_open", False))


def _canonical_atoms(entries: list[Any], window: Interval) -> tuple[Atom, ...] | None:
    """The atoms of a canonical atom list in one integer pass; None if it is not one.

    Canonical means every entry is an object of plain fields (`_plain`),
    the positions increase strictly, no mass is zero and the end atoms lie
    in the window: then `make_measure` would neither sort, merge, drop nor
    refuse anything, and the atoms are built directly, one `Fraction` per
    distinct mass string.
    Each entry is read as `make_measure`'s path reads it ("pos", then
    "mass"), up to the first entry that is not plain, so a malformed entry
    fails the same way on either path.
    """
    masses: dict[str, Fraction] = {}
    atoms: list[Atom] = []
    last_n, last_d = 0, 0
    for entry in entries:
        if type(entry) is not dict:
            return None
        pos = _plain(entry["pos"])
        if pos is None:
            return None
        text = entry["mass"]
        mass = masses.get(text) if type(text) is str else None
        if mass is None:
            m = _plain(text)
            if m is None or m[0] == 0:
                return None
            mass = masses[text] = Fraction(*m)
        n, d = pos
        if atoms and n * last_d <= last_n * d:
            return None
        last_n, last_d = n, d
        atoms.append(Atom(Fraction(n, d), mass))
    if atoms and not (window.contains(atoms[0].position) and window.contains(atoms[-1].position)):
        return None
    return tuple(atoms)


def measure_from_dict(d: dict[str, Any]) -> DiscreteMeasure:
    """The measure of a parsed measure file.

    A canonical atom list, as `save_measure` writes it, is read in one
    integer pass; any other goes through `make_measure`, which stays the
    definition of canonical form, so it loads exactly as it always did.
    """
    _json(d, dict, "a measure file")
    window = interval_from_dict(d["window"])
    entries = _json(d["atoms"], list, "atoms")
    atoms = _canonical_atoms(entries, window)
    if atoms is not None:
        return DiscreteMeasure(atoms, window)
    pairs = [(parse_frac(a["pos"]), parse_frac(a["mass"]))
             for a in (_json(e, dict, "an atom") for e in entries)]
    return make_measure(pairs, window)


_BATCH = 1024  # rows per write; the writer holds one batch of rows and one file's joined text


def _stream_lists(files: Sequence[tuple[Path, dict[str, Any], str]],
                  rows: Iterator[Sequence[str]]) -> None:
    """Write each (path, doc, key) of `files`: `doc` with its top-level list
    doc[key] (left empty in `doc`) made of one column of `rows`, entry i of
    each row going to file i, byte for byte as `json.dumps(indent=1)` would,
    from entries already rendered at their final depth, a batch of rows at a
    time, so no list is ever in memory as one string and the rows are made once.

    Fraction strings hold only digits, '-' and '/', which JSON never escapes,
    so an entry can be rendered by a template.
    """
    with ExitStack() as stack:
        handles, tails = [], []
        for path, doc, key in files:
            text = json.dumps(doc, indent=1)
            opening = f'\n "{key}": ['
            cut = text.index(opening + "]") + len(opening)  # text[cut:] starts with the "]"
            handles.append(stack.enter_context(path.open("w")))
            handles[-1].write(text[:cut])
            tails.append(text[cut:])
        sep = "\n"
        while chunk := list(islice(rows, _BATCH)):
            for fh, column in zip(handles, zip(*chunk)):
                fh.write(sep + ",\n".join(column))
            sep = ",\n"
        for fh, tail in zip(handles, tails):
            fh.write(("" if sep == "\n" else "\n ") + tail + "\n")


def _stream_list(path: Path, doc: dict[str, Any], key: str, entries: Iterator[str]) -> None:
    """`_stream_lists` of one file."""
    _stream_lists([(path, doc, key)], zip(entries))


def _atom_entries(pairs: Iterable[tuple[Any, Any]]) -> Iterator[str]:
    """The atom entries of a measure file, one per (position, mass) pair, each value by `str`."""
    return (f'  {{\n   "pos": "{p!s}",\n   "mass": "{m!s}"\n  }}' for p, m in pairs)


def save_measure(mu: DiscreteMeasure, path: str | Path) -> None:
    _stream_list(Path(path), {"window": interval_to_dict(mu.window), "atoms": []}, "atoms",
                 _atom_entries((a.position, a.mass) for a in mu.atoms))


def load_measure(path: str | Path) -> DiscreteMeasure:
    return measure_from_dict(json.loads(Path(path).read_text(), parse_float=_inexact))


def provenance_sidecar_path(measure_path: str | Path) -> Path:
    p = Path(measure_path)
    return p.with_name(p.stem + ".provenance.json")


@cache
def _step_fragments(k: int, sign: int, j: int) -> tuple[str, str, str]:
    """One averaging pass as items of the sidecar's stages, shifts and offsets lists."""
    step = provenance_step(k, sign, j)
    return f"\n    {step.stage}", f'\n    "{step.shift!s}"', f'\n    "{step.offset!s}"'


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, by one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _stage_entries(s: int, groups: Iterable[tuple[int, int, Sequence[int]]], D: int, M: int
                   ) -> Iterator[tuple[str, str]]:
    """The (measure file entry, sidecar entry) of each atom of stage s's averaging groups,
    positions over D and masses over M; each position is rendered once, for both.
    Raises `AssertionError` at the end unless the groups held n_s atoms of mass 3^s.

    Atom i's passes are `provenance_digits(s, i)`.  If the last of them is
    (k, sign, j), atoms i+1, ..., i+2k-1-j are the next copies of the same
    source atom: they differ from atom i only in j, counting up.  So the
    passes are decoded once per such run (one run per full group) and the
    earlier passes are rendered once.
    """
    i = total = 0
    for base, m, kept in groups:
        total += m * len(kept)
        mass = f'",\n   "mass": "{_ratio(m, M)}"\n  }}'
        r = 0
        while r < len(kept):
            digits = provenance_digits(s, i + r)
            if not digits:  # the origin, made by no pass
                head = '  {\n   "pos": "' + _ratio(base + kept[r], D)
                yield head + mass, (head + '",\n   "stages": [],\n   "shifts": [],\n'
                                    '   "offsets": []\n  }')
                r += 1
                continue
            *earlier, (k, sign, j) = digits
            heads = ["", "", ""]
            for digit in earlier:
                for c, fragment in enumerate(_step_fragments(*digit)):
                    heads[c] += fragment + ","
            stage, shift, _ = _step_fragments(k, sign, j)
            middle = (f'",\n   "stages": [{heads[0]}{stage}\n   ],\n   "shifts": [{heads[1]}{shift}'
                      f'\n   ],\n   "offsets": [{heads[2]}')
            run = min(len(kept) - r, 2 * k - j)
            for q in range(run):
                head = '  {\n   "pos": "' + _ratio(base + kept[r + q], D)
                yield head + mass, head + middle + _step_fragments(k, sign, j + q)[2] + '\n   ]\n  }'
            r += run
        i += len(kept)
    if i != projected_atom_count(s) or total != 3 ** s * M:
        raise AssertionError(f"stage {s} streamed {i} atoms of mass {Fraction(total, M)}")


def save_stage(s: int, path: str | Path, atom_cap: int = DEFAULT_ATOM_CAP) -> Path:
    """Write the stage-s measure plus its provenance sidecar; returns the sidecar path.

    Both files are streamed together in batches from one walk of the
    expansion's averaging groups (`_whole_stage`, whose cap check runs
    before any file is opened).  A group's mass is rendered once, each
    position once from its grid int, so no `Atom` or `Fraction` is made and
    neither file is ever in memory as one string.  Raises `AssertionError`
    unless the walk gave n_s atoms of mass 3^s (`_stage_entries`).
    """
    query, groups = _whole_stage(s, atom_cap)
    side = provenance_sidecar_path(path)
    window = interval_to_dict(stage_window(s).closure())
    _stream_lists([(Path(path), {"window": window, "atoms": []}, "atoms"),
                   (side, {"stage": s, "atoms": []}, "atoms")],
                  _stage_entries(s, groups, query.D, query.M))
    return side


def plf_to_dict(f: PiecewiseLinearFn) -> dict[str, Any]:
    return {
        "breakpoints": [frac(b) for b in f.breakpoints],
        "values": [frac(v) for v in f.values],
    }


def plf_from_dict(d: dict[str, Any]) -> PiecewiseLinearFn:
    """A test function; an optional "zero_outside" key must be true, as every
    test function is compactly supported."""
    from .piecewise import PiecewiseLinearFn
    _json(d, dict, "a test-function file")
    if not _flag(d, "zero_outside", True):
        raise ValueError("a test function must be compactly supported (zero_outside true)")
    return PiecewiseLinearFn(
        tuple(parse_frac(b) for b in _json(d["breakpoints"], list, "breakpoints")),
        tuple(parse_frac(v) for v in _json(d["values"], list, "values")),
    )


def save_plf(f: PiecewiseLinearFn, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plf_to_dict(f), indent=1) + "\n")


def load_plf(path: str | Path) -> PiecewiseLinearFn:
    return plf_from_dict(json.loads(Path(path).read_text(), parse_float=_inexact))


# ---------------------------------------------------------------------------
# Report serialization (one way: reports are outputs, not inputs)
# ---------------------------------------------------------------------------

def match_report_to_dict(report: MatchReport) -> dict[str, Any]:
    return {
        "window": interval_to_dict(report.window),
        "pairs": [
            {
                "left_pos": frac(p.left.position), "right_pos": frac(p.right.position),
                "position_gap": frac(p.position_gap), "mass_gap": frac(p.mass_gap),
            }
            for p in report.pairs
        ],
        "unmatched_left": [frac(a.position) for a in report.unmatched_left],
        "unmatched_right": [frac(a.position) for a in report.unmatched_right],
        "profiles": [
            {
                "window": interval_to_dict(pr.window),
                "pairs_outside": pr.pairs_outside,
                "max_abs_position_gap": frac(pr.max_abs_position_gap),
                "max_abs_mass_gap": frac(pr.max_abs_mass_gap),
                "unmatched_outside": pr.unmatched_outside,
            }
            for pr in report.profiles
        ],
        "profile_decreasing": report.profile_decreasing,
        "coincide_on_window": report.coincide_on_window,
    }


def save_match_report(report: MatchReport, path: str | Path) -> None:
    """Write `match_report_to_dict(report)` as `json.dumps(indent=1)` would,
    the pairs rendered from a template and streamed."""
    pairs = (f'  {{\n   "left_pos": "{p.left.position!s}",\n   "right_pos": "{p.right.position!s}",'
             f'\n   "position_gap": "{p.position_gap!s}",\n   "mass_gap": "{p.mass_gap!s}"\n  }}'
             for p in report.pairs)
    _stream_list(Path(path), match_report_to_dict(replace(report, pairs=())), "pairs", pairs)


def far_field_report_to_dict(report: FarFieldReport) -> dict[str, Any]:
    return {
        "examined": interval_to_dict(report.examined),
        "c_bound": frac(report.c_bound),
        "n": report.n,
        "epsilon": frac(report.epsilon),
        "samples": [
            {"point": frac(s.point), "product": frac(s.product),
             "bound": frac(s.bound), "holds": s.holds}
            for s in report.samples
        ],
        "hypothesis_ok": report.hypothesis_ok,
        "hypothesis_note": report.hypothesis_note,
        "all_hold": report.all_hold,
    }


def lump_decomposition_to_dict(dec: LumpDecomposition) -> dict[str, Any]:
    return {
        "link": frac(dec.link),
        "count_radius": frac(dec.count_radius),
        "max_lumps_per_neighborhood": dec.max_lumps_per_neighborhood,
        "count_witness": frac(dec.count_witness),
        "all_pairwise_close": dec.all_pairwise_close,
        "lumps": [
            {
                "lo": frac(lump.lo), "hi": frac(lump.hi),
                "diameter": frac(lump.diameter),
                "left_positions": [frac(p) for p in lump.left_positions],
                "right_positions": [frac(p) for p in lump.right_positions],
                "left_mass": frac(lump.left_mass),
                "right_mass": frac(lump.right_mass),
                "mass_gap": frac(lump.mass_gap),
            }
            for lump in dec.lumps
        ],
    }


def ap_certificate_to_dict(cert: AlmostPeriodCertificate) -> dict[str, Any]:
    return {
        "scale_exponent": cert.scale_exponent,
        "epsilon": frac(cert.epsilon),
        "window": interval_to_dict(cert.window),
        "tau_range": frac(cert.tau_range),
        "density_gap": frac(cert.density_gap),
        "rows": [
            {"tau": frac(r.tau), "defect": frac(r.defect), "witness": frac(r.witness)}
            for r in cert.rows
        ],
        "max_defect": frac(cert.max_defect),
        "all_within": cert.all_within,
    }
