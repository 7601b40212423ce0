"""Command-line front end.

Subcommands: build, verify, ap, conv, match, psi, lump.  All emitted
numbers are exact fraction strings; --decimal K (all but build) appends
K-digit decimal approximations clearly marked as approximate.  Exit codes:
0 all checks pass, 1 a check failed (or a resource guard tripped), 2 usage
or parse error.  --cap (build, verify, ap, match, psi), else the
APMEASURE_ATOM_CAP variable, bounds the atoms of the groups that build and
the window queries make and the cells verify walks or a matching fills; it
is checked at parse time.  The library modules are registered lazily: each
runs on a command's first use of it, so --help and a usage error run none.
"""

from __future__ import annotations

import argparse
import errno
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path


def _lazy(name: str):
    """The submodule `name`, put in `sys.modules` now but run on its first attribute access
    (`importlib.util.LazyLoader`), so a command compiles and runs only the modules it uses."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


construction, matching, measures, piecewise, serialize = map(
    _lazy, ["construction", "matching", "measures", "piecewise", "serialize"])


def decimal_approx(x: Fraction, digits: int) -> str:
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10 ** digits
    whole, part = divmod(scaled.numerator // scaled.denominator, 10 ** digits)
    return f"{sign}{whole}.{str(part).zfill(digits)}"


def fmt(x, args) -> str:
    if isinstance(x, Fraction) and args.decimal:
        return f"{x} (~{decimal_approx(x, args.decimal)} approx)"
    return str(x)


def parse_window(text: str) -> measures.Interval:
    """'LO:HI' (closed) or bracketed: '[LO:HI]', '(LO:HI)', '[LO:HI)', '(LO:HI]'."""
    raw = text.strip()
    lo_open = hi_open = False
    if raw.startswith(("(", "[")) and raw.endswith((")", "]")):
        lo_open, hi_open = raw[0] == "(", raw[-1] == ")"
        raw = raw[1:-1]
    lo_s, sep, hi_s = raw.partition(":")
    if not sep or ":" in hi_s:
        raise ValueError(f"window {text!r} is not LO:HI")
    return measures.Interval(measures.rational(lo_s.strip()), measures.rational(hi_s.strip()),
                             lo_open, hi_open)


def parse_windows(text: str) -> list[measures.Interval]:
    return [parse_window(part) for part in text.split(";") if part.strip()]


def _load_test_function(path: str | None) -> piecewise.PiecewiseLinearFn:
    if path is None or path == "triangle":
        return piecewise.triangle_test_function()
    return serialize.load_plf(path)


def _check_out_dirs(args) -> None:
    """Raise `FileNotFoundError` unless the directory of each output path exists.

    `main` calls this before the command, so a bad path fails before the work.
    """
    for name in ("out", "csv", "out_report"):
        path = getattr(args, name, None)
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_report(args, to_dict, report) -> None:
    """Write `to_dict(report)` to --out-report; the dict is built only when one is asked for."""
    if args.out_report:
        Path(args.out_report).write_text(json.dumps(to_dict(report), indent=1) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    s = args.stage
    serialize.save_stage(s, args.out, args.cap)  # checks that it wrote n_s atoms of mass 3^s
    print(f"atoms={construction.projected_atom_count(s)} mass={3 ** s}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" {detail}" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def cmd_verify(args) -> int:
    s = args.stage
    mu = serialize.load_measure(args.measure) if args.measure else None
    # every check runs before any line prints, the decay (c_{s+1} cells, the largest pre-check) first
    decay = (construction.verify_mass_decay(s, construction.stage_window(s + 1), args.cap)
             if mu is None and s >= 1 else None)
    scan = construction.verify_stage_scan(s, mu, args.cap)
    if mu is None:
        stable = construction.verify_stage_stability(s, args.cap)
    if mu is not None:
        print(f"verifying {args.measure} as stage {s}")

    ok = True
    expected_n = construction.projected_atom_count(s)
    ok &= _check(f"counting_law s={s}", scan.atoms == expected_n,
                 f"atoms={scan.atoms} expected={expected_n}")
    expected_mass = Fraction(3 ** s)
    ok &= _check(f"total_mass s={s}", scan.total_mass == expected_mass,
                 f"mass={fmt(scan.total_mass, args)} expected={expected_mass}")
    ok &= _check(f"stage_support s={s}", scan.offender is None,
                 "" if scan.offender is None else f"offender={scan.offender}")
    cells_ok = not scan.bad_cells and not scan.strays
    detail = f"cells={2 * construction.cell_center_bound(s) + 1}"
    if not cells_ok:
        bits = [f"cell n={n} mass={fmt(m, args)}" for n, m in scan.bad_cells]
        bits += [f"stray atom at {p}" for p in scan.strays]
        detail = "; ".join(bits)
    ok &= _check(f"cell_mass s={s}", cells_ok, detail)

    if s >= 1:
        gap = scan.min_gap
        floor = (measures.averaging_radius(s) / s
                 - 2 * construction.radius_series_tail_bound(s + 1))
        gap_ok = gap is not None and gap > 0 and gap >= floor
        ok &= _check(f"min_gap s={s}", gap_ok, f"gap={fmt(gap, args)} floor={fmt(floor, args)}")

    if mu is not None:
        print("stage_stability / mass_decay: skipped for external measure files")
    else:
        ok &= _check(f"stage_stability s={s}", stable)
        if decay is not None:
            ok &= _check(f"mass_decay s={s}", decay.holds,
                         f"max_outside={fmt(decay.max_mass_outside, args)} "
                         f"bound={fmt(decay.bound, args)}")
    for n in range(2, args.tail_max + 1):
        est = construction.verify_tail_estimate(n)
        ok &= _check(f"tail_estimate n={n}", est.holds,
                     f"lhs<={fmt(est.lhs_upper_bound, args)} rhs={fmt(est.rhs, args)}")
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_ap(args) -> int:
    f = _load_test_function(args.fn)
    window = parse_window(args.window)
    source = lambda region: construction.limit_window(region, args.cap)
    epsilon, tau_range = measures.rational(args.epsilon), measures.rational(args.range)
    cert = piecewise.almost_period_certificate(f, epsilon, tau_range, args.stage, source, window)
    for row in cert.rows:
        print(f"tau={row.tau} defect={fmt(row.defect, args)} witness={fmt(row.witness, args)}")
    print(f"max_defect={fmt(cert.max_defect, args)} epsilon={fmt(cert.epsilon, args)} "
          f"density_gap={cert.density_gap}")
    print(f"ap_certificate: {'PASS' if cert.all_within else 'FAIL'}")
    if args.out_report:  # only a report loads serialize
        _write_report(args, serialize.ap_certificate_to_dict, cert)
    return 0 if cert.all_within else 1


def cmd_conv(args) -> int:
    f = _load_test_function(args.fn)
    mu = serialize.load_measure(args.measure)
    window = parse_window(args.window)
    n = args.samples
    marks = [window.lo + window.length * i / n for i in range(n + 1)] if n else ()
    rows = piecewise.convolution_rows(f, mu, window, marks)  # checks faithfulness first
    if args.csv:
        count = 0
        with open(args.csv, "w") as out:
            out.write("x,value\n")
            for x, v in rows:
                out.write(f"{x},{v}\n")
                count += 1
        print(f"wrote {count} rows to {args.csv}")
    else:
        for x, v in rows:
            print(f"x={fmt(x, args)} value={fmt(v, args)}")
    return 0


def cmd_match(args) -> int:
    mu = serialize.load_measure(args.mu)
    nu = serialize.load_measure(args.nu)
    windows = parse_windows(args.windows)
    report = matching.match_close(mu, nu, windows, args.cap)
    print(f"pairs={len(report.pairs)} unmatched_left={len(report.unmatched_left)} "
          f"unmatched_right={len(report.unmatched_right)}")
    for pr in report.profiles:
        print(f"profile {pr.window}: pairs_outside={pr.pairs_outside} "
              f"max_pos_gap={fmt(pr.max_abs_position_gap, args)} "
              f"max_mass_gap={fmt(pr.max_abs_mass_gap, args)} "
              f"unmatched={pr.unmatched_outside}")
    print(f"monotone profile on the given windows: {'yes' if report.profile_decreasing else 'no'}")
    print(f"coincide: {'yes' if report.coincide_on_window else 'no'}")
    print(f"measures differ: {'no' if report.coincide_on_window else 'yes'}")
    if args.out_report:
        serialize.save_match_report(report, args.out_report)
    return 0


def cmd_psi(args) -> int:
    mu = serialize.load_measure(args.mu)
    nu = serialize.load_measure(args.nu)
    u = measures.rational(args.u)
    n = args.n if args.n is not None else matching.sparsity_bound(mu, nu, u)
    hc = matching.HarnessConfig(
        v=measures.rational(args.v), n=n, epsilon=measures.rational(args.epsilon),
        compact=parse_window(args.compact), u=u)
    print(f"harness: n={hc.n} v={hc.v} u={hc.u} epsilon={hc.epsilon} compact={hc.compact}")
    ok = True
    # mu - nu, built once for both checks
    diff = measures.combine(1, mu, -1, nu) if args.zero_identity or args.samples else None
    if args.zero_identity:
        ident = matching.origin_product_identity(mu, nu, hc, diff)
        flag = " (degenerate)" if ident.degenerate else ""
        ok &= _check("origin_identity",
                     ident.holds, f"value={fmt(ident.value, args)} "
                                  f"expected={fmt(ident.expected, args)}{flag}")
    if args.samples:
        samples = [measures.rational(b.strip()) for b in args.samples.split(",") if b.strip()]
        report = matching.far_field_check(mu, nu, hc, samples, args.cap, diff)
        print(f"examined={report.examined} C={fmt(report.c_bound, args)}")
        _check("matching_hypothesis", report.hypothesis_ok, report.hypothesis_note)
        for row in report.samples:
            _check(f"far_field b={row.point}", row.holds,
                   f"|product|={fmt(abs(row.product), args)} bound={fmt(row.bound, args)}")
        ok &= report.all_hold
        _write_report(args, serialize.far_field_report_to_dict, report)
    print(f"harness: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_lump(args) -> int:
    mu = serialize.load_measure(args.mu)
    nu = serialize.load_measure(args.nu)
    dec = matching.lump_decompose(mu, nu, measures.rational(args.v),
                                  measures.rational(args.u) if args.u else None)
    print(f"lumps={len(dec.lumps)} link={dec.link} "
          f"max_per_neighborhood={dec.max_lumps_per_neighborhood} "
          f"witness={fmt(dec.count_witness, args)}")
    for i, lump in enumerate(dec.lumps):
        print(f"lump {i}: span=[{lump.lo}, {lump.hi}] diameter={fmt(lump.diameter, args)} "
              f"left={len(lump.left_positions)} right={len(lump.right_positions)} "
              f"mass_gap={fmt(lump.mass_gap, args)}")
    print(f"all_pairwise_close: {'yes' if dec.all_pairwise_close else 'no'}")
    _write_report(args, serialize.lump_decomposition_to_dict, dec)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int_at_least(k: int, what: str):
    """An argparse type: an int >= k, or a usage error naming `what`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = k - 1
        if n < k:
            raise argparse.ArgumentTypeError(f"{what} must be an int >= {k}, got {text!r}")
        return n
    return parse


def _add_common(p: argparse.ArgumentParser, decimal: bool = True, cap: bool = True) -> None:
    """--decimal on the commands that print fractions, --cap on those whose work it bounds."""
    if decimal:
        p.add_argument("--decimal", type=_int_at_least(0, "digit count"), default=None, metavar="K",
                       help="append K-digit decimal approximations (marked approximate)")
    if cap:
        # unset, the default is `construction.DEFAULT_ATOM_CAP`, read in `main` after parsing
        p.add_argument("--cap", type=_int_at_least(1, "atom cap"),
                       default=os.environ.get("APMEASURE_ATOM_CAP"),
                       help="atom cap override (also APMEASURE_ATOM_CAP)")


def _add_report(p: argparse.ArgumentParser) -> None:
    """--out-report, on the commands that write a report."""
    p.add_argument("--out-report", default=None, metavar="PATH",
                   help="also write the structured report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmeasure",
        description="Exact discrete-measure construction and certificates on the line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a construction stage and write it with provenance")
    p.add_argument("stage", type=int)
    p.add_argument("--out", required=True, help="measure output path (JSON)")
    _add_common(p, decimal=False)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the certificate suite for a stage")
    p.add_argument("stage", type=int)
    p.add_argument("--measure", default=None,
                   help="verify this measure file instead of a fresh build")
    p.add_argument("--tail-max", type=_int_at_least(2, "tail index"), default=12,
                   help="largest tail-estimate index to check (default 12)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ap", help="almost-period defect table at shifts p*3^s")
    p.add_argument("stage", type=int, help="scale exponent s of the candidate shifts")
    p.add_argument("--epsilon", required=True, help="defect tolerance (fraction)")
    p.add_argument("--range", required=True, help="largest |tau| to test (fraction)")
    p.add_argument("--fn", default=None, help="test function JSON (default: built-in triangle)")
    p.add_argument("--window", default="-1/2:1/2", metavar="LO:HI")
    _add_common(p)
    _add_report(p)
    p.set_defaults(func=cmd_ap)

    p = sub.add_parser("conv", help="convolve a test function with a measure file")
    p.add_argument("--measure", required=True)
    p.add_argument("--window", required=True, metavar="LO:HI")
    p.add_argument("--fn", default=None, help="test function JSON (default: built-in triangle)")
    p.add_argument("--csv", default=None, help="write (x, value) rows to this CSV file")
    p.add_argument("--samples", type=_int_at_least(0, "sample count"), default=0,
                   help="add this many uniform sample points to the output")
    _add_common(p, cap=False)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("match", help="match two measure files and profile their closeness")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--windows", required=True,
                   help="nested windows, e.g. '-2:2;-10:10;-40:40'")
    _add_common(p)
    _add_report(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("psi", help="product harness: origin identity and far-field bound")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--v", required=True, help="bump half width (fraction)")
    p.add_argument("--u", required=True, help="separation radius (fraction)")
    p.add_argument("--epsilon", required=True, help="mass gap tolerance (fraction)")
    p.add_argument("--compact", required=True, metavar="LO:HI",
                   help="compact region outside which closeness is assumed")
    p.add_argument("--n", type=int, default=None,
                   help="number of bump factors (default: sparsity bound)")
    p.add_argument("--samples", default=None,
                   help="comma-separated far-field sample points")
    p.add_argument("--zero-identity", action="store_true",
                   help="also check the product identity at the origin")
    _add_common(p)
    _add_report(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("lump", help="single-linkage lump decomposition of two measure files")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--v", required=True, help="linking distance (fraction)")
    p.add_argument("--u", default=None, help="lump-count radius (default: v)")
    _add_common(p, cap=False)
    _add_report(p)
    p.set_defaults(func=cmd_lump)

    # values like "-1/2" or "-10:10" start with a minus; treat any
    # dash-digit token as a value, not an option
    value_matcher = re.compile(r"^-\d")
    for sp in [parser, *sub.choices.values()]:
        sp._negative_number_matcher = value_matcher
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "cap", 0) is None:
        args.cap = construction.DEFAULT_ATOM_CAP
    try:
        _check_out_dirs(args)
        return args.func(args)
    except (construction.AtomBudgetError, construction.StageStabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # the library's usage errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
