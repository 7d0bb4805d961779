"""Batch command-line front end.

Exit codes: 0 = all checks passed, 1 = a verification found a counterexample,
2 = usage or configuration error, 3 = internal error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from . import congruence, eta, hecke
from .basis import basis_element
from .congruence import j_series
from .primes import GENUS_ZERO_PRIMES, PrimeContext


class UsageError(Exception):
    pass


def _common_flags(sub: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    # each subcommand offers only the formats it renders; the first is the default
    sub.add_argument("--p", type=int, default=2, help="level (2, 3, 5 or 7; 13 needs --exploratory)")
    sub.add_argument("--precision", type=int, default=None, help="series precision override")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", default=None, help="output file (default stdout)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--exploratory", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-expansions of level-p Hauptmoduln and mechanical "
        "verification of their coefficient divisibility properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="print a q-expansion")
    _common_flags(pe)
    group = pe.add_mutually_exclusive_group(required=True)
    group.add_argument("--psi", action="store_true")
    group.add_argument("--phi", action="store_true")
    group.add_argument("--basis", type=int, metavar="M")
    group.add_argument("--j", action="store_true")

    pv = sub.add_parser("verify", help="run a verification suite")
    _common_flags(pv, formats=("text", "json"))
    pv.add_argument(
        "target",
        choices=("theorem2", "lehner", "modeq", "hrelation", "powersums", "closure", "cusp"),
    )
    pv.add_argument("--m", type=int, default=1, help="pole order (lehner)")
    pv.add_argument("--m-max", type=int, default=6)
    pv.add_argument("--d-max", type=int, default=2)
    pv.add_argument("--n-max", type=int, default=None)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--deg-max", type=int, default=4)
    pv.add_argument("--tau", default="0+1i")
    pv.add_argument("--tol", type=float, default=1e-8)

    pt = sub.add_parser("table", help="render a table")
    _common_flags(pt)
    pt.add_argument("which", choices=("valuations", "bj"))
    pt.add_argument("--rows", default="1,3,5,7")
    pt.add_argument("--cols", default="2,4,6,8,10,12")
    pt.add_argument("--with-j", action="store_true")

    ps = sub.add_parser("scan", help="emit exploratory valuation data")
    _common_flags(ps, formats=("csv", "json"))
    ps.add_argument("which", choices=("alpha-gt-beta", "phi-powers"))
    ps.add_argument("--m-max", type=int, default=8)
    ps.add_argument("--n-max", type=int, default=32)
    ps.add_argument("--pow-max", type=int, default=3)
    ps.add_argument("--d-max", type=int, default=2)

    return parser


def _context(args) -> PrimeContext:
    p = args.p
    if p in GENUS_ZERO_PRIMES:
        return PrimeContext(p)
    if p == 13 and args.exploratory:
        if args.command != "expand":
            raise UsageError("p=13 is exploratory: only 'expand' is supported")
        return PrimeContext(13, exploratory=True)
    raise UsageError(f"unsupported level p={p} (13 requires --exploratory)")


def _precision(args, minimum: int = 16, default: int | None = 256) -> int | None:
    if args.precision is not None:
        prec = args.precision
    else:
        env = os.environ.get("QCONG_PRECISION")
        prec = int(env) if env else default
    if prec is not None and prec < minimum:
        raise UsageError(f"precision must be at least {minimum}")
    return prec


def _no_precision(args, name: str) -> None:
    # the command chooses its own precision; an override would be silently ignored
    if args.precision is not None:
        raise UsageError(f"--precision has no effect on {name}")


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_quote(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(fields) -> str:
    return ",".join(_csv_quote(str(f)) for f in fields) + "\r\n"


def _fmt_val(v) -> str:
    return "inf" if v == math.inf else str(v)


def parse_tau(text: str) -> complex:
    """Parse 'a+bi' with rational or decimal parts, e.g. '0+1i', '1/3+i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise UsageError("empty tau")

    def part(v: str) -> float:
        if v in ("", "+"):
            return 1.0
        if v == "-":
            return -1.0
        try:
            return float(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse tau component {v!r}") from exc

    # split at the last +/- that is not leading
    split = None
    for i in range(len(s) - 1, 0, -1):
        if s[i] in "+-" and s[i - 1] not in "+-/e":
            split = i
            break
    if s.endswith("i") or s.endswith("j"):
        body = s[:-1]
        if split is None or split >= len(body) + 1:
            return complex(0.0, part(body))
        if split > len(body):
            split = None
        re_part, im_part = s[:split], s[split:-1]
        sign = 1.0
        if im_part and im_part[0] in "+-":
            sign = -1.0 if im_part[0] == "-" else 1.0
            im_part = im_part[1:]
        return complex(part(re_part), sign * part(im_part or "1"))
    return complex(part(s), 0.0)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_expand(args) -> int:
    ctx = _context(args)
    prec = _precision(args, minimum=0)
    if args.psi:
        name, series = "psi", eta.psi(ctx, prec)
    elif args.phi:
        name, series = "phi", eta.phi(ctx, max(prec, 1))
    elif args.j:
        name, series = "j", j_series(prec)
    else:
        m = args.basis
        if m < 0:
            raise UsageError("basis pole order must be nonnegative")
        name, series = f"basis-{m}", basis_element(ctx, m, prec).series
    pairs = [(n, series.coeff(n)) for n in range(series.val, series.prec + 1)]
    if args.format == "json":
        payload = {
            "p": ctx.p,
            "object": name,
            "valuation": series.val,
            "coefficients": [[str(n), str(c)] for n, c in pairs],
        }
        _emit(args, _json_dump(payload))
    elif args.format == "csv":
        out = [_csv_line(("exponent", "coefficient"))]
        out += [_csv_line((n, c)) for n, c in pairs]
        _emit(args, "".join(out))
    else:
        _emit(args, f"p={ctx.p} {name}: {series.pretty(max_terms=series.prec - series.val + 1)}\n")
    return 0


def _verify_theorem2(args, ctx):
    prec = _precision(args, default={2: 4096}.get(ctx.p, 2048))
    report = congruence.verify_theorem2(
        ctx, m_max=args.m_max, d_max=args.d_max, n_max=args.n_max, base_prec=prec
    )
    lines = [
        f"theorem2 p={ctx.p} m<={args.m_max} d<={args.d_max} base_prec={report.base_prec}",
        f"cases checked: {len(report.cases)}",
    ]
    for c in report.failures[:5]:
        lines.append(
            f"FAIL m={c.m} beta={c.beta} n={c.n}: v_{c.p}={_fmt_val(c.observed)} "
            f"< required {c.required} (coefficient {c.value})"
        )
    lines.append("PASS" if report.ok else f"FAIL ({len(report.failures)} counterexamples)")
    payload = {
        "target": "theorem2",
        "p": ctx.p,
        "ok": report.ok,
        "cases": len(report.cases),
        "failures": len(report.failures),
        "base_prec": report.base_prec,
    }
    return report.ok, lines, payload


def _verify_lehner(args, ctx):
    if not 1 <= args.m < ctx.p:
        raise UsageError(f"--m must satisfy 1 <= m < {ctx.p}")
    report = congruence.verify_theorem2(
        ctx,
        m_max=args.m,
        d_max=args.d_max,
        n_max=32 if args.n_max is None else args.n_max,
        # without an override the precision follows from n_max
        base_prec=_precision(args, default=None),
    )
    lines = [
        f"lehner p={ctx.p} m={args.m} d<={args.d_max}: "
        f"{len(report.cases)} cases, " + ("PASS" if report.ok else "FAIL")
    ]
    payload = {"target": "lehner", "p": ctx.p, "ok": report.ok, "cases": len(report.cases)}
    return report.ok, lines, payload


def _verify_modeq(args, ctx):
    prec = _precision(args, default=128)
    eq = hecke.derive_bj(ctx, prec)
    expected = hecke.BJ_TABLE[ctx.p]
    ok = eq.b == expected
    lines = [f"modeq p={ctx.p} N={prec}"]
    for j, b in enumerate(eq.b, start=1):
        lines.append(f"b_{j} = {b}")
    lines.append("PASS" if ok else f"FAIL (expected {expected})")
    payload = {"target": "modeq", "p": ctx.p, "ok": ok, "b": [str(b) for b in eq.b]}
    return ok, lines, payload


def _verify_hrelation(args, ctx):
    prec = _precision(args, default=128)
    residual = hecke.verify_hpoly_relation(ctx, prec)
    ok = residual.is_zero()
    lines = [
        f"hrelation p={ctx.p} N={prec}: residual "
        + ("zero to precision, PASS" if ok else f"nonzero at w^{residual.val}, FAIL")
    ]
    payload = {"target": "hrelation", "p": ctx.p, "ok": ok}
    return ok, lines, payload


def _verify_powersums(args, ctx):
    _no_precision(args, "verify powersums")
    n_max = 2 * ctx.p if args.n_max is None else args.n_max
    report = hecke.verify_power_sum_divisibility(ctx, n_max)
    lines = [f"powersums p={ctx.p} n<={n_max}"]
    for row in report.rows:
        lines.append(
            f"n={row.n}: observed t={_fmt_val(row.observed_t)} required>={row.required} "
            + ("ok" if row.ok else "FAIL")
        )
    lines.append("PASS" if report.ok else "FAIL")
    payload = {
        "target": "powersums",
        "p": ctx.p,
        "ok": report.ok,
        "rows": [[r.n, _fmt_val(r.observed_t), r.required, r.ok] for r in report.rows],
    }
    return report.ok, lines, payload


def _verify_closure(args, ctx):
    report = hecke.verify_up_closure(
        ctx, trials=args.trials, deg_max=args.deg_max, seed=args.seed,
        n=_precision(args, default=None),  # None: follows from p and deg_max
    )
    bad = [t for t in report.trials if not t.ok]
    lines = [
        f"closure p={ctx.p} trials={args.trials} deg<={args.deg_max} "
        f"delta={ctx.delta}: {len(bad)} failures, "
        + ("PASS" if report.ok else "FAIL")
    ]
    for t in bad[:5]:
        lines.append(f"FAIL trial {t.index}: t={_fmt_val(t.observed_t)} ({t.error})")
    payload = {"target": "closure", "p": ctx.p, "ok": report.ok, "trials": args.trials}
    return report.ok, lines, payload


def _verify_cusp(args, ctx):
    _no_precision(args, "verify cusp")
    tau = parse_tau(args.tau)
    residual = eta.check_cusp_relation(ctx, tau)
    ok = residual < args.tol
    lines = [
        f"cusp p={ctx.p} tau={tau}: residual {residual:.3e} "
        + (f"< {args.tol:g}, PASS" if ok else f">= {args.tol:g}, FAIL")
    ]
    payload = {"target": "cusp", "p": ctx.p, "ok": ok, "residual": residual}
    return ok, lines, payload


def _cmd_verify(args) -> int:
    ctx = _context(args)
    handler = {
        "theorem2": _verify_theorem2,
        "lehner": _verify_lehner,
        "modeq": _verify_modeq,
        "hrelation": _verify_hrelation,
        "powersums": _verify_powersums,
        "closure": _verify_closure,
        "cusp": _verify_cusp,
    }[args.target]
    ok, lines, payload = handler(args, ctx)
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _parse_int_list(text: str, what: str):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} list {text!r}") from exc


def _cmd_table(args) -> int:
    ctx = _context(args)
    if args.which == "bj":
        prec = _precision(args, default=128)
        eq = hecke.derive_bj(ctx, prec)
        rows = [(j, b) for j, b in enumerate(eq.b, start=1)]
        if args.format == "json":
            _emit(args, _json_dump({"p": ctx.p, "table": "bj", "rows": [[j, str(b)] for j, b in rows]}))
        elif args.format == "csv":
            out = [_csv_line(("j", "b_j"))] + [_csv_line(r) for r in rows]
            _emit(args, "".join(out))
        else:
            lines = [f"modular-equation coefficients, p={ctx.p}"]
            lines += [f"  {j}  {b}" for j, b in rows]
            _emit(args, "\n".join(lines) + "\n")
        return 0

    _no_precision(args, "table valuations")
    ms = _parse_int_list(args.rows, "rows")
    ns = _parse_int_list(args.cols, "cols")
    if not ms or not ns:
        raise UsageError("rows and cols must be nonempty")
    if min(ns) < 0:
        raise UsageError(f"--cols takes coefficient indices n >= 0, got {min(ns)}")
    table = congruence.valuation_table(ctx, ms, ns, include_j=args.with_j)
    if args.format == "json":
        payload = {
            "p": table.p,
            "table": "valuations",
            "cols": list(table.col_labels),
            "rows": [
                [str(label)] + [_fmt_val(v) for v in row]
                for label, row in zip(table.row_labels, table.rows)
            ],
        }
        _emit(args, _json_dump(payload))
    elif args.format == "csv":
        out = [_csv_line(["m\\n"] + list(table.col_labels))]
        for label, row in zip(table.row_labels, table.rows):
            out.append(_csv_line([label] + [_fmt_val(v) for v in row]))
        _emit(args, "".join(out))
    else:
        width = 6
        header = f"v_{table.p} of basis coefficients (rows: pole order, cols: index)"
        lines = [header, " " * width + "".join(f"{n:>{width}}" for n in table.col_labels)]
        for label, row in zip(table.row_labels, table.rows):
            lines.append(
                f"{str(label):>{width}}" + "".join(f"{_fmt_val(v):>{width}}" for v in row)
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_scan(args) -> int:
    ctx = _context(args)
    _no_precision(args, f"scan {args.which}")
    if args.which == "alpha-gt-beta":
        rows = congruence.scan_alpha_gt_beta(ctx, args.m_max, args.n_max)
        header = ("m", "beta", "n", f"v_{ctx.p}")
    else:
        rows = congruence.scan_phi_powers(ctx, args.pow_max, args.d_max, args.n_max)
        header = ("k", "beta", "n", f"v_{ctx.p}")
    if args.format == "json":
        _emit(
            args,
            _json_dump(
                {
                    "p": ctx.p,
                    "scan": args.which,
                    "columns": list(header),
                    "rows": [[r[0], r[1], r[2], _fmt_val(r[3])] for r in rows],
                }
            ),
        )
    else:
        out = [_csv_line(header)]
        out += [_csv_line((a, b, c, _fmt_val(v))) for a, b, c, v in rows]
        _emit(args, "".join(out))
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "scan":
            return _cmd_scan(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        # the library raises ValueError (PrecisionError included) for an
        # argument out of range, so bad input never looks like a counterexample
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
