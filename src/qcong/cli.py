"""Batch command-line front end.

Every leaf command (``expand``, ``verify theorem2|lehner|modeq|hrelation|
powersums|closure|cusp``, ``table valuations|bj``, ``scan alpha-gt-beta|
phi-powers``) has its own parser.  It accepts ``--p``, ``--format`` (the
formats it renders; the first is the default) and ``--output``, plus exactly
the flags it reads.  Flags follow the full command, and abbreviated flags are
not accepted: anything else is a usage error.

Exit codes: 0 = all checks passed, 1 = a verification found a counterexample,
2 = usage or configuration error (one ``error:`` line), 3 = internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from . import congruence, eta, hecke
from .basis import basis_element
from .congruence import j_series
from .primes import PrimeContext


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # reported like every other usage error: one "error:" line, exit 2
        raise UsageError(message)


def _leaf(sub, name: str, handler, formats, **flags) -> argparse.ArgumentParser:
    """A leaf command that renders ``formats`` and reads ``flags``.

    Each flag is given by its default: ``False`` makes a switch, ``None`` an
    int flag without a default, and any other value a flag of its type.
    """
    leaf = sub.add_parser(name, allow_abbrev=False)
    leaf.add_argument("--p", type=int, default=2, help="level (2, 3, 5 or 7)")
    leaf.add_argument("--format", choices=formats, default=formats[0])
    leaf.add_argument("--output", default=None, help="output file (default stdout)")
    for flag, default in flags.items():
        opt = "--" + flag.replace("_", "-")
        if default is False:
            leaf.add_argument(opt, action="store_true")
        else:
            leaf.add_argument(opt, type=int if default is None else type(default), default=default)
    leaf.set_defaults(handler=handler, exploratory=False)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcong",
        description="Exact q-expansions of level-p Hauptmoduln and mechanical "
        "verification of their coefficient divisibility properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every, text_json, csv_json = ("text", "json", "csv"), ("text", "json"), ("csv", "json")

    pe = _leaf(sub, "expand", _expand, every, precision=None, exploratory=False)
    group = pe.add_mutually_exclusive_group(required=True)
    group.add_argument("--psi", action="store_true")
    group.add_argument("--phi", action="store_true")
    group.add_argument("--basis", type=int, metavar="M")
    group.add_argument("--j", action="store_true")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv = pv.add_subparsers(dest="target", required=True)
    _leaf(pv, "theorem2", _theorem2, text_json, m_max=6, d_max=2, n_max=None, precision=None)
    _leaf(pv, "lehner", _lehner, text_json, m=1, d_max=2, n_max=None, precision=None)
    _leaf(pv, "modeq", _modeq, text_json, precision=None)
    _leaf(pv, "hrelation", _hrelation, text_json, precision=None)
    _leaf(pv, "powersums", _powersums, text_json, n_max=None)
    _leaf(pv, "closure", _closure, text_json, trials=100, deg_max=4, seed=0, precision=None)
    _leaf(pv, "cusp", _cusp, text_json, tau="0+1i", tol=1e-8)

    pt = sub.add_parser("table", help="render a table").add_subparsers(dest="which", required=True)
    _leaf(pt, "valuations", _valuations, every, rows="1,3,5,7", cols="2,4,6,8,10,12", with_j=False)
    _leaf(pt, "bj", _bj, every, precision=None)

    ps = sub.add_parser("scan", help="emit exploratory valuation data")
    ps = ps.add_subparsers(dest="which", required=True)
    _leaf(ps, "alpha-gt-beta", _alpha_scan, csv_json, m_max=8, n_max=32)
    _leaf(ps, "phi-powers", _phi_scan, csv_json, pow_max=3, d_max=2, n_max=32)
    return parser


def _precision(args, minimum: int = 16, default: int | None = 256) -> int | None:
    if args.precision is not None:
        prec = args.precision
    else:
        env = os.environ.get("QCONG_PRECISION")
        prec = int(env) if env else default
    if prec is not None and prec < minimum:
        raise UsageError(f"precision must be at least {minimum}")
    return prec


def _render(args, payload: dict, csv_rows, lines) -> None:
    """Write ``payload`` as JSON, ``csv_rows`` as CSV or ``lines`` as text."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc


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
        except OverflowError as exc:
            raise UsageError(f"tau component {v!r} is beyond double range") from exc

    if s[-1] not in "ij":
        return complex(part(s), 0.0)
    body = s[:-1]
    # cut at the last sign that is not leading and does not follow +, -, / or e
    cuts = [i for i in range(1, len(body)) if body[i] in "+-" and body[i - 1] not in "+-/e"]
    if not cuts:
        return complex(0.0, part(body))
    k = cuts[-1]
    return complex(part(body[:k]), (-1.0 if body[k] == "-" else 1.0) * part(body[k + 1 :]))


# ---------------------------------------------------------------------------
# leaf commands: each returns (JSON payload, CSV rows, text lines); a payload
# with "ok": False exits 1


def _expand(args, ctx):
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
    payload = {
        "p": ctx.p,
        "object": name,
        "valuation": series.val,
        "coefficients": [[str(n), str(c)] for n, c in pairs],
    }
    text = f"p={ctx.p} {name}: {series.pretty(max_terms=series.prec - series.val + 1)}"
    return payload, [("exponent", "coefficient")] + pairs, [text]


def _theorem2(args, ctx):
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
            f"FAIL m={c.m} beta={c.beta} n={c.n}: v_{c.p}={c.observed} "
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
    return payload, None, lines


def _lehner(args, ctx):
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
    return payload, None, lines


def _modeq(args, ctx):
    prec = _precision(args, default=128)
    eq = hecke.derive_bj(ctx, prec)
    expected = hecke.BJ_TABLE[ctx.p]
    ok = eq.b == expected
    lines = [f"modeq p={ctx.p} N={prec}"]
    for j, b in enumerate(eq.b, start=1):
        lines.append(f"b_{j} = {b}")
    lines.append("PASS" if ok else f"FAIL (expected {expected})")
    return {"target": "modeq", "p": ctx.p, "ok": ok, "b": [str(b) for b in eq.b]}, None, lines


def _hrelation(args, ctx):
    prec = _precision(args, default=128)
    residual = hecke.verify_hpoly_relation(ctx, prec)
    ok = residual.is_zero()
    lines = [
        f"hrelation p={ctx.p} N={prec}: residual "
        + ("zero to precision, PASS" if ok else f"nonzero at q^{residual.val}, FAIL")
    ]
    return {"target": "hrelation", "p": ctx.p, "ok": ok}, None, lines


def _powersums(args, ctx):
    n_max = 2 * ctx.p if args.n_max is None else args.n_max
    report = hecke.verify_power_sum_divisibility(ctx, n_max)
    lines = [f"powersums p={ctx.p} n<={n_max}"]
    for row in report.rows:
        lines.append(
            f"n={row.n}: observed t={row.observed_t} required>={row.required} "
            + ("ok" if row.ok else "FAIL")
        )
    lines.append("PASS" if report.ok else "FAIL")
    payload = {
        "target": "powersums",
        "p": ctx.p,
        "ok": report.ok,
        "rows": [[r.n, str(r.observed_t), r.required, r.ok] for r in report.rows],
    }
    return payload, None, lines


def _closure(args, ctx):
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
        error = f" ({t.error})" if t.error else ""
        lines.append(f"FAIL trial {t.index}: t={t.observed_t}{error}")
    return {"target": "closure", "p": ctx.p, "ok": report.ok, "trials": args.trials}, None, lines


def _cusp(args, ctx):
    # a tolerance nothing can meet would read as a counterexample
    if not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be a positive finite number, got {args.tol:g}")
    tau = parse_tau(args.tau)
    residual = eta.check_cusp_relation(ctx, tau)
    ok = residual < args.tol
    lines = [
        f"cusp p={ctx.p} tau={tau}: residual {residual:.3e} "
        + (f"< {args.tol:g}, PASS" if ok else f">= {args.tol:g}, FAIL")
    ]
    return {"target": "cusp", "p": ctx.p, "ok": ok, "residual": residual}, None, lines


def _parse_int_list(text: str, what: str):
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} list {text!r}") from exc
    if not values:
        raise UsageError(f"--{what} must list at least one integer")
    return values


def _valuations(args, ctx):
    ms = _parse_int_list(args.rows, "rows")
    ns = _parse_int_list(args.cols, "cols")
    if min(ns) < 0:
        raise UsageError(f"--cols takes coefficient indices n >= 0, got {min(ns)}")
    table = congruence.valuation_table(ctx, ms, ns, include_j=args.with_j)
    cols = list(table.col_labels)
    rows = [
        [str(label)] + [str(v) for v in row]
        for label, row in zip(table.row_labels, table.rows)
    ]
    lines = [f"v_{table.p} of basis coefficients (rows: pole order, cols: index)"]
    lines += ["".join(f"{cell:>6}" for cell in row) for row in [[""] + cols] + rows]
    payload = {"p": table.p, "table": "valuations", "cols": cols, "rows": rows}
    return payload, [["m\\n"] + cols] + rows, lines


def _bj(args, ctx):
    rows = list(enumerate(hecke.derive_bj(ctx, _precision(args, default=128)).b, start=1))
    lines = [f"modular-equation coefficients, p={ctx.p}"] + [f"  {j}  {b}" for j, b in rows]
    payload = {"p": ctx.p, "table": "bj", "rows": [[j, str(b)] for j, b in rows]}
    return payload, [("j", "b_j")] + rows, lines


def _scan(ctx, name: str, first_column: str, rows):
    columns = [first_column, "beta", "n", f"v_{ctx.p}"]
    rows = [[a, b, c, str(v)] for a, b, c, v in rows]
    return {"p": ctx.p, "scan": name, "columns": columns, "rows": rows}, [columns] + rows, None


def _alpha_scan(args, ctx):
    rows = congruence.scan_alpha_gt_beta(ctx, args.m_max, args.n_max)
    return _scan(ctx, "alpha-gt-beta", "m", rows)


def _phi_scan(args, ctx):
    rows = congruence.scan_phi_powers(ctx, args.pow_max, args.d_max, args.n_max)
    return _scan(ctx, "phi-powers", "k", rows)


def run(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # only leaf commands take flags: argparse would read the value of a
        # flag placed before the full command as the command itself
        for word in argv[: 2 if argv[:1] in (["verify"], ["table"], ["scan"]) else 1]:
            if word.startswith("-") and word not in ("-h", "--help"):
                raise UsageError(f"misplaced flag {word.split('=')[0]}: flags follow the full "
                                 "command, as in 'qcong verify modeq --p 3'")
        args = build_parser().parse_args(argv)
        # PrimeContext raises ValueError for an unsupported level
        payload, csv_rows, lines = args.handler(args, PrimeContext(args.p, args.exploratory))
        _render(args, payload, csv_rows, lines)
        return 0 if payload.get("ok", True) else 1
    except SystemExit as exc:  # --help
        return exc.code
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
