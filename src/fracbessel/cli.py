"""Command-line front end: evaluation tables, convergence maps, identity audits.

Each subcommand is a thin shell over the library: the library checks its own
arguments, and one map in main() turns its errors into exit codes.
Exit codes: 0 success, 1 argument/domain validation failure, 2 numerical
failure (tolerance not met, a series that did not converge, or an asserted
identity check failing).  CSV and text print every real with 17 significant
digits; a JSON payload is one line, each float its shortest round-trip repr
(pipe it through ``python -m json.tool`` for an indented view).  Both
round-trip float64 exactly, so written tables double as test fixtures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

from .errors import DomainError, ToleranceNotMet
from .oracle import k_oracle, verify_m4a, verify_m4b, verify_m5a, verify_m5b
from .series import OrderArg, adjudicate_m10, k_series_m9, k_series_m10, k_series_rearranged
from .truncation import TruncationPolicy

#: --method name -> (row label, K series evaluator); "oracle" is served apart.
_SERIES = {
    "rearranged": ("REARRANGED", k_series_rearranged),
    "m9": ("RAW_M9", k_series_m9),
    "m10": ("M10_REG", k_series_m10),
}
_METHODS = sorted([*_SERIES, "oracle"])

# Built-in verification grids.  Analytic anchor rows carry their own pinned
# tolerances and are always asserted; the rest use the default (or --tol).
_M4A_GRID = [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.5, 1.0, 0.5), (1.5, 0.5, 2.0)]
_M4B_GRID = [(1.0, 1.0, 1.0), (1.5, 1.0, 2.0), (0.7, 3.0, 1.0)]
_M5A_GRID = [(-0.5, 1.0, 1.0), (-0.25, 2.0, 1.0), (-0.9, 1.0, 2.0)]
_M5B_GRID = [(-0.25, 1.0, 1.0), (-0.25, 1.0, 4.0), (-0.4, 2.0, 2.0)]
_M10_GRID = [
    OrderArg(0.5, 1.0),
    OrderArg(0.5, 2.0),
    OrderArg(1.5, 2.0),
    OrderArg(0.7, 1.0),
    OrderArg(1.2, 0.5),
    OrderArg(2.5, 1.0),
]
_ANCHOR = (1.0, 1.0, 1.0)  # mu = beta = x = 1, where both sides of M4A/M4B equal e^{-1}
_ANCHOR_TOL_M4 = 1e-10
_ANCHOR_TOL_INFO = 1e-9

#: ``converge``'s status for each ``SeriesApproximation.stop_reason``.
_STATUS = {
    "terminated": "converged",
    "converged": "converged",
    "budget": "max-terms",
    "diverging": "diverging",
}

#: Most points one lo:hi:step range may expand to.
_MAX_RANGE_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad arguments; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass
class OutputRow:
    """One evaluated point; its fields, in order, are the CSV and JSON schema."""

    s: float
    z: float
    method: str
    terms: int
    value: float
    converged: bool
    rel_err_vs_oracle: float | None = None


CSV_FIELDS = [f.name for f in fields(OutputRow)]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return "" if v is None else str(v)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"could not parse --{name} {text!r} as comma-separated reals")
    if not values:
        raise DomainError(f"--{name} produced an empty list")
    return values


def _parse_range(text: str, name: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"--{name} must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"could not parse --{name} {text!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise DomainError(f"--{name} needs finite lo, hi and step, got {text!r}")
    if step <= 0:
        raise DomainError(f"--{name} step must be positive, got {step!r}")
    if hi < lo:
        raise DomainError(f"--{name} needs lo <= hi, got {text!r}")
    span = (hi - lo) / step + 1e-9  # may be inf, so it is capped before floor()
    if span >= _MAX_RANGE_POINTS:
        raise DomainError(f"--{name} {text!r} makes more than {_MAX_RANGE_POINTS} points")
    return [lo + i * step for i in range(math.floor(span) + 1)]


def _evaluate(
    s: float,
    z: float,
    method: str,
    policy: TruncationPolicy,
    oracle: float | None = None,
) -> OutputRow:
    """Evaluate one point; ``oracle``, when given, is K_s(z) from ``k_oracle``,
    reused for the ORACLE row instead of a second quadrature."""
    if method == "oracle":
        value = k_oracle(s, z) if oracle is None else oracle
        return OutputRow(s=s, z=z, method="ORACLE", terms=0, value=value, converged=True)
    label, evaluate = _SERIES[method]
    approx = evaluate(abs(s), z, policy)
    return OutputRow(s, z, label, approx.terms_used, approx.value, approx.converged)


def _rows_to_csv(rows: list[OutputRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([_cell(v) for v in vars(r).values()] for r in rows)
    return buf.getvalue()


def _rows_to_json(rows: list[OutputRow]) -> str:
    return json.dumps([vars(r) for r in rows]) + "\n"


# --- subcommands -------------------------------------------------------------

def _cmd_eval(args) -> int:
    row = _evaluate(args.s, args.z, args.method, TruncationPolicy(max_terms=args.max_terms))
    if args.json:
        sys.stdout.write(_rows_to_json([row]))
    elif args.csv:
        sys.stdout.write(_rows_to_csv([row]))
    else:
        print(" ".join(f"{k}={_cell(v)}" for k, v in vars(row).items() if v is not None))
    if not row.converged:
        print("warning: series did not converge; value is the last partial sum", file=sys.stderr)
        return 2
    return 0


def _cmd_table(args) -> int:
    s_values = _parse_float_list(args.s_list, "s-list")
    z_values = _parse_float_list(args.z_list, "z-list")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError("--methods produced an empty list")
    for m in methods:
        if m not in _METHODS:
            raise DomainError(f"unknown method {m!r} (choose from {_METHODS})")
    policy = TruncationPolicy(max_terms=args.max_terms)
    rows = []
    for s in s_values:
        for z in z_values:
            ref = k_oracle(s, z) if args.with_oracle or "oracle" in methods else None
            for m in methods:
                row = _evaluate(s, z, m, policy, ref)
                if args.with_oracle:
                    row.rel_err_vs_oracle = abs(row.value - ref) / max(abs(ref), 1e-300)
                rows.append(row)
    payload = _rows_to_json(rows) if args.json else _rows_to_csv(rows)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        return _fail(f"cannot write {args.out!r}: {exc}", 1)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_converge(args) -> int:
    s_values = _parse_range(args.s_range, "s-range")
    z_values = _parse_range(args.z_range, "z-range")
    # per-point DomainErrors become "rejected" rows, so a z grid that is
    # wrong as a whole is refused here
    if z_values[0] <= 0:
        raise DomainError(f"every z must be positive, got --z-range {args.z_range!r}")
    policy = TruncationPolicy(max_terms=args.max_terms)

    _, evaluate = _SERIES["rearranged"]
    statuses: dict[str, int] = {"converged": 0, "max-terms": 0, "diverging": 0, "rejected": 0}
    converged_s: set[float] = set()
    for s in s_values:
        for z in z_values:
            try:
                approx = evaluate(abs(s), z, policy)
            except DomainError:
                status, terms, last = "rejected", 0, math.nan
            else:
                status, terms, last = _STATUS[approx.stop_reason], approx.terms_used, approx.last_term_abs
            if status == "converged":
                converged_s.add(s)
            statuses[status] += 1
            print(f"s={_fmt(s)} z={_fmt(z)} status={status} terms={terms} last_term={last:.3e}")
    total = sum(statuses.values())
    print(
        f"summary: {total} points | converged {statuses['converged']} | "
        f"max-terms {statuses['max-terms']} | diverging {statuses['diverging']} | "
        f"rejected {statuses['rejected']}"
    )
    if converged_s:
        ss = ", ".join(_fmt(s) for s in sorted(converged_s))
        print(f"empirically converged for some z at: s in {{{ss}}}")
    else:
        print("empirically converged region: empty on this grid")
    return 0


def _verify_records(identity: str, tol: float):
    """Yield (record, asserted) pairs for one identity's built-in grid."""
    if identity in ("m4a", "m4b", "m5a"):
        # built per call, so the module-level names are looked up at call time
        verify, grid = {
            "m4a": (verify_m4a, _M4A_GRID),
            "m4b": (verify_m4b, _M4B_GRID),
            "m5a": (verify_m5a, _M5A_GRID),
        }[identity]
        for point in grid:
            yield verify(*point, tol=_ANCHOR_TOL_M4 if point == _ANCHOR else tol), True
    elif identity == "m5b":
        for s, beta, x in _M5B_GRID:
            anchor = x == 1.0  # both readings coincide there and are forced
            printed, alt = verify_m5b(s, beta, x, tol=_ANCHOR_TOL_INFO if anchor else tol)
            yield printed, anchor
            yield alt, anchor
    else:
        for point in _M10_GRID:
            forced = point.s == 0.5  # the k = 0 term is analytically forced there
            (rec,) = adjudicate_m10([point], tol=_ANCHOR_TOL_INFO if forced else tol)
            yield rec, forced


def _cmd_verify(args) -> int:
    identities = ["m4a", "m4b", "m5a", "m5b", "m10"] if args.identity == "all" else [args.identity]
    pairs = [pair for ident in identities for pair in _verify_records(ident, args.tol)]
    if args.json:
        out = [{**rec.as_dict(), "asserted": asserted} for rec, asserted in pairs]
        sys.stdout.write(json.dumps(out) + "\n")
    else:
        for rec, asserted in pairs:
            kind = "ASSERT" if asserted else "INFO  "
            verdict = "pass" if rec.passed else "FAIL"
            params = " ".join(f"{k}={_fmt(v)}" for k, v in rec.params.items())
            print(
                f"[{kind}] {rec.identity_id:7s} {params} lhs={_fmt(rec.lhs)} "
                f"rhs={_fmt(rec.rhs)} rel_dev={rec.rel_dev:.3e} tol={rec.tol:.1e} {verdict}"
            )
    failed = [rec for rec, asserted in pairs if asserted and not rec.passed]
    if failed:
        print(f"error: {len(failed)} asserted identity check(s) failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracbessel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate K_s(z) by one method")
    p_eval.add_argument("--s", type=float, required=True)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--method", choices=_METHODS, default="rearranged")
    p_eval.add_argument("--max-terms", type=int, default=200)
    fmt = p_eval.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table", help="evaluate a full (s, z, method) grid")
    p_table.add_argument(
        "--s-list", required=True,
        help="comma-separated orders; write --s-list=-1.5,2 when the first is negative",
    )
    p_table.add_argument("--z-list", required=True, help="comma-separated positive arguments")
    p_table.add_argument("--methods", default="rearranged", help="comma-separated methods")
    p_table.add_argument("--with-oracle", action="store_true", help="add rel_err_vs_oracle column")
    p_table.add_argument("--max-terms", type=int, default=200)
    p_table.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    p_table.add_argument("--out", required=True, help="output path")
    p_table.set_defaults(func=_cmd_table)

    p_conv = sub.add_parser("converge", help="map empirical convergence over a grid")
    p_conv.add_argument(
        "--s-range", required=True, help="lo:hi:step; write --s-range=-1:1:0.5 when lo is negative"
    )
    p_conv.add_argument("--z-range", required=True, help="lo:hi:step (positive)")
    p_conv.add_argument("--max-terms", type=int, default=200)
    p_conv.set_defaults(func=_cmd_converge)

    p_ver = sub.add_parser("verify", help="run the identity-verification suite")
    p_ver.add_argument(
        "--identity",
        choices=["m4a", "m4b", "m5a", "m5b", "m10", "all"],
        default="all",
    )
    p_ver.add_argument(
        "--tol",
        type=float,
        default=1e-7,
        help="tolerance for non-anchor rows (analytic anchors keep their pinned tolerances)",
    )
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


#: Built once at import and only read after that: ``parse_args`` keeps no
#: state between calls.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        return _fail(str(exc), 1)
    except ToleranceNotMet as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
