"""Command-line front end: evaluation tables, convergence maps, identity audits.

Exit codes: 0 success, 1 argument/domain validation failure, 2 numerical
failure (series divergence, tolerance not met, or an asserted identity
check failing).  All reals are printed with 17 significant digits, which
round-trips float64 exactly, so written tables double as test fixtures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, PoleError, SeriesDiverged, ToleranceNotMet
from .oracle import k_oracle, verify_m4a, verify_m4b, verify_m5a, verify_m5b
from .series import OrderArg, adjudicate_m10, k_series_m9, k_series_m10, k_series_rearranged
from .truncation import TruncationPolicy

CSV_FIELDS = ["s", "z", "method", "terms", "value", "converged", "rel_err_vs_oracle"]

_METHOD_LABEL = {
    "rearranged": "REARRANGED",
    "m9": "RAW_M9",
    "m10": "M10_REG",
    "oracle": "ORACLE",
}

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
_ANCHOR_TOL_M4 = 1e-10
_ANCHOR_TOL_INFO = 1e-9

#: Most points one lo:hi:step range may expand to.
_MAX_RANGE_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad arguments; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass(frozen=True)
class GridSpec:
    """Validated (s, z) evaluation grid: non-empty, every z positive."""

    s_values: tuple[float, ...]
    z_values: tuple[float, ...]

    def __post_init__(self):
        if not self.s_values or not self.z_values:
            raise DomainError("grid must have at least one s and one z value")
        bad = [z for z in self.z_values if z <= 0]
        if bad:
            raise DomainError(f"every z must be positive, got {bad!r}")

    def points(self):
        for s in self.s_values:
            for z in self.z_values:
                yield s, z


@dataclass
class OutputRow:
    s: float
    z: float
    method: str
    terms: int
    value: float
    converged: bool
    rel_err_vs_oracle: float | None = None

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "z": self.z,
            "method": self.method,
            "terms": self.terms,
            "value": self.value,
            "converged": self.converged,
            "rel_err_vs_oracle": self.rel_err_vs_oracle,
        }


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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
    # the loop below makes floor((hi - lo) / step + 1e-9) + 1 points
    if (hi - lo) / step + 1e-9 >= _MAX_RANGE_POINTS:
        raise DomainError(f"--{name} {text!r} makes more than {_MAX_RANGE_POINTS} points")
    out = []
    i = 0
    while True:
        v = lo + i * step
        if v > hi + 1e-9 * step:
            break
        out.append(v)
        i += 1
    return out


def _evaluate(
    s: float, z: float, method: str, policy: TruncationPolicy, oracle: float | None = None
) -> OutputRow:
    """Evaluate one point; SeriesDiverged is folded into the row flags.

    ``oracle``, when given, is K_s(z) from ``k_oracle``, reused for the
    ORACLE row instead of a second quadrature.
    """
    if method == "oracle":
        value = k_oracle(s, z) if oracle is None else oracle
        return OutputRow(s=s, z=z, method="ORACLE", terms=0, value=value, converged=True)
    s_eff = abs(s)
    try:
        if method == "rearranged":
            approx = k_series_rearranged(s_eff, z, policy)
        elif method == "m9":
            approx = k_series_m9(s_eff, z, policy)
        elif method == "m10":
            approx = k_series_m10(s_eff, z, policy, regularized=True)
        else:
            raise DomainError(f"unknown method {method!r}")
    except SeriesDiverged as exc:
        approx = exc.approximation
    return OutputRow(
        s=s,
        z=z,
        method=_METHOD_LABEL[method],
        terms=approx.terms_used,
        value=approx.value,
        converged=approx.converged,
    )


def _rows_to_csv(rows: list[OutputRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow(
            [
                _fmt(r.s),
                _fmt(r.z),
                r.method,
                str(r.terms),
                _fmt(r.value),
                "true" if r.converged else "false",
                "" if r.rel_err_vs_oracle is None else _fmt(r.rel_err_vs_oracle),
            ]
        )
    return buf.getvalue()


def _rows_to_json(rows: list[OutputRow]) -> str:
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"


# --- subcommands -------------------------------------------------------------

def _cmd_eval(args) -> int:
    try:
        policy = TruncationPolicy(max_terms=args.max_terms)
        row = _evaluate(args.s, args.z, args.method, policy)
    except (DomainError, PoleError) as exc:
        return _fail(str(exc), 1)
    except ToleranceNotMet as exc:
        return _fail(str(exc), 2)
    if args.json:
        sys.stdout.write(_rows_to_json([row]))
    elif args.csv:
        sys.stdout.write(_rows_to_csv([row]))
    else:
        print(
            f"s={_fmt(row.s)} z={_fmt(row.z)} method={row.method} "
            f"terms={row.terms} value={_fmt(row.value)} "
            f"converged={'true' if row.converged else 'false'}"
        )
    if not row.converged:
        print("warning: series did not converge; value is the last partial sum", file=sys.stderr)
        return 2
    return 0


def _cmd_table(args) -> int:
    try:
        grid = GridSpec(
            tuple(_parse_float_list(args.s_list, "s-list")),
            tuple(_parse_float_list(args.z_list, "z-list")),
        )
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        if not methods:
            raise DomainError("--methods produced an empty list")
        for m in methods:
            if m not in _METHOD_LABEL:
                raise DomainError(f"unknown method {m!r} (choose from {sorted(_METHOD_LABEL)})")
        policy = TruncationPolicy(max_terms=args.max_terms)
        rows = []
        for s, z in grid.points():
            ref = k_oracle(s, z) if args.with_oracle or "oracle" in methods else None
            for m in methods:
                row = _evaluate(s, z, m, policy, ref)
                if args.with_oracle:
                    row.rel_err_vs_oracle = abs(row.value - ref) / max(abs(ref), 1e-300)
                rows.append(row)
    except (DomainError, PoleError) as exc:
        return _fail(str(exc), 1)
    except ToleranceNotMet as exc:
        return _fail(str(exc), 2)
    payload = _rows_to_json(rows) if args.json else _rows_to_csv(rows)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        return _fail(f"cannot write {args.out!r}: {exc}", 1)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_converge(args) -> int:
    try:
        grid = GridSpec(
            tuple(_parse_range(args.s_range, "s-range")),
            tuple(_parse_range(args.z_range, "z-range")),
        )
        policy = TruncationPolicy(max_terms=args.max_terms)
    except (DomainError, PoleError) as exc:
        return _fail(str(exc), 1)

    statuses: dict[str, int] = {"converged": 0, "max-terms": 0, "diverging": 0, "rejected": 0}
    converged_s: set[float] = set()
    for s, z in grid.points():
        try:
            approx = k_series_rearranged(abs(s), z, policy)
            status = "converged" if approx.converged else "max-terms"
            terms, last = approx.terms_used, approx.last_term_abs
        except SeriesDiverged as exc:
            approx = exc.approximation
            status, terms, last = "diverging", approx.terms_used, approx.last_term_abs
        except DomainError:
            status, terms, last = "rejected", 0, math.nan
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
    if identity == "m4a":
        for mu, beta, x in _M4A_GRID:
            anchor = (mu, beta, x) == (1.0, 1.0, 1.0)
            rec = verify_m4a(mu, beta, x, tol=_ANCHOR_TOL_M4 if anchor else tol)
            yield rec, True
    elif identity == "m4b":
        for mu, beta, x in _M4B_GRID:
            anchor = (mu, beta, x) == (1.0, 1.0, 1.0)
            rec = verify_m4b(mu, beta, x, tol=_ANCHOR_TOL_M4 if anchor else tol)
            yield rec, True
    elif identity == "m5a":
        for s, beta, x in _M5A_GRID:
            yield verify_m5a(s, beta, x, tol=tol), True
    elif identity == "m5b":
        for s, beta, x in _M5B_GRID:
            anchor = x == 1.0  # both readings coincide there and are forced
            printed, alt = verify_m5b(s, beta, x, tol=_ANCHOR_TOL_INFO if anchor else tol)
            yield printed, anchor
            yield alt, anchor
    elif identity == "m10":
        for rec in adjudicate_m10(_M10_GRID, tol=_ANCHOR_TOL_INFO):
            yield rec, rec.params["s"] == 0.5  # analytically forced rows only
    else:  # pragma: no cover - guarded by argparse choices
        raise DomainError(f"unknown identity {identity!r}")


def _cmd_verify(args) -> int:
    identities = ["m4a", "m4b", "m5a", "m5b", "m10"] if args.identity == "all" else [args.identity]
    pairs = []
    try:
        for ident in identities:
            pairs.extend(_verify_records(ident, args.tol))
    except (DomainError, PoleError) as exc:
        return _fail(str(exc), 1)
    except ToleranceNotMet as exc:
        return _fail(str(exc), 2)

    if args.json:
        out = []
        for rec, asserted in pairs:
            d = rec.as_dict()
            d["asserted"] = asserted
            out.append(d)
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
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
    p_eval.add_argument("--method", choices=sorted(_METHOD_LABEL), default="rearranged")
    p_eval.add_argument("--max-terms", type=int, default=200)
    fmt = p_eval.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table", help="evaluate a full (s, z, method) grid")
    p_table.add_argument("--s-list", required=True, help="comma-separated orders")
    p_table.add_argument("--z-list", required=True, help="comma-separated positive arguments")
    p_table.add_argument("--methods", default="rearranged", help="comma-separated methods")
    p_table.add_argument("--with-oracle", action="store_true", help="add rel_err_vs_oracle column")
    p_table.add_argument("--max-terms", type=int, default=200)
    p_table.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    p_table.add_argument("--out", required=True, help="output path")
    p_table.set_defaults(func=_cmd_table)

    p_conv = sub.add_parser("converge", help="map empirical convergence over a grid")
    p_conv.add_argument("--s-range", required=True, help="lo:hi:step")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
