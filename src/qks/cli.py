"""qks command line: centers, invariants, Molien checks, fibers and scans.

Every command accepts --format human|json and --out PATH; JSON output is
byte-identical for identical inputs and seed.  Exit status: 0 when the
verdict matches the catalog expectation, 1 on a mismatch, 2 when the result
is inconclusive or not applicable.  Cyclotomic values on the command line
and in JSON are strings like "1/2 + 3*z^2" where z is the N-th root of unity
for the reported conductor N.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .catalog import CatalogError, make_case
from .cyclotomic import parse_cyclo
from .scans import (
    auslander_check,
    azumaya_scan,
    center_report,
    emit_report,
    fiber_report,
    freeness_scan,
    invariants_report,
    series_check,
)


def _add_case_args(p: argparse.ArgumentParser):
    p.add_argument("--case", required=True, help="catalog case id: 0, i, ii, iii, iv")
    p.add_argument("--n", type=int, default=None, help="group rotation order (cases i, iii)")
    p.add_argument("--k", type=int, default=None, help="order of q (case i)")
    p.add_argument("--q", type=str, default=None,
                   help="rational q for case i when q is not a root of unity, e.g. 2 or 3/2")
    p.add_argument("--localization", default=None,
                   choices=["none", "torus", "full"],
                   help="none: graded ring; torus: invert u, v; full: torus plus "
                        "the case's extra central denominator")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", default="human", choices=["human", "json"])
    p.add_argument("--out", default=None, help="write the report to this path")


def _build_case(args):
    try:
        q = Fraction(args.q) if getattr(args, "q", None) else None
    except ZeroDivisionError:
        raise CatalogError(f"--q {args.q} divides by zero") from None
    return make_case(args.case, n=args.n, k=args.k, q=q, localization=args.localization)


def _parse_point(text: str, conductor: int) -> dict:
    values = {}
    for item in text.split(","):
        name, _, raw = item.partition("=")
        if not raw:
            raise CatalogError(f"malformed point assignment {item!r}")
        name = name.strip()
        if name in values:
            raise CatalogError(f"point assigns {name!r} twice")
        try:
            values[name] = parse_cyclo(raw, conductor)
        except ZeroDivisionError:
            raise CatalogError(f"division by zero in point assignment {item!r}") from None
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qks",
        description="Exact workbench for skew group rings over quantum and "
                    "Jordan planes: centers, Molien series, central fibers, "
                    "Azumaya certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("center", help="windowed center basis, checked against the catalog")
    _add_case_args(p)
    p.add_argument("--degree", type=int, default=None, help="exponent window (default per case)")
    _add_output_args(p)

    p = sub.add_parser("invariants", help="graded basis of the invariant ring A^G")
    _add_case_args(p)
    p.add_argument("--degree", type=int, default=8)
    _add_output_args(p)

    p = sub.add_parser("molien", help="Molien series vs closed form vs brute-force counts")
    p.add_argument("--case", required=True, choices=["i", "iii"],
                   help="i: C_m on 2 variables; iii: D_m on 3 variables")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--degree", type=int, default=12)
    _add_output_args(p)

    p = sub.add_parser("fiber", help="build and certify one central fiber")
    _add_case_args(p)
    p.add_argument("--point", required=True,
                   help='generator values, e.g. "s=3,m=2" or "x=2,w=1/2"')
    _add_output_args(p)

    p = sub.add_parser("scan", help="seeded Azumaya scan over sampled central points")
    _add_case_args(p)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stabilized", action="store_true",
                   help="sample only points on the stabilized locus (negative control)")
    _add_output_args(p)

    p = sub.add_parser("freeness", help="stabilizers of sampled maximal ideals of Z(A)")
    _add_case_args(p)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)

    p = sub.add_parser("auslander", help="graded endomorphism-ring dimension check")
    _add_case_args(p)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--guard", type=int, default=6)
    _add_output_args(p)

    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "molien":
            report = series_check(args.case, args.m, args.degree)
        else:
            case = _build_case(args)
            if args.command == "center":
                report = center_report(case, args.degree)
            elif args.command == "invariants":
                report = invariants_report(case, args.degree)
            elif args.command == "fiber":
                report = fiber_report(case, _parse_point(args.point, case.conductor))
            elif args.command == "scan":
                report = azumaya_scan(case, args.samples, args.seed,
                                      stabilized=args.stabilized)
            elif args.command == "freeness":
                report = freeness_scan(case, args.samples, args.seed)
            elif args.command == "auslander":
                report = auslander_check(case, args.degree, args.guard)
            else:  # pragma: no cover
                parser.error(f"unhandled command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    try:
        text = emit_report(report, args.format, args.out)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}", file=sys.stderr)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
