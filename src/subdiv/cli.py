"""Command-line front end: analyze, refine, basis, dynamics, search, catalog.

All output is deterministic: identical invocations produce byte-identical
files.  Domain errors exit with code 1, I/O errors with code 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import convergence, dynamics, localmatrix, masks, refine, search


class CliError(Exception):
    pass


def _resolve_scheme(source: str) -> masks.SchemeRecord:
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        try:
            return masks.catalog_get(name)
        except KeyError as exc:
            raise CliError("unknown catalog scheme: %r" % name) from exc
    return masks.load_scheme(source)


def _parse_fraction(s: str, option: str) -> Fraction:
    try:
        return masks.parse_rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("bad rational %r in %s: %s" % (s, option, exc)) from exc


def _parse_grid(spec: str) -> tuple[search.GridRange, ...]:
    """Parse "lo:hi:step[,lo:hi:step...]"."""
    ranges = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise CliError("grid range must be lo:hi:step, got %r" % part)
        lo, hi, step = (_parse_fraction(p, "--grid") for p in pieces)
        ranges.append(search.GridRange(lo, hi, step))
    return tuple(ranges)


def _output(out: str | None):
    """The one place output is opened, as a context manager: the text file
    out, utf-8 with no newline translation, or stdout, left open, when out
    is None or "-"."""
    if out is None or out == "-":
        return nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _write_json(obj, out: str | None) -> None:
    with _output(out) as f:
        f.write(json.dumps(obj, indent=2) + "\n")


def _write_curve(rows: refine.CurveRows, args) -> None:
    """args.format is "csv" or "svg", the only choices the parser admits."""
    with _output(args.out) as f:
        f.writelines((refine.curve_csv if args.format == "csv" else refine.curve_svg)(rows))


# -- commands ------------------------------------------------------------

def cmd_catalog(args) -> None:
    _write_json([{
        "name": rec.name,
        "support_min": rec.mask.support_min,
        "coeffs": [str(c) for c in rec.mask.coeffs],
        "symmetry": masks.classify_symmetry(rec.mask).value,
        "smoothness": rec.smoothness,
    } for rec in map(masks.catalog_get, masks.catalog_names())], args.out)


def cmd_analyze(args) -> None:
    rec = _resolve_scheme(args.scheme)
    localmatrix.check_size(rec.mask)  # before certify, which grows with the width
    report = convergence.certify(rec.mask)
    doc = {
        "scheme": masks.record_to_json(rec),
        "symmetry": masks.classify_symmetry(rec.mask).value,
        "convergence": report.to_json(),
    }
    if rec.mask.width >= 2:
        M = localmatrix.matrix_from_coeffs(rec.mask.support_min, rec.mask.coeffs)
        spec = localmatrix.eigenvalues(M)
        doc["local_matrix"] = M.to_json()
        doc["spectrum"] = spec.to_json()
        doc["classification"] = {
            "has_complex": spec.has_complex,
            "negative_real_count": spec.negative_real_count,
            "convergence_spectral_ok": spec.convergence_spectral_ok,
        }
    _write_json(doc, args.out)


def _initial_polygon(args, rec: masks.SchemeRecord) -> refine.ControlPolygon:
    if args.mesh == "auto":
        sym = masks.classify_symmetry(rec.mask)
        mesh = refine.MeshType.DUAL if sym is masks.SymmetryClass.DUAL else refine.MeshType.PRIMAL
    else:
        mesh = refine.MeshType(args.mesh)
    values = tuple(_parse_fraction(v, "--points") for v in args.points.split(","))
    return refine.ControlPolygon(0, args.first_index, values, mesh)


def cmd_refine(args) -> None:
    rec = _resolve_scheme(args.scheme)
    P = _initial_polygon(args, rec)
    P = refine.refine_k(P, rec.mask, args.iters)
    _write_curve(refine.CurveRows(P, P.first_index, P.last_index), args)


def cmd_basis(args) -> None:
    rec = _resolve_scheme(args.scheme)
    _write_curve(refine.basis_rows(rec.mask, args.iters), args)


def cmd_dynamics(args) -> None:
    rec = _resolve_scheme(args.scheme)
    localmatrix.check_size(rec.mask)
    M = localmatrix.matrix_from_coeffs(rec.mask.support_min, rec.mask.coeffs)
    # by default the window of the cardinal sequence delta(): 1 at index n // 2
    v0 = tuple(int(i == M.n // 2) for i in range(M.n))
    if args.v0 is not None:
        v0 = tuple(_parse_fraction(v, "--v0") for v in args.v0.split(","))
    traj = dynamics.iterate_local(v0, M, args.K, norm=args.norm)
    with _output(args.out) as f:
        dynamics.write_trajectory_csv(traj, f)


def cmd_search(args) -> None:
    if args.min_width:
        report = search.min_width_report(args.max_width)
        doc = {
            "min_width": report.min_width,
            "witnesses": [[str(p) for p in w] for w in report.witnesses],
            "counts_by_width": [{"width": w, "counts": c} for w, c in report.counts_by_width],
        }
        _write_json(doc, args.out)
        return
    if args.width is None:
        raise CliError("search needs --width or --min-width")
    grid = _parse_grid(args.grid) if args.grid is not None else search.family(args.width).grid
    spec = search.SearchSpec(args.width, tuple(grid), convergence_filter=not args.no_filter)
    result = search.scan(spec)
    out = args.out if args.out and args.out != "-" else None
    if out:
        with _output(out + ".csv") as f:
            search.write_search_csv(result, f)
    _write_json(search.search_summary_json(result), out and out + ".json")


# -- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subdiv",
        description="Binary subdivision scheme analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, scheme=True):
        if scheme:
            sp.add_argument("--scheme", required=True,
                            help="catalog:NAME or path to a scheme JSON file")
        sp.add_argument("--out", "-o", default=None,
                        help="output path, '-' or omitted for stdout")

    sp = sub.add_parser("catalog", help="list the scheme catalog")
    sp.add_argument("--out", "-o", default=None)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("analyze", help="convergence report and spectrum")
    add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("refine", help="refine a control polygon and export the curve")
    add_common(sp)
    sp.add_argument("--iters", type=int, default=10)
    sp.add_argument("--points", default="1", help="comma-separated rational start values")
    sp.add_argument("--first-index", type=int, default=0)
    sp.add_argument("--mesh", choices=["auto", "primal", "dual"], default="auto")
    sp.add_argument("--format", choices=["csv", "svg"], default="csv")
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("basis", help="cardinal basis experiment on [-4, 4]")
    add_common(sp)
    sp.add_argument("--iters", type=int, default=10)
    sp.add_argument("--format", choices=["csv", "svg"], default="csv")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("dynamics", help="local dynamical system trajectory")
    add_common(sp)
    sp.add_argument("--K", type=int, default=30,
                    help="iteration count (default 30, at most %d)" % dynamics.MAX_K)
    sp.add_argument("--v0", default=None, help="comma-separated rational start vector")
    sp.add_argument("--norm", choices=["inf", "2"], default="inf")
    sp.set_defaults(func=cmd_dynamics)

    sp = sub.add_parser("search", help="palindromic family grid scan")
    add_common(sp, scheme=False)
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--grid", default=None, help='"lo:hi:step[,lo:hi:step]"')
    sp.add_argument("--no-filter", action="store_true",
                    help="classify without the contractivity filter")
    sp.add_argument("--min-width", action="store_true",
                    help="report the minimum width with a complex convergent cell")
    sp.add_argument("--max-width", type=int, default=6)
    sp.set_defaults(func=cmd_search)
    return p


# the parser main() reuses: built on its first call, not at import.  Each
# parse_args fills a new namespace from the defaults, so no option carries
# over between calls.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        args.func(args)
    except (CliError, ValueError, refine.RefinementLimitError,
            localmatrix.EigensolveError, OverflowError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print("error: %s" % msg, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
