"""Output checks that do not use the code under test.

Each check reads the files a request wrote and recomputes what it can from
the paper's definitions with its own code: the family parameterization, the
local matrix, the width-6 discriminant, contractivity and partition of unity.
Floating-point spectra come from ``numpy.linalg.eigvals`` on a matrix built
here.  A check returns ``(ok, work, message)``, where ``work`` is the number
of throughput units the request produced (cells, curve points or rows).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from workloads import DEFAULT_GRIDS, grid_values

# numpy's largest |Im| at which a cell is taken as complex, and below which
# it is taken as real.  Cells in between are not judged: a defective real
# eigenvalue can show an imaginary part near sqrt(machine epsilon).
COMPLEX_MARGIN = 1e-5
REAL_MARGIN = 1e-11
# relative distance allowed between a reported eigenvalue and numpy's
SPECTRUM_TOL = 1e-6

CATALOG = {
    "a": (-2, ("-1/10", "3/10", "4/5", "4/5", "3/10", "-1/10")),
    "b": (-3, ("-1/20", "1/10", "11/20", "4/5", "11/20", "1/10", "-1/20")),
    "c": (-1, ("1/2", "1", "1/2")),
    "d": (-2, ("1/8", "1/2", "3/4", "1/2", "1/8")),
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- independent mathematics ---------------------------------------------

def family_run(width: int, params) -> tuple[int, list[F]]:
    """Centred coefficient run of the palindromic width-`width` family with
    free parameters (a_m, ..., a_2), outermost first, and s(1)=2, s(-1)=0."""
    params = [F(p) for p in params]
    if width % 2:
        m = width // 2
        a = dict.fromkeys(range(m + 1), F(0))
        for k, p in enumerate(params):
            a[m - k] = p
        a[1] = F(1, 2) - sum(a[i] for i in range(3, m + 1, 2))
        a[0] = 1 - 2 * sum(a[i] for i in range(2, m + 1, 2))
        return -m, [a[abs(i)] for i in range(-m, m + 1)]
    m = width // 2
    a = dict.fromkeys(range(1, m + 1), F(0))
    for k, p in enumerate(params):
        a[m - k] = p
    a[1] = 1 - sum(a[i] for i in range(2, m + 1))
    return 1 - m, [a[i if i >= 1 else 1 - i] for i in range(1 - m, m + 1)]


def local_matrix(smin: int, run) -> list[list[F]]:
    """A[i][j] = a_{2j - i - c} (1-based) with c = 1 - smin."""
    n = len(run)
    c = 1 - smin

    def a(idx):
        k = idx - smin
        return run[k] if 0 <= k < n else F(0)

    return [[a(2 * j - i - c) for j in range(1, n + 1)] for i in range(1, n + 1)]


def w6_discriminant(a: F, b: F) -> F:
    """The paper's discriminant of the width-6 family (outer a, next b)."""
    return 1 + 2 * a - 7 * a * a - 6 * b + 2 * a * b + 9 * b * b


def contractive(smin: int, run) -> bool:
    """Parity sums of the difference mask b = a / (1 + z) both below 1."""
    b, acc = [], F(0)
    for c in run[:-1]:
        acc = c - acc
        b.append(acc)
    _require(run[-1] == acc, "difference mask does not divide exactly")
    sums = [sum(abs(v) for v in b[p::2]) for p in (0, 1)]
    return max(sums) < 1


def _scheme_run(scheme: str) -> tuple[int, list[F]]:
    if scheme.startswith("catalog:"):
        smin, coeffs = CATALOG[scheme[len("catalog:"):]]
    else:
        doc = json.loads(Path(scheme).read_text())
        smin, coeffs = doc["support_min"], doc["coeffs"]
    return smin, [F(c) for c in coeffs]


# -- per-kind checks -----------------------------------------------------

def _check_search(req) -> int:
    chk = req.check
    width, no_filter = chk["width"], chk["no_filter"]
    axes = [grid_values(F(lo), F(hi), F(step)) for lo, hi, step in chk["grid"]]
    expected = list(itertools.product(*axes))
    with open(req.outputs[0], newline="") as f:
        rows = list(csv.reader(f))
    header, rows = rows[0], rows[1:]
    p = len(axes)
    _require(header == ["p%d" % i for i in range(p)] + ["class", "max_imag", "degenerate"],
             "unexpected CSV header %r" % header)
    _require(len(rows) == len(expected),
             "%d rows for %d grid cells" % (len(rows), len(expected)))
    runs, tally = [], {}
    for row, params in zip(rows, expected):
        _require(tuple(F(x) for x in row[:p]) == params, "cell order differs at %r" % row)
        runs.append(family_run(width, params))
        tally[row[p]] = tally.get(row[p], 0) + 1
    mats = np.array([[[float(x) for x in r] for r in local_matrix(*run)] for run in runs])
    imag = np.abs(np.linalg.eigvals(mats).imag).max(axis=1)
    for row, params, run, im in zip(rows, expected, runs, imag):
        cls = row[p]
        is_complex = cls.startswith("Complex")
        _require(not (im > COMPLEX_MARGIN and not is_complex),
                 "cell %s is %s but numpy finds |Im| = %.3g" % (row[:p], cls, im))
        _require(not (im < REAL_MARGIN and is_complex),
                 "cell %s is %s but numpy finds |Im| = %.3g" % (row[:p], cls, im))
        if width == 6:
            _require((w6_discriminant(*params) < 0) == is_complex,
                     "cell %s is %s against the sign of D" % (row[:p], cls))
        convergent = cls.endswith("Convergent")
        _require(convergent == (no_filter or contractive(*run)),
                 "cell %s is %s against the contractivity test" % (row[:p], cls))
    summary = json.loads(Path(req.outputs[1]).read_text())
    _require(summary["width"] == width and summary["cells"] == len(rows),
             "summary JSON disagrees with the CSV")
    _require({k: v for k, v in summary["counts"].items() if v} == tally,
             "summary counts disagree with the CSV")
    return len(rows)


def _check_min_width(req) -> int:
    doc = json.loads(Path(req.outputs[0]).read_text())
    _require(doc["min_width"] == 6, "min_width is %r, the paper's answer is 6" % doc["min_width"])
    cells = {2: 1, 3: 1}
    for w in (4, 5, 6):
        cells[w] = math.prod(len(grid_values(*r)) for r in DEFAULT_GRIDS[w])
    seen = {e["width"]: sum(e["counts"].values()) for e in doc["counts_by_width"]}
    _require(seen == cells, "cells per width %r, expected %r" % (seen, cells))
    for e in doc["counts_by_width"][:-1]:
        _require(e["counts"]["ComplexConvergent"] == 0,
                 "width %d has a complex convergent cell" % e["width"])
    wit = [tuple(F(x) for x in w) for w in doc["witnesses"]]
    _require(len(wit) == doc["counts_by_width"][-1]["counts"]["ComplexConvergent"] > 0,
             "witness count disagrees with the width-6 counts")
    for a, b in wit:
        _require(w6_discriminant(a, b) < 0 and contractive(*family_run(6, (a, b))),
                 "witness (%s, %s) is not complex convergent" % (a, b))
    return sum(cells.values())


def _curve_values(path: str, fmt: str) -> tuple[list[float], list[float]]:
    if fmt == "csv":
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        _require(rows[0] == ["t", "value"], "unexpected CSV header %r" % rows[0])
        return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]
    root = ET.parse(path).getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    _require(len(lines) == 1, "SVG has %d polylines" % len(lines))
    pts = [p.split(",") for p in lines[0].get("points").split()]
    return [float(x) for x, _ in pts], [-float(y) for _, y in pts]


def _check_basis(req) -> int:
    k, fmt = req.check["iters"], req.check["format"]
    ts, vs = _curve_values(req.outputs[0], fmt)
    n = 8 * 2 ** k + 1
    _require(len(ts) == n, "%d points, expected 8*2^%d+1 = %d" % (len(ts), k, n))
    ttol = 1e-5 if fmt == "svg" else 1e-9
    for i in (0, n // 3, n // 2, n - 1):
        _require(abs(ts[i] - (-4 + i / 2 ** k)) <= ttol, "t[%d] = %r off the mesh" % (i, ts[i]))
    smin, run = _scheme_run(req.check["scheme"])
    if -4 <= smin and smin + len(run) - 1 <= 4:
        rel = 1e-4 if fmt == "svg" else 1e-9
        total = math.fsum(vs)
        _require(abs(total - 2 ** k) <= rel * 2 ** k,
                 "values sum to %r, expected 2^%d" % (total, k))
    return n


def _check_refine(req) -> int:
    chk = req.check
    k = chk["iters"]
    ts, vs = _curve_values(req.outputs[0], "csv")
    smin, run = _scheme_run(chk["scheme"])
    points = [F(p) for p in chk["points"]]
    lo = chk["first_index"]
    hi = lo + len(points) - 1
    span = 2 ** k * (hi - lo) + (2 ** k - 1) * (len(run) - 1) + 1
    _require(0 < len(ts) <= span, "%d points, window holds %d" % (len(ts), span))
    h = 1 / 2 ** k
    _require(all(abs(b - a - h) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(ts, ts[1:])),
             "t is not on the level-%d mesh" % k)
    want = float(sum(points)) * 2 ** k
    total = math.fsum(vs)
    _require(abs(total - want) <= 1e-9 * (math.fsum(abs(v) for v in vs) + 1),
             "values sum to %r, expected %r" % (total, want))
    return len(ts)


def _check_analyze(req) -> int:
    doc = json.loads(Path(req.outputs[0]).read_text())
    smin, run = _scheme_run(req.check["scheme"])
    A = local_matrix(smin, run)
    _require(doc["local_matrix"]["entries"] == [[str(x) for x in r] for r in A],
             "local matrix differs from the definition")
    _require(doc["convergence"]["necessary_ok"], "necessary conditions reported false")
    ref = list(np.linalg.eigvals(np.array([[float(x) for x in r] for r in A])))
    got = [complex(e["re"], e["im"]) for e in doc["spectrum"]["eigenvalues"]]
    _require(len(got) == len(ref), "%d eigenvalues for order %d" % (len(got), len(ref)))
    scale = max(1.0, max(abs(z) for z in ref))
    for z in got:
        j = min(range(len(ref)), key=lambda i: abs(ref[i] - z))
        _require(abs(ref[j] - z) <= SPECTRUM_TOL * scale,
                 "eigenvalue %r has no numpy match (nearest %r)" % (z, ref[j]))
        ref.pop(j)
    return 1


def _check_dynamics(req) -> int:
    K = req.check["K"]
    with open(req.outputs[0], newline="") as f:
        rows = list(csv.reader(f))
    _require(rows[0][:2] == ["k", "d_k"], "unexpected CSV header %r" % rows[0][:2])
    rows = rows[1:]
    _require(len(rows) == K + 1, "%d rows, expected K+1 = %d" % (len(rows), K + 1))
    for i, r in enumerate(rows):
        d = float(r[1])
        _require(int(r[0]) == i and math.isfinite(d) and d >= 0,
                 "row %d: k = %s, d_k = %s" % (i, r[0], r[1]))
    return len(rows)


_CHECKS = {
    "search": _check_search,
    "min-width": _check_min_width,
    "basis": _check_basis,
    "refine": _check_refine,
    "analyze": _check_analyze,
    "dynamics": _check_dynamics,
}


def check(req) -> tuple[bool, int, str]:
    try:
        return True, _CHECKS[req.check["kind"]](req), ""
    except CheckFailed as exc:
        return False, 0, str(exc)
    except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return False, 0, "unreadable output: %s: %s" % (type(exc).__name__, exc)
