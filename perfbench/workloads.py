"""Seeded request lists for the three benchmark workloads.

A request is one argv list for ``subdiv.cli.main`` plus the files it writes
and what its oracle should expect.  Seeded parts are drawn from fixed pools:
item ``j`` of a stratum is always the same request, so every request a run
can issue has an output hash recorded in ``golden.json``.  The seed picks the
pool items of a run and the order of its requests.  The strata are fixed, so
runs at different seeds do the same kinds and amounts of work.

This module uses the standard library only: the program sees nothing but the
argv lists and the mask files written here.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("family-scan", "deep-refine", "user-masks")

POOL = 12  # items per stratum; a run uses each item of a stratum at most once

# Nominal seconds per unit of work on the reference host (2-core x86-64,
# Python 3.11); they only size the request list to the requested run length.
_NOMINAL_S = {
    "family-scan": (9.8, 1.2),   # (fixed requests, one zoom-in round)
    "deep-refine": (6.0, 7.6),   # (fixed basis requests, one refine round)
    "user-masks": (0.0, 25.0),   # (nothing fixed, one round of masks)
}


@dataclass
class Request:
    key: str                      # names the inputs; golden.json maps it to a hash
    argv: list[str]
    outputs: list[str]            # files written, in hashing order
    check: dict                   # oracle parameters, see oracles.check
    scheme: str | None = None     # user-masks: the mask this request belongs to


@dataclass
class Workload:
    name: str
    requests: list[Request]
    properties: dict = field(default_factory=dict)


def frac_str(x: F) -> str:
    return str(F(x))


# -- family-scan ---------------------------------------------------------

# The program's default grids, restated so the oracle can enumerate cells:
# width -> (lo, hi, step) per free parameter.
DEFAULT_GRIDS = {
    4: ((F(-1), F(1), F(1, 100)),),
    5: ((F(-1), F(1), F(1, 200)),),
    6: ((F(-1, 2), F(1, 2), F(1, 50)),) * 2,
    7: ((F(-1, 2), F(1, 2), F(1, 20)),) * 2,
    8: ((F(-1, 4), F(1, 4), F(1, 10)),) * 3,
}
ZOOM_WIDTHS = (5, 6, 7, 8)
ZOOM_HALF = {5: 60, 6: 7, 7: 5, 8: 2}   # points each side of the centre
ZOOM_DIVS = (2, 3, 5)                    # zoomed step = default step / div


def grid_values(lo: F, hi: F, step: F) -> list[F]:
    n = (hi - lo) // step
    return [lo + i * step for i in range(int(n) + 1)]


def zoom_grid(width: int, j: int, div: int) -> tuple[tuple[F, F, F], ...]:
    rng = random.Random("family-scan/zoom/w%d/%d" % (width, j))
    ranges = []
    for lo, hi, step in DEFAULT_GRIDS[width]:
        centre = rng.choice(grid_values(lo, hi, step))
        zstep = step / div
        k = ZOOM_HALF[width]
        ranges.append((centre - k * zstep, centre + k * zstep, zstep))
    return tuple(ranges)


def _grid_arg(ranges) -> str:
    return "--grid=" + ",".join(":".join(frac_str(v) for v in r) for r in ranges)


def search_request(key: str, width: int, ranges, no_filter: bool,
                   out: str, default: bool = False) -> Request:
    argv = ["search", "--width", str(width)]
    if not default:
        argv.append(_grid_arg(ranges))
    if no_filter:
        argv.append("--no-filter")
    argv += ["--out", out]
    check = {"kind": "search", "width": width, "no_filter": no_filter,
             "grid": [[frac_str(v) for v in r] for r in ranges]}
    return Request(key, argv, [out + ".csv", out + ".json"], check)


def _zoom_request(width: int, j: int, div: int, no_filter: bool, out: str) -> Request:
    key = "zoom/w%d/d%d/nf%d/%d" % (width, div, no_filter, j)
    return search_request(key, width, zoom_grid(width, j, div), no_filter, out)


def _zoom_pattern(round_index: int, width: int) -> tuple[int, bool]:
    """Step divisor and filter setting of one zoom-in; fixed per round so
    that every seed scans the same number of cells at the same step sizes."""
    k = round_index + width
    return ZOOM_DIVS[k % len(ZOOM_DIVS)], k % 4 == 0


def _family_fixed(out) -> list[Request]:
    reqs = [search_request("default/w%d" % w, w, DEFAULT_GRIDS[w], False, out(),
                           default=True) for w in (6, 7, 8)]
    o = out() + ".json"
    reqs.append(Request("min-width/6", ["search", "--min-width", "--max-width", "6",
                                        "--out", o], [o],
                        {"kind": "min-width", "max_width": 6}))
    return reqs


# -- deep-refine ---------------------------------------------------------

BASIS_FIXED = (("a", 13, "csv"), ("b", 13, "svg"), ("c", 14, "csv"), ("d", 13, "svg"))
# (stratum, scheme, points in the control polygon); depth comes from _refine_depth
REFINE_STRATA = (("a", "catalog:a", 3), ("b", "catalog:b", 2), ("c", "catalog:c", 3),
                 ("d", "catalog:d", 3), ("p5", None, 3), ("p6", None, 2))
_POLY_DENOMS = (3, 5, 7)  # dealt without repeats, so polygons cost about the same


def _refine_depth(stratum: str, round_index: int) -> int:
    if stratum == "c":
        return 13 + round_index % 2
    return 12


def _drawer(rng: random.Random, denoms):
    """Coefficient source: denominators are dealt from a shuffled copy of
    `denoms` (so they differ within a mask), numerators shrink with the
    distance from the centre."""
    deck = itertools.cycle(rng.sample(denoms, len(denoms)))

    def draw(dist) -> F:
        d = next(deck)
        n = rng.randint(1, max(1, int(d // (3 * max(1, dist)))))
        return F(rng.choice((-1, 1)) * n, d)
    return draw


def palindromic_run(width: int, rng: random.Random, denoms) -> tuple[int, list[F]]:
    """Centred palindromic mask with s(1)=2 and s(-1)=0 by construction and
    nonzero end coefficients."""
    draw = _drawer(rng, denoms)

    if width % 2:
        m = width // 2
        a = {i: draw(i) for i in range(2, m + 1)}
        a[1] = F(1, 2) - sum((a[i] for i in range(3, m + 1, 2)), F(0))
        a[0] = 1 - 2 * sum((a[i] for i in range(2, m + 1, 2)), F(0))
        return -m, [a[abs(i)] for i in range(-m, m + 1)]
    m = width // 2
    a = {i: draw(i) for i in range(2, m + 1)}
    a[1] = 1 - sum((a[i] for i in range(2, m + 1)), F(0))
    return 1 - m, [a[i if i >= 1 else 1 - i] for i in range(1 - m, m + 1)]


def asymmetric_run(width: int, rng: random.Random, denoms) -> tuple[int, list[F]]:
    """Centred mask with s(1)=2 and s(-1)=0: the coefficients at exponents 0
    and 1 absorb the even and odd sums; all others are drawn, ends nonzero."""
    draw = _drawer(rng, denoms)
    smin = -((width - 1) // 2)
    c = {e: draw(abs(e - F(1, 2))) for e in range(smin, smin + width)}
    for fixed in (0, 1):
        c[fixed] = 1 - sum((v for e, v in c.items() if e % 2 == fixed % 2 and e != fixed), F(0))
    return smin, [c[e] for e in range(smin, smin + width)]


def write_mask(path: Path, name: str, smin: int, coeffs) -> None:
    path.write_text(json.dumps({"name": name, "support_min": smin,
                                "coeffs": [frac_str(c) for c in coeffs]}) + "\n")


def _refine_request(stratum: str, scheme: str | None, npts: int, j: int, depth: int,
                    inputs: Path, out: str) -> Request:
    rng = random.Random("deep-refine/%s/%d" % (stratum, j))
    if scheme is None:
        width = int(stratum[1:])
        smin, coeffs = palindromic_run(width, rng, (4, 8, 16))
        path = inputs / ("dr-%s-%d.json" % (stratum, j))
        write_mask(path, "dr-%s-%d" % (stratum, j), smin, coeffs)
        scheme = str(path)
    points = []
    for d in rng.sample(_POLY_DENOMS, npts):
        n = rng.choice([n for n in range(-2 * d, 2 * d + 1) if math.gcd(n, d) == 1])
        points.append(F(n, d))
    first = rng.randint(-2, 0)
    argv = ["refine", "--scheme", scheme, "--points=" + ",".join(map(frac_str, points)),
            "--first-index=%d" % first, "--iters", str(depth), "--out", out]
    check = {"kind": "refine", "iters": depth, "scheme": scheme,
             "points": [frac_str(p) for p in points], "first_index": first}
    return Request("refine/%s/k%d/%d" % (stratum, depth, j), argv, [out], check)


def _basis_request(scheme: str, iters: int, fmt: str, out: str, key: str) -> Request:
    argv = ["basis", "--scheme", scheme, "--iters", str(iters), "--format", fmt, "--out", out]
    return Request(key, argv, [out], {"kind": "basis", "iters": iters, "format": fmt,
                                      "scheme": scheme})


def _deep_fixed(out) -> list[Request]:
    return [_basis_request("catalog:" + s, k, fmt, out() + "." + fmt,
                           "basis/%s/k%d/%s" % (s, k, fmt))
            for s, k, fmt in BASIS_FIXED]


# -- user-masks ----------------------------------------------------------

USER_WIDTHS = tuple(range(6, 21))
# Twenty distinct denominators whose lcm (2^5 3^3 5^2 7) is reached by most
# large subsets, so wide masks of one width cost about the same to solve.
USER_DENOMS = (6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32, 35, 36, 40)
USER_BASIS_ITERS = 6
# Masks of each width in one round.  Narrow masks are cheap, so they are
# repeated: with about a hundred requests the median and the tail each fall
# among many requests of one kind instead of on the gap between two widths.
USER_ROUND = {w: 4 if w <= 12 else 1 for w in USER_WIDTHS}
DYNAMICS_K = 300


def user_mask_kind(width: int) -> tuple[bool, str]:
    """(palindromic, dynamics norm) for a width: every third width is
    palindromic, and every third runs dynamics with the 2-norm."""
    return width % 3 == 1, "2" if width % 3 == 2 else "inf"


def _user_requests(width: int, j: int, inputs: Path, out) -> list[Request]:
    rng = random.Random("user-masks/w%d/%d" % (width, j))
    pal, norm = user_mask_kind(width)
    make = palindromic_run if pal else asymmetric_run
    smin, coeffs = make(width, rng, USER_DENOMS)
    name = "um-w%d-%d" % (width, j)
    path = inputs / (name + ".json")
    write_mask(path, name, smin, coeffs)
    scheme = str(path)
    key = "user/w%d/%d/" % (width, j)
    oa, od, ob = out() + ".json", out() + ".csv", out() + ".csv"
    dyn = ["dynamics", "--scheme", scheme, "--K", str(DYNAMICS_K), "--out", od]
    if norm == "2":
        dyn[-2:-2] = ["--norm", "2"]
    reqs = [
        Request(key + "analyze", ["analyze", "--scheme", scheme, "--out", oa], [oa],
                {"kind": "analyze", "scheme": scheme}),
        Request(key + "dynamics", dyn, [od], {"kind": "dynamics", "K": DYNAMICS_K}),
        Request(key + "basis", ["basis", "--scheme", scheme, "--iters",
                                str(USER_BASIS_ITERS), "--out", ob], [ob],
                {"kind": "basis", "iters": USER_BASIS_ITERS, "format": "csv",
                 "scheme": scheme}),
    ]
    for r in reqs:
        r.scheme = name
    return reqs


# -- assembly ------------------------------------------------------------

class _OutNames:
    def __init__(self, outdir: Path):
        self.outdir, self.n = outdir, 0

    def __call__(self) -> str:
        self.n += 1
        return str(self.outdir / ("r%04d" % self.n))


def rounds_for(workload: str, seconds: float) -> int:
    fixed, per_round = _NOMINAL_S[workload]
    return max(1, min(POOL, math.ceil((seconds - fixed) / per_round)))


def build(workload: str, seed: int, seconds: float, workdir: Path) -> Workload:
    """The request list of one run, in the order it is issued."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    inputs, out = _dirs(workdir)
    n = rounds_for(workload, seconds)
    reqs: list[Request] = []
    if workload == "family-scan":
        reqs += _family_fixed(out)
        for w in ZOOM_WIDTHS:
            for i, j in enumerate(rng.sample(range(POOL), n)):
                div, nf = _zoom_pattern(i, w)
                reqs.append(_zoom_request(w, j, div, nf, out()))
    elif workload == "deep-refine":
        reqs += _deep_fixed(out)
        for stratum, scheme, npts in REFINE_STRATA:
            for i, j in enumerate(rng.sample(range(POOL), n)):
                reqs.append(_refine_request(stratum, scheme, npts, j,
                                            _refine_depth(stratum, i), inputs, out()))
    else:
        for w, k in USER_ROUND.items():
            for j in rng.sample(range(POOL), min(POOL, n * k)):
                reqs += _user_requests(w, j, inputs, out)
    if workload == "user-masks":
        # keep each mask's three requests together; shuffle the masks
        groups: dict[str, list[Request]] = {}
        for r in reqs:
            groups.setdefault(r.scheme, []).append(r)
        order = list(groups)
        rng.shuffle(order)
        reqs = [r for name in order for r in groups[name]]
    else:
        rng.shuffle(reqs)
    wl = Workload(workload, reqs)
    wl.properties = describe(wl)
    return wl


def pool(workload: str, workdir: Path) -> list[Request]:
    """Every request any seed can issue at the default run length or below."""
    inputs, out = _dirs(workdir)
    reqs: list[Request] = []
    if workload == "family-scan":
        reqs += _family_fixed(out)
        for w in ZOOM_WIDTHS:
            for j in range(POOL):
                for div in ZOOM_DIVS:
                    for nf in (False, True):
                        reqs.append(_zoom_request(w, j, div, nf, out()))
    elif workload == "deep-refine":
        reqs += _deep_fixed(out)
        for stratum, scheme, npts in REFINE_STRATA:
            for depth in sorted({_refine_depth(stratum, i) for i in range(2)}):
                for j in range(POOL):
                    reqs.append(_refine_request(stratum, scheme, npts, j, depth,
                                                inputs, out()))
    else:
        for w in USER_WIDTHS:
            for j in range(POOL):
                reqs += _user_requests(w, j, inputs, out)
    return reqs


def _dirs(workdir: Path):
    inputs, outdir = workdir / "in", workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    return inputs, _OutNames(outdir)


def describe(wl: Workload) -> dict:
    """Input properties of a request list, for citing the share of inputs a
    change affects."""
    kinds: dict[str, int] = {}
    for r in wl.requests:
        kinds[r.check["kind"]] = kinds.get(r.check["kind"], 0) + 1
    props: dict = {"requests": len(wl.requests), "requests_by_kind": kinds}
    if wl.name == "family-scan":
        cells: dict[str, int] = {}
        for r in wl.requests:
            if r.check["kind"] == "search":
                n = 1
                for lo, hi, step in r.check["grid"]:
                    n *= len(grid_values(F(lo), F(hi), F(step)))
                w = str(r.check["width"])
                cells[w] = cells.get(w, 0) + n
        props["cells_by_width"] = dict(sorted(cells.items()))
        props["min_width_requests"] = kinds.get("min-width", 0)
        props["no_filter_requests"] = sum(1 for r in wl.requests
                                          if r.check.get("no_filter"))
    elif wl.name == "deep-refine":
        by_depth: dict[str, int] = {}
        for r in wl.requests:
            k = str(r.check["iters"])
            by_depth[k] = by_depth.get(k, 0) + 1
        props["requests_by_depth"] = dict(sorted(by_depth.items(), key=lambda kv: int(kv[0])))
        props["basis_points_by_depth"] = {str(k): 8 * 2 ** k + 1 for _, k, _ in BASIS_FIXED}
        props["svg_requests"] = sum(1 for r in wl.requests if r.check.get("format") == "svg")
    else:
        widths: dict[str, int] = {}
        den_bits = 0
        pal = 0
        for r in wl.requests:
            if r.check["kind"] != "analyze":
                continue
            doc = json.loads(Path(r.check["scheme"]).read_text())
            coeffs = [F(c) for c in doc["coeffs"]]
            widths[str(len(coeffs))] = widths.get(str(len(coeffs)), 0) + 1
            den_bits = max(den_bits, max(c.denominator.bit_length() for c in coeffs))
            pal += coeffs == coeffs[::-1]
        props["mask_width_histogram"] = dict(sorted(widths.items(), key=lambda kv: int(kv[0])))
        props["masks"] = sum(widths.values())
        props["palindromic_masks"] = pal
        props["max_denominator_bits"] = den_bits
        props["dynamics_2norm_requests"] = sum(1 for r in wl.requests
                                               if "--norm" in r.argv)
    return props
