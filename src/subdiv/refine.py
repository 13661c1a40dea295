"""Exact refinement of finitely supported control polygons.

Control sequences are bi-infinite with zero extension; only the nonzero
window is stored.  Refinement is exact rational; floats appear only when a
polygon is parameterized or exported.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .masks import Mask


class MeshType(Enum):
    PRIMAL = "primal"  # t_i = i * 2^-k
    DUAL = "dual"      # t_i = (i + 1/2) * 2^-k


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the configured point cap."""


@dataclass(frozen=True)
class ControlPolygon:
    level: int
    first_index: int
    values: tuple[Fraction, ...]
    mesh: MeshType = MeshType.PRIMAL

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        if not values:
            raise ValueError("control polygon needs at least one value")
        # canonicalize: strip explicit zero padding at both ends
        lo, hi = 0, len(values)
        while hi - lo > 1 and values[lo] == 0:
            lo += 1
        while hi - lo > 1 and values[hi - 1] == 0:
            hi -= 1
        object.__setattr__(self, "first_index", int(self.first_index) + lo)
        object.__setattr__(self, "values", values[lo:hi])

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.values) - 1

    def __getitem__(self, i: int) -> Fraction:
        if self.first_index <= i <= self.last_index:
            return self.values[i - self.first_index]
        return Fraction(0)

    def items(self):
        for k, v in enumerate(self.values):
            yield self.first_index + k, v

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


@dataclass(frozen=True)
class SampledCurve:
    points: tuple[tuple[float, float], ...]  # (t, y), strictly increasing t


def delta(mesh: MeshType = MeshType.PRIMAL) -> ControlPolygon:
    """The cardinal test sequence: a single 1 at index 0, level 0."""
    return ControlPolygon(0, 0, (Fraction(1),), mesh)


def refine_once(P: ControlPolygon, mask: Mask) -> ControlPolygon:
    """One exact refinement step: out_{2l+j} += a_j P_l."""
    out: dict[int, Fraction] = {}
    for l, v in P.items():
        if v == 0:
            continue
        for j, a in zip(mask.support, mask.coeffs):
            if a == 0:
                continue
            m = 2 * l + j
            out[m] = out.get(m, Fraction(0)) + a * v
    if not out:
        return ControlPolygon(P.level + 1, 2 * P.first_index, (Fraction(0),), P.mesh)
    lo, hi = min(out), max(out)
    values = tuple(out.get(i, Fraction(0)) for i in range(lo, hi + 1))
    return ControlPolygon(P.level + 1, lo, values, P.mesh)


def refine_k(P: ControlPolygon, mask: Mask, k: int, max_points: int = 10 ** 7) -> ControlPolygon:
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        if 2 * len(P.values) + mask.width > max_points:
            raise RefinementLimitError(
                "refinement would exceed %d stored points" % max_points)
        P = refine_once(P, mask)
    return P


def parameterize(P: ControlPolygon) -> SampledCurve:
    """Attach mesh parameters: primal t = i*2^-k, dual t = (i+1/2)*2^-k."""
    scale = Fraction(1, 2 ** P.level)
    offset = Fraction(0) if P.mesh is MeshType.PRIMAL else Fraction(1, 2)
    pts = tuple((float((i + offset) * scale), float(v)) for i, v in P.items())
    return SampledCurve(pts)


# -- the basis-function experiment ---------------------------------------

def basis_polygon(mask: Mask, iters: int, max_points: int = 10 ** 7) -> ControlPolygon:
    """Refine the cardinal test sequence (1 at index 0, zeros on [-4, 4])."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    return refine_k(delta(), mask, iters, max_points)


def basis_points_exact(mask: Mask, iters: int) -> list[tuple[Fraction, Fraction]]:
    """(t, value) pairs on the full level-k integer mesh over [-4, 4], exact.

    The window is padded with zeros so the experiment always reports the
    (8 * 2^k + 1)-point grid regardless of the mask's support.
    """
    P = basis_polygon(mask, iters)
    n = 2 ** P.level
    return [(Fraction(i, n), P[i]) for i in range(-4 * n, 4 * n + 1)]


def basis_experiment(mask: Mask, iters: int) -> SampledCurve:
    pts = tuple((float(t), float(v)) for t, v in basis_points_exact(mask, iters))
    return SampledCurve(pts)


# -- exports -------------------------------------------------------------

def curve_csv_text(curve: SampledCurve) -> str:
    lines = ["t,value"]
    for t, y in curve.points:
        lines.append("%.12g,%.12g" % (t, y))
    return "\n".join(lines) + "\n"


def curve_svg_text(curve: SampledCurve, width: int = 640, height: int = 480) -> str:
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    # y is flipped so larger values plot upward
    vb = "%.6g %.6g %.6g %.6g" % (xmin, -ymax, xmax - xmin, ymax - ymin)
    pts = " ".join("%.6g,%.6g" % (x, -y) for x, y in curve.points)
    sw = (ymax - ymin) / 200.0
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="%s" preserveAspectRatio="none">\n'
        '<polyline fill="none" stroke="black" stroke-width="%.6g" points="%s"/>\n'
        "</svg>\n" % (width, height, vb, sw, pts)
    )
