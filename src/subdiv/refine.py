"""Exact refinement of finitely supported control polygons.

Control sequences are bi-infinite with zero extension; only the nonzero
window is stored, as integer numerators over one common denominator.  A step
scales the mask by the lcm L of its denominators to integer taps, so it is
integer arithmetic only.  Floats appear only at export, each one a correctly
rounded integer division.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .masks import Mask


class MeshType(Enum):
    PRIMAL = "primal"  # t_i = i * 2^-k
    DUAL = "dual"      # t_i = (i + 1/2) * 2^-k


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the level, point or memory cap."""


@dataclass(frozen=True, init=False)
class ControlPolygon:
    """Values nums[k] / den at indices first_index + k, zero elsewhere; canonical:
    den > 0, gcd(den, *nums) == 1, nonzero ends, the zero polygon (0,) over 1."""

    level: int
    first_index: int
    nums: tuple[int, ...]
    den: int
    mesh: MeshType

    def __init__(self, level: int, first_index: int, values, mesh: MeshType = MeshType.PRIMAL):
        values = [Fraction(v) for v in values]
        if not values:
            raise ValueError("control polygon needs at least one value")
        den = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        self._set(level, first_index, nums, den, mesh)

    @classmethod
    def _from_nums(cls, level, first_index, nums, den, mesh) -> "ControlPolygon":
        P = object.__new__(cls)
        P._set(level, first_index, nums, den, mesh)
        return P

    def _set(self, level, first_index, nums, den, mesh) -> None:
        # canonicalize: strip explicit zero padding at both ends, then reduce
        lo, hi = 0, len(nums)
        while hi - lo > 1 and nums[lo] == 0:
            lo += 1
        while hi - lo > 1 and nums[hi - 1] == 0:
            hi -= 1
        nums = nums[lo:hi]
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
        vars(self).update(level=int(level), first_index=int(first_index) + lo,
                          nums=tuple(nums), den=den // g, mesh=mesh)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.nums) - 1

    def __getitem__(self, i: int) -> Fraction:
        if self.first_index <= i <= self.last_index:
            return Fraction(self.nums[i - self.first_index], self.den)
        return Fraction(0)

    def items(self):
        return zip(range(self.first_index, self.last_index + 1), self.values)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)


@dataclass(frozen=True)
class SampledCurve:
    points: tuple[tuple[float, float], ...]  # (t, y), strictly increasing t


def delta(mesh: MeshType = MeshType.PRIMAL) -> ControlPolygon:
    """The cardinal test sequence: a single 1 at index 0, level 0."""
    return ControlPolygon(0, 0, (Fraction(1),), mesh)


def refine_once(P: ControlPolygon, mask: Mask) -> ControlPolygon:
    """One exact refinement step: out_{2l+j} += a_j P_l, on integer numerators."""
    if mask.is_zero() or P.nums == (0,):
        return ControlPolygon(P.level + 1, 2 * P.first_index, (0,), P.mesh)
    L = math.lcm(*(a.denominator for a in mask.coeffs))
    span = 2 * len(P.nums) - 1
    out = [0] * (span - 1 + mask.width)
    for j, a in enumerate(mask.coeffs):
        if a:
            tap = a.numerator * (L // a.denominator)
            out[j:j + span:2] = [o + tap * v for o, v in zip(out[j:j + span:2], P.nums)]
    return ControlPolygon._from_nums(P.level + 1, 2 * P.first_index + mask.support_min,
                                     out, P.den * L, P.mesh)


# Caps decided before the first step.  The memory estimate uses peak costs
# measured with CPython 3.11: a stored numerator is held about three times
# during the last step (the polygon, the step's accumulator and its reduced
# copy), and an exported sample is a (t, value) float pair plus its CSV
# line; it reads 1.1-1.3x the measured peak of basis and refine at depth 14-18.
# The level cap bounds time where the other two cannot (a one-point polygon
# stays one point): past level 60 neighbouring parameters i/2^k collide as
# doubles wherever |t| >= 2^-7.
MAX_LEVEL = 60
MAX_POINTS = 10 ** 7
MAX_BYTES = 2 ** 30
_INT_BYTES = 40
_SAMPLE_BYTES = 256


def _check_limits(P: ControlPolygon, mask: Mask, k: int, max_points: int,
                  samples: int | None) -> None:
    """Refuse, before any step, k refinements of P that would pass level
    MAX_LEVEL, store more than max_points points or need an estimated more
    than MAX_BYTES; samples is the number of float samples exported, None
    for one per stored point."""
    if P.level + k > MAX_LEVEL:
        raise RefinementLimitError("refinement would exceed level %d" % MAX_LEVEL)
    # n points with nonzero ends refine to exactly 2(n - 1) + width (a zero
    # polygon or mask stays one point)
    n, zero = len(P.nums), mask.is_zero() or P.nums == (0,)
    for _ in range(k):
        if 2 * n + mask.width > max_points:
            raise RefinementLimitError(
                "refinement would exceed %d stored points" % max_points)
        if zero or n + mask.width == 2:
            break
        n = 2 * (n - 1) + mask.width
    # numerators grow by about bitlen(L) bits a level
    L = math.lcm(*(a.denominator for a in mask.coeffs))
    bits = max(v.bit_length() for v in (P.den, *P.nums)) + k * L.bit_length()
    need = 3 * n * (_INT_BYTES + bits // 8) + (n if samples is None else samples) * _SAMPLE_BYTES
    if need > MAX_BYTES:
        raise RefinementLimitError(
            "refinement would exceed %d MB of memory (about %d MB)"
            % (MAX_BYTES >> 20, need >> 20))


def refine_k(P: ControlPolygon, mask: Mask, k: int, max_points: int = MAX_POINTS) -> ControlPolygon:
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_limits(P, mask, k, max_points, None)
    for _ in range(k):
        P = refine_once(P, mask)
    return P


def parameterize(P: ControlPolygon) -> SampledCurve:
    """Attach mesh parameters: primal t = i*2^-k, dual t = (i+1/2)*2^-k."""
    n, idx = 2 ** P.level, range(P.first_index, P.last_index + 1)
    ts = (i / n for i in idx) if P.mesh is MeshType.PRIMAL else ((2 * i + 1) / (2 * n) for i in idx)
    return SampledCurve(tuple(zip(ts, (v / P.den for v in P.nums))))


# -- the basis-function experiment ---------------------------------------

def basis_polygon(mask: Mask, iters: int) -> ControlPolygon:
    """Refine the cardinal test sequence (1 at index 0, zeros on [-4, 4])."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    P = delta()
    _check_limits(P, mask, iters, MAX_POINTS, 8 * 2 ** iters + 1)
    for _ in range(iters):
        P = refine_once(P, mask)
    return P


def basis_points_exact(mask: Mask, iters: int) -> list[tuple[Fraction, Fraction]]:
    """(t, value) pairs on the full level-k integer mesh over [-4, 4], exact.

    The window is padded with zeros so the experiment always reports the
    (8 * 2^k + 1)-point grid regardless of the mask's support.
    """
    P = basis_polygon(mask, iters)
    n = 2 ** P.level
    return [(Fraction(i, n), P[i]) for i in range(-4 * n, 4 * n + 1)]


def basis_experiment(mask: Mask, iters: int) -> SampledCurve:
    """basis_points_exact as floats, read from the integer numerators."""
    P = basis_polygon(mask, iters)
    n, first, last = 2 ** P.level, P.first_index, P.last_index
    return SampledCurve(tuple((i / n, P.nums[i - first] / P.den if first <= i <= last else 0.0)
                              for i in range(-4 * n, 4 * n + 1)))


# -- exports -------------------------------------------------------------

def curve_csv_text(curve: SampledCurve) -> str:
    lines = ["t,value"]
    for t, y in curve.points:
        lines.append("%.12g,%.12g" % (t, y))
    return "\n".join(lines) + "\n"


def curve_svg_text(curve: SampledCurve) -> str:
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
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="%s" preserveAspectRatio="none">\n'
        '<polyline fill="none" stroke="black" stroke-width="%.6g" points="%s"/>\n'
        "</svg>\n" % (vb, sw, pts)
    )
