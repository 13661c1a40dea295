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
from itertools import repeat
from operator import neg, truediv

import numpy as np

from .masks import Mask, integer_run


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
        den, nums = integer_run(values)
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
    """A curve as two columns: strictly increasing parameters t and values."""

    t: tuple[float, ...]
    value: tuple[float, ...]

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.t, self.value))


def delta(mesh: MeshType = MeshType.PRIMAL) -> ControlPolygon:
    """The cardinal test sequence: a single 1 at index 0, level 0."""
    return ControlPolygon(0, 0, (Fraction(1),), mesh)


def _biased(m: int, s: int) -> int:
    """2^(8s-1) in each of m slots of s bytes."""
    return int.from_bytes((bytes(s - 1) + b"\x80") * m, "little")


def _slot_bytes(P: ControlPolygon, taps: list[int], k: int) -> int:
    """Bytes s per slot for k packed steps of P: a multiple of 8 with
    max|P| * (max over the phases of sum |taps|)^k < 2^(8s-1), a bound on
    every value of every level."""
    bound = max(map(abs, P.nums)) * max(sum(map(abs, taps[0::2])), sum(map(abs, taps[1::2]))) ** k
    return (bound.bit_length() // 64 + 1) * 8


def _times(X: int, taps: list[int], w: int) -> int:
    """X * sum taps[i] 2^(w i)."""
    # Measured on a 2-core x86-64 host, CPython 3.11.  One-limb slots take
    # one dense product: every step of the perfbench deep-refine pool has
    # 8-byte slots, and the shift-add loop alone raised its wall_s by 2.4%
    # (medians of 20 alternating pairs, seeds 1-20; slower in 16 of 20).
    if w == 64:
        return X * sum(a << (w * i) for i, a in enumerate(taps))
    # wider slots are mostly zero padding around small taps, which the dense
    # product would multiply out: a shift and an add per tap instead (the
    # 1776 16-byte products of the user-masks basis pool: 0.038 s, against
    # 0.049 s dense)
    acc = 0
    for a in reversed(taps):
        acc <<= w
        if a:
            acc += X * a
    return acc


def _refine(P: ControlPolygon, mask: Mask, k: int) -> ControlPolygon:
    """k exact refinement steps, out_{2l+j} += a_j P_l at each level, on
    integer numerators packed into one int (Kronecker substitution).

    A sequence x is the int X = sum x_i 2^(8s i), s bytes a slot.  With the
    mask scaled by L to integer taps, one level is two products, X times the
    packed even taps and X times the packed odd taps: their slots are the
    even and the odd outputs.  The slot width is fixed up front from
    max|P| * (max over the phases of sum |taps|)^k, which bounds every value
    at every level, and each product gets 2^(8s-1) added in every slot, so
    no slot is negative and nothing carries between slots; the two byte
    strings are then interleaved slot by slot.  The step is linear with
    integer taps, so one gcd after the last level gives the same canonical
    polygon as a gcd after each level.  Each product and byte string is
    dropped as soon as the next one no longer needs it (see _check_limits)."""
    if k == 0:
        return P
    if mask.is_zero() or P.nums == (0,):
        return ControlPolygon._from_nums(P.level + k, 2 ** k * P.first_index, (0,), 1, P.mesh)
    L, taps = integer_run(mask.coeffs)
    phases = taps[0::2], taps[1::2]
    s = _slot_bytes(P, taps, k)
    half, n = 1 << (8 * s - 1), len(P.nums)
    X = int.from_bytes(b"".join([(v + half).to_bytes(s, "little") for v in P.nums]),
                       "little") - _biased(n, s)
    for level in range(k):
        m = n + (mask.width + 1) // 2 - 1  # slots of the even product, >= the odd one's
        Y = [(_times(X, ph, 8 * s) + _biased(m, s)).to_bytes(m * s, "little") for ph in phases]
        del X
        buf = np.empty((m, 2, s), np.uint8)
        for j, y in enumerate(Y):
            buf[:, j, :] = np.frombuffer(y, np.uint8).reshape(m, s)
        del Y, y
        n = 2 * (n - 1) + mask.width
        if level < k - 1:
            X = int.from_bytes(buf, "little") - _biased(2 * m, s)
            del buf
    # flip each slot's top bit: the biased slots become two's complement
    slots = buf.reshape(2 * m, s)[:n]
    slots[:, -1] ^= 0x80
    if s == 8:  # a third of the time of from_bytes per slot on deep-refine's steps
        nums = slots.view("<i8").ravel().tolist()
    else:  # one from_bytes per slot is linear in its width; joining limbs is not
        data = slots.tobytes()
        del buf, slots
        nums = [int.from_bytes(data[i:i + s], "little", signed=True) for i in range(0, n * s, s)]
        del data
    first = 2 ** k * P.first_index + (2 ** k - 1) * mask.support_min
    return ControlPolygon._from_nums(P.level + k, first, nums, P.den * L ** k, P.mesh)


# Caps decided before the first step.  The memory estimate uses peak costs
# measured with CPython 3.11: the packed step's last level holds a numerator
# at most about three times over, as packed bytes (its input, the two
# products and their byte strings, the interleaved buffer) or as ints (the
# unpacked list and its reduced copy).  Every slot is as wide as the bound
# on the largest value, so a numerator counts the larger of its estimated
# size and the slot.  An exported sample is a float in each column plus its
# share of the text.  tracemalloc peaks of refine_k against the estimate
# without samples: catalog:a, 3-point polygons of 1-, 300- and 1500-digit
# numerators at k = 16 / 14 / 12, 29 / 39 / 46 MB under 74 / 58 / 55 MB;
# the mask (2^200, 1) from one point at k = 16, 67 MB under 84 MB (its
# numerators alone, at bitlen(L) bits a level, would count 8 MB).  Basis
# plus CSV text at depth 14-18 peaks at a third of its estimate.
# The level cap bounds time where the other two cannot (a one-point polygon
# stays one point): past level 60 neighbouring parameters i/2^k collide as
# doubles wherever |t| >= 2^-7.
MAX_LEVEL = 60
MAX_POINTS = 10 ** 7
MAX_BYTES = 2 ** 30
_INT_BYTES = 40
_SAMPLE_BYTES = 256


def _check_limits(P: ControlPolygon, mask: Mask, k: int, max_points: int,
                  samples: int | None) -> int:
    """Refuse, before any step, k refinements of P that would pass level
    MAX_LEVEL, store more than max_points points or need an estimated more
    than MAX_BYTES; samples is the number of float samples exported, None
    for one per stored point.  Returns the estimate in bytes."""
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
    # a numerator takes the larger of about bitlen(L) bits a level and the
    # packed step's slot, which is as wide as the bound on every value
    L, taps = integer_run(mask.coeffs)
    bits = max(v.bit_length() for v in (P.den, *P.nums)) + k * L.bit_length()
    size = max(bits // 8, _slot_bytes(P, taps, k))
    need = 3 * n * (_INT_BYTES + size) + (n if samples is None else samples) * _SAMPLE_BYTES
    if need > MAX_BYTES:
        raise RefinementLimitError(
            "refinement would exceed %d MB of memory (about %d MB)"
            % (MAX_BYTES >> 20, need >> 20))
    return need


def refine_k(P: ControlPolygon, mask: Mask, k: int, max_points: int = MAX_POINTS) -> ControlPolygon:
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_limits(P, mask, k, max_points, None)
    return _refine(P, mask, k)


def parameterize(P: ControlPolygon) -> SampledCurve:
    """Attach mesh parameters: primal t = i*2^-k, dual t = (i+1/2)*2^-k."""
    n, lo, hi = 2 ** P.level, P.first_index, P.last_index
    if P.mesh is MeshType.PRIMAL:
        t = map(truediv, range(lo, hi + 1), repeat(n))
    else:
        t = map(truediv, range(2 * lo + 1, 2 * hi + 2, 2), repeat(2 * n))
    return SampledCurve(tuple(t), tuple(map(truediv, P.nums, repeat(P.den))))


# -- the basis-function experiment ---------------------------------------

def basis_polygon(mask: Mask, iters: int) -> ControlPolygon:
    """Refine the cardinal test sequence (1 at index 0, zeros on [-4, 4])."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    P = delta()
    _check_limits(P, mask, iters, MAX_POINTS, 8 * 2 ** iters + 1)
    return _refine(P, mask, iters)


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
    n, first = 2 ** P.level, P.first_index
    lo, hi = max(first, -4 * n), min(P.last_index, 4 * n)
    if lo > hi:  # the support misses [-4, 4]
        value = (0.0,) * (8 * n + 1)
    else:  # the stored window clipped to [-4n, 4n], zeros around it
        value = ((0.0,) * (lo + 4 * n)
                 + tuple(map(truediv, P.nums[lo - first:hi - first + 1], repeat(P.den)))
                 + (0.0,) * (4 * n - hi))
    return SampledCurve(tuple(map(truediv, range(-4 * n, 4 * n + 1), repeat(n))), value)


# -- exports -------------------------------------------------------------

def _interleave(xs, ys) -> tuple:
    flat = [0.0] * (2 * len(xs))
    flat[0::2], flat[1::2] = xs, ys
    return tuple(flat)


def curve_csv_text(curve: SampledCurve) -> str:
    # one C-level format call over all points
    return "t,value\n" + ("%.12g,%.12g\n" * len(curve.t)) % _interleave(curve.t, curve.value)


def curve_svg_text(curve: SampledCurve) -> str:
    xs, ys = curve.t, curve.value
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    # y is flipped so larger values plot upward
    vb = "%.6g %.6g %.6g %.6g" % (xmin, -ymax, xmax - xmin, ymax - ymin)
    pts = " ".join(["%.6g,%.6g"] * len(xs)) % _interleave(xs, map(neg, ys))
    sw = (ymax - ymin) / 200.0
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="%s" preserveAspectRatio="none">\n'
        '<polyline fill="none" stroke="black" stroke-width="%.6g" points="%s"/>\n'
        "</svg>\n" % (vb, sw, pts)
    )
