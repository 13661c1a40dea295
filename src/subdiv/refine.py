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
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from operator import neg, truediv
from typing import Iterator

import numpy as np

from .masks import Mask, integer_run


class MeshType(Enum):
    PRIMAL = "primal"  # t_i = i * 2^-k
    DUAL = "dual"      # t_i = (i + 1/2) * 2^-k


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the level, point or memory cap."""


@dataclass(frozen=True, init=False, eq=False)
class ControlPolygon:
    """Values nums[k] / den at indices first_index + k, zero elsewhere; canonical:
    den > 0, gcd(den, *nums) == 1, nonzero ends, the zero polygon (0,) over 1.
    The numerators are stored as one read-only array, int64 where _refine's
    last level ran on int64 and of Python ints otherwise; nums, a tuple of
    int, is made from it when first read."""

    level: int
    first_index: int
    _arr: np.ndarray
    den: int
    mesh: MeshType

    def __init__(self, level: int, first_index: int, values, mesh: MeshType = MeshType.PRIMAL):
        values = [Fraction(v) for v in values]
        if not values:
            raise ValueError("control polygon needs at least one value")
        den, nums = integer_run(values)
        self._set(level, first_index, np.array(nums, object), den, mesh)

    @classmethod
    def _from_nums(cls, level, first_index, nums: np.ndarray, den, mesh) -> "ControlPolygon":
        P = object.__new__(cls)
        P._set(level, first_index, nums, den, mesh)
        return P

    def _set(self, level, first_index, nums: np.ndarray, den, mesh) -> None:
        # canonicalize: strip explicit zero padding at both ends, then reduce;
        # a nonzero array's gcd is at most its largest |value|, so // keeps
        # the dtype, and the zero polygon takes den // den = 1 undivided
        nz = np.flatnonzero(nums)
        lo, hi = (int(nz[0]), int(nz[-1]) + 1) if len(nz) else (len(nums) - 1, len(nums))
        nums = nums[lo:hi]
        g = math.gcd(den, int(np.gcd.reduce(nums)))
        if g != 1 and len(nz):
            nums = nums // g
        nums.flags.writeable = False
        vars(self).update(level=int(level), first_index=int(first_index) + lo,
                          _arr=nums, den=den // g, mesh=mesh)

    def _key(self) -> tuple:
        return self.level, self.first_index, self.nums, self.den, self.mesh

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, ControlPolygon) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def nums(self) -> tuple[int, ...]:
        return tuple(self._arr.tolist())

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self._arr) - 1

    def __getitem__(self, i: int) -> Fraction:
        if self.first_index <= i <= self.last_index:
            return Fraction(int(self._arr[i - self.first_index]), self.den)
        return Fraction(0)

    def items(self):
        return zip(range(self.first_index, self.last_index + 1), self.values)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)


def delta() -> ControlPolygon:
    """The cardinal test sequence: a single 1 at index 0, level 0, primal."""
    return ControlPolygon(0, 0, (Fraction(1),))


def _growth(P: ControlPolygon, taps: list[int]) -> tuple[int, int]:
    """max|P| and M, the larger sum of |taps| over the even and the odd
    taps: max|P| * M^l bounds every value and partial sum of level l."""
    return (max(-int(P._arr.min()), int(P._arr.max())),
            max(sum(map(abs, taps[0::2])), sum(map(abs, taps[1::2]))))


def _refine(P: ControlPolygon, mask: Mask, k: int) -> ControlPolygon:
    """k exact refinement steps, out_{2l+j} += a_j P_l at each level, on
    integer numerators.

    With the mask scaled by L to integer taps, a level's even outputs are
    np.convolve of the level by the even taps and its odd ones by the odd
    taps.  A level runs on an int64 array while the bound of _growth at its
    depth is below 2^63, and on an array of Python ints from the first
    level where it is not; M >= 1 for a nonzero mask, so the bound only
    grows, and the array is cast at most at the start and at that switch.
    The result keeps the last level's array.  The step is linear with
    integer taps, so one gcd after the last level gives the same canonical
    polygon as a gcd after each level."""
    if k == 0:
        return P
    if mask.is_zero() or not P._arr.any():
        return ControlPolygon._from_nums(P.level + k, 2 ** k * P.first_index,
                                         np.zeros(1, np.int64), 1, P.mesh)
    L, taps = integer_run(mask.coeffs)
    bound, M = _growth(P, taps)
    nums = P._arr
    for _ in range(k):
        bound *= M
        dtype = np.int64 if bound < 2 ** 63 else object
        if nums.dtype != dtype:
            nums = nums.astype(dtype)
        y = np.zeros(2 * len(nums) - 2 + mask.width, dtype)
        for j, ph in enumerate((taps[0::2], taps[1::2])):
            if ph:  # a width-1 mask has no odd taps
                y[j::2] = np.convolve(nums, np.array(ph, dtype))
        nums = y
    first = 2 ** k * P.first_index + (2 ** k - 1) * mask.support_min
    return ControlPolygon._from_nums(P.level + k, first, nums, P.den * L ** k, P.mesh)


# Caps decided before the first step.  The memory estimate uses peak costs
# measured with CPython 3.11: the last level holds a numerator at most about
# three times over (the level before it, its two convolutions and the level
# itself, which the polygon keeps, then the canonical form's index array and
# reduced copy).  A numerator is 8 bytes of an int64 array while the bound
# of _growth fits, and otherwise a pointer of an object array and an int of
# the bound's bits, 4 bytes a 30-bit digit; either counts _INT_BYTES more,
# an int's header and the allocator's slack.  An exported sample counts a
# float in each column plus its share of the text, the cost of holding every
# sample and its text at once.  The exports stream a chunk of rows at a time
# (CurveRows), so the term over-estimates them; it stays so that a caller
# who collects every row of a CurveRows is bounded too.  tracemalloc peaks
# of refine_k against the estimate without samples: catalog:a from the
# 1-digit polygon (1/3, -4/5, 2/7) at k = 12 / 15 (int64 throughout) and 16
# (ints from level 16), 0.5 / 3.7 / 30 MB under 4.1 / 33 / 83 MB; from
# 3-point polygons of 300- and 1500-digit numerators at k = 14 / 12 (ints
# throughout), 30 / 31 MB under 65 / 62 MB; the mask (2^200, 1) from one
# point at k = 16, 25 MB under 94 MB.  Basis plus whole CSV text at depth
# 14-18 peaked at a third of its estimate.
# The level cap bounds time where the other two cannot (a one-point polygon
# stays one point): past level 60 neighbouring parameters i/2^k collide as
# doubles wherever |t| >= 2^-7.
MAX_LEVEL = 60
MAX_POINTS = 10 ** 7
MAX_BYTES = 2 ** 30
_INT_BYTES = 40
_SAMPLE_BYTES = 256


def _check_limits(P: ControlPolygon, mask: Mask, k: int, samples: int | None) -> int:
    """Refuse, before any step, k refinements of P that would pass level
    MAX_LEVEL, store more than MAX_POINTS points or need an estimated more
    than MAX_BYTES; samples is the number of float samples exported, None
    for one per stored point.  Returns the estimate in bytes."""
    if P.level + k > MAX_LEVEL:
        raise RefinementLimitError("refinement would exceed level %d" % MAX_LEVEL)
    # n points with nonzero ends refine to exactly 2(n - 1) + width (a zero
    # polygon or mask stays one point)
    n, zero = len(P._arr), mask.is_zero() or not P._arr.any()
    for _ in range(k):
        if 2 * n + mask.width > MAX_POINTS:
            raise RefinementLimitError(
                "refinement would exceed %d stored points" % MAX_POINTS)
        if zero or n + mask.width == 2:
            break
        n = 2 * (n - 1) + mask.width
    # the last level is the largest, so it sets the size of every numerator
    bound, M = _growth(P, integer_run(mask.coeffs)[1])
    bits = (bound * M ** k).bit_length()
    size = 8 if bits < 64 else 8 + 4 * (bits // 30 + 1)
    need = 3 * n * (_INT_BYTES + size) + (n if samples is None else samples) * _SAMPLE_BYTES
    if need > MAX_BYTES:
        raise RefinementLimitError(
            "refinement would exceed %d MB of memory (about %d MB)"
            % (MAX_BYTES >> 20, need >> 20))
    return need


def refine_k(P: ControlPolygon, mask: Mask, k: int) -> ControlPolygon:
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_limits(P, mask, k, None)
    return _refine(P, mask, k)


# -- samples and exports -------------------------------------------------

# rows a chunk holds.  Measured on a 2-core Xeon, CPython 3.11, exporting
# the 57340 rows of a depth-13 refine: 1024, 4096 and 16384 rows take
# 43-44 ms (medians of 15), one chunk of every row 45 ms; a chunk of 4096
# rows holds its floats and text in well under 1 MB.
_CHUNK = 4096


class CurveRows:
    """Rows lo..hi of P's mesh as floats, read _CHUNK rows at a time.

    Iterating yields a (t, value) pair of lists per chunk: primal
    t = i*2^-k, dual t = (i+1/2)*2^-k, value nums/den in the stored window
    and 0.0 outside it, each one correctly rounded integer division.  A t
    or value past the float range is refused when the rows are made, from
    the first and last row and the extreme numerators in range (truediv is
    monotone), so before an export writes anything."""

    def __init__(self, P: ControlPolygon, lo: int, hi: int):
        first = P.first_index
        start = max(lo - first, 0)
        # the zero rows before the stored ones, and the stored numerators, in lo..hi
        self.P, self.lo, self.hi, self.pad = P, lo, hi, min(max(first - lo, 0), hi - lo + 1)
        self.window = P._arr[start:max(hi + 1 - first, start)]
        low, high = (int(self.window.min()), int(self.window.max())) if len(self.window) else (0, 0)
        # int64 numerators and a den of at most 2^53 are exact doubles, so
        # one IEEE division each is the correctly rounded truediv
        self.exact_doubles = self.window.dtype == np.int64 and max(P.den, -low, high) <= 2 ** 53
        try:
            self.low, self.high = low / P.den, high / P.den
            self.tmin, self.tmax = self._t(lo, lo + 1)[0], self._t(hi, hi + 1)[0]
        except OverflowError:
            raise OverflowError("a curve value leaves the float range") from None

    def _t(self, a: int, b: int) -> list[float]:
        """t of the rows a..b-1, each u / (s 2^k) one truediv."""
        s = 1 if self.P.mesh is MeshType.PRIMAL else 2  # t = (s i + s - 1) / (s 2^k)
        return list(map(truediv, range(s * a + s - 1, s * b + s - 1, s), repeat(s << self.P.level)))

    def _values(self, a: int, b: int) -> list[float]:
        """The values of the rows a..b-1: one numpy division where exact,
        else one truediv each."""
        w = a - self.lo - self.pad  # the window position of row a
        nums, zeros = self.window[max(w, 0):max(w + b - a, 0)], min(max(-w, 0), b - a)
        if self.exact_doubles:
            out = np.zeros(b - a)
            out[zeros:zeros + len(nums)] = nums / float(self.P.den)
            return out.tolist()
        return ([0.0] * zeros + list(map(truediv, nums.tolist(), repeat(self.P.den)))
                + [0.0] * (b - a - zeros - len(nums)))

    def _chunks(self) -> Iterator[tuple[int, int]]:
        return ((a, min(a + _CHUNK, self.hi + 1)) for a in range(self.lo, self.hi + 1, _CHUNK))

    def __iter__(self) -> Iterator[tuple[list[float], list[float]]]:
        return ((self._t(a, b), self._values(a, b)) for a, b in self._chunks())

    def bounds(self) -> tuple[float, float, float, float]:
        """(min t, max t, min value, max value), as min() and max() over the
        rows give them.  t increases with the row.  Below a denominator of
        2^1074 no value rounds to -0.0, so the extreme values are those of
        the extreme numerators and of the zero rows outside the window; from
        2^1074 on one may, and min() and max() keep the first of equal
        zeros, so the values are read in a pass over the rows."""
        if self.P.den >> 1074:
            return (self.tmin, self.tmax, min(min(v) for _, v in self),
                    max(max(v) for _, v in self))
        zeros = (0.0,) * (len(self.window) <= self.hi - self.lo)
        return self.tmin, self.tmax, min((self.low, *zeros)), max((self.high, *zeros))


# -- the basis-function experiment ---------------------------------------

def basis_polygon(mask: Mask, iters: int) -> ControlPolygon:
    """Refine the cardinal test sequence (1 at index 0, zeros on [-4, 4])."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    P = delta()
    _check_limits(P, mask, iters, 8 * 2 ** iters + 1)
    return _refine(P, mask, iters)


def basis_points_exact(mask: Mask, iters: int) -> list[tuple[Fraction, Fraction]]:
    """(t, value) pairs on the full level-k integer mesh over [-4, 4], exact.

    The window is padded with zeros so the experiment always reports the
    (8 * 2^k + 1)-point grid regardless of the mask's support.
    """
    P = basis_polygon(mask, iters)
    n = 2 ** P.level
    return [(Fraction(i, n), P[i]) for i in range(-4 * n, 4 * n + 1)]


def basis_rows(mask: Mask, iters: int) -> CurveRows:
    """The rows of basis_points_exact: the level-k mesh over [-4, 4]."""
    P = basis_polygon(mask, iters)
    n = 2 ** P.level
    return CurveRows(P, -4 * n, 4 * n)


# -- exports -------------------------------------------------------------
# An export yields its text a chunk of rows at a time, each chunk one
# C-level % format of a template that holds the t text literally, so that
# % formats only the values.

def _admits(prec: int, e: int, d: int) -> bool:
    """Whether "%.{prec}g" of a t = n + j/2^e, n of d digits (d = 0 for
    n = 0), is str(n) followed by the text of 10^(d-1) + j/2^e past its
    first d digits: the notation is fixed and the last digit kept a
    fraction digit (d < prec), so a half-even tie does not depend on n, and
    rounding never carries into n (2^(e-1) < 10^(prec-d))."""
    return not d or d < prec and 1 << e < 2 * 10 ** (prec - d)


def _t_table(prec: int, d: int, fracs: np.ndarray) -> tuple[str, np.ndarray]:
    """The text of each fraction f of fracs as _admits has it, "%.{prec}g"
    of 10^(d-1) + f past its first d digits ("%.{prec}g" of f for d = 0),
    with "|" after each, made by one % a _CHUNK entries; and offs, where
    entry m is text[offs[m] + 1:offs[m + 1]]."""
    base, fmt = 10 ** d // 10, "%%.%dg|" % prec
    text = "".join([(fmt * len(x)) % tuple(x) for x in
                    ((fracs[m:m + _CHUNK] + base).tolist() for m in range(0, len(fracs), _CHUNK))])
    text = text[d:].replace("|" + str(base), "|") if d else text
    return text, np.concatenate(([-1], np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == 124)))


def _templates(rows: CurveRows, prec: int, lead: str, tail: str) -> Iterator[tuple[str, list[float]]]:
    """Per chunk of rows, its % template, lead + t + tail a row with tail
    formatting the value, and its values.

    With s = 2 on the dual mesh and 1 on the primal, the t of row i is
    u/2^e, u = s i + s - 1, e = k + s - 1.  Write |u| = n 2^e + j: the rows
    with one n run through the fractions j/2^e, j = s m + s - 1 for
    m < 2^k, m ascending with i for u >= 0 and descending for u < 0.  In a
    chunk whose n are admitted (_admits), "%.{prec}g" % t is the sign,
    str(n) and entry m of the table of n's digit count; a run of rows with
    one n takes its slice of the table.  Such a t is exact, u below 2^53:
    |u| < 10^d 2^e < 2 10^prec for n of d >= 1 digits, and |u| < 2^e, at
    most twice the rows, for n = 0.  A table is made once an export, when
    first needed, and only for an export of at least 2^k rows, so it costs
    no more than the rows.  Other chunks format their t."""
    k, s = rows.P.level, 1 if rows.P.mesh is MeshType.PRIMAL else 2
    e, tables = k + s - 1, {}  # tables by digit count

    def runs(p: int, q: int, sign: str) -> Iterator[tuple[str, str]]:
        """(sign + str(n), entries m joined by "|") for |u| = s p' + s - 1,
        p' = p..q-1 ascending, a run for each n."""
        for n in range(p >> k, -(-q >> k)):  # p >> k up to ceil(q / 2^k)
            m, m1, pre = max(p - (n << k), 0), min(q - (n << k), 1 << k), str(n or "")
            if m < m1:
                text, offs = tables.get(len(pre)) or tables.setdefault(len(pre), _t_table(
                    prec, len(pre), np.arange(s - 1, s << k, s) / float(s << k)))
                yield sign + pre, text[offs[m] + 1:offs[m1]]

    for a, b in rows._chunks():
        top = max(abs(s * a + s - 1), abs(s * b - 1))  # |u| of the end rows
        if (rows.hi - rows.lo + 1) >> k and _admits(prec, e, len(str(top >> e or ""))):
            parts = []
            # rows i < 0 have |u| = s p' + s - 1 with p' = -i - s + 1
            for pre, body in reversed(list(runs(2 - s - min(b, 0), 2 - s - a, "-"))):
                parts += [lead, pre, (tail + lead + pre).join(reversed(body.split("|"))), tail]
            for pre, body in runs(max(a, 0), b, ""):
                parts += [lead, pre, body.replace("|", tail + lead + pre), tail]
            template = "".join(parts)
        else:
            t = ("%%.%dg|" % prec * (b - a)) % tuple(rows._t(a, b))
            template = lead + t[:-1].replace("|", tail + lead) + tail
        yield template, rows._values(a, b)


def curve_csv(rows: CurveRows) -> Iterator[str]:
    yield "t,value\n"
    for template, value in _templates(rows, 12, "", ",%.12g\n"):
        yield template % tuple(value)


def curve_svg(rows: CurveRows) -> Iterator[str]:
    xmin, xmax, ymin, ymax = rows.bounds()
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    # y is flipped so larger values plot upward
    vb = "%.6g %.6g %.6g %.6g" % (xmin, -ymax, xmax - xmin, ymax - ymin)
    yield ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
           'viewBox="%s" preserveAspectRatio="none">\n'
           '<polyline fill="none" stroke="black" stroke-width="%.6g" points="'
           % (vb, (ymax - ymin) / 200.0))
    # a space before every row but the first
    for i, (template, value) in enumerate(_templates(rows, 6, " ", ",%.6g")):
        yield (template[1:] if i == 0 else template) % tuple(map(neg, value))
    yield '"/>\n</svg>\n'
