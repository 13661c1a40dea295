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
from functools import lru_cache
from fractions import Fraction
from itertools import repeat, starmap
from operator import neg, truediv
from typing import Iterator

import numpy as np

from .convergence import _parity_norm
from .masks import Mask, integer_run, lcm_tree


class MeshType(Enum):
    PRIMAL = "primal"  # t_i = i * 2^-k
    DUAL = "dual"      # t_i = (i + 1/2) * 2^-k


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the level, point, memory or work cap."""


@dataclass(frozen=True, init=False, eq=False)
class ControlPolygon:
    """Values nums[k] / den at indices first_index + k, zero elsewhere; canonical:
    den > 0, gcd(den, *nums) == 1, nonzero ends, the zero polygon (0,) over 1.
    nums is one read-only array, int64 where _refine's last level ran on
    int64 and of Python ints otherwise."""

    level: int
    first_index: int
    nums: np.ndarray
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
        # np.gcd.reduce folds from the left, and over Python ints its running
        # gcd can stay huge (L over j primes after j terms of L/p_i); the
        # fold from gcd(den, sum), a multiple of the gcd, skips the rest of
        # the numerators once it reaches 1
        g = (math.gcd(math.gcd(den, int(nums.sum())), *nums) if nums.dtype == object
             else math.gcd(den, int(np.gcd.reduce(nums))))
        if g != 1 and len(nz):
            nums = nums // g
        nums.flags.writeable = False
        vars(self).update(level=int(level), first_index=int(first_index) + lo,
                          nums=nums, den=den // g, mesh=mesh)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.nums) - 1


def delta() -> ControlPolygon:
    """The cardinal test sequence: a single 1 at index 0, level 0, primal."""
    return ControlPolygon(0, 0, (Fraction(1),))


def _growth(P: ControlPolygon, taps: list[int]) -> tuple[int, int]:
    """max|P| and M, the larger sum of |taps| over the even and the odd
    taps (their parity norm, a Python int at any size): max|P| * M^l bounds
    every value and partial sum of level l."""
    return max(-int(P.nums.min()), int(P.nums.max())), _parity_norm(taps)


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
    if mask.is_zero() or not P.nums.any():
        return ControlPolygon._from_nums(P.level + k, 2 ** k * P.first_index,
                                         np.zeros(1, np.int64), 1, P.mesh)
    L, taps = integer_run(mask.coeffs)
    bound, M = _growth(P, taps)
    nums = P.nums
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
# The work cap prices the last level, the largest: each of its values of
# level k - 1 times each tap.  On Python ints a product costs the product
# of their counts of 30-bit digits, and at least _PRODUCT_FLOOR, the cost of
# its Python objects; np.convolve on object arrays takes 0.3 to 0.6 ns a
# digit product on large ints and 40-50 ns a product of small ones (2-core
# Xeon, CPython 3.11).  _refine alone on the masks of 1/p over the first j
# primes, from one point: j = 1000 at k = 2 estimates 1.4e11 and takes
# 45 s; j = 300 at k = 3, 4.6e9 and 2.9 s; j = 5000 at k = 1, 1.2e7 and
# 0.13 s.  A unit is thus about 0.32 ns.  On int64 a product costs
# _INT64_UNITS: np.convolve takes 0.35-0.38 ns an int64 multiply-add, and
# 0.54-0.60 ns one of the last level counting the levels before it.
# _refine alone on the masks of w halves from one point at k = 4 (int64
# throughout): w = 5000 estimates 3.5e8 and takes 0.11 s, w = 10000 1.4e9
# and 0.39 s, w = 20000 5.6e9 and 1.5 s; w = 40000, 2.2e10 and 6.1 s, is
# refused.  catalog a from three 1500-digit points at k = 12 estimates
# 1.7e7 (0.05 s), the largest request of the user-masks benchmark pool
# 2.4e6 and of the deep-refine pool 3.4e5.
MAX_LEVEL = 60
MAX_POINTS = 10 ** 7
MAX_BYTES = 2 ** 30
MAX_WORK = 10 ** 10
_INT_BYTES = 40
_SAMPLE_BYTES = 256
_PRODUCT_FLOOR = 200
_INT64_UNITS = 2


def _check_limits(P: ControlPolygon, mask: Mask, k: int, samples: int | None) -> int:
    """Refuse, before any step, k refinements of P that would pass level
    MAX_LEVEL, store more than MAX_POINTS points, or need an estimated more
    than MAX_BYTES or MAX_WORK units of work; samples is the number of
    float samples exported, None for one per stored point.  Returns the
    estimate in bytes."""
    if P.level + k > MAX_LEVEL:
        raise RefinementLimitError("refinement would exceed level %d" % MAX_LEVEL)
    # n points with nonzero ends refine to exactly 2(n - 1) + width (a zero
    # polygon or mask stays one point)
    n, zero = len(P.nums), mask.is_zero() or not P.nums.any()
    for _ in range(k):
        if 2 * n + mask.width > MAX_POINTS:
            raise RefinementLimitError(
                "refinement would exceed %d stored points" % MAX_POINTS)
        if zero or n + mask.width == 2:
            break
        n = 2 * (n - 1) + mask.width
    # k >= 1 steps of a nonzero polygon and mask give n >= width numerators
    # of at least bits(L) - bits(max denominator) bits each, held about three
    # times at 4/30 byte a bit: 0.4 * width * that is a floor of the estimate
    # below.  It needs only L, so a wide mask is refused before integer_run
    # builds numerators whose total size is quadratic in the width.  The
    # last level is the largest, so it sets the size of every numerator;
    # k = 0 and a zero polygon or mask need no taps.
    dens = [v.denominator for v in mask.coeffs] if k and not zero else [1]
    need = int(0.4 * mask.width * (lcm_tree(dens).bit_length() - max(dens).bit_length()))
    if need <= MAX_BYTES:
        taps = integer_run(mask.coeffs)[1] if k and not zero else []
        bound, M = _growth(P, taps)
        bits = (bound * M ** k).bit_length()
        size = 8 if bits < 64 else 8 + 4 * (bits // 30 + 1)
        need = 3 * n * (_INT_BYTES + size) + (n if samples is None else samples) * _SAMPLE_BYTES
    if need > MAX_BYTES:
        raise RefinementLimitError(
            "refinement would exceed %d MB of memory (about %d MB)"
            % (MAX_BYTES >> 20, need >> 20))
    if k:
        cost = _INT64_UNITS
        if bits >= 64:  # the last level runs on Python ints
            digits = -(-(bound * M ** (k - 1)).bit_length() // 30) * -(-max(map(abs, taps)).bit_length() // 30)
            cost = max(digits, _PRODUCT_FLOOR)
        # level k - 1 holds (n + 2 - width) / 2 values, each times every tap
        work = (n + 2 - mask.width) // 2 * mask.width * cost
        if work > MAX_WORK:
            raise RefinementLimitError("refinement would exceed %.0e units of work (about %.1e)"
                                       % (MAX_WORK, work))
    return need


def refine_k(P: ControlPolygon, mask: Mask, k: int) -> ControlPolygon:
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_limits(P, mask, k, None)
    return _refine(P, mask, k)


# -- samples and exports -------------------------------------------------

# rows a chunk holds.  Measured on a 2-core VM, CPython 3.11, by the
# deep-refine benchmark lists of seeds 21-23 (perfbench/run.py --trace 0,
# two runs each, wall_s scaled to the reference host): 1024 rows take
# 0.272-0.275 s at 43.3-43.8 MB peak RSS, 4096 rows 0.259-0.261 s at
# 43.4-44.1 MB and 16384 rows 0.265-0.272 s at 45.5-46.2 MB; a chunk of
# 4096 rows holds its floats and text in well under 1 MB.
_CHUNK = 4096


def _quotients(a: np.ndarray, d: int, e: int) -> np.ndarray:
    """a / (d 2^e) correctly rounded, for int64 a with 2^53 < |a| < 2^63,
    odd d < 2^53 and d 2^e < 2^1022.

    Exact long division of |a| 2^s by d, 64 - bits(d) bits a step in
    uint64 (the remainder stays below d), with s such that the quotient q
    has 55 to 63 bits: frexp gives bits(|a|) or one more, and q has
    bits(|a|) + s - bits(d) bits or one more.  A nonzero remainder is
    ORed into q's lowest bit (rounding to odd, Boldo and Melquiond 2008),
    so the one rounding of the int64 -> float64 cast is that of the exact
    quotient.  The ldexp is exact: every quotient is at least
    2^53 / 2^1022, a normal double."""
    u = np.abs(a).astype(np.uint64)
    s = np.maximum(56 + d.bit_length() - np.frexp(u)[1], 0)
    (q, r), left = np.divmod(u, d), s.astype(np.uint64)
    while left.any():
        t = np.minimum(left, 64 - d.bit_length())
        left -= t
        digits, r = np.divmod(r << t, d)
        q = q << t | digits
    return np.copysign(np.ldexp((q | (r != 0)).astype(np.int64).astype(float), -(s + e)), a)


class CurveRows:
    """Rows lo..hi of P's mesh as floats, read _CHUNK rows at a time.

    Iterating yields a (t, value) pair of lists per chunk: primal
    t = i*2^-k, dual t = (i+1/2)*2^-k, value nums/den in the stored window
    and 0.0 outside it, each one correctly rounded integer division.  A t
    or value past the float range is refused when the rows are made, from
    the first and last row and the extreme numerators in range (truediv is
    monotone), so before an export writes anything.

    The value column is numpy's where the window is int64 and den = d 2^e
    has an odd d < 2^53 and den < 2^1022 (scale is then (d, e), else
    None): den is a double and every nonzero value a normal one.  A
    numerator of at most 2^53 in magnitude is a double too, and so is
    -2^63, which np.abs leaves negative, so one IEEE division is its
    correctly rounded value; any other is refixed by _quotients.
    exact_doubles marks a window that needs no refix.  Any other window
    takes one truediv a row.  Only the rows in the stored window
    (_stored) are divided; _column pads the rows outside it with 0.0, and
    the exports write those rows as literal text (_templates)."""

    def __init__(self, P: ControlPolygon, lo: int, hi: int):
        first = P.first_index
        start = max(lo - first, 0)
        # the zero rows before the stored ones, and the stored numerators, in lo..hi
        self.P, self.lo, self.hi, self.pad = P, lo, hi, min(max(first - lo, 0), hi - lo + 1)
        self.window = P.nums[start:max(hi + 1 - first, start)]
        low, high = (int(self.window.min()), int(self.window.max())) if len(self.window) else (0, 0)
        e = (P.den & -P.den).bit_length() - 1
        self.scale = ((P.den >> e, e) if self.window.dtype == np.int64
                      and P.den >> e >> 53 == 0 and P.den >> 1022 == 0 else None)
        self.exact_doubles = self.scale is not None and max(P.den, -low, high) <= 2 ** 53
        try:
            self.low, self.high = low / P.den, high / P.den
            self.tmin, self.tmax = self._t(lo, lo + 1)[0], self._t(hi, hi + 1)[0]
        except OverflowError:
            raise OverflowError("a curve value leaves the float range") from None

    def _t(self, a: int, b: int) -> list[float]:
        """t of the rows a..b-1, each u / (s 2^k) one truediv."""
        s = 1 if self.P.mesh is MeshType.PRIMAL else 2  # t = (s i + s - 1) / (s 2^k)
        return list(map(truediv, range(s * a + s - 1, s * b + s - 1, s), repeat(s << self.P.level)))

    def _stored(self, a: int, b: int) -> tuple[int, int]:
        """The rows c..d-1 of rows a..b-1 that are in the stored window."""
        c = min(max(self.lo + self.pad, a), b)
        return c, min(max(self.lo + self.pad + len(self.window), c), b)

    def _values(self, a: int, b: int) -> list[float]:
        """The values of the stored rows a..b-1: one numpy division,
        numerators past 2^53 refixed, where scale is set, else one truediv
        each."""
        nums = self.window[a - self.lo - self.pad:b - self.lo - self.pad]
        if self.scale is None:
            return list(map(truediv, nums.tolist(), repeat(self.P.den)))
        values = nums / float(self.P.den)
        if not self.exact_doubles:
            big = np.abs(nums) > 2 ** 53
            values[big] = _quotients(nums[big], *self.scale)
        return values.tolist()

    def _chunks(self) -> Iterator[tuple[int, int]]:
        return ((a, min(a + _CHUNK, self.hi + 1)) for a in range(self.lo, self.hi + 1, _CHUNK))

    def _column(self, a: int, b: int) -> list[float]:
        """The values of the rows a..b-1, 0.0 outside the stored window."""
        c, d = self._stored(a, b)
        return [0.0] * (c - a) + self._values(c, d) + [0.0] * (b - d)

    def __iter__(self) -> Iterator[tuple[list[float], list[float]]]:
        return ((self._t(a, b), self._column(a, b)) for a, b in self._chunks())

    def bounds(self) -> tuple[float, float, float, float]:
        """(min t, max t, min value, max value), as min() and max() over the
        rows give them.  t increases with the row.  Below a denominator of
        2^1074 no value rounds to -0.0, so the extreme values are those of
        the extreme numerators and of the zero rows outside the window; from
        2^1074 on one may, and min() and max() keep the first of equal
        zeros, so the values are read in one pass over the value column,
        a chunk at a time."""
        if self.P.den >> 1074:
            lows, highs = zip(*((min(v), max(v)) for v in starmap(self._column, self._chunks())))
            return self.tmin, self.tmax, min(lows), max(highs)
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
    n, nums = 2 ** P.level, dict(enumerate(P.nums.tolist(), P.first_index))
    return [(Fraction(i, n), Fraction(nums.get(i, 0), P.den)) for i in range(-4 * n, 4 * n + 1)]


def basis_rows(mask: Mask, iters: int) -> CurveRows:
    """The rows of basis_points_exact: the level-k mesh over [-4, 4]."""
    P = basis_polygon(mask, iters)
    n = 2 ** P.level
    return CurveRows(P, -4 * n, 4 * n)


# -- exports -------------------------------------------------------------
# An export yields its text a chunk of rows at a time, each chunk one
# C-level % format of a template that holds the t text literally, and the
# value text of the zero rows outside the stored window too, so that %
# formats only the stored values.

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


# The t tables of level at most _CACHE_LEVEL are kept for the process, the
# 16 last used (_mesh_table).  A table of 2^k entries holds its text and its
# int64 offsets in, at precision 12 (6 takes less), 0.36 MB at k = 14,
# 0.72 MB at k = 15 and 1.44 MB at k = 16 (CPython 3.11), so the cache holds
# about 12 MB at most, 16 tables of 2^15 entries.  A larger table, up to
# 2^23 entries (about 190 MB) under MAX_POINTS, is made for its export alone.
_CACHE_LEVEL = 15


@lru_cache(maxsize=16)
def _mesh_table(prec: int, d: int, s: int, k: int) -> tuple[str, np.ndarray]:
    """The _t_table of the fractions j/(s 2^k), j = s m + s - 1, m < 2^k:
    the t of the rows with one n at level k, s = 2 on the dual mesh and 1
    on the primal.  Its offsets are read-only, as every caller shares them."""
    text, offs = _t_table(prec, d, np.arange(s - 1, s << k, s) / float(s << k))
    offs.flags.writeable = False
    return text, offs


def _templates(rows: CurveRows, prec: int, lead: str, tail: str,
               zero: float) -> Iterator[tuple[str, list[float]]]:
    """Per chunk of rows, its % template, lead + t + tail a row with tail
    formatting the value, and the values of its stored rows.

    A chunk is cut at the edges of the stored window into up to three
    parts.  A row outside the window is zero, so its tail is tail % zero,
    formatted once: zero is that value as the export formats it, 0.0 in
    the CSV ("0") and -0.0 in the SVG, which negates every value ("-0").
    Only the stored rows keep a % slot.

    With s = 2 on the dual mesh and 1 on the primal, the t of row i is
    u/2^e, u = s i + s - 1, e = k + s - 1.  Write |u| = n 2^e + j: the rows
    with one n run through the fractions j/2^e, j = s m + s - 1 for
    m < 2^k, m ascending with i for u >= 0 and descending for u < 0.  In a
    part whose n are admitted (_admits), "%.{prec}g" % t is the sign,
    str(n) and entry m of the table of n's digit count; a run of rows with
    one n takes its slice of the table.  Such a t is exact, u below 2^53:
    |u| < 10^d 2^e < 2 10^prec for n of d >= 1 digits, and |u| < 2^e, at
    most twice the rows, for n = 0.  A table is a pure function of
    (prec, digit count, s, k), and is taken when first needed and only for
    an export of at least 2^k rows, so it costs no more than the rows; up
    to level _CACHE_LEVEL it comes from the process-wide _mesh_table, and
    a larger one is made once for this export, in a cache of its own.
    Other parts format their t."""
    k, s = rows.P.level, 1 if rows.P.mesh is MeshType.PRIMAL else 2
    e = k + s - 1
    table = _mesh_table if k <= _CACHE_LEVEL else lru_cache(_mesh_table.__wrapped__)

    def runs(p: int, q: int, sign: str) -> Iterator[tuple[str, str]]:
        """(sign + str(n), entries m joined by "|") for |u| = s p' + s - 1,
        p' = p..q-1 ascending, a run for each n."""
        for n in range(p >> k, -(-q >> k)):  # p >> k up to ceil(q / 2^k)
            m, m1, pre = max(p - (n << k), 0), min(q - (n << k), 1 << k), str(n or "")
            if m < m1:
                text, offs = table(prec, len(pre), s, k)
                yield sign + pre, text[offs[m] + 1:offs[m1]]

    def text(a: int, b: int, tail: str) -> str:
        """lead + t + tail for each of the rows a..b-1."""
        top = max(abs(s * a + s - 1), abs(s * b - 1))  # |u| of the end rows
        if not (rows.hi - rows.lo + 1) >> k or not _admits(prec, e, len(str(top >> e or ""))):
            return (("%s%%.%dg|" % (lead, prec) * (b - a)) % tuple(rows._t(a, b))).replace("|", tail)
        parts = []
        # rows i < 0 have |u| = s p' + s - 1 with p' = -i - s + 1
        for pre, body in reversed(list(runs(2 - s - min(b, 0), 2 - s - a, "-"))):
            parts += [lead, pre, (tail + lead + pre).join(reversed(body.split("|"))), tail]
        for pre, body in runs(max(a, 0), b, ""):
            parts += [lead, pre, body.replace("|", tail + lead + pre), tail]
        return "".join(parts)

    zeros = tail % zero
    for a, b in rows._chunks():
        c, d = rows._stored(a, b)
        yield text(a, c, zeros) + text(c, d, tail) + text(d, b, zeros), rows._values(c, d)


def curve_csv(rows: CurveRows) -> Iterator[str]:
    yield "t,value\n"
    for template, value in _templates(rows, 12, "", ",%.12g\n", 0.0):
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
    for i, (template, value) in enumerate(_templates(rows, 6, " ", ",%.6g", -0.0)):
        yield (template[1:] if i == 0 else template) % tuple(map(neg, value))
    yield '"/>\n</svg>\n'
