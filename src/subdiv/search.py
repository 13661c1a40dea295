"""Grid exploration of palindromic mask families.

FAMILIES is the one definition of the family of each width 2..8: the
palindromic masks of that width with s(1) = 2 and s(-1) = 0, as a run
base + params @ lin in the free coefficients, outermost first:

    width 2m+1 (primal): distinct coefficients a_0 .. a_m with
        a_1 = 1/2 - (a_3 + a_5 + ...)   and   a_0 = 1 - 2(a_2 + a_4 + ...);
        free parameters (a_m, ..., a_2).
    width 2m (dual): distinct coefficients a_1 .. a_m with
        a_1 = 1 - (a_2 + ... + a_m);
        free parameters (a_m, ..., a_2).

For width 5 this is the single parameter a = a_2 with a_1 = 1/2,
a_0 = 1 - 2a; for width 6 the pair (a, b) = (a_3, a_2) with inner
coefficient 1 - a - b.  Widths 2 and 3 have no free parameters.  Each
family also carries the default grid of its parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Optional, Sequence, TextIO

import numpy as np

from .convergence import contractive_runs
from .localmatrix import check_bits, j_block_classes, local_stack, palindromic_classes, w6_discriminant
from .masks import integer_run


@dataclass(frozen=True)
class GridRange:
    lo: Fraction
    hi: Fraction
    step: Fraction

    def __post_init__(self):
        lo, hi, step = Fraction(self.lo), Fraction(self.hi), Fraction(self.step)
        if not lo <= hi:  # lo == hi is the one value lo
            raise ValueError("grid range needs lo <= hi")
        if step <= 0:
            raise ValueError("grid step must be > 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)

    @property
    def count(self) -> int:
        """The number of values, exact at any size."""
        return (self.hi - self.lo) // self.step + 1

    def values(self) -> list[Fraction]:
        # lo + k step as numerators over one denominator: one gcd a value
        den, (lo, step) = integer_run((self.lo, self.step))
        return [Fraction(lo + k * step, den) for k in range(self.count)]


@dataclass(frozen=True)
class Family:
    """The family of one width: the member at params (outermost first) is
    the run base + params @ lin from support_min, and grid is the default
    grid of its params."""
    support_min: int
    base: tuple[Fraction, ...]        # the run at params 0
    lin: tuple[tuple[int, ...], ...]  # one row per free parameter
    grid: tuple[GridRange, ...]


_0, _H, _1 = Fraction(0), Fraction(1, 2), Fraction(1)

FAMILIES = {
    2: Family(0, (_1, _1), (), ()),
    3: Family(-1, (_H, _1, _H), (), ()),
    4: Family(-1, (_0, _1, _1, _0), ((1, -1, -1, 1),), (GridRange(-1, 1, Fraction(1, 100)),)),
    5: Family(-2, (_0, _H, _1, _H, _0), ((1, 0, -2, 0, 1),), (GridRange(-1, 1, Fraction(1, 200)),)),
    6: Family(-2, (_0, _0, _1, _1, _0, _0), ((1, 0, -1, -1, 0, 1), (0, 1, -1, -1, 1, 0)),
              (GridRange(-_H, _H, Fraction(1, 50)),) * 2),
    7: Family(-3, (_0, _0, _H, _1, _H, _0, _0), ((1, 0, -1, 0, -1, 0, 1), (0, 1, 0, -2, 0, 1, 0)),
              (GridRange(-_H, _H, Fraction(1, 20)),) * 2),
    8: Family(-3, (_0, _0, _0, _1, _1, _0, _0, _0),
              ((1, 0, 0, -1, -1, 0, 0, 1), (0, 1, 0, -1, -1, 0, 1, 0), (0, 0, 1, -1, -1, 1, 0, 0)),
              (GridRange(Fraction(-1, 4), Fraction(1, 4), Fraction(1, 10)),) * 3),
}


def family(width: int) -> Family:
    if width not in FAMILIES:
        raise ValueError("width must be in 2..8")
    return FAMILIES[width]


def palindromic_coeffs(width: int, params: Sequence[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """(support_min, nominal coefficient run) for a family member.

    End coefficients may be zero; the run keeps the nominal width so that
    grid cells of one family share a matrix size.
    """
    params = [Fraction(p) for p in params]
    fam = family(width)
    if len(params) != len(fam.lin):
        raise ValueError("width %d needs %d free parameters, got %d" % (width, len(fam.lin), len(params)))
    return fam.support_min, tuple(b + sum(p * row[i] for p, row in zip(params, fam.lin))
                                  for i, b in enumerate(fam.base))


class CellClass(Enum):
    REAL_CONVERGENT = "RealConvergent"
    COMPLEX_CONVERGENT = "ComplexConvergent"
    REAL_OTHER = "RealOther"
    COMPLEX_OTHER = "ComplexOther"


@dataclass(frozen=True)
class Cell:
    """One cell of a scan: its parameters, class and max_imag.  Its
    degenerate flag is a column of SearchResult only."""
    params: tuple[Fraction, ...]
    cls: CellClass
    max_imag: float


@dataclass(frozen=True)
class SearchSpec:
    width: int
    param_ranges: tuple[GridRange, ...]
    convergence_filter: bool = True

    def __post_init__(self):
        p = len(family(self.width).lin)
        if len(self.param_ranges) != p:
            raise ValueError("width %d needs %d grid ranges, got %d" % (self.width, p, len(self.param_ranges)))


# a cell's class by its code 2 * (not has_complex) + (not convergent)
_CLASS_OF_CODE = (CellClass.COMPLEX_CONVERGENT, CellClass.COMPLEX_OTHER,
                  CellClass.REAL_CONVERGENT, CellClass.REAL_OTHER)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A scan's cells as columns, in itertools.product order of the axis
    values: each cell's class code (an index into _CLASS_OF_CODE),
    max_imag and degenerate flag (a width-6 cell with D == 0), each a
    read-only array.  counts, witnesses and cells are read from those
    columns on first access; the result is frozen, so they cannot go
    stale."""

    width: int
    values: tuple[list[Fraction], ...]  # each axis's grid values
    codes: np.ndarray
    max_imag: np.ndarray
    degenerate: np.ndarray

    def params(self, k: int) -> tuple[Fraction, ...]:
        """The parameters of cell k."""
        return tuple(v[i] for v, i in zip(self.values, np.unravel_index(k, [len(v) for v in self.values])))

    @cached_property
    def counts(self) -> dict[str, int]:
        """The number of cells of each class, by class value, every class
        named."""
        tally = np.bincount(self.codes, minlength=4).tolist()
        return {c.value: tally[_CLASS_OF_CODE.index(c)] for c in CellClass}

    @cached_property
    def witnesses(self) -> dict[str, Cell]:
        """The first cell of each class that occurs, by class value, in cell
        order."""
        first = sorted(np.unique(self.codes, return_index=True)[1].tolist())
        return {cls.value: Cell(self.params(k), cls, self.max_imag[k].item())
                for k, cls in zip(first, map(_CLASS_OF_CODE.__getitem__, self.codes[first].tolist()))}

    @cached_property
    def cells(self) -> list[Cell]:
        return list(map(Cell, product(*self.values), map(_CLASS_OF_CODE.__getitem__, self.codes.tolist()),
                        self.max_imag.tolist()))

    def complex_convergent_params(self) -> list[tuple[Fraction, ...]]:
        return [self.params(k) for k in np.flatnonzero((self.codes == 0) & ~self.degenerate).tolist()]


# Cells per palindromic_classes call in scan.  One call stacks the exact
# integer stage of its cells and the float root finding of its complex
# ones.  On the family-scan benchmark (--trace 0, scaled, seeds 2-7, one
# pinned core, Python 3.11) blocks of 1024 cells took a median 0.283 s
# against 0.294 s for 256, but raised the median peak RSS from 41.9 to
# 42.3 MB; a whole-grid stack had raised it to 47.0 MB before the exact
# stage was stacked.
SCAN_BLOCK = 256

# The most cells scan classifies; a larger grid is refused before any grid
# value is built.
MAX_CELLS = 10 ** 6

# The most bits (check_bits' count for the grid: the bit length of D or of
# the largest |run numerator|) at which scan runs a block's exact stage on
# int64: the runs, local_stack, contractive_runs and the J-block charpolys
# of palindromic_classes, which casts those charpolys and its complex rows
# to Python ints before anything else.  At widths <= 8 both J-blocks have
# order <= 3 and entries below E = 2^(bits+1) (P + QJ, and the doubled
# middle row).  Faddeev-LeVerrier then has |c_2| < 3E, M_2 entries < 4E,
# S M_2 entries < 12 E^2, |c_1| < 18 E^2 and M_3 entries < 30 E^2, so its
# largest intermediate is the last trace, |tr(S M_3)| < 9 E 30 E^2 =
# 270 E^3, and 270 * 2^54 < 2^63 at bits = 17.  The bound is loose: the
# first wrap found on the families is at 20 bits, a width-8 cell that
# tests/test_search.py holds.  The prefix sums of contractive_runs stay
# below 8 * 2^bits.
_INT64_BITS = 17

# The least int that str() refuses under CPython's default limit of 4300
# digits: the exports print every grid value, so scan refuses one this large.
_STR_LIMIT = 10 ** 4300


def scan(spec: SearchSpec) -> SearchResult:
    """Classify every grid cell of the family by spectrum and contractivity,
    in itertools.product order, in blocks of SCAN_BLOCK cells; each block
    is one pass of array operations from grid indices to class codes.

    Everything but max_imag is exact and runs in integers.  Every grid
    value is a numerator over the grid's common denominator
    D = lcm(2, each range's lo and step denominators), and a run is affine
    in the free numerators (its FAMILIES entry), so a block's (N, n) runs
    are D base + X @ lin, X the numerators its flat cell indices pick from
    each axis (np.unravel_index).  Contractivity is one contractive_runs call on
    the block's runs (a parity norm < D).  The runs make one (N, n, n)
    stack of D*A (local_stack), and palindromic_classes decides each cell's
    complex pair from the discriminants of its J-blocks; the width-6
    degenerate flag is a J-odd discriminant of 0 (D^2 times the paper's D).
    Only complex cells are root-solved, for max_imag; a real cell has
    max_imag 0.0.  The result holds the codes, max_imag and flags as
    read-only arrays, from which it reads its counts and witnesses.  No
    Fraction but the axis values, and no LocalMatrix, Spectrum or Cell, is
    built per cell, and the floats equal those spectra gives at each cell's
    own lcm.
    A grid of more than MAX_CELLS cells is a ValueError that names its
    count, or says it passes 10^18, and so, before any cell is classified,
    is a grid value whose numerator or denominator has more than 4300
    digits (str() would refuse it in the exports); the message names it as
    p<axis> = lo + k step.  So is a grid
    whose largest |run numerator| or D passes check_size's bound
    (localmatrix.check_bits), which keeps every characteristic polynomial
    the modular split gets below its largest prime.  When those have at
    most _INT64_BITS bits, the runs are int64, and so is every integer step
    up to the J-block charpolys; the rest, and every float, is as on
    Python ints."""
    return _scan(spec, True)


def _scan(spec: SearchSpec, solve: bool) -> SearchResult:
    """scan(spec); with solve False no cell is root-solved, and every
    max_imag is 0.0 (min_width_report prints none)."""
    n_cells = math.prod(r.count for r in spec.param_ranges)
    if n_cells > MAX_CELLS:
        raise ValueError("grid has %s cells, cap is %d"
                         % (n_cells if n_cells <= 10 ** 18 else "more than 10^18", MAX_CELLS))
    den = math.lcm(2, *(x.denominator for r in spec.param_ranges for x in (r.lo, r.step)))
    values = tuple(r.values() for r in spec.param_ranges)
    for j, k, x in ((j, k, x) for j, v in enumerate(values) for k, x in enumerate(v)):
        if abs(x.numerator) >= _STR_LIMIT or x.denominator >= _STR_LIMIT:
            raise ValueError("grid value p%d = lo + %d step has more than 4300 digits" % (j, k))
    # each axis's values as numerators over den
    nums = [np.array([x.numerator * (den // x.denominator) for x in v], dtype=object) for v in values]
    fam = family(spec.width)
    support_min, lin = fam.support_min, np.array(fam.lin, dtype=object).reshape(-1, spec.width)
    base = np.array([b.numerator * (den // b.denominator) for b in fam.base], dtype=object)
    # a run is affine in the grid values, so its largest |numerator| over
    # the grid is at a corner: check_size's refusal, with den as L
    corners = [base + np.array(x, dtype=object) @ lin for x in product(*((v[0], v[-1]) for v in nums))]
    bits = max(den, *map(abs, np.concatenate(corners))).bit_length()
    check_bits("grid", spec.width, bits)
    if bits <= _INT64_BITS:
        nums, base, lin = [x.astype(np.int64) for x in nums], base.astype(np.int64), lin.astype(np.int64)

    codes, max_imag, degenerate = [], [], []
    for start in range(0, n_cells, SCAN_BLOCK):
        flat = np.arange(start, min(start + SCAN_BLOCK, n_cells))
        if values:
            # each cell's index on each axis, in itertools.product order
            axes = np.unravel_index(flat, [len(v) for v in values])
            runs = base + np.column_stack([x[i] for x, i in zip(nums, axes)]) @ lin
        else:  # the family with no parameter has one cell, at the empty tuple
            runs = base[None, :]
        # Theorem-1 conditions hold by construction; the filter adds the
        # contractivity requirement for the Convergent classes.
        convergent = (contractive_runs(support_min, runs, den) if spec.convergence_filter
                      else np.ones(len(flat), dtype=bool))
        if solve:
            has_complex, imag, odd_disc = palindromic_classes(den, local_stack(runs))
        else:
            has_complex, odd_disc = j_block_classes(local_stack(runs))[:2]
            imag = np.zeros(len(flat))
        codes.append(2 * ~has_complex + ~convergent)
        max_imag.append(imag)
        degenerate.append(odd_disc == 0 if spec.width == 6 else np.zeros(len(flat), dtype=bool))
    columns = tuple(map(np.concatenate, (codes, max_imag, degenerate)))
    for column in columns:
        column.flags.writeable = False
    return SearchResult(spec.width, values, *columns)


def _vanishes(f) -> bool:
    """Whether a polynomial f of degree <= 2 in one variable is zero, from
    its exact values at 0, 1 and 2: a nonzero one has at most two roots."""
    return not any(map(f, map(Fraction, range(3))))


def negativity_lemma_check() -> tuple[Fraction, Fraction]:
    """The maximum over every real b of g(b) = 1 + b - 2 sqrt(2 (1 - 5b + 8b^2))
    and its argmax, exactly: (0, 1/3).  The radicand is positive (the
    quadratic's discriminant is 25 - 32), so g(b) < 0 wherever 1 + b < 0,
    and elsewhere g(b) <= 0 exactly when 8 (1 - 5b + 8b^2) - (1 + b)^2 >= 0.
    That difference is 7 (3b - 1)^2, an identity of quadratics in b that
    _vanishes decides, so it is 0 only at b = 1/3, where 1 + b = 4/3 and
    g(1/3) = 0.  ArithmeticError when the identity fails."""
    if not _vanishes(lambda b: 8 * (1 - 5 * b + 8 * b * b) - (1 + b) ** 2 - 7 * (3 * b - 1) ** 2):
        raise ArithmeticError("8 (1 - 5b + 8b^2) - (1 + b)^2 is not 7 (3b - 1)^2")
    return Fraction(0), Fraction(1, 3)


def c1_w6_obstruction() -> bool:
    """Whether on the line b = a + 1/4 the width-6 discriminant is the
    perfect square (2a + 1/4)^2 for every a, hence never negative (all
    eigenvalues real): both sides are quadratics in a, compared exactly
    (_vanishes)."""
    q = Fraction(1, 4)
    return _vanishes(lambda a: w6_discriminant(a, a + q) - (2 * a + q) ** 2)


@dataclass(frozen=True)
class MinWidthReport:
    min_width: Optional[int]  # None when no complex convergent cell was found
    witnesses: tuple[tuple[Fraction, ...], ...]
    counts_by_width: tuple[tuple[int, dict[str, int]], ...]


def min_width_report(max_width: int) -> MinWidthReport:
    """Smallest width whose default grid contains a ComplexConvergent cell,
    with all witness parameter tuples.  The report holds no max_imag, so
    its scans root-solve no cell."""
    if max_width < 2:
        raise ValueError("max_width must be >= 2")
    counts = []
    for w in range(2, min(max_width, max(FAMILIES)) + 1):
        result = _scan(SearchSpec(w, FAMILIES[w].grid, convergence_filter=True), False)
        counts.append((w, result.counts))
        witnesses = result.complex_convergent_params()
        if witnesses:
            return MinWidthReport(w, tuple(witnesses), tuple(counts))
    return MinWidthReport(None, (), tuple(counts))


# -- exports -------------------------------------------------------------

def write_search_csv(result: SearchResult, f: TextIO) -> None:
    """One row per cell, in itertools.product order: the parameters from
    per-axis string tables, then the class, max_imag and degenerate flag.
    Those three come from one text per (code, flag); only a complex cell
    formats its max_imag (a real cell's is 0.0, printed "0")."""
    header = ["p%d" % i for i in range(len(result.values))] + ["class", "max_imag", "degenerate"]
    tables = [[str(v) + "," for v in axis] for axis in result.values]
    tails = np.array(["%s,%s,%d\n" % (cls.value, "%.12g" if code < 2 else "0", flag)
                      for code, cls in enumerate(_CLASS_OF_CODE) for flag in (0, 1)],
                     dtype=object)[2 * result.codes + result.degenerate]
    cx = result.codes < 2  # the complex cells, whose max_imag is formatted
    tails[cx] = [t % m for t, m in zip(tails[cx].tolist(), result.max_imag[cx].tolist())]
    f.write(",".join(header) + "\n")
    f.write("".join(map(str.__add__, map("".join, product(*tables)), tails.tolist())))


def search_summary_json(result: SearchResult) -> dict:
    return {
        "width": result.width,
        "cells": len(result.codes),
        "counts": result.counts,
        "degenerate_cells": int(result.degenerate.sum()),
        "witnesses": {
            cls: {"params": [str(p) for p in cell.params], "max_imag": cell.max_imag}
            for cls, cell in sorted(result.witnesses.items())
        },
    }
