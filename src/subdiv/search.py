"""Grid exploration of palindromic mask families.

Each width 2..8 is parameterized by its free coefficients after imposing
the palindromic symmetry and the necessary conditions s(1) = 2, s(-1) = 0:

    width 2m+1 (primal): distinct coefficients a_0 .. a_m with
        a_1 = 1/2 - (a_3 + a_5 + ...)   and   a_0 = 1 - 2(a_2 + a_4 + ...);
        free parameters (a_m, ..., a_2), outermost first.
    width 2m (dual): distinct coefficients a_1 .. a_m with
        a_1 = 1 - (a_2 + ... + a_m);
        free parameters (a_m, ..., a_2), outermost first.

For width 5 this is the single parameter a = a_2 with a_1 = 1/2,
a_0 = 1 - 2a; for width 6 the pair (a, b) = (a_3, a_2) with inner
coefficient 1 - a - b.  Widths 2 and 3 have no free parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import islice, product
from typing import Optional, Sequence, TextIO

from .convergence import is_contractive
from .localmatrix import local_stack, palindromic_classes, w6_discriminant


@dataclass(frozen=True)
class GridRange:
    lo: Fraction
    hi: Fraction
    step: Fraction

    def __post_init__(self):
        lo, hi, step = Fraction(self.lo), Fraction(self.hi), Fraction(self.step)
        if not lo < hi:
            raise ValueError("grid range needs lo < hi")
        if step <= 0:
            raise ValueError("grid step must be > 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)

    def __len__(self) -> int:
        return (self.hi - self.lo) // self.step + 1

    def values(self) -> list[Fraction]:
        return [self.lo + k * self.step for k in range(len(self))]


def free_param_count(width: int) -> int:
    if not 2 <= width <= 8:
        raise ValueError("width must be in 2..8")
    return (width + 1) // 2 - 2 if width % 2 else width // 2 - 1


def _run_numerators(width: int, nums: Sequence[int], den: int) -> tuple[int, tuple[int, ...]]:
    """palindromic_coeffs in integers: the free parameters and the run as
    numerators over one even den (a_1 = 1/2 at odd width needs den even)."""
    if len(nums) != free_param_count(width):
        raise ValueError("width %d needs %d free parameters, got %d"
                         % (width, free_param_count(width), len(nums)))
    if width % 2 == 1:
        m = (width - 1) // 2
        a = [0, 0, *reversed(nums)]      # a_0 .. a_m; nums are (a_m, ..., a_2)
        a[1] = den // 2 - sum(a[3::2])
        a[0] = den - 2 * sum(a[2::2])
        return -m, tuple(a[abs(i)] for i in range(-m, m + 1))
    m = width // 2
    a = [0, 0, *reversed(nums)]          # a_1 .. a_m from index 1
    a[1] = den - sum(a[2:])
    return -m + 1, tuple(a[i if i >= 1 else 1 - i] for i in range(-m + 1, m + 1))


def palindromic_coeffs(width: int, params: Sequence[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """(support_min, nominal coefficient run) for a family member.

    End coefficients may be zero; the run keeps the nominal width so that
    grid cells of one family share a matrix size.
    """
    params = [Fraction(p) for p in params]
    den = math.lcm(2, *(p.denominator for p in params))
    support_min, run = _run_numerators(
        width, [p.numerator * (den // p.denominator) for p in params], den)
    return support_min, tuple(Fraction(x, den) for x in run)


class CellClass(Enum):
    REAL_CONVERGENT = "RealConvergent"
    COMPLEX_CONVERGENT = "ComplexConvergent"
    REAL_OTHER = "RealOther"
    COMPLEX_OTHER = "ComplexOther"


@dataclass(frozen=True)
class Cell:
    params: tuple[Fraction, ...]
    cls: CellClass
    max_imag: float
    degenerate: bool = False  # width-6 boundary cells with D == 0


@dataclass(frozen=True)
class SearchSpec:
    width: int
    param_ranges: tuple[GridRange, ...]
    convergence_filter: bool = True

    def __post_init__(self):
        if len(self.param_ranges) != free_param_count(self.width):
            raise ValueError("width %d needs %d grid ranges, got %d"
                             % (self.width, free_param_count(self.width), len(self.param_ranges)))


@dataclass
class SearchResult:
    width: int
    cells: list[Cell]
    counts: dict[str, int] = field(default_factory=dict)
    witnesses: dict[str, Cell] = field(default_factory=dict)

    def complex_convergent_params(self) -> list[tuple[Fraction, ...]]:
        return [c.params for c in self.cells
                if c.cls is CellClass.COMPLEX_CONVERGENT and not c.degenerate]


# Cells per palindromic_classes call in scan.  One call stacks the exact
# integer stage of its cells and the float root finding of its complex
# ones.  On the family-scan benchmark (--trace 0, scaled, seeds 2-7, one
# pinned core, Python 3.11) blocks of 1024 cells took a median 0.283 s
# against 0.294 s for 256, but raised the median peak RSS from 41.9 to
# 42.3 MB; a whole-grid stack had raised it to 47.0 MB before the exact
# stage was stacked.
SCAN_BLOCK = 256


def scan(spec: SearchSpec, max_cells: int = 10 ** 6) -> SearchResult:
    """Classify every grid cell of the family by spectrum and contractivity,
    in blocks of SCAN_BLOCK cells: the exact per-cell pass, then the
    block's local matrices as one stack and one palindromic_classes call
    on it.

    Everything but max_imag is exact and runs in integers.  Every grid
    value is a numerator over the grid's common denominator
    D = lcm(2, each range's lo and step denominators), so each cell's run
    is too: contractivity is tested as a parity norm < D.  The block's runs
    make one (N, n, n) stack of D*A (local_stack), and palindromic_classes
    decides each cell's complex pair from the discriminants of its J-blocks;
    the width-6 degenerate flag is a J-odd discriminant of 0 (D^2 times the
    paper's D).  Only complex cells are root-solved, for max_imag; a real
    cell has max_imag 0.0.  No Fraction, LocalMatrix or Spectrum is built
    per cell, and the floats equal those spectra gives at each cell's own
    lcm."""
    try:
        n_cells = math.prod(len(r) for r in spec.param_ranges)
    except OverflowError:  # a single range longer than sys.maxsize
        n_cells = math.inf
    if n_cells > max_cells:
        raise ValueError("grid has %s cells, cap is %d" % (n_cells, max_cells))
    den = math.lcm(2, *(x.denominator for r in spec.param_ranges for x in (r.lo, r.step)))
    # each axis as (value, numerator over den); cells share these objects
    axes = [[(v, v.numerator * (den // v.denominator)) for v in r.values()]
            for r in spec.param_ranges]

    cells: list[Cell] = []
    counts = {c.value: 0 for c in CellClass}
    witnesses: dict[str, Cell] = {}
    n = spec.width
    grid = product(*axes)  # one empty tuple when the family has no parameter
    while block := list(islice(grid, SCAN_BLOCK)):
        runs, exact = [], []
        for point in block:
            support_min, run = _run_numerators(n, [x for _, x in point], den)
            runs.append(run)
            # Theorem-1 conditions hold by construction; the filter adds the
            # contractivity requirement for the Convergent classes.
            convergent = is_contractive(support_min, run, den) if spec.convergence_filter else True
            exact.append((tuple(v for v, _ in point), convergent))
        classes = palindromic_classes(den, local_stack(runs))
        for (params, convergent), (has_complex, max_imag, odd_disc) in zip(exact, classes):
            if has_complex:
                cls = CellClass.COMPLEX_CONVERGENT if convergent else CellClass.COMPLEX_OTHER
            else:
                cls = CellClass.REAL_CONVERGENT if convergent else CellClass.REAL_OTHER
            cell = Cell(params, cls, max_imag, n == 6 and odd_disc == 0)
            cells.append(cell)
            counts[cls.value] += 1
            witnesses.setdefault(cls.value, cell)
    return SearchResult(spec.width, cells, counts, witnesses)


def negativity_lemma_check(lo=Fraction(-5), hi=Fraction(5), step=Fraction(1, 1000)) -> tuple[float, Fraction]:
    """Grid maximum of g(b) = 1 + b - 2 sqrt(2 (1 - 5b + 8b^2)) and its argmax."""
    best_v, best_b = -math.inf, None
    for b in GridRange(lo, hi, step).values():
        radicand = 2 * (1 - 5 * b + 8 * b * b)
        g = float(1 + b) - 2.0 * math.sqrt(float(radicand))
        if g > best_v:
            best_v, best_b = g, b
    return best_v, best_b


def c1_w6_obstruction(lo=Fraction(-1), hi=Fraction(1), step=Fraction(1, 100)) -> bool:
    """Check exactly that on b = a + 1/4 the width-6 discriminant is the
    perfect square (2a + 1/4)^2, hence never negative (all eigenvalues real)."""
    q = Fraction(1, 4)
    for a in GridRange(lo, hi, step).values():
        if w6_discriminant(a, a + q) != (2 * a + q) ** 2:
            return False
    return True


@dataclass(frozen=True)
class MinWidthReport:
    min_width: Optional[int]  # None when no complex convergent cell was found
    witnesses: tuple[tuple[Fraction, ...], ...]
    counts_by_width: tuple[tuple[int, dict[str, int]], ...]


def default_grid(width: int) -> tuple[GridRange, ...]:
    half = Fraction(1, 2)
    table = {
        2: (),
        3: (),
        4: (GridRange(Fraction(-1), Fraction(1), Fraction(1, 100)),),
        5: (GridRange(Fraction(-1), Fraction(1), Fraction(1, 200)),),
        6: (GridRange(-half, half, Fraction(1, 50)),) * 2,
        7: (GridRange(-half, half, Fraction(1, 20)),) * 2,
        8: (GridRange(Fraction(-1, 4), Fraction(1, 4), Fraction(1, 10)),) * 3,
    }
    return table[width]


def min_width_report(max_width: int) -> MinWidthReport:
    """Smallest width whose default grid contains a ComplexConvergent cell,
    with all witness parameter tuples."""
    if max_width < 2:
        raise ValueError("max_width must be >= 2")
    counts = []
    for w in range(2, min(max_width, 8) + 1):
        result = scan(SearchSpec(w, default_grid(w), convergence_filter=True))
        counts.append((w, result.counts))
        witnesses = result.complex_convergent_params()
        if witnesses:
            return MinWidthReport(w, tuple(witnesses), tuple(counts))
    return MinWidthReport(None, (), tuple(counts))


# -- exports -------------------------------------------------------------

def write_search_csv(result: SearchResult, f: TextIO) -> None:
    n_params = free_param_count(result.width)
    header = ["p%d" % i for i in range(n_params)] + ["class", "max_imag", "degenerate"]
    f.write(",".join(header) + "\n")
    for cell in result.cells:
        row = [str(p) for p in cell.params]
        row += [cell.cls.value, "%.12g" % cell.max_imag, "1" if cell.degenerate else "0"]
        f.write(",".join(row) + "\n")


def search_summary_json(result: SearchResult) -> dict:
    return {
        "width": result.width,
        "cells": len(result.cells),
        "counts": result.counts,
        "degenerate_cells": sum(1 for c in result.cells if c.degenerate),
        "witnesses": {
            cls: {"params": [str(p) for p in cell.params], "max_imag": cell.max_imag}
            for cls, cell in sorted(result.witnesses.items())
        },
    }
