"""Local subdivision matrices and their spectra.

The n x n matrix has entries A[i][j] = a_{2j - i - c} (1-based) with shift
c = p + 1, p = -support_min; row 1 is then an even refinement rule and the
parity alternates down the rows, which reproduces the printed width-5 and
width-6 matrices.  Eigenvalues of a LocalMatrix are computed from the exact
rational characteristic polynomial (Faddeev-LeVerrier), split into
square-free factors (Yun), and root-solved with Newton polishing; this keeps
multiple eigenvalues accurate to ~1e-12 where a plain dense eigensolve
loses half the digits at defective points.  The characteristic polynomial
is a symbols.LaurentPoly with no negative exponent, and the split uses its
divmod, deriv and gcd.

The spectral class (complex pair, negative real count, simple eigenvalue 1
with all others inside the unit disc) is decided once, at SPECTRAL_TOL, in
Spectrum.from_values; callers read the resulting fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .masks import Mask
from .symbols import LaurentPoly


class EigensolveError(RuntimeError):
    """The root count of the characteristic polynomial is not the matrix order."""


@dataclass(frozen=True)
class LocalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    column_offset: int  # the construction shift c

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_float(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self.entries])

    def integer_scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, B): L the lcm of the entry denominators, B = L*A in integers."""
        L = math.lcm(*(e.denominator for row in self.entries for e in row))
        return L, tuple(tuple(e.numerator * (L // e.denominator) for e in row)
                        for row in self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "column_offset": self.column_offset,
            "entries": [[str(e) for e in row] for row in self.entries],
        }


# matrix_from_coeffs refuses a wider run before any entry is built: the
# exact eigensolve grows steeply with the order, and analyze on random
# rational masks drawn like the benchmark's took up to 1.1 s at order 24,
# 2.6 s at 28 and 12.6 s at 32 (Python 3.11, one core)
MAX_ORDER = 24


def matrix_from_coeffs(support_min: int, coeffs: Sequence[Fraction]) -> LocalMatrix:
    """Local matrix for a nominal coefficient run; zero end coefficients are
    allowed (degenerate cells of a parameter family keep their nominal size).
    The order is the run length, at most MAX_ORDER."""
    n = len(coeffs)
    if n < 2:
        raise ValueError("local matrix needs mask width >= 2")
    if n > MAX_ORDER:
        raise ValueError("local matrix needs mask width <= %d, got %d" % (MAX_ORDER, n))
    coeffs = [Fraction(c) for c in coeffs]

    def a(idx: int) -> Fraction:
        k = idx - support_min
        return coeffs[k] if 0 <= k < n else Fraction(0)

    c = -support_min + 1
    entries = tuple(
        tuple(a(2 * (j + 1) - (i + 1) - c) for j in range(n)) for i in range(n)
    )
    return LocalMatrix(entries, c)


def build_local_matrix(mask: Mask) -> LocalMatrix:
    return matrix_from_coeffs(mask.support_min, mask.coeffs)


# -- spectra -------------------------------------------------------------

# The one threshold of the spectral class.  On the default family grids of
# widths 2-8 real spectra have |Im| exactly 0 and complex ones |Im| > 0.02.
SPECTRAL_TOL = 1e-9


def _sort_key(z: complex):
    return (-abs(z), -z.real, -z.imag)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and their class at SPECTRAL_TOL: has_complex when some
    |Im| > SPECTRAL_TOL; negative_real_count counts every eigenvalue with
    Re < -SPECTRAL_TOL, complex ones included."""

    eigenvalues: tuple[complex, ...]  # sorted by modulus desc, ties real desc then imag
    has_complex: bool
    negative_real_count: int
    subdominant_modulus: float
    convergence_spectral_ok: bool  # simple eigenvalue 1, all others inside the unit disc

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "Spectrum":
        """Sort the values and decide the spectral class at SPECTRAL_TOL."""
        tol = SPECTRAL_TOL
        vals = tuple(sorted((complex(v) for v in values), key=_sort_key))
        has_complex = any(abs(v.imag) > tol for v in vals)
        neg = sum(1 for v in vals if v.real < -tol)
        sub = abs(vals[1]) if len(vals) > 1 else 0.0
        near_one = [v for v in vals if abs(v - 1) <= tol]
        others = [v for v in vals if abs(v - 1) > tol]
        ok = len(near_one) == 1 and all(abs(v) < 1 - tol for v in others)
        return cls(vals, has_complex, neg, sub, ok)

    def to_json(self) -> dict:
        return {
            "eigenvalues": [{"re": v.real, "im": v.imag} for v in self.eigenvalues],
            "has_complex": self.has_complex,
            "negative_real_count": self.negative_real_count,
            "subdominant_modulus": self.subdominant_modulus,
        }


# characteristic polynomial route

def _charpoly(M: LocalMatrix) -> LaurentPoly:
    """det(xI - A) as a polynomial in x, exact."""
    n = M.n
    L, B = M.integer_scaled()

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    # Faddeev-LeVerrier on the integer matrix B = L*A; all divisions are exact.
    c = [0] * (n + 1)
    c[n] = 1
    # M_1 = I, M_{k+1} = B M_k + c_{n-k} I: each step forms one product
    Mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Mk = matmul(B, Mk)
        tr = sum(Mk[i][i] for i in range(n))
        assert tr % k == 0
        c[n - k] = -(tr // k)
        for i in range(n):
            Mk[i][i] += c[n - k]
    # det(xI - A) = det((Lx)I - B) / L^n
    return LaurentPoly({k: Fraction(c[k], L ** (n - k)) for k in range(n + 1)})


def _squarefree_factors(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Yun's algorithm: [(monic square-free factor, multiplicity), ...]."""
    p = p * (1 / p[p.max_exp])
    dp = p.deriv()
    g = p.gcd(dp)
    if g.max_exp == 0:
        return [(p, 1)]
    b = p.divmod(g)[0]
    d = dp.divmod(g)[0] - b.deriv()
    out = []
    i = 1
    while b.max_exp > 0:
        a = b.gcd(d)
        if a.max_exp > 0:
            out.append((a, i))
        b = b.divmod(a)[0]
        d = d.divmod(a)[0] - b.deriv()
        i += 1
    return out


def _roots_squarefree(p: LaurentPoly) -> list[complex]:
    """Roots of a square-free rational polynomial, Newton-polished."""
    cf = np.array([float(p[e]) for e in range(p.max_exp, -1, -1)])
    roots = np.roots(cf)
    cfd = np.polyder(cf)
    for _ in range(3):
        vals = np.polyval(cf, roots)
        dvals = np.polyval(cfd, roots)
        step = np.where(dvals != 0, vals / np.where(dvals != 0, dvals, 1), 0)
        roots = roots - step
    return [complex(r) for r in roots]


def eigenvalues(M: LocalMatrix) -> Spectrum:
    """All eigenvalues with multiplicity as a Spectrum, from the exact
    characteristic polynomial; residuals are bounded by the Newton polish
    (|p(mu)| ~ machine eps relative to the coefficient scale)."""
    p = _charpoly(M)
    vals: list[complex] = []
    for factor, mult in _squarefree_factors(p):
        vals.extend(_roots_squarefree(factor) * mult)
    if len(vals) != M.n:
        raise EigensolveError("root count %d != matrix order %d" % (len(vals), M.n))
    return Spectrum.from_values(vals)


# -- closed forms for the palindromic families ---------------------------

def w5_closed_form(a) -> Spectrum:
    """Spectrum of the width-5 palindromic family a_{+-2}=a, a_{+-1}=1/2,
    a_0 = 1-2a: always {1, 1/2, 1/2-2a, a, a}, real."""
    a = Fraction(a)
    return Spectrum.from_values([1.0, 0.5, float(Fraction(1, 2) - 2 * a), float(a), float(a)])


def w6_discriminant(a, b) -> Fraction:
    """Exact discriminant D under the complex-pair square root for the
    width-6 family (outer a, next b, inner 1-a-b)."""
    a, b = Fraction(a), Fraction(b)
    return 1 + 2 * a - 7 * a * a - 6 * b + 2 * a * b + 9 * b * b


def w6_closed_form(a, b) -> Spectrum:
    """Eigenvalues {1, a, a, b-a, ((1-a-b) +- sqrt(D))/2} of the width-6 family."""
    a, b = Fraction(a), Fraction(b)
    D = w6_discriminant(a, b)
    base = float(1 - a - b)
    if D < 0:
        root = complex(0.0, math.sqrt(float(-D)))
    else:
        root = complex(math.sqrt(float(D)), 0.0)
    mu5, mu6 = (base + root) / 2, (base - root) / 2
    return Spectrum.from_values([1.0, float(a), float(a), float(b - a), mu5, mu6])


def complex_region_predicate(a, b) -> bool:
    """True iff the width-6 family at (a, b) has a complex conjugate pair,
    decided exactly as D < 0."""
    return w6_discriminant(a, b) < 0
