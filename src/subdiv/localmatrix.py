"""Local subdivision matrices and their spectra.

The n x n matrix has entries A[i][j] = a_{2j - i - c} (1-based) with shift
c = p + 1, p = -support_min; row 1 is then an even refinement rule and the
parity alternates down the rows, which reproduces the printed width-5 and
width-6 matrices.  Eigenvalues of a LocalMatrix are computed from the exact
rational characteristic polynomial (Faddeev-LeVerrier), split into
square-free factors, and root-solved with Newton polishing; this keeps
multiple eigenvalues accurate to ~1e-12 where a plain dense eigensolve
loses half the digits at defective points.  Plain float matrices fall back
to LAPACK.

The spectral class (complex pair, negative real count, simple eigenvalue 1
with all others inside the unit disc) is decided once, at a tolerance, in
Spectrum.from_values; callers read the resulting fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .masks import Mask


class EigensolveError(RuntimeError):
    """The eigenvalue iteration failed to converge."""


@dataclass(frozen=True)
class LocalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    column_offset: int  # the construction shift c

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_float(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self.entries])

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "column_offset": self.column_offset,
            "entries": [[str(e) for e in row] for row in self.entries],
        }


def matrix_from_coeffs(support_min: int, coeffs: Sequence[Fraction]) -> LocalMatrix:
    """Local matrix for a nominal coefficient run; zero end coefficients are
    allowed (degenerate cells of a parameter family keep their nominal size)."""
    n = len(coeffs)
    if n < 2:
        raise ValueError("local matrix needs mask width >= 2")
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

def _sort_key(z: complex):
    return (-abs(z), -z.real, -z.imag)


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[complex, ...]  # sorted by modulus desc, ties real desc then imag
    has_complex: bool
    negative_real_count: int
    subdominant_modulus: float
    convergence_spectral_ok: bool  # simple eigenvalue 1, all others inside the unit disc

    @classmethod
    def from_values(cls, values: Sequence[complex], tol: float = 1e-7) -> "Spectrum":
        """Sort the values and decide the spectral class at tolerance tol."""
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError("tol must be > 0")
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

def _charpoly(M: LocalMatrix) -> list[Fraction]:
    """Coefficients of det(xI - A), low to high degree, exact."""
    n = M.n
    L = math.lcm(*(e.denominator for row in M.entries for e in row))
    B = [[int(e * L) for e in row] for row in M.entries]

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    # Faddeev-LeVerrier on the integer matrix B = L*A; all divisions are exact.
    c = [0] * (n + 1)
    c[n] = 1
    Mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            Mk = matmul(B, Mk)
            for i in range(n):
                Mk[i][i] += c[n - k + 1]
        BM = matmul(B, Mk)
        tr = sum(BM[i][i] for i in range(n))
        assert tr % k == 0
        c[n - k] = -(tr // k)
    # det(xI - A) = det((Lx)I - B) / L^n
    return [Fraction(c[k], L ** (n - k)) for k in range(n + 1)]


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [k * p[k] for k in range(1, len(p))]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(p: list[Fraction], d: list[Fraction]):
    p = list(p)
    q = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    lead = d[-1]
    for k in range(len(p) - len(d), -1, -1):
        coeff = p[k + len(d) - 1] / lead
        q[k] = coeff
        for j in range(len(d)):
            p[k + j] -= coeff * d[j]
    return q, _poly_trim(p)


def _poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    p, q = _poly_trim(list(p)), _poly_trim(list(q))
    while q:
        _, r = _poly_divmod(p, q)
        p, q = q, r
    if not p:
        return []
    return [c / p[-1] for c in p]  # monic


def _poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    p = p + [Fraction(0)] * (n - len(p))
    q = q + [Fraction(0)] * (n - len(q))
    return _poly_trim([a - b for a, b in zip(p, q)])


def _squarefree_factors(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: [(square-free factor, multiplicity), ...]."""
    p = [c / p[-1] for c in p]
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) <= 1:
        return [(p, 1)]
    b, _ = _poly_divmod(p, g)
    d0, _ = _poly_divmod(dp, g)
    d = _poly_sub(d0, _poly_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, _ = _poly_divmod(b, a)
        da, _ = _poly_divmod(d, a)
        d = _poly_sub(da, _poly_deriv(b))
        i += 1
    return out


def _roots_squarefree(p: list[Fraction]) -> list[complex]:
    """Roots of a square-free rational polynomial, Newton-polished."""
    cf = np.array([float(c) for c in reversed(p)])
    roots = np.roots(cf)
    cfd = np.polyder(cf)
    for _ in range(3):
        vals = np.polyval(cf, roots)
        dvals = np.polyval(cfd, roots)
        step = np.where(dvals != 0, vals / np.where(dvals != 0, dvals, 1), 0)
        roots = roots - step
    return [complex(r) for r in roots]


def eigenvalues(M: Union[LocalMatrix, np.ndarray, Sequence[Sequence[float]]],
                tol: float = 1e-7) -> Spectrum:
    """All eigenvalues with multiplicity as a Spectrum.

    LocalMatrix input goes through the exact characteristic polynomial;
    residuals there are bounded by the Newton polish (|p(mu)| ~ machine eps
    relative to the coefficient scale).  Array input uses LAPACK's
    backward-stable dense solver.
    """
    if isinstance(M, LocalMatrix):
        p = _charpoly(M)
        vals: list[complex] = []
        for factor, mult in _squarefree_factors(p):
            vals.extend(_roots_squarefree(factor) * mult)
        if len(vals) != M.n:
            raise EigensolveError("root count %d != matrix order %d" % (len(vals), M.n))
        return Spectrum.from_values(vals, tol)
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (A.shape,))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(str(exc)) from exc
    return Spectrum.from_values([complex(v) for v in vals], tol)


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


def w6_closed_form(a, b, as_printed: bool = False) -> Spectrum:
    """Eigenvalues {1, a, a, b-a, ((1-a-b) +- sqrt(D))/2} of the width-6 family.

    as_printed drops the /2 on the last pair, reproducing the uncorrected
    published formula (which fails to match the width-6 example spectrum);
    it exists for documentation of the erratum only.
    """
    a, b = Fraction(a), Fraction(b)
    D = w6_discriminant(a, b)
    base = float(1 - a - b)
    if D < 0:
        root = complex(0.0, math.sqrt(float(-D)))
    else:
        root = complex(math.sqrt(float(D)), 0.0)
    if as_printed:
        mu5, mu6 = base + root, base - root
    else:
        mu5, mu6 = (base + root) / 2, (base - root) / 2
    return Spectrum.from_values([1.0, float(a), float(a), float(b - a), mu5, mu6])


def complex_region_predicate(a, b) -> bool:
    """True iff the width-6 family at (a, b) has a complex conjugate pair,
    decided exactly as D < 0."""
    return w6_discriminant(a, b) < 0
