"""Local subdivision matrices and their spectra.

The n x n matrix has entries A[i][j] = a_{2j - i - c} (1-based) with shift
c = p + 1, p = -support_min; row 1 is then an even refinement rule and the
parity alternates down the rows, which reproduces the printed width-5 and
width-6 matrices.  Eigenvalues of a LocalMatrix are computed from the exact
square-free factors of its characteristic polynomial, each root-solved with
Newton polishing; this keeps multiple eigenvalues accurate to ~1e-12 where a
plain dense eigensolve loses half the digits at defective points.  spectra()
solves many matrices at once, each given as an integer-scaled pair
(L, B = L*A): the factors of all of them are grouped by shape, and each
shape takes one stacked eigvals of companion matrices and one vectorised
polish, bit-identical to np.roots and np.polyval per factor.  eigenvalues(M)
is spectra([M.integer_scaled()])[0], so one root finder serves both.

The factors come from the corners.  Columns 0 and n-1 each hold one nonzero
entry, on the diagonal, so det(xI - A) = (x - a_first)(x - a_last) q(x) with
q the characteristic polynomial of the central block, computed exactly in
integers (Faddeev-LeVerrier on L*A).  When gcd(q, q') is a constant over
GF(2^61 - 1), q is square-free and its own single class; otherwise Yun's
square-free split runs on q, as a symbols.LaurentPoly.  Each corner then
joins the class above its multiplicity as a root of q (0 when it is none),
two classes up when the corners are equal (every palindromic mask).

A palindromic run makes A commute with the flip J (A[i][j] = A[n-1-i][n-1-j]),
so the central block C is centrosymmetric.  Such a C of order 2k splits
(Cantoni & Butler, 1976) into a J-even block P + QJ and a J-odd block P - QJ
of order k, with P, Q the top-left and top-right k x k blocks of C; at
order 2k+1 the J-even block also takes the middle column x and twice the
middle row y, [[P + QJ, x], [2y^T, C_kk]], still in integers.  q is then the
product of the two blocks' characteristic polynomials, each Faddeev-LeVerrier
run on half the order; every other C takes the full route.  q is the same
integer polynomial either way, so the factors and every root are unchanged.

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


# matrix_from_coeffs refuses a wider run before any entry is built.  On
# random rational masks drawn like the benchmark's, the eigensolve takes up
# to 0.06 s at order 24, 0.11 s at 28 and 0.18 s at 32 (Python 3.11, one
# core), and about as long on repeated (1+z)/2 lifts of the width-6 cell
# (1/10, 1/5), whose corner is a root of the square-free central block.
# Where it falls back to Yun's split it grows steeply: the lifts of the
# cell (0, 1/5), with a double central root, take 0.19 s at 24, 0.63 s at
# 28 and 1.8 s at 32, so the cap stays until that fallback is bounded.
MAX_ORDER = 24


def check_order(n: int) -> None:
    """Refuse a local matrix of order n above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ValueError("local matrix needs mask width <= %d, got %d" % (MAX_ORDER, n))


def local_entries(coeffs: Sequence, zero) -> tuple[tuple, ...]:
    """Entries of the local matrix of a nominal coefficient run, of whatever
    number type the run holds (Fractions, or integer numerators over a common
    denominator), zero off the run.  The order is the run length, 2 to
    MAX_ORDER."""
    n = len(coeffs)
    if n < 2:
        raise ValueError("local matrix needs mask width >= 2")
    check_order(n)
    # A[i][j] = a_{2j-i-c} (1-based) is coeffs[2j - i] (0-based) whatever
    # support_min is; padded[2j - i + n - 1] reads it
    padded = [zero] * (n - 1) + list(coeffs) + [zero] * (n - 1)
    return tuple(tuple(padded[2 * j - i + n - 1] for j in range(n)) for i in range(n))


def matrix_from_coeffs(support_min: int, coeffs: Sequence[Fraction]) -> LocalMatrix:
    """Local matrix for a nominal coefficient run; zero end coefficients are
    allowed (degenerate cells of a parameter family keep their nominal size).
    The order is the run length, at most MAX_ORDER."""
    run = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    return LocalMatrix(local_entries(run, Fraction(0)), -support_min + 1)


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
#
# Column 0 of A holds one nonzero entry, a_first = A[0][0], and column n-1
# one, a_last = A[n-1][n-1].  So det(xI - A) = (x - a_first)(x - a_last) q(x)
# with q the characteristic polynomial of the central (n-2)x(n-2) block.
# The route works on B = L*A in integers and in y = L*x, where that block's
# characteristic polynomial c(y) is monic with integer coefficients and
# q(x) = c(Lx) / L^(n-2).  Coefficient lists run from y^0 up.

def _charpoly(B: Sequence[Sequence[int]]) -> list[int]:
    """det(yI - B) of a square integer matrix, exact (Faddeev-LeVerrier)."""
    m = len(B)
    c = [0] * (m + 1)
    c[m] = 1
    # M_1 = I, M_{k+1} = B M_k + c_{m-k} I: each step forms one product, and
    # every division by k is exact
    Mk = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        cols = list(zip(*Mk))
        Mk = [[sum(b * x for b, x in zip(row, col)) for col in cols] for row in B]
        tr = sum(Mk[i][i] for i in range(m))
        assert tr % k == 0
        c[m - k] = -(tr // k)
        for i in range(m):
            Mk[i][i] += c[m - k]
    return c


def _flip_blocks(C: Sequence[Sequence[int]]):
    """(J-even block, J-odd block) of a centrosymmetric integer matrix C,
    whose characteristic polynomials multiply to C's; None when C is not
    centrosymmetric.  Order m = 2k gives two blocks of order k; m = 2k+1
    gives a J-even block of order k+1 and a J-odd block of order k."""
    m = len(C)
    if not all(list(C[i]) == list(C[m - 1 - i])[::-1] for i in range((m + 1) // 2)):
        return None
    k = m // 2
    even = [[C[i][j] + C[i][m - 1 - j] for j in range(k)] for i in range(k)]
    odd = [[C[i][j] - C[i][m - 1 - j] for j in range(k)] for i in range(k)]
    if m % 2:  # the middle basis vector e_k joins the J-even block
        even = ([row + [C[i][k]] for i, row in enumerate(even)]
                + [[2 * C[k][j] for j in range(k)] + [C[k][k]]])
    return even, odd


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a(y) * b(y), coefficient lists from y^0 up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _central_charpoly(C: Sequence[Sequence[int]]) -> list[int]:
    """det(yI - C), from the two half-size blocks when C is centrosymmetric."""
    blocks = _flip_blocks(C)
    if blocks is None:
        return _charpoly(C)
    even, odd = blocks
    return _poly_mul(_charpoly(even), _charpoly(odd))


# 2^61 - 1, a Mersenne prime
_PRIME = (1 << 61) - 1


def _squarefree_mod_p(c: Sequence[int]) -> bool:
    """True when gcd(c, c') over GF(_PRIME) is a constant.  For a monic
    integer c this proves c square-free over the rationals: a square factor
    g^2 of c has a monic integer g (Gauss's lemma), which keeps its degree
    mod the prime and divides c' there too.  False proves nothing."""
    p = _PRIME
    a = [x % p for x in c]
    b = [k * x % p for k, x in enumerate(c)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a <- a mod b
            f = a[-1] * inv % p
            s = len(a) - len(b)
            for i, bi in enumerate(b):
                a[s + i] = (a[s + i] - f * bi) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _horner(c: Sequence[int], y: int) -> int:
    """c(y), exact."""
    v = 0
    for x in reversed(c):
        v = v * y + x
    return v


def _over_linear(c: Sequence[int], r: int) -> list[int]:
    """c(y) / (y - r) by synthetic division, for a root r of c."""
    q = [0] * (len(c) - 1)
    acc = 0
    for k in range(len(c) - 1, 0, -1):
        acc = acc * r + c[k]
        q[k - 1] = acc
    return q


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


def _charpoly_factors(B: Sequence[Sequence[int]]) -> list[tuple[list[int], int]]:
    """The monic square-free factorisation of det(yI - B), B = L*A an
    integer-scaled local matrix: each factor an integer coefficient list with
    its multiplicity, in ascending multiplicity.  det(xI - A) has the factors
    f(Lx) / L^deg(f).

    The charpoly c of the central block comes first (_central_charpoly).
    When it is square-free (_squarefree_mod_p) it is the one class;
    otherwise Yun's split runs on it.  A corner that is a root of
    multiplicity m in c then moves to class m+1 (m+2 when both corners are
    that root; m = 0 when it is no root)."""
    n = len(B)
    c = _central_charpoly([row[1:n - 1] for row in B[1:n - 1]])
    first, last = B[0][0], B[n - 1][n - 1]
    if _squarefree_mod_p(c):
        classes = {1: c}
    else:
        classes = {}
        for f, m in _squarefree_factors(LaurentPoly.from_coeffs(c)):
            # monic factors of a monic integer polynomial are integer
            assert all(f[e].denominator == 1 for e in range(f.max_exp + 1))
            classes[m] = [f[e].numerator for e in range(f.max_exp + 1)]
    for r in {first, last}:
        m = next((m for m, f in classes.items() if _horner(f, r) == 0), 0)
        if m:
            classes[m] = _over_linear(classes[m], r)
        up = m + (2 if first == last else 1)
        classes[up] = _poly_mul(classes.get(up, [1]), [-r, 1])
    factors = [(classes[m], m) for m in sorted(classes)]
    return [(f, m) for f, m in factors if len(f) > 1]


def _polyval(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row k of P (coefficients from the top degree down) at each entry of
    row k of X, by Horner's rule in np.polyval's order of operations."""
    Y = np.zeros_like(X)
    for j in range(P.shape[1]):
        Y = Y * X + P[:, j:j + 1]
    return Y


def _polish(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Three Newton steps on the roots X[k] of row P[k], each step the one
    the per-call path took with np.polyder and np.polyval."""
    dP = P[:, :-1] * np.arange(P.shape[1] - 1, 0, -1)
    for _ in range(3):
        v, dv = _polyval(P, X), _polyval(dP, X)
        X = X - np.where(dv != 0, v / np.where(dv != 0, dv, 1), 0)
    return X


def _roots_stacked(rows: Sequence[Sequence[float]]) -> list[list[complex]]:
    """Roots of square-free polynomials, float coefficients from the top
    degree down (leading coefficient nonzero), Newton-polished.

    Rows of one shape (length, trailing zeros) share one stacked eigvals of
    their companion matrices and a vectorised polish, each step done as
    np.roots and np.polyval do it, so every root is bit-identical to a call
    of those per row.  As in a single eigvals call, a row whose eigenvalues
    all have a zero imaginary part is polished in float64, others in
    complex128."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, cf in enumerate(rows):
        nz = max(j for j, x in enumerate(cf) if x)
        groups.setdefault((len(cf), len(cf) - 1 - nz), []).append(k)
    out: list[list[complex]] = [[] for _ in rows]
    for (n, zeros), idx in groups.items():
        P = np.array([rows[k] for k in idx])
        m = n - 1 - zeros  # companion order, after stripping the zero roots
        if m:
            C = np.zeros((len(idx), m, m))
            C[:, 1:, :-1] = np.eye(m - 1)
            C[:, 0, :] = -P[:, 1:m + 1] / P[:, :1]
            W = np.linalg.eigvals(C)
        else:  # a single nonzero coefficient: no companion, only zero roots
            W = np.zeros((len(idx), 0))
        if zeros:
            W = np.hstack((W, np.zeros((len(idx), zeros), W.dtype)))
        real = np.all(W.imag == 0, axis=1)
        for sel, X in ((real, W.real), (~real, W)):
            if sel.any():
                X = _polish(P[sel], X[sel])
                for k, r in zip(np.flatnonzero(sel), X.tolist()):
                    out[idx[k]] = r
    return out


def spectra(scaled: Sequence[tuple[int, Sequence[Sequence[int]]]]) -> list[Spectrum]:
    """The Spectrum of each local matrix A, given as an integer-scaled pair
    (L, B = L*A), all eigenvalues with multiplicity, from the exact
    square-free factors of its characteristic polynomial.  Any L that makes
    B integer gives the same floats: a factor's coefficients in x are the
    same rationals f_k / L^(d-k) whatever L is, each one correctly rounded.
    The factors of every matrix are root-solved together: one stacked
    eigvals per factor shape, bit-identical to np.roots per factor, then
    three Newton steps; residuals are bounded by the polish (|p(mu)| ~
    machine eps relative to the coefficient scale)."""
    owners, rows = [], []
    for i, (L, B) in enumerate(scaled):
        for f, mult in _charpoly_factors(B):
            d = len(f) - 1
            owners.append((i, mult))
            # the coefficients of f(Lx) / L^d, each one correctly rounded
            rows.append([f[k] / L ** (d - k) for k in range(d, -1, -1)])
    vals: list[list[complex]] = [[] for _ in scaled]
    for (i, mult), roots in zip(owners, _roots_stacked(rows)):
        vals[i].extend(roots * mult)
    for (_, B), v in zip(scaled, vals):
        if len(v) != len(B):
            raise EigensolveError("root count %d != matrix order %d" % (len(v), len(B)))
    return [Spectrum.from_values(v) for v in vals]


def eigenvalues(M: LocalMatrix) -> Spectrum:
    """All eigenvalues of M with multiplicity as a Spectrum:
    spectra([M.integer_scaled()])[0], the roots from the stacked eigvals that
    equals np.roots bit for bit."""
    return spectra([M.integer_scaled()])[0]


# -- closed forms for the palindromic families ---------------------------

def w5_closed_form(a) -> Spectrum:
    """Spectrum of the width-5 palindromic family a_{+-2}=a, a_{+-1}=1/2,
    a_0 = 1-2a: always {1, 1/2, 1/2-2a, a, a}, real."""
    a = Fraction(a)
    return Spectrum.from_values([1.0, 0.5, float(Fraction(1, 2) - 2 * a), float(a), float(a)])


def w6_discriminant(a, b, den: int = 1) -> Fraction:
    """Exact discriminant D under the complex-pair square root for the
    width-6 family (outer a, next b, inner 1-a-b).  Given a and b as integer
    numerators over den > 1 it is den^2 D(a/den, b/den), an integer."""
    if den == 1:
        a, b = Fraction(a), Fraction(b)
    return den * den + 2 * a * den - 7 * a * a - 6 * b * den + 2 * a * b + 9 * b * b


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
