"""Local subdivision matrices and their spectra.

The n x n matrix has entries A[i][j] = a_{2j - i - c} (1-based) with shift
c = p + 1, p = -support_min; row 1 is then an even refinement rule and the
parity alternates down the rows, which reproduces the printed width-5 and
width-6 matrices.  Eigenvalues of a LocalMatrix are computed from the exact
square-free factors of its characteristic polynomial, each root-solved with
Newton polishing; this keeps multiple eigenvalues accurate to ~1e-12 where a
plain dense eigensolve loses half the digits at defective points.  A
LocalMatrix holds the integer-scaled pair (L, B = L*A), L the lcm of the
mask's denominators (masks.integer_run), and spectra() solves many such
pairs at once.  It groups them by order, and each integer step runs once per
group, on one (N, n, n) stack of Python ints (numpy dtype=object): exact at
any bit size, with no fixed-width path.  The factors of every matrix are
then grouped by shape, and each shape takes one stacked eigvals of
companion matrices and one vectorised polish, bit-identical to np.roots and
np.polyval per factor.  eigenvalues(M) is spectra([(M.L, M.B)])[0], so one
route serves both.

The factors come from the corners.  Columns 0 and n-1 each hold one nonzero
entry, on the diagonal, so det(xI - A) = (x - a_first)(x - a_last) q(x) with
q the characteristic polynomial of the central block, computed exactly in
integers (Faddeev-LeVerrier on L*A, one stacked matrix product per step).
A fraction-free remainder sequence of (q, q') over GF(2^61 - 1), run on the
whole stack, certifies q square-free when it drops one degree at a time to
a nonzero constant; q is then its own single class.  Any other q goes
straight to Yun's split over GF(p), p a Mersenne prime above twice q's
Mignotte bound, kept when its lifted factors multiply to q in integers (a
square-free q whose sequence skipped a degree comes back whole).  Each
corner then joins the class above its multiplicity as a root of q (0 when
it is none), two classes up when the corners are equal (every palindromic
mask).

A palindromic run makes A commute with the flip J (A[i][j] = A[n-1-i][n-1-j]),
so the central block C is centrosymmetric.  Such a C of order 2k splits
(Cantoni & Butler, 1976) into a J-even block P + QJ and a J-odd block P - QJ
of order k, with P, Q the top-left and top-right k x k blocks of C; at
order 2k+1 the J-even block also takes the middle column x and twice the
middle row y, [[P + QJ, x], [2y^T, C_kk]], still in integers.  The
centrosymmetric rows of a stack (C equal to C[::-1, ::-1]) go to a J-even
and a J-odd stack, each Faddeev-LeVerrier run on half the order, and q is
the row-by-row product of the two; every other row takes the full order.
q is the same integer polynomial either way, so the factors and every root
are unchanged.

For analyze and dynamics the spectral class (complex pair, negative real
count, simple eigenvalue 1 with all others inside the unit disc) is decided
once, at SPECTRAL_TOL, in Spectrum.from_values; callers read the resulting
fields.  A family scan decides its one class, complex pair or not, exactly
(palindromic_classes): both J-blocks have order <= 3 at widths <= 9, so a
complex pair is a negative block discriminant, and only those matrices are
root-solved, for their largest |Im|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .masks import Mask, integer_run


class EigensolveError(RuntimeError):
    """No table prime split the charpoly, a Faddeev-LeVerrier trace was not
    divisible (the matrix was not integer), or the root count is not the
    order."""


@dataclass(frozen=True)
class LocalMatrix:
    """A = B / L, with B = L*A an integer matrix and L > 0."""

    L: int
    B: tuple[tuple[int, ...], ...]
    column_offset: int  # the construction shift c

    @property
    def n(self) -> int:
        return len(self.B)

    def as_float(self) -> np.ndarray:
        """A in floats, each entry one correctly rounded integer division."""
        return np.array([[b / self.L for b in row] for row in self.B])

    def to_json(self) -> dict:
        # one reduced string per distinct entry: the mask's few values and 0
        text = {b: str(Fraction(b, self.L)) for b in set().union(*self.B)}
        return {
            "n": self.n,
            "column_offset": self.column_offset,
            "entries": [[text[b] for b in row] for row in self.B],
        }


# matrix_from_coeffs refuses a wider run before any entry is built.  The
# eigensolve alone would allow more: random rational masks drawn like the
# benchmark's take up to 0.05 s at order 24 and 0.11 s at 32 (Python 3.11,
# one core), and repeated (1+z)/2 lifts of the width-6 cell (0, 1/5), with
# a double central root, 0.01 and 0.03 s.  Raising the cap needs timings of
# every command at the new width.
MAX_ORDER = 24


def check_order(n: int) -> None:
    """Refuse a local matrix of order n above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ValueError("local matrix needs mask width <= %d, got %d" % (MAX_ORDER, n))


# bits is the bit length of the largest of L and the |L a_k| (bitlen(L)
# when every |a_k| <= 1).  The central charpoly's coefficients reach about
# (n - 2) * bits bits, and at a fixed (n - 2) * bits the time grows about as
# (n - 2)^3: random asymmetric masks at the cap take 0.6 s at width 24,
# 0.12 s at 14 and 0.016 s at 8 (Python 3.11, one core), and dynamics' exact
# fixed point 0.6 s at width 24.  The cap also keeps what analyze prints
# under CPython's 4300-digit int-to-string limit (width 2 counts as one
# row), and twice every Mignotte bound below _PRIMES[-1]: by Hadamard's
# bound, m * bits + 2m + 2 + (m/2) log2 m < 11100 bits, m = n - 2 <= 22.
MAX_CHARPOLY_BITS = 11000


def check_size(mask: Mask) -> None:
    """Refuse, before anything is built, a mask wider than MAX_ORDER or
    past MAX_CHARPOLY_BITS."""
    check_order(mask.width)
    L, nums = integer_run(mask.coeffs)
    bits = max(L, *map(abs, nums)).bit_length()
    if max(mask.width - 2, 1) * bits > MAX_CHARPOLY_BITS:
        raise ValueError("mask too large for exact arithmetic: width %d, %d bits; needs "
                         "max(width - 2, 1) * bits <= %d" % (mask.width, bits, MAX_CHARPOLY_BITS))


def local_stack(runs) -> np.ndarray:
    """The (N, n, n) stack of local matrices of an (N, n) array of nominal
    runs of integer numerators (or anything np.array makes one of), zero
    off each run, as Python ints (dtype=object).  The order n is the run
    length, 2 to MAX_ORDER."""
    R = np.array(runs, dtype=object)
    N, n = R.shape
    if n < 2:
        raise ValueError("local matrix needs mask width >= 2")
    check_order(n)
    # A[i][j] = a_{2j-i-c} (1-based) is run[2j - i] (0-based) whatever
    # support_min is; the run padded by n - 1 zeros each side reads it at
    # 2j - i + n - 1
    padded = np.zeros((N, 3 * n - 2), dtype=object)
    padded[:, n - 1:2 * n - 1] = R
    i, j = np.indices((n, n))
    return padded[:, 2 * j - i + n - 1]


def local_entries(nums: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Entries of the local matrix of one nominal run of integer numerators:
    local_stack of the one run."""
    return tuple(map(tuple, local_stack([nums])[0].tolist()))


def matrix_from_coeffs(support_min: int, coeffs: Sequence[Fraction]) -> LocalMatrix:
    """Local matrix for a nominal run of rationals (ints or Fractions); zero
    end coefficients are allowed (degenerate cells of a parameter family
    keep their nominal size).  Every coefficient is an entry, so L is the
    lcm of the run's denominators.  The order is the run length, at most
    MAX_ORDER."""
    L, nums = integer_run(coeffs)
    return LocalMatrix(L, local_entries(nums), -support_min + 1)


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
    """Eigenvalues and their class at SPECTRAL_TOL, as analyze and the
    closed forms report them: has_complex when some |Im| > SPECTRAL_TOL;
    negative_real_count counts every eigenvalue with Re < -SPECTRAL_TOL,
    complex ones included.  A family scan builds none: it decides
    has_complex exactly (palindromic_classes)."""

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

def _charpolys(S: np.ndarray) -> np.ndarray:
    """det(yI - B) of each matrix of an (N, m, m) stack of Python ints
    (dtype=object), as an (N, m + 1) stack, exact (Faddeev-LeVerrier)."""
    N, m = S.shape[:2]
    c = np.zeros((N, m + 1), dtype=object)
    c[:, m] = 1
    diag = np.arange(m)
    # M_1 = I, M_{k+1} = B M_k + c_{m-k} I, c_{m-k} = -tr(B M_k) / k, every
    # division exact: the first product B M_1 is B itself, and the last is
    # needed only through its trace
    P = S
    for k in range(1, m + 1):
        if k > 1:
            M = P.copy()
            M[:, diag, diag] += c[:, m - k + 1, None]
            P = S @ M if k < m else None
        if P is None:
            tr = (S * M.transpose(0, 2, 1)).sum(axis=(1, 2))
        else:
            tr = P[:, diag, diag].sum(axis=1)
        if (tr % k).any():
            raise EigensolveError("trace not divisible by %d in Faddeev-LeVerrier" % k)
        c[:, m - k] = -(tr // k)
    return c


def _centrosymmetric(C: np.ndarray) -> np.ndarray:
    """Which matrices of an (N, m, m) stack equal their flip J C J."""
    return (C == C[:, ::-1, ::-1]).all(axis=(1, 2))


def _flip_stacks(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J-even stack, J-odd stack) of an (N, m, m) stack of centrosymmetric
    integer matrices, whose characteristic polynomials multiply to C's.
    Order m = 2k gives two blocks of order k; m = 2k+1 gives a J-even
    block of order k+1 and a J-odd block of order k."""
    N, m = C.shape[:2]
    k = m // 2
    P, QJ = C[:, :k, :k], C[:, :k, ::-1][:, :, :k]
    odd = P - QJ
    if m % 2 == 0:
        return P + QJ, odd
    # the middle basis vector e_k joins the J-even block
    even = np.empty((N, k + 1, k + 1), dtype=object)
    even[:, :k, :k] = P + QJ
    even[:, :k, k] = C[:, :k, k]
    even[:, k, :k] = 2 * C[:, k, :k]
    even[:, k, k] = C[:, k, k]
    return even, odd


def _block_charpolys(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The charpolys of the J-even and J-odd blocks (_flip_stacks) of an
    (N, m, m) stack of centrosymmetric integer matrices."""
    even, odd = _flip_stacks(C)
    return _charpolys(even), _charpolys(odd)


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(y) * b(y) row by row, for two stacks of coefficient lists."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=object)
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out


def _central_charpolys(C: np.ndarray) -> np.ndarray:
    """det(yI - C) of each matrix of an (N, m, m) stack, as an (N, m + 1)
    stack: from the J-even and J-odd blocks on the centrosymmetric rows, the
    product taken row by row, from the whole matrix on the others."""
    N, m = C.shape[:2]
    out = np.empty((N, m + 1), dtype=object)
    sym = _centrosymmetric(C)
    if sym.any():
        out[sym] = _row_products(*_block_charpolys(C[sym]))
    if not sym.all():
        out[~sym] = _charpolys(C[~sym])
    return out


def _discriminants(c: np.ndarray) -> np.ndarray:
    """The discriminant of each monic polynomial of an (N, d + 1) stack of
    integer coefficient lists (from y^0 up), d <= 3: b^2 - 4c for
    y^2 + b y + c, b^2 c^2 - 4c^3 - 4b^3 d - 27d^2 + 18bcd for
    y^3 + b y^2 + c y + d, and 1 at d <= 1, which has no repeated root.
    A real polynomial of degree <= 3 has a non-real root exactly when its
    discriminant is < 0, and a repeated root exactly when it is 0."""
    d = c.shape[1] - 1
    if d <= 1:
        return np.ones(len(c), dtype=object)
    if d == 2:
        return c[:, 1] * c[:, 1] - 4 * c[:, 0]
    if d == 3:
        b, c1, c0 = c[:, 2], c[:, 1], c[:, 0]
        bc = b * c1
        return bc * bc - 4 * c1 ** 3 - 4 * b ** 3 * c0 - 27 * c0 * c0 + 18 * bc * c0
    raise ValueError("no closed-form discriminant at degree %d" % d)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a(y) * b(y), coefficient lists from y^0 up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Mersenne primes, ascending; the last lies above every Mignotte bound
# that check_size lets through.
_PRIMES = tuple((1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                                       3217, 4253, 4423, 9689, 9941, 11213))


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a and b, each empty or with a leading
    coefficient that is nonzero mod p."""
    a, b = [x % p for x in a], [x % p for x in b]
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
    if len(a) == 1:  # a unit, as for every square-free c: no inverse needed
        return [1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _div_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a / b over GF(p), for a monic b that divides a."""
    a, n = [x % p for x in a], len(b) - 1
    q = [0] * (len(a) - n)
    for s in range(len(q) - 1, -1, -1):
        q[s] = f = a[s + n]
        if f:
            for i, bi in enumerate(b):
                a[s + i] = (a[s + i] - f * bi) % p
    return q


def _yun_lift(c: Sequence[int], g: Sequence[int], p: int) -> dict[int, list[int]] | None:
    """Yun's square-free split of the monic integer c over GF(p) in Musser's
    gcd form, given g = gcd(c, c') there, lifted to symmetric residues:
    {multiplicity: factor} when the factors multiply to c in integers, else
    None.  w = c / g holds every factor once; each gcd with what is left of
    g peels off the factors of the next multiplicity."""
    split, w, i = {}, _div_mod(c, g, p), 1
    while len(w) > 1:
        y = _gcd_mod(w, g, p)
        if len(y) < len(w):
            split[i] = [x - p if 2 * x > p else x for x in _div_mod(w, y, p)]
        g, w, i = _div_mod(g, y, p), y, i + 1
    product = [1]
    for i, f in split.items():
        for _ in range(i):
            product = _poly_mul(product, f)
    return split if product == list(c) else None


def _squarefree_split(c: Sequence[int]) -> dict[int, list[int]]:
    """{i: the monic integer product of the factors of multiplicity i} of a
    monic integer c that _certified left out.  _yun_lift runs over the first
    prime above twice the Mignotte bound 2^d ||c||_2 on the coefficients of
    c's monic factors.  Its factors are square-free and pairwise coprime mod
    p, so over the rationals too (a common or square factor over the
    rationals has a monic integer form by Gauss's lemma, which keeps its
    degree mod p), and the split is unique: a product equal to c is it.  An
    unequal product means p divides a resultant of c's factors; the next
    prime runs."""
    dc = [k * x for k, x in enumerate(c)][1:]
    bound = 2 ** len(c) * (math.isqrt(sum(x * x for x in c)) + 1)
    for p in _PRIMES:
        if p > bound and (split := _yun_lift(c, _gcd_mod(c, dc, p), p)) is not None:
            return split
    raise EigensolveError("no table prime splits the characteristic polynomial")


def _certified(c: np.ndarray) -> np.ndarray:
    """Which rows of an (N, d + 1) stack of monic integer polynomials are
    square-free by a normal remainder sequence of (c, c') over GF(_PRIMES[0]):
    each fraction-free pseudo-remainder exactly one degree lower than the
    divisor, with a leading coefficient nonzero mod p, down to a nonzero
    constant.  Over GF(p) each is a unit times the true remainder, so
    gcd(c, c') is a unit there, and c is square-free: a square factor g^2
    has a monic integer g (Gauss's lemma), which keeps its degree mod p and
    divides c' there too.  A row left out may still be square-free: its
    sequence skipped a degree, or p divides a subresultant; _squarefree_split
    returns it whole."""
    p = _PRIMES[0]
    a = c % p
    b = c[:, 1:] * np.arange(1, c.shape[1]) % p  # c', leading coefficient d
    ok = np.ones(len(c), dtype=bool)
    for d in range(c.shape[1] - 2, 0, -1):  # a of degree d + 1, b of degree d
        lb = b[:, -1:]
        # t = lb a - la y b has degree <= d; lb t less t's y^d term times b,
        # degree <= d - 1
        t = lb * a[:, :-1]
        t[:, 1:] -= a[:, -1:] * b[:, :-1]
        t %= p
        r = (lb * t[:, :-1] - t[:, -1:] * b[:, :-1]) % p
        ok &= r[:, -1] != 0
        a, b = b, r
    return ok


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


def _charpoly_factors(B: Sequence[Sequence[Sequence[int]]]) -> list[list[tuple[list[int], int]]]:
    """The monic square-free factorisation of det(yI - B) for each matrix of
    a stack of integer-scaled local matrices B = L*A of one order (an
    (N, n, n) array of Python ints, or anything np.array makes one of): each
    factor an integer coefficient list with its multiplicity, in ascending
    multiplicity.  det(xI - A) has the factors f(Lx) / L^deg(f).  The
    charpolys of the central blocks come first, for the whole stack
    (_central_charpolys), then _split_factors."""
    S = np.array(B, dtype=object)
    n = S.shape[1]
    return _split_factors(_central_charpolys(S[:, 1:n - 1, 1:n - 1]), S)


def _split_factors(cs: np.ndarray, S: np.ndarray) -> list[list[tuple[list[int], int]]]:
    """_charpoly_factors from the central charpolys cs of the (N, n, n)
    stack S: the stacked certificate (_certified) first; a row it leaves
    out takes _squarefree_split.  A corner that is a root of multiplicity m
    in its row's c then moves to class m+1 (m+2 when both corners are that
    root; m = 0 when it is no root)."""
    out = []
    for c, certified, first, last in zip(cs.tolist(), _certified(cs).tolist(),
                                         S[:, 0, 0].tolist(), S[:, -1, -1].tolist()):
        classes = {1: c} if certified else _squarefree_split(c)
        for r in {first, last}:
            m = next((m for m, f in classes.items() if _horner(f, r) == 0), 0)
            if m:
                classes[m] = _over_linear(classes[m], r)
            up = m + (2 if first == last else 1)
            classes[up] = _poly_mul(classes.get(up, [1]), [-r, 1])
        factors = [(classes[m], m) for m in sorted(classes)]
        out.append([(f, m) for f, m in factors if len(f) > 1])
    return out


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
    complex128.  EigensolveError when a polished root is not finite: the
    polish overflowed on coefficients near the float range."""
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
                with np.errstate(all="ignore"):  # overflow shows as a non-finite root
                    X = _polish(P[sel], X[sel])
                if not np.isfinite(X).all():
                    raise EigensolveError("an eigenvalue leaves the float range")
                for k, r in zip(np.flatnonzero(sel), X.tolist()):
                    out[idx[k]] = r
    return out


def _eigenvalues(Ls: Sequence[int], orders: Sequence[int],
                 factors: Sequence[list[tuple[list[int], int]]]) -> list[list[complex]]:
    """All eigenvalues, with multiplicity, of each matrix A = B / L of order
    n, given L, n and the factors of det(yI - B) (_split_factors).  The
    non-linear factors of every matrix are root-solved together
    (_roots_stacked); a linear factor's root is one integer division."""
    owners, rows = [], []
    for i, (L, fs) in enumerate(zip(Ls, factors)):
        for f, mult in fs:
            d = len(f) - 1
            if d == 1:
                # monic linear: the root -f0/L correctly rounded, which is
                # what the stacked eigvals gives and the polish leaves
                owners.append((i, mult, [-f[0] / L]))
                continue
            owners.append((i, mult, None))
            # the coefficients of f(Lx) / L^d, each one correctly rounded
            rows.append([f[k] / L ** (d - k) for k in range(d, -1, -1)])
    vals: list[list[complex]] = [[] for _ in factors]
    stacked = iter(_roots_stacked(rows))
    for i, mult, roots in owners:
        vals[i].extend((roots or next(stacked)) * mult)
    for n, v in zip(orders, vals):
        if len(v) != n:
            raise EigensolveError("root count %d != matrix order %d" % (len(v), n))
    return vals


def spectra(scaled: Sequence[tuple[int, Sequence[Sequence[int]]]]) -> list[Spectrum]:
    """The Spectrum of each local matrix A, given as an integer-scaled pair
    (L, B = L*A), B any n x n integer array-like (nested sequences, or an
    object array of Python ints), all eigenvalues with multiplicity, from
    the exact square-free factors of its characteristic polynomial.  The
    matrices are grouped by order, and _charpoly_factors runs once per
    order on the stack of that order's B.  Any L that makes B integer gives
    the same floats: a factor's coefficients in x are the same rationals
    f_k / L^(d-k) whatever L is, each one correctly rounded.  The factors
    of every matrix are root-solved together: one stacked
    eigvals per factor shape, bit-identical to np.roots per factor, then
    three Newton steps; residuals are bounded by the polish (|p(mu)| ~
    machine eps relative to the coefficient scale).  A linear factor skips
    both: its root is one integer division."""
    by_order: dict[int, list[int]] = {}
    for i, (_, B) in enumerate(scaled):
        by_order.setdefault(len(B), []).append(i)
    factors: list = [None] * len(scaled)
    for idx in by_order.values():
        for i, fs in zip(idx, _charpoly_factors([scaled[i][1] for i in idx])):
            factors[i] = fs
    vals = _eigenvalues([L for L, _ in scaled], [len(B) for _, B in scaled], factors)
    return [Spectrum.from_values(v) for v in vals]


def palindromic_classes(L: int, S: np.ndarray) -> list[tuple[bool, float, int]]:
    """(has_complex, max |Im| of the eigenvalues, J-odd discriminant) of
    each matrix A = S[k] / L of an (N, n, n) stack S of integer-scaled
    local matrices of palindromic runs (local_stack), n <= 9.

    has_complex is exact.  The corners are rational, and the central
    block's J-even and J-odd blocks (_flip_stacks) have order <= 3 and
    integer charpolys, so A has a non-real eigenvalue exactly when one of
    their discriminants is < 0 (_discriminants).  Only those matrices are
    root-solved, by spectra's route from the same central charpoly (the
    product of the two block charpolys), so their max |Im| has the bits
    spectra gives; a real matrix has max |Im| 0.0.  At width 6 the J-odd
    discriminant is L^2 D(a, b), w6_discriminant(a, b, L) in numerators."""
    n = S.shape[1]
    C = S[:, 1:n - 1, 1:n - 1]
    if not _centrosymmetric(C).all():
        raise ValueError("palindromic_classes needs palindromic runs")
    even, odd = _block_charpolys(C)
    odd_disc = _discriminants(odd)
    has_complex = (_discriminants(even) < 0) | (odd_disc < 0)
    max_imag = [0.0] * len(S)
    rows = np.flatnonzero(has_complex)
    if len(rows):
        factors = _split_factors(_row_products(even[rows], odd[rows]), S[rows])
        for k, v in zip(rows.tolist(), _eigenvalues([L] * len(rows), [n] * len(rows), factors)):
            max_imag[k] = max(abs(x.imag) for x in v)
    return list(zip(has_complex.tolist(), max_imag, odd_disc.tolist()))


def eigenvalues(M: LocalMatrix) -> Spectrum:
    """All eigenvalues of M with multiplicity as a Spectrum:
    spectra([(M.L, M.B)])[0], the roots from the stacked eigvals that equals
    np.roots bit for bit."""
    return spectra([(M.L, M.B)])[0]


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
