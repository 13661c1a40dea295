"""Local subdivision matrices and their spectra.

The n x n matrix has entries A[i][j] = a_{2j - i - c} (1-based) with shift
c = p + 1, p = -support_min; row 1 is then an even refinement rule and the
parity alternates down the rows, which reproduces the printed width-5 and
width-6 matrices.  Eigenvalues of a LocalMatrix are computed from the exact
square-free factors of its characteristic polynomial, each root-solved with
Newton polishing; this keeps multiple eigenvalues accurate to ~1e-12 where a
plain dense eigensolve loses half the digits at defective points.  A
LocalMatrix holds the integer-scaled pair (L, B = L*A), L the lcm of the
mask's denominators (masks.integer_run), and B is the one read-only
(n, n) array of Python ints (dtype=object) that local_stack builds for
its run, which every reader takes as it is.  spectra(L, S) solves a whole
(N, n, n) stack S of such B over one L, the stack palindromic_classes takes
too: each integer step runs once on the stack, exact at any bit size.  The
stack is of Python ints (numpy dtype=object) for every caller but
search.scan, whose grids of at most search._INT64_BITS bits give int64
runs: local_stack, the flip stacks and the J-block charpolys then run on
int64, below 2^63 by that bound, and palindromic_classes casts the
charpolys and its complex rows to Python ints before the discriminants,
the products and the root solve.  A linear
factor's root is one integer division; the others are root-solved in stacks
of one shape, each one stacked eigvals of companion matrices and one
vectorised polish, bit-identical to np.roots and np.polyval per factor.
eigenvalues(M) is spectra of M's one-row stack M.B[None], so one route
serves both.

Columns 0 and n-1 each hold one nonzero entry, on the diagonal, so
det(xI - A) = (x - a_first)(x - a_last) q(x) with q the characteristic
polynomial of the central block, computed exactly in integers
(Faddeev-LeVerrier on L*A, one stacked matrix product per step).  A
fraction-free remainder sequence of (q, q') over GF(2^31 - 1), run on the
whole stack in int64 residues, certifies q square-free when it drops one
degree at a time to a nonzero constant.  A row whose q is certified and has
neither corner among its roots is plain: its factors, q and the corners,
join _split_factors' table of stacks (one per multiplicity and degree) as
arrays.  Every other row takes Yun's split of its whole characteristic
polynomial q (x - a_first)(x - a_last) over GF(p), p a Mersenne prime above
twice its Mignotte bound, kept when the lifted factors multiply to it in
integers (a square-free one whose sequence skipped a degree comes back
whole).  _eigenvalues then runs one loop over the table, the same for
every row.

A palindromic run makes A commute with the flip J (A[i][j] = A[n-1-i][n-1-j]),
so the central block C is centrosymmetric.  Such a C of order 2k splits
(Cantoni & Butler, 1976) into a J-even block P + QJ and a J-odd block P - QJ
of order k, with P, Q the top-left and top-right k x k blocks of C; at
order 2k+1 the J-even block also takes the middle column x and twice the
middle row y, [[P + QJ, x], [2y^T, C_kk]], still in integers.  When
every C of a stack is centrosymmetric (C equal to C[::-1, ::-1]), spectra
runs Faddeev-LeVerrier on a J-even and a J-odd stack of half the order, and
q is the row-by-row product of the two; any other stack takes the full
order.  q is the same integer polynomial either way, so the factors and
every root are unchanged.

For analyze the spectral class (complex pair, negative real count, simple
eigenvalue 1 with all others inside the unit disc) is decided once, at
SPECTRAL_TOL, in Spectrum.from_values; callers read the resulting fields.
dynamics builds no Spectrum: it reads its modes off LAPACK's eigenvalue
order in dynamics.decompose_modes.  A family scan decides its one class,
complex pair or not, exactly (palindromic_classes): both J-blocks have
order <= 3 at widths <= 8, so a complex pair is a negative block
discriminant, and only those matrices are root-solved, for their largest
|Im|.  Width 9 has a J-even block of order 4, and palindromic_classes
refuses it.
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
    divisible (the matrix was not integer), or a characteristic polynomial
    coefficient or a root left the float range."""


@dataclass(frozen=True, eq=False)
class LocalMatrix:
    """A = B / L, with B = L*A an integer matrix and L > 0: B is a
    read-only (n, n) array of Python ints (dtype=object), the row of
    local_stack that matrix_from_coeffs builds.  A matrix compares by
    identity."""

    L: int
    B: np.ndarray
    column_offset: int  # the construction shift c

    @property
    def n(self) -> int:
        return len(self.B)

    def as_float(self) -> np.ndarray:
        """A in floats, each entry one correctly rounded integer division."""
        return (self.B / self.L).astype(float)

    def to_json(self) -> dict:
        # one reduced string per distinct entry: the mask's few values and 0
        text = {b: str(Fraction(b, self.L)) for b in set(self.B.flat)}
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
# row), and twice the Mignotte bound of every whole characteristic
# polynomial c (y - a)(y - b) that _squarefree_split gets below _PRIMES[-1]
# = 2^44497 - 1: by Hadamard's bound it has at most
# (m + 2) * bits + 2m + 4 + (m/2) log2 m bits, m = n - 2, which peaks near
# 33010 at width 3 and is near 12100 at width 24.  check_size applies the
# cap to a mask and search.scan to a grid (its common denominator as L),
# both by check_bits, so no command passes it; spectra called past it
# raises EigensolveError for a row off the plain path.  Near the cap
# (2-core Xeon, Python 3.11) a degree-22 c with a double root (10928-bit
# coefficients) splits in 0.23 s over 2^11213 - 1, its whole polynomial
# (11921 bits) in 0.78 s over 2^19937 - 1, and the width-3 worst case
# (y - x)^3 (33000 bits) in 0.03 s over 2^44497 - 1.
MAX_CHARPOLY_BITS = 11000


def check_bits(what: str, width: int, bits: int) -> None:
    """Refuse runs of a width whose scale L or largest |numerator| has
    bits bits, past MAX_CHARPOLY_BITS; what names them in the message."""
    if max(width - 2, 1) * bits > MAX_CHARPOLY_BITS:
        raise ValueError("%s too large for exact arithmetic: width %d, %d bits; needs "
                         "max(width - 2, 1) * bits <= %d" % (what, width, bits, MAX_CHARPOLY_BITS))


def check_size(mask: Mask) -> None:
    """Refuse, before anything is built, a mask wider than MAX_ORDER or
    past MAX_CHARPOLY_BITS."""
    check_order(mask.width)
    L, nums = integer_run(mask.coeffs)
    check_bits("mask", mask.width, max(L, *map(abs, nums)).bit_length())


def int_array(x) -> np.ndarray:
    """x itself when it is an array, else x as an array of Python ints
    (dtype=object): the integer helpers keep the dtype they are given, so
    int64 reaches only the steps of a caller that chose it (search.scan)."""
    return x if isinstance(x, np.ndarray) else np.array(x, dtype=object)


def local_stack(runs) -> np.ndarray:
    """The (N, n, n) stack of local matrices of an (N, n) array of nominal
    runs of integer numerators (or anything np.array makes one of), zero
    off each run, of the runs' dtype (int_array): Python ints unless runs
    is an int64 array, as search.scan gives under its bit bound.  The order
    n is the run length, 2 to MAX_ORDER."""
    R = int_array(runs)
    N, n = R.shape
    if n < 2:
        raise ValueError("local matrix needs mask width >= 2")
    check_order(n)
    # A[i][j] = a_{2j-i-c} (1-based) is run[2j - i] (0-based) whatever
    # support_min is; the run padded by n - 1 zeros each side reads it at
    # 2j - i + n - 1
    padded = np.zeros((N, 3 * n - 2), dtype=R.dtype)
    padded[:, n - 1:2 * n - 1] = R
    i, j = np.indices((n, n))
    return padded[:, 2 * j - i + n - 1]


def matrix_from_coeffs(support_min: int, coeffs: Sequence[Fraction]) -> LocalMatrix:
    """Local matrix for a nominal run of rationals (ints or Fractions); zero
    end coefficients are allowed (degenerate cells of a parameter family
    keep their nominal size).  Every coefficient is an entry, so L is the
    lcm of the run's denominators, and B is local_stack of the one run of
    numerators, made read-only.  The order is the run length, at most
    MAX_ORDER."""
    L, nums = integer_run(coeffs)
    B = local_stack([nums])[0]
    B.flags.writeable = False
    return LocalMatrix(L, B, -support_min + 1)


# -- spectra -------------------------------------------------------------

# The one threshold of the spectral class.  On the default family grids of
# widths 2-8 real spectra have |Im| exactly 0 and complex ones |Im| > 0.02.
SPECTRAL_TOL = 1e-9


def _sort_key(z: complex):
    return (-abs(z), -z.real, -z.imag)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and their class at SPECTRAL_TOL, as analyze reports
    them: has_complex when some |Im| > SPECTRAL_TOL;
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
    """det(yI - B) of each matrix of an (N, m, m) stack of integers, as an
    (N, m + 1) stack of S's dtype (Faddeev-LeVerrier): exact on Python ints
    (dtype=object), and on int64 while every intermediate stays below 2^63
    (search._INT64_BITS)."""
    N, m = S.shape[:2]
    c = np.zeros((N, m + 1), dtype=S.dtype)
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
    even = np.empty((N, k + 1, k + 1), dtype=C.dtype)
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
    # the cubic is the last case: palindromic_classes, the one caller,
    # refuses order > 8, whose J-even block would have degree 4
    b, c1, c0 = c[:, 2], c[:, 1], c[:, 0]
    bc = b * c1
    return bc * bc - 4 * c1 ** 3 - 4 * b ** 3 * c0 - 27 * c0 * c0 + 18 * bc * c0


# Mersenne primes, ascending; the last lies above twice the Mignotte bound
# of every whole characteristic polynomial that check_size lets through.
_PRIMES = tuple((1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                                       4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497))


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
    # a unit, as for every square-free polynomial: no modular inverse, which
    # costs 5.9 / 17.8 / 83.5 ms at the 11213 / 19937 / 44497-bit primes
    # (2-core Xeon, Python 3.11)
    if len(a) == 1:
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
    {multiplicity: factor} when the factors, each taken multiplicity times,
    multiply to c in integers (np.convolve on Python ints), else None.
    w = c / g holds every factor once; each gcd with what is left of g
    peels off the factors of the next multiplicity."""
    split, w, i = {}, _div_mod(c, g, p), 1
    while len(w) > 1:
        y = _gcd_mod(w, g, p)
        if len(y) < len(w):
            split[i] = [x - p if 2 * x > p else x for x in _div_mod(w, y, p)]
        g, w, i = _div_mod(g, y, p), y, i + 1
    product = np.ones(1, dtype=object)
    for i, f in split.items():
        for _ in range(i):
            product = np.convolve(product, np.array(f, dtype=object))
    return split if product.tolist() == list(c) else None


def _squarefree_split(c: Sequence[int]) -> dict[int, list[int]]:
    """{i: the monic integer product of the factors of multiplicity i} of a
    monic integer c, the whole characteristic polynomial of a row off
    _split_factors' plain path.  _yun_lift runs over the first
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


# The prime of _certified: residues below 2^31, so a product of two stays
# below 2^62 and the whole sequence runs in int64.
_CERT_PRIME = (1 << 31) - 1


def _certified(c: np.ndarray) -> np.ndarray:
    """Which rows of an (N, d + 1) stack of monic integer polynomials are
    square-free by a normal remainder sequence of (c, c') over
    GF(_CERT_PRIME): each fraction-free pseudo-remainder exactly one degree
    lower than the divisor, with a leading coefficient nonzero mod p, down
    to a nonzero constant.  Over GF(p) each is a unit times the true
    remainder, so gcd(c, c') is a unit there, and c is square-free: a square
    factor g^2 has a monic integer g (Gauss's lemma), which keeps its degree
    mod p and divides c' there too.  This holds for any prime p above d.  A
    row left out may still be square-free: its sequence skipped a degree, or
    p divides a subresultant; _squarefree_split returns it whole."""
    p = _CERT_PRIME
    a = (c % p).astype(np.int64)
    b = a[:, 1:] * np.arange(1, c.shape[1]) % p  # c', leading coefficient d
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


def _split_factors(cs: np.ndarray, S: np.ndarray) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """The monic square-free factors of det(yI - B) for each matrix of an
    (N, n, n) stack S of integer-scaled local matrices B = L*A, given the
    charpolys cs of their central blocks, as one table of stacks
    (rows, m, F), one per (multiplicity m, degree d >= 1), in ascending m:
    row k of F holds the integer coefficients, from y^0 up, of the factor
    of multiplicity m of matrix rows[k].  det(xI - A) has the factors
    f(Lx) / L^d.

    A row that _certified clears and whose corners a, b are no root of c
    (one exact _polyval of every row at both its corners) is plain, and its
    factors are arrays: c and (y - a) of multiplicity 2 when a = b, else
    c (y - a)(y - b).  Every other row adds the classes of
    _squarefree_split of its whole c (y - a)(y - b) as one-row stacks.  The
    stacks of one (m, d) are then joined."""
    first, last = S[:, 0, 0], S[:, -1, -1]
    plain = _certified(cs) & (_polyval(cs[:, ::-1], np.column_stack((first, last))) != 0).all(axis=1)
    eq, ne, off = map(np.flatnonzero, (plain & (first == last), plain & (first != last), ~plain))
    ya, yb = (np.column_stack((-r, np.ones_like(r))) for r in (first, last))  # y - a, y - b
    rest = np.concatenate((ne, off))
    whole = _row_products(_row_products(cs[rest], ya[rest]), yb[rest])
    parts = [(eq, 1, cs[eq]), (eq, 2, ya[eq]), (ne, 1, whole[:len(ne)])]
    for i, c in zip(off.tolist(), whole[len(ne):].tolist()):
        parts += [(np.array([i]), m, np.array([f], dtype=object)) for m, f in _squarefree_split(c).items()]
    table: dict[tuple[int, int], list] = {}
    for rows, m, F in parts:
        if len(rows) and F.shape[1] > 1:
            table.setdefault((m, F.shape[1]), []).append((rows, F))
    return [(np.concatenate([r for r, _ in g]), m, np.concatenate([F for _, F in g]))
            for (m, _), g in sorted(table.items())]


def _polyval(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row k of P (coefficients from the top degree down) at each entry of
    row k of X, by Horner's rule.  On object stacks of Python ints every
    step is exact; on floats it runs in np.polyval's order of operations,
    so each value has np.polyval's bits."""
    Y = np.zeros_like(X)
    for j in range(P.shape[1]):
        Y = Y * X + P[:, j:j + 1]
    return Y


def _polish(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Three Newton steps on the roots X[k] of row P[k], all rows at once:
    the derivative rows are np.polyder's coefficients and every value is
    _polyval's, so each step equals the Newton step of np.polyder and
    np.polyval on the one row."""
    dP = P[:, :-1] * np.arange(P.shape[1] - 1, 0, -1)
    for _ in range(3):
        v, dv = _polyval(P, X), _polyval(dP, X)
        X = X - np.where(dv != 0, v / np.where(dv != 0, dv, 1), 0)
    return X


def _roots_of_stack(P: np.ndarray) -> np.ndarray:
    """Roots of the square-free polynomials of a (K, n) float stack,
    coefficients from the top degree down (leading coefficient nonzero),
    Newton-polished, as a (K, n - 1) complex array.

    Rows with one count of trailing zeros share one stacked eigvals of
    their companion matrices and a vectorised polish, each step done as
    np.roots and np.polyval do it, so every root is bit-identical to a call
    of those per row.  As in a single eigvals call, a row whose eigenvalues
    all have a zero imaginary part is polished in float64, others in
    complex128.  EigensolveError when a polished root is not finite: the
    polish overflowed on coefficients near the float range."""
    K, n = P.shape
    roots = np.empty((K, n - 1), dtype=complex)
    trailing = (P[:, ::-1] != 0).argmax(axis=1)  # each row's zero roots
    for zeros in np.flatnonzero(np.bincount(trailing)).tolist():
        at = np.flatnonzero(trailing == zeros)
        Q, m = P[at], n - 1 - zeros  # m: companion order, after stripping the zero roots
        if m:
            C = np.zeros((len(at), m, m))
            C[:, 1:, :-1] = np.eye(m - 1)
            C[:, 0, :] = -Q[:, 1:m + 1] / Q[:, :1]
            W = np.linalg.eigvals(C)
        else:  # a single nonzero coefficient: no companion, only zero roots
            W = np.zeros((len(at), 0))
        if zeros:
            W = np.hstack((W, np.zeros((len(at), zeros), W.dtype)))
        is_real = np.all(W.imag == 0, axis=1)
        for sel, X in ((is_real, W.real), (~is_real, W)):
            if sel.any():
                with np.errstate(all="ignore"):  # overflow shows as a non-finite root
                    X = _polish(Q[sel], X[sel])
                if not np.isfinite(X).all():
                    raise EigensolveError("an eigenvalue leaves the float range")
                roots[at[sel]] = X
    return roots


def _eigenvalues(L: int, cs: np.ndarray, S: np.ndarray) -> np.ndarray:
    """All eigenvalues, with multiplicity, of each matrix A = S[k] / L of
    an (N, n, n) stack of integer-scaled local matrices, given the
    charpolys cs of their central blocks, as an (N, n) complex array, by one
    loop over the table of _split_factors.  The float coefficients of a
    factor f of degree d are f_k / L^(d-k), from the top degree down, each
    one correctly rounded integer division (EigensolveError past the float
    range): a stack of degree 1 gives its roots as the one division
    (-f_0) / L (the bits the stacked eigvals and polish give), any other
    stack is root-solved by one _roots_of_stack call.  The roots of a
    factor of multiplicity m fill the next m times d columns of its row,
    written m times, so a row holds its factors' roots in ascending
    multiplicity."""
    N, n = S.shape[:2]
    pw = L ** np.arange(n + 1, dtype=object)
    vals, free = np.empty((N, n), dtype=complex), np.zeros(N, dtype=int)
    for rows, m, F in _split_factors(cs, S):
        d = F.shape[1] - 1
        try:
            P = (F[:, ::-1] / pw[:d + 1]).astype(float)
        except OverflowError:
            raise EigensolveError("a characteristic polynomial coefficient leaves "
                                  "the float range") from None
        # -(f_0 / L) exactly, but +0.0 for a zero root, as (-f_0) / L gives
        roots = 0.0 - P[:, 1:] if d == 1 else _roots_of_stack(P)
        vals[rows[:, None], free[rows, None] + np.arange(m * d)] = np.tile(roots, m)
        free[rows] += m * d
    return vals


def spectra(L: int, S: np.ndarray) -> list[Spectrum]:
    """The Spectrum of each matrix A = S[k] / L of an (N, n, n) stack S of
    integer-scaled local matrices (Python ints, dtype=object; local_stack),
    all eigenvalues with multiplicity, from the exact square-free factors
    of its characteristic polynomial.  The central charpolys are the
    product of the J-block ones when every central block of the stack is
    centrosymmetric, and whole-order Faddeev-LeVerrier otherwise.  Any L
    that makes B integer gives the same floats: a factor's coefficients in
    x are the same rationals f_k / L^(d-k) whatever L is, each one
    correctly rounded.  Every factor takes the one route of _eigenvalues: a
    linear one's root is one integer division, and the others come from one
    stacked eigvals per factor shape, bit-identical to np.roots per factor,
    then three Newton steps; residuals are bounded by the polish
    (|p(mu)| ~ machine eps relative to the coefficient scale)."""
    n = S.shape[1]
    C = S[:, 1:n - 1, 1:n - 1]
    cs = _row_products(*_block_charpolys(C)) if _centrosymmetric(C).all() else _charpolys(C)
    return [Spectrum.from_values(v) for v in _eigenvalues(L, cs, S).tolist()]


def j_block_classes(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(has_complex, J-odd discriminant, J-even charpolys, J-odd charpolys)
    of a stack S that palindromic_classes takes: its exact part, with no
    matrix root-solved (the scans of search.min_width_report stop here).
    The charpolys are Python ints whatever S's dtype."""
    n = S.shape[1]
    if n > 8:
        raise ValueError("palindromic_classes needs order <= 8, got %d" % n)
    C = S[:, 1:n - 1, 1:n - 1]
    if not _centrosymmetric(C).all():
        raise ValueError("palindromic_classes needs palindromic runs")
    # an int64 stack's block charpolys are exact under search._INT64_BITS,
    # but their discriminants and products are not
    even, odd = (c.astype(object) for c in _block_charpolys(C))
    odd_disc = _discriminants(odd)
    return (_discriminants(even) < 0) | (odd_disc < 0), odd_disc, even, odd


def palindromic_classes(L: int, S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(has_complex, max |Im| of the eigenvalues, J-odd discriminant), each
    an array over the matrices A = S[k] / L of an (N, n, n) stack S of
    integer-scaled local matrices of palindromic runs (local_stack),
    n <= 8.

    has_complex is exact.  The corners are rational, and the central
    block's J-even and J-odd blocks (_flip_stacks) have order <= 3 and
    integer charpolys, so A has a non-real eigenvalue exactly when one of
    their discriminants is < 0 (_discriminants).  At n = 9 the J-even block
    has order 4, which has no such closed form, so n > 8 is refused first.
    Only the complex matrices are root-solved, by spectra's route
    (_eigenvalues) from the same central charpoly (the product of the two
    block charpolys): the same factors, stacked eigvals and polish.  Their
    max |Im| is one row-wise max over the array of their eigenvalues, the
    bits spectra gives; a real matrix has max |Im| 0.0.  At width 6 the
    J-odd discriminant is L^2 D(a/L, b/L), a and b the outer numerators
    and D w6_discriminant.  S may be int64 (search.scan under its bit
    bound): only the flip stacks and block charpolys run on it, and every
    later step on Python ints."""
    has_complex, odd_disc, even, odd = j_block_classes(S)
    max_imag = np.zeros(len(S))
    rows = np.flatnonzero(has_complex)
    if len(rows):
        vals = _eigenvalues(L, _row_products(even[rows], odd[rows]), S[rows].astype(object))
        max_imag[rows] = np.abs(vals.imag).max(axis=1)
    return has_complex, max_imag, odd_disc


def eigenvalues(M: LocalMatrix) -> Spectrum:
    """All eigenvalues of M with multiplicity as a Spectrum: spectra of
    M's one-row stack M.B[None], the roots from the stacked eigvals that
    equals np.roots bit for bit."""
    return spectra(M.L, M.B[None])[0]


# -- the width-6 family --------------------------------------------------

def w6_discriminant(a, b) -> Fraction:
    """Exact discriminant D under the complex-pair square root for the
    width-6 family (outer a, next b, inner 1-a-b): the family has a complex
    conjugate pair exactly when D(a, b) < 0."""
    a, b = Fraction(a), Fraction(b)
    return 1 + 2 * a - 7 * a * a - 6 * b + 2 * a * b + 9 * b * b
