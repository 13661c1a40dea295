"""The local dynamical system v_{k+1} = A v_k on control-point windows.

Iterates the local subdivision matrix, subtracts the states' eigenvalue-1
component z, from the left and right eigenvectors of eigenvalue 1 (their
limit when every other eigenvalue has modulus below 1), and decomposes the
transient into real eigenmodes and complex-pair rotation-scaling planes.
The contraction factor of a complex pair is the modulus |mu| (the
rotation-scaling normal form), with rotation angle arg(mu).  One float
eigendecomposition of the matrix a request serves both the precision of
the fixed-point route and the modes.

The trajectory and the eigenvectors are exact and use integer arithmetic
only: a LocalMatrix holds A as the integer matrix B = L A, L the lcm of its
denominators, one read-only array of Python ints (dtype=object) that every
step here reads as it is; each eigenvector comes from fraction-free
elimination, and the trajectory is kept as its transients
t_k = v_k - z = A^k (v_0 - z) (z = 0 when eigenvalue 1 is absent, not
simple or defective).  Every
reported transient is its exact value correctly rounded, by one of two
routes that give the same floats.  Where the exact operands would be long,
P-bit fixed-point integers with a proved error bound decide each rounding;
where they cannot (a bracket too wide to decide, or a bound past the float
range), or the operands are short, the exact recurrence does: integer
numerators over one denominator, stepped without any gcd, and one correctly
rounded integer division an entry.  A mode is a real eigendirection with
signed coefficients or a complex pair's plane with none.  A report holds
each float datum once, as a read-only float64 array: the transients, one
row a step, their distances, and each mode's magnitudes and coefficients.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .localmatrix import LocalMatrix, _centrosymmetric
from .masks import integer_run

class TrajectoryOverflowError(OverflowError):
    """A transient of the exact trajectory leaves the float range before
    step K: its correctly rounded float would be infinite."""


class ModeOverflowError(OverflowError):
    """A mode coefficient or magnitude of a finite transient leaves the float
    range: its eigenbasis coordinates overflow where the transient does not."""


@dataclass(frozen=True, eq=False)
class EigenMode:
    """One mode of a trajectory: its magnitude at each step k = 0..K, and
    for a real mode its signed coefficients, each a read-only float64
    array of K + 1 entries; a mode compares by identity."""
    eigenvalue: complex          # representative; Im >= 0 for a complex pair
    magnitudes: np.ndarray
    # signed, real modes only: None exactly for a complex pair
    coefficients: Optional[np.ndarray]


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    """A trajectory of K steps: the (K + 1, n) transients, one row a step,
    and their (K + 1,) distances, each one read-only float64 array, and the
    modes; a report compares by identity."""
    # v_k - z (z the eigenvalue-1 component) for k = 0..K, not the states: a
    # rational matrix admits an exact trajectory whose transients keep full
    # relative precision long after float states have cancelled to noise
    transients: np.ndarray
    distances: np.ndarray
    # None when the float matrix is defective within working precision
    modes: Optional[tuple[EigenMode, ...]]


def _null_vector(L: int, B: np.ndarray) -> Optional[np.ndarray]:
    """An integer null vector u of B^T - L I, B an (n, n) array of Python
    ints (dtype=object), as one such array, unnormalized: the left
    eigenvector of eigenvalue 1 of A = B / L (the right one of B.T / L);
    None unless the null space is one line.

    (B^T - L I) u = 0 is solved by fraction-free Gauss-Jordan elimination
    (Bareiss) on one array of Python ints: a pivot swaps two rows by index
    and updates the other rows with one np.outer, every division is exact,
    and every pivot ends equal to the last one.
    """
    n = len(B)
    M = B.T - L * np.identity(n, dtype=object)
    free = []
    prev = 1
    for col in range(n):
        r = col - len(free)
        nonzero = np.flatnonzero(M[r:, col])
        if not len(nonzero):
            free.append(col)
            continue
        if nonzero[0]:
            M[[r, r + nonzero[0]]] = M[[r + nonzero[0], r]]
        # one step for every row, which zeroes the pivot row: it is put back
        p, row = M[r, col], M[r]
        M = (p * M - np.outer(M[:, col], row)) // prev
        M[r] = row
        prev = p
    if len(free) != 1:
        return None
    # pivot row r reads prev * u[c] + M[r, f] * u[f] = 0, f = free[0] and c
    # the r-th column other than f
    return np.insert(-M[:n - 1, free[0]], free[0], prev)


# iterate_local refuses more steps than this before any work: the exact
# trajectory's cost grows about as K^2 (its operands grow by log2(L) bits a
# step, den_k = den_0 L^k), and K = 10^4 takes 16-23 s on the benchmark's
# random rational masks of width 20 whose trajectory stays finite (pool
# masks w20/1 and w20/2; Python 3.11, one core of a 2-vCPU VM).  The
# fixed-point route is tried there, but P is 7300 to 11600 bits: X +- E
# passes the float range in the first bracket, which returns None after
# 7-10 ms, and its steps alone would take about 2 s.
MAX_K = 10 ** 4


def _row_bound(B: np.ndarray) -> int:
    """R, the largest row sum of |B|: |B x| <= R max|x| for every x."""
    return int(np.abs(B).sum(axis=1).max())


def _band(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, band) of an (n, n) array B of Python ints (dtype=object):
    row i's nonzeros lie in the columns idx[i] = start_i..start_i+h-1, one
    width h for every row, and band[i] holds those entries of B, so B x is
    (x[idx] * band).sum(axis=1) on numpy arrays of Python ints.  A local matrix,
    B[i][j] = run[2j - i], has about half of each row zero, and a dense B
    takes h = n, the whole product."""
    nz = B != 0
    start = nz.argmax(axis=1)  # 0 for a zero row, which any columns cover
    h = int(np.where(nz.any(axis=1), len(B) - nz[:, ::-1].argmax(axis=1) - start, 1).max())
    idx = np.minimum(start, len(B) - h)[:, None] + np.arange(h)
    return idx, np.take_along_axis(B, idx, axis=1)


def _transient_numerators(t: Sequence[Fraction], L: int,
                          B: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """The transients t_k = A^k t of t_{k+1} = A t_k, A = B / L with B
    integer, as (integer numerators, one array of Python ints, and one
    positive denominator) for k = 0, 1, ...

    The numerators T_k over den_k = den_0 L^k step as T_{k+1} = B T_k,
    taken on the band of B (_band).  Nothing is reduced, so the operands
    grow by log2(L) bits a step.
    """
    common, nums = integer_run(t)
    idx, band = _band(B)
    T = np.array(nums, dtype=object)
    while True:
        yield T, common
        T = (T[idx] * band).sum(axis=1)
        common *= L


def _fixed_point_numerators(t: Sequence[Fraction], L: int, B: np.ndarray,
                            P: int) -> Iterator[tuple[np.ndarray, int]]:
    """P-bit fixed-point transients of t_{k+1} = A t_k, A = B / L: (X_k, E_k)
    for k = 0, 1, ..., integers X_k (one array) and one bound E_k with
    |2^P t_k - X_k| < E_k for every entry.

    X_0 = floor(2^P t_0) and X_{k+1} = floor(B X_k / L), on the band of B
    (_band).  E_0 = 1 and E_{k+1} = ceil(R E_k / L) + 1, R = _row_bound(B):
    the new error is the old one through B / L, below R E_k / L in
    magnitude, plus the floor's remainder, in [0, 1).  The operands stay
    near P bits plus the transients' own size.
    """
    den, nums = integer_run(t)
    idx, band = _band(B)
    X = np.array([(x << P) // den for x in nums], dtype=object)
    R = _row_bound(B)
    E = 1
    while True:
        yield X, E
        X = (X[idx] * band).sum(axis=1) // L
        E = -(-R * E // L) + 1


# _fixed_point_transients brackets this many steps at once: the big ints it
# holds stay one block of rows, not the whole trajectory
_BLOCK = 32


def _fixed_point_transients(t: Sequence[Fraction], L: int, B: np.ndarray,
                            K: int, P: int) -> Optional[np.ndarray]:
    """The floats of the transients t_k, k = 0..K, of t_{k+1} = A t_k,
    A = B / L, from the P-bit integers of
    _fixed_point_numerators; None where one of them is not proved to round
    to its float.

    Int-to-float conversion rounds correctly and monotonically, so where
    float(X - E) == float(X + E) that float is the correctly rounded
    2^P t_k, and times 2^-P it is the transient's correctly rounded
    float: the exact route's float, bit for bit, while it is normal.  A
    failed bracket (an exact zero always fails one), a result below the
    normal range, or an X past the float range is None.
    """
    out = np.empty((K + 1, len(B)))
    steps = _fixed_point_numerators(t, L, B, P)
    for k in range(0, K + 1, _BLOCK):
        block = list(islice(steps, min(_BLOCK, K + 1 - k)))
        X = np.array([x for x, _ in block])
        E = np.array([e for _, e in block], dtype=object)[:, None]
        try:
            lo, hi = (X - E).astype(float), (X + E).astype(float)
        except OverflowError:
            return None
        if not (lo == hi).all():
            return None
        out[k:k + len(block)] = hi
    out = np.ldexp(out, -P)
    if (np.abs(out) < sys.float_info.min).any():
        return None
    return out


def _precision(M: LocalMatrix, K: int, w: np.ndarray) -> int:
    """P for _fixed_point_transients at K steps: 128 bits, plus per step the
    growth log2 max(R / L, 1) of the error bound (R = _row_bound(B), as
    _fixed_point_numerators bounds it) and the decay log2(1 / rho2) of the
    transients, rho2 the subdominant modulus of w, at least 2^-8.  w holds the float matrix's
    eigenvalues that the start excites, as iterate_local reads them: all of
    them, or the J-even ones for a J-symmetric start.  The floats only size
    P: no output bit depends on them."""
    moduli = np.sort(np.abs(w))
    rho2 = max(float(moduli[-2:][0]), 2.0 ** -8)  # the only modulus at order 1
    return 128 + math.ceil(K * (math.log2(max(_row_bound(M.B), M.L) / M.L) - math.log2(rho2)))


def iterate_local(v0: Sequence[float], M: LocalMatrix, K: int,
                  norm: str = "inf") -> TrajectoryReport:
    """Transients [v0 - z, A v0 - z, ..., A^K v0 - z], their distances to
    the fixed point z and their eigenmodes, for A = M.B / M.L.

    The fixed point z = (u . v0 / u . w) w is the states' eigenvalue-1
    component, u and w the left and right eigenvectors of eigenvalue 1
    (_null_vector on B and on B^T), decided once and independent of K; it
    is their limit when every other eigenvalue has modulus below 1.  When
    eigenvalue 1 is absent or not simple (no vector) or defective
    (u . w = 0), z is 0 and the transients are the states.  Either way
    the transients step as t_{k+1} = A t_k from t_0 = v0 - z.  Each transient entry is the
    correctly rounded float of its exact value, one entry of a float64
    array, by one of two routes with the same floats.  The fixed-point
    route (_fixed_point_transients) runs when twice its precision P
    (_precision) is below the exact route's mean operand length,
    log2(den) + K log2(L) / 2 bits with den the common denominator of t_0;
    it proves each rounding from an error bound or returns None, also where
    P is so large that X +- E leaves the float range, which its first
    bracket finds.  P's decay term reads the subdominant modulus of the
    modes the start excites.  When B is its own flip J
    (B[i][j] = B[n-1-i][n-1-j], localmatrix._centrosymmetric) and t_0 its
    own reverse, both exact tests,
    every transient is J-symmetric and decays at the J-even modes alone:
    those eigenvalues whose eigenvector (a column of V) lies nearer the
    J-symmetric subspace than the J-antisymmetric one, or all of them when
    fewer than two do.  That
    subset's second modulus is at most the whole spectrum's, so P only
    grows, and a misread parity moves P, never a float.
    The exact route (_transient_numerators) runs otherwise and after a None:
    integer numerators over one denominator, stepped by the integer matrix
    B = L A, and one correctly rounded integer division an entry, one
    object-array division a step.  The
    distances are taken over one array of all transients: the inf-norm as
    one row-wise max, the 2-norm from each row scaled by 2^-e, e the
    exponent of its largest entry, then scaled back; its sum of squares is
    one dot product a row, all in one stacked np.matmul, which gives
    np.linalg.norm's bits.  The spectrum is not checked: a
    non-convergent matrix still yields its trajectory
    (Spectrum.convergence_spectral_ok decides convergence), but a transient
    entry past the float range is TrajectoryOverflowError.  K is at most
    MAX_K.  One np.linalg.eig of the float matrix sizes P and gives the
    modes (decompose_modes), so a mode magnitude past the float range is
    ModeOverflowError.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > MAX_K:
        raise ValueError("K must be <= %d" % MAX_K)
    if norm not in ("inf", "2"):
        raise ValueError("norm must be 'inf' or '2'")
    if len(v0) != M.n:
        raise ValueError("v0 has dimension %d, matrix order is %d" % (len(v0), M.n))

    vq = [Fraction(float(x)) for x in v0]  # floats are exact binary rationals
    u = _null_vector(M.L, M.B)
    right = None if u is None else _null_vector(M.L, M.B.T)
    uw = 0 if right is None else u @ right
    t = vq
    if uw:
        c = (u * vq).sum() / uw
        t = [x - c * y for x, y in zip(vq, right)]
    D = None
    w, V = np.linalg.eig(M.as_float())
    # a start that is its own flip J, on a B that is too, excites only the
    # J-even modes: those whose eigenvector is nearer J-symmetric
    even = np.linalg.norm(V - V[::-1], axis=0) < np.linalg.norm(V + V[::-1], axis=0)
    symmetric = t == t[::-1] and _centrosymmetric(M.B[None])[0]
    P = _precision(M, K, w[even] if symmetric and even.sum() >= 2 else w)
    # the fixed-point route pays for P-bit operands where the exact one's
    # average log2(den) + K log2(L) / 2 bits; twice P is where it gains
    if 2 * P < integer_run(t)[0].bit_length() + K * M.L.bit_length() / 2:
        D = _fixed_point_transients(t, M.L, M.B, K, P)
    if D is None:
        D = np.empty((K + 1, M.n))
        try:
            for k, (T, common) in enumerate(islice(_transient_numerators(t, M.L, M.B), K + 1)):
                D[k] = T / common  # int.__truediv__ an entry, correctly rounded
        except OverflowError:
            raise TrajectoryOverflowError(
                "transient %d leaves the float range" % k
                + ("; the trajectory is finite up to K = %d" % (k - 1) if k else "")) from None

    top = np.max(np.abs(D), axis=1)
    if norm == "inf":
        dists = top
    else:
        # rows scaled by 2^-e, exactly, so that the squares neither
        # overflow nor underflow; each row's sum of squares is one dot
        # product, as in np.linalg.norm
        _, e = np.frexp(top)
        S = np.ldexp(D, -e[:, None])
        dists = np.ldexp(np.sqrt(np.matmul(S[:, None, :], S[:, :, None])[:, 0, 0]), e)
    D.flags.writeable = dists.flags.writeable = False
    return TrajectoryReport(D, dists, decompose_modes(w, V, D))


def decompose_modes(w: np.ndarray, V: np.ndarray, D: np.ndarray) -> Optional[tuple[EigenMode, ...]]:
    """The modes of the transients D, one row a step, from the
    eigenvalues w and eigenvectors V of np.linalg.eig of the float matrix:
    per-eigenmode magnitudes and sign data.

    Real eigendirections give signed coefficient sequences, from which a
    negative eigenvalue's alternation is read; conjugate pairs are merged
    into a single rotation-scaling plane whose magnitude contracts by |mu|
    per step, and the rotation is read from its eigenvalue.  The pairs are
    read off LAPACK's ordering, with no tolerance: for a real matrix, dgeev
    returns every real eigenvalue with an imaginary part of exactly 0 and
    every complex pair as two consecutive entries, Im > 0 first, then its exact
    conjugate (LAPACK Users' Guide, xGEEV).  The coefficients of every
    transient come from one stacked solve, each system a single right-hand
    side as in a solve per transient.  One pass of array operations over
    all columns then gives every magnitude, |Re c_j| for a real column j
    and hypot(|c_j|, |c_{j+1}|) for a pair's; the columns with Im >= 0, in
    LAPACK's order, are the modes.  Each mode's magnitudes, and a real
    mode's coefficients Re c_j, are a column of one read-only array; a
    complex pair's mode has no coefficients.  A matrix that is defective
    beyond tolerance (V's condition number past 1e10) skips the
    decomposition and returns None.  A coefficient or pair magnitude past
    the float range is ModeOverflowError, naming the first transient that
    has one, as no printed magnitude may be inf or nan.
    """
    if np.linalg.cond(V) > 1e10:
        return None

    with np.errstate(all="ignore"):  # overflow shows as a non-finite magnitude
        coeffs = np.linalg.solve(np.broadcast_to(V, (len(D),) + V.shape), D[..., None])[..., 0]
        mags = np.abs(coeffs.real)
        # a pair's column j (Im > 0) merges w[j + 1], its conjugate
        pair = np.flatnonzero(w.imag > 0)
        mags[:, pair] = np.hypot(np.abs(coeffs[:, pair]), np.abs(coeffs[:, pair + 1]))
    kept = np.flatnonzero(w.imag >= 0)
    mags, signed = mags[:, kept], coeffs.real[:, kept]
    finite = np.isfinite(mags).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ModeOverflowError("the mode magnitudes of transient %d leave the float range" % k
                                + ("; they are finite up to K = %d" % (k - 1) if k else ""))
    mags.flags.writeable = signed.flags.writeable = False
    return tuple(EigenMode(complex(mu), m, None) if mu.imag > 0
                 else EigenMode(complex(mu.real, 0.0), m, c)
                 for mu, m, c in zip(w[kept], mags.T, signed.T))


def write_trajectory_csv(traj: TrajectoryReport, f: TextIO) -> None:
    """Columns: k, d_k, then one magnitude column per decomposed mode."""
    header = ["k", "d_k"]
    modes = traj.modes or ()
    for m in modes:
        mu = m.eigenvalue
        label = "pair" if m.coefficients is None else "mode"
        header.append("%s_%.6g%+.6gj" % (label, mu.real, mu.imag))
    f.write(",".join(header) + "\n")
    fmt = "%d,%.12g" + ",%.12g" * len(modes) + "\n"
    f.writelines(fmt % row for row in zip(range(len(traj.distances)), traj.distances.tolist(),
                                           *(m.magnitudes.tolist() for m in modes)))
