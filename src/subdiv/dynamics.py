"""The local dynamical system v_{k+1} = A v_k on control-point windows.

Iterates the local subdivision matrix, projects out the fixed point from
the eigenvalue-1 left eigenvector, and decomposes the transient into real
eigenmodes and complex-pair rotation-scaling planes.  The contraction
factor of a complex pair is the modulus |mu| (the rotation-scaling normal
form), with rotation angle arg(mu).

The trajectory and the left eigenvector are exact and use integer
arithmetic only: a LocalMatrix holds A as the integer matrix B = L A, L the
lcm of its denominators; the eigenvector comes from fraction-free
elimination on B^T - L I, and the trajectory is kept as its transients
v_k - f 1 (f 1 the fixed point, 0 when eigenvalue 1 is not simple):
integer numerators over one denominator, stepped by one recurrence without
any gcd.  Every reported float is one correctly rounded integer division.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .localmatrix import LocalMatrix
from .masks import integer_run
from .refine import ControlPolygon

_COEFF_FLOOR = 1e-12  # coefficients below this are treated as unexcited


class TrajectoryOverflowError(OverflowError):
    """A transient of the exact trajectory leaves the float range before
    step K: its correctly rounded float would be infinite."""


@dataclass(frozen=True)
class EigenMode:
    eigenvalue: complex          # representative; Im >= 0 for a complex pair
    is_complex_pair: bool
    magnitudes: tuple[float, ...]
    coefficients: Optional[tuple[float, ...]]  # signed, real modes only
    sign_flips: int


@dataclass(frozen=True)
class TrajectoryReport:
    # v_k - fixed_point for k = 0..K, not the states: a rational matrix
    # admits an exact trajectory whose transients keep full relative
    # precision long after float states have cancelled to noise
    transients: tuple[tuple[float, ...], ...]
    fixed_point: tuple[float, ...]
    distances: tuple[float, ...]
    monotonicity_violations: int
    matrix: tuple[tuple[float, ...], ...]
    modes: Optional[tuple[EigenMode, ...]] = None
    rotation: Optional[tuple[float, float]] = None  # (rho, theta) of dominant pair
    mode_diagnostic: Optional[str] = None


def window_vector(P: ControlPolygon, center_index: int, n: int) -> tuple[float, ...]:
    """The n stored-or-zero values nearest center_index, ties toward lower index."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    lo = center_index - n // 2
    return tuple(float(P[i]) for i in range(lo, lo + n))


def _rational_null_weights(L: int, B: Sequence[Sequence[int]]) -> Optional[list[Fraction]]:
    """Left eigenvector of eigenvalue 1 of A = B / L, B integer, solved
    exactly and normalized to sum 1; None when the eigenvalue is absent or
    not simple.

    (A^T - I) u = 0 is solved as (B^T - L I) u = 0 by fraction-free
    Gauss-Jordan elimination (Bareiss): every division is exact, and every
    pivot ends equal to the last one.
    """
    n = len(B)
    rows = [[B[j][i] - (L if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        piv = next((k for k in range(r, n) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p, pivot_row = rows[r][col], rows[r]
        for k in range(n):
            if k != r:
                f = rows[k][col]
                rows[k] = [(p * x - f * y) // prev for x, y in zip(rows[k], pivot_row)]
        pivots.append(col)
        prev = p
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    # pivot row r reads prev * u[pivots[r]] + row[free] * u[free] = 0
    u = [0] * n
    u[free[0]] = prev
    for row, col in zip(rows, pivots):
        u[col] = -row[free[0]]
    total = sum(u)
    if total == 0:
        return None
    return [Fraction(x, total) for x in u]


# iterate_local refuses more steps than this before any work: the exact
# trajectory's cost grows about as K^2 (its operands grow by log2(L) bits a
# step, den_k = den_0 L^k), and K = 10^4 takes 18-23 s on the slowest of
# the benchmark's random rational masks of width 20 (Python 3.11, one core)
MAX_K = 10 ** 4


def _transient_numerators(v: Sequence[Fraction], f: Fraction, L: int,
                          B: Sequence[Sequence[int]]) -> Iterator[tuple[list[int], int]]:
    """The transients v_k - f 1 of v_{k+1} = A v_k, A = B / L with B
    integer, as (integer numerators, one positive denominator) for
    k = 0, 1, ...

    With the state N_k / den_k (den_k = den_0 L^k, N_{k+1} = B N_k) and
    f = fn / fd, the transient is T_k / (fd den_k) with
    T_k = fd N_k - fn den_k 1, which steps as T_{k+1} = B T_k + fn den_k r,
    r = B 1 - L 1 (zero when every row of A sums to 1).  A step is one
    product of numpy arrays of Python ints (dtype=object); nothing is
    reduced, so the operands grow by log2(L) bits a step.
    """
    fn, fd = f.numerator, f.denominator
    den, nums = integer_run(v)
    Bq = np.array(B, dtype=object)
    r = Bq.sum(axis=1) - L
    shift, common = fn * den, fd * den
    T = np.array([fd * x - shift for x in nums], dtype=object)
    while True:
        yield T.tolist(), common
        T = Bq @ T + shift * r
        shift *= L
        common *= L


def iterate_local(v0: Sequence[float], M: LocalMatrix, K: int,
                  norm: str = "inf") -> TrajectoryReport:
    """Transients [v0 - f, A v0 - f, ..., A^K v0 - f] and distances to the
    fixed point f, for A = M.B / M.L.

    The fixed point is (u . v0) * ones with u the left eigenvector for
    eigenvalue 1 normalized to u . ones = 1; this is exact in the limit and
    independent of K.  When eigenvalue 1 is absent or not simple, or u sums
    to 0 (_rational_null_weights is None), f is 0 and the transients are
    the states.  The whole trajectory is exact (_transient_numerators):
    integer numerators over one denominator, stepped by the integer matrix
    B = L A, and each transient entry is one correctly rounded integer
    division, kept as a Python float.  The distances are taken over one
    array of all transients: the inf-norm as one row-wise max, the 2-norm
    as np.linalg.norm of each row scaled by 2^-e, e the exponent of its
    largest entry, then scaled back.  The spectrum is not checked: a
    non-convergent matrix still yields its trajectory
    (Spectrum.convergence_spectral_ok decides convergence), but a transient
    entry past the float range is TrajectoryOverflowError.  K is at most
    MAX_K.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > MAX_K:
        raise ValueError("K must be <= %d" % MAX_K)
    if norm not in ("inf", "2"):
        raise ValueError("norm must be 'inf' or '2'")
    n = M.n
    if len(v0) != n:
        raise ValueError("v0 has dimension %d, matrix order is %d" % (len(v0), n))

    vq = [Fraction(float(x)) for x in v0]  # floats are exact binary rationals
    weights = _rational_null_weights(M.L, M.B)
    fq = Fraction(0) if weights is None else sum((w * x for w, x in zip(weights, vq)), Fraction(0))
    diffs: list[list[float]] = []
    try:
        for T, common in islice(_transient_numerators(vq, fq, M.L, M.B), K + 1):
            diffs.append([y / common for y in T])
    except OverflowError:
        k = len(diffs)
        raise TrajectoryOverflowError(
            "transient %d leaves the float range; the trajectory is finite up to K = %d"
            % (k, k - 1)) from None
    D = np.array(diffs)

    top = np.max(np.abs(D), axis=1)
    if norm == "inf":
        dists = top.tolist()
    else:
        # rows scaled by 2^-e, exactly, so that the squares neither
        # overflow nor underflow
        _, e = np.frexp(top)
        norms = [np.linalg.norm(d) for d in np.ldexp(D, -e[:, None])]
        dists = np.ldexp(norms, e).tolist()

    violations = sum(1 for k in range(K) if dists[k + 1] > dists[k])
    return TrajectoryReport(
        transients=tuple(map(tuple, diffs)),
        fixed_point=(float(fq),) * n,
        distances=tuple(dists),
        monotonicity_violations=violations,
        matrix=tuple(map(tuple, M.as_float().tolist())),
    )


def decompose_modes(traj: TrajectoryReport) -> TrajectoryReport:
    """Enrich a trajectory with per-eigenmode magnitudes and sign data.

    Real eigendirections give signed coefficient sequences with flip
    counts; conjugate pairs are merged into a single rotation-scaling plane
    whose magnitude contracts by |mu| per step.  The pairs are read off
    LAPACK's ordering, with no tolerance: for a real matrix, dgeev returns
    every real eigenvalue with an imaginary part of exactly 0 and every
    complex pair as two consecutive entries, Im > 0 first, then its exact
    conjugate (LAPACK Users' Guide, xGEEV).  The coefficients of every
    transient come from one stacked solve, each system a single right-hand
    side as in a solve per transient, and the magnitudes and flips from
    array operations.  A matrix that is defective beyond tolerance skips
    the decomposition with a diagnostic.
    """
    Af = np.asarray(traj.matrix)
    w, V = np.linalg.eig(Af)
    if np.linalg.cond(V) > 1e10:
        return replace(traj, modes=None, rotation=None,
                       mode_diagnostic="matrix is defective within working precision; "
                                       "mode decomposition skipped")

    D = np.asarray(traj.transients)
    coeffs = np.linalg.solve(np.broadcast_to(V, (len(D),) + V.shape), D[..., None])[..., 0]

    modes: list[EigenMode] = []
    for j, mu in enumerate(w):
        if mu.imag > 0:  # w[j + 1] is its conjugate, skipped below
            mags = np.hypot(np.abs(coeffs[:, j]), np.abs(coeffs[:, j + 1]))
            modes.append(EigenMode(complex(mu), True, tuple(mags.tolist()), None, 0))
        elif mu.imag == 0:
            cj = np.real(coeffs[:, j])
            big, pos = np.abs(cj) > _COEFF_FLOOR, cj > 0
            flips = int(np.count_nonzero(big[:-1] & big[1:] & (pos[:-1] != pos[1:])))
            modes.append(EigenMode(complex(mu.real, 0.0), False,
                                   tuple(np.abs(cj).tolist()),
                                   tuple(cj.tolist()), flips))

    rotation = None
    pairs = [m for m in modes if m.is_complex_pair]
    if pairs:
        dom = max(pairs, key=lambda m: abs(m.eigenvalue))
        rotation = (abs(dom.eigenvalue), float(np.angle(dom.eigenvalue)))

    return replace(traj, modes=tuple(modes), rotation=rotation, mode_diagnostic=None)


def write_trajectory_csv(traj: TrajectoryReport, f: TextIO) -> None:
    """Columns: k, d_k, then one magnitude column per decomposed mode."""
    header = ["k", "d_k"]
    modes = traj.modes or ()
    for m in modes:
        mu = m.eigenvalue
        label = "pair" if m.is_complex_pair else "mode"
        header.append("%s_%.6g%+.6gj" % (label, mu.real, mu.imag))
    f.write(",".join(header) + "\n")
    fmt = "%d,%.12g" + ",%.12g" * len(modes) + "\n"
    f.writelines(fmt % row for row in zip(range(len(traj.distances)), traj.distances,
                                           *(m.magnitudes for m in modes)))
