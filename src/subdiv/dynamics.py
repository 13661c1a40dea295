"""The local dynamical system v_{k+1} = A v_k on control-point windows.

Iterates the local subdivision matrix, projects out the fixed point from
the eigenvalue-1 left eigenvector, and decomposes the transient into real
eigenmodes and complex-pair rotation-scaling planes.  The contraction
factor of a complex pair is the modulus |mu| (the rotation-scaling normal
form), with rotation angle arg(mu).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .localmatrix import LocalMatrix, eigenvalues
from .refine import ControlPolygon

_COEFF_FLOOR = 1e-12  # coefficients below this are treated as unexcited


@dataclass(frozen=True)
class EigenMode:
    eigenvalue: complex          # representative; Im >= 0 for a complex pair
    is_complex_pair: bool
    magnitudes: tuple[float, ...]
    coefficients: Optional[tuple[float, ...]]  # signed, real modes only
    sign_flips: int


@dataclass(frozen=True)
class TrajectoryReport:
    states: tuple[tuple[float, ...], ...]
    fixed_point: tuple[float, ...]
    distances: tuple[float, ...]
    monotonicity_violations: int
    status: str
    matrix: tuple[tuple[float, ...], ...]
    modes: Optional[tuple[EigenMode, ...]] = None
    rotation: Optional[tuple[float, float]] = None  # (rho, theta) of dominant pair
    mode_diagnostic: Optional[str] = None
    # transients v_k - fixed_point; carried separately because a rational
    # matrix admits an exact trajectory whose differences keep full relative
    # precision long after float states have cancelled to noise
    transients: Optional[tuple[tuple[float, ...], ...]] = None


def window_vector(P: ControlPolygon, center_index: int, n: int) -> tuple[float, ...]:
    """The n stored-or-zero values nearest center_index, ties toward lower index."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    lo = center_index - n // 2
    return tuple(float(P[i]) for i in range(lo, lo + n))


def _as_array(A: Union[LocalMatrix, np.ndarray, Sequence[Sequence[float]]]) -> np.ndarray:
    if isinstance(A, LocalMatrix):
        return A.as_float()
    return np.asarray(A, dtype=float)


def _rational_null_weights(A: LocalMatrix) -> Optional[list[Fraction]]:
    """Left eigenvector of eigenvalue 1 solved exactly, normalized to sum 1;
    None when the eigenvalue is absent or not simple."""
    n = A.n
    # rows of (A^T - I) as a rational system
    rows = [[A.entries[j][i] - (1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    # Gaussian elimination to row echelon form
    pivots = []
    r = 0
    for col in range(n):
        piv = next((k for k in range(r, n) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for k in range(n):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    u = [Fraction(0)] * n
    u[free[0]] = Fraction(1)
    for row, col in zip(rows, pivots):
        u[col] = -row[free[0]]
    total = sum(u, Fraction(0))
    if total == 0:
        return None
    return [x / total for x in u]


def iterate_local(v0: Sequence[float], A: Union[LocalMatrix, np.ndarray],
                  K: int, norm: str = "inf") -> TrajectoryReport:
    """States [v0, A v0, ..., A^K v0] plus fixed point and distance profile.

    The fixed point is (u . v0) * ones with u the left eigenvector for
    eigenvalue 1 normalized to u . ones = 1; this is exact in the limit and
    independent of K.  For a LocalMatrix the whole trajectory is computed in
    exact rationals and floats appear only in the reported values.  A
    spectrum outside the convergent pattern is reported in status but the
    trajectory is still produced.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    Af = _as_array(A)
    n = Af.shape[0]
    v = np.asarray(v0, dtype=float)
    if v.shape != (n,):
        raise ValueError("v0 has dimension %d, matrix order is %d" % (v.size, n))

    spec = eigenvalues(A if isinstance(A, LocalMatrix) else Af)
    status = "ok" if spec.convergence_spectral_ok else (
        "non-convergent spectrum (leading eigenvalues %s)" %
        ", ".join("%.6g%+.6gj" % (z.real, z.imag) for z in spec.eigenvalues[:2]))

    weights = _rational_null_weights(A) if isinstance(A, LocalMatrix) else None
    if weights is not None:
        # exact rational path: v0 floats are exact binary rationals
        vq = [Fraction(x) for x in v]
        fq = sum((w * x for w, x in zip(weights, vq)), Fraction(0))
        states_q = [vq]
        for _ in range(K):
            prev = states_q[-1]
            states_q.append([
                sum((A.entries[i][j] * prev[j] for j in range(n)), Fraction(0))
                for i in range(n)])
        states = [np.array([float(x) for x in s]) for s in states_q]
        fixed = np.full(n, float(fq))
        diffs = [np.array([float(x - fq) for x in s]) for s in states_q]
    else:
        wl, Ul = np.linalg.eig(Af.T)
        i1 = int(np.argmin(np.abs(wl - 1.0)))
        if abs(wl[i1] - 1.0) < 1e-9:
            u = np.real(Ul[:, i1])
            u = u / u.sum()
            fixed = float(u @ v) * np.ones_like(v)
        else:
            fixed = np.zeros_like(v)
        states = [v.copy()]
        for _ in range(K):
            states.append(Af @ states[-1])
        diffs = [s - fixed for s in states]

    if norm == "inf":
        dists = [float(np.max(np.abs(d))) for d in diffs]
    elif norm == "2":
        dists = [float(np.linalg.norm(d)) for d in diffs]
    else:
        raise ValueError("norm must be 'inf' or '2'")

    violations = sum(1 for k in range(K) if dists[k + 1] > dists[k])
    return TrajectoryReport(
        states=tuple(tuple(s) for s in states),
        fixed_point=tuple(fixed),
        distances=tuple(dists),
        monotonicity_violations=violations,
        status=status,
        matrix=tuple(tuple(row) for row in Af),
        transients=tuple(tuple(d) for d in diffs),
    )


def decompose_modes(traj: TrajectoryReport, tol: float = 1e-7) -> TrajectoryReport:
    """Enrich a trajectory with per-eigenmode magnitudes and sign data.

    Real eigendirections give signed coefficient sequences with flip
    counts; conjugate pairs are merged into a single rotation-scaling plane
    whose magnitude contracts by |mu| per step.  A matrix that is defective
    beyond tolerance skips the decomposition with a diagnostic.
    """
    Af = np.asarray(traj.matrix)
    w, V = np.linalg.eig(Af)
    if np.linalg.cond(V) > 1e10:
        return replace(traj, modes=None, rotation=None,
                       mode_diagnostic="matrix is defective within working precision; "
                                       "mode decomposition skipped")

    coeffs = np.array([np.linalg.solve(V, d) for d in traj.transients])

    used = [False] * len(w)
    modes: list[EigenMode] = []
    for j, mu in enumerate(w):
        if used[j]:
            continue
        used[j] = True
        if abs(mu.imag) > tol:
            # find the conjugate partner
            partner = None
            for j2 in range(len(w)):
                if not used[j2] and abs(w[j2] - np.conj(mu)) < 1e-8 * max(1.0, abs(mu)):
                    partner = j2
                    break
            cj = coeffs[:, j]
            if partner is not None:
                used[partner] = True
                mags = tuple(float(np.hypot(np.abs(cj[k]), np.abs(coeffs[k, partner])))
                             for k in range(len(cj)))
            else:
                mags = tuple(float(np.abs(c)) for c in cj)
            rep = mu if mu.imag >= 0 else np.conj(mu)
            modes.append(EigenMode(complex(rep), True, mags, None, 0))
        else:
            cj = np.real(coeffs[:, j])
            flips = sum(
                1 for k in range(len(cj) - 1)
                if abs(cj[k]) > _COEFF_FLOOR and abs(cj[k + 1]) > _COEFF_FLOOR
                and (cj[k] > 0) != (cj[k + 1] > 0)
            )
            modes.append(EigenMode(complex(mu.real, 0.0), False,
                                   tuple(float(abs(c)) for c in cj),
                                   tuple(float(c) for c in cj), flips))

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
    for k, d in enumerate(traj.distances):
        row = ["%d" % k, "%.12g" % d]
        for m in modes:
            row.append("%.12g" % m.magnitudes[k])
        f.write(",".join(row) + "\n")
