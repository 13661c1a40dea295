import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import fraction_entries
from subdiv import dynamics
from subdiv.dynamics import (MAX_K, TrajectoryOverflowError, TrajectoryReport,
                             _rational_null_weights, _transient_numerators, decompose_modes,
                             iterate_local, window_vector, write_trajectory_csv)
from subdiv.localmatrix import LocalMatrix, build_local_matrix, matrix_from_coeffs
from subdiv.masks import catalog_get
from subdiv.refine import ControlPolygon, delta

A_MATRIX = build_local_matrix(catalog_get("a").mask)

# second standard basis vector: the first one is itself an eigenvector of
# the width-6 matrix (its first column is -e1/10), so it excites no other mode
E1 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestWindowVector:
    def test_delta_window(self):
        assert window_vector(delta(), 0, 3) == (0.0, 1.0, 0.0)

    def test_constant_window(self):
        P = ControlPolygon(0, -10, (F(1),) * 21)
        assert window_vector(P, 2, 6) == (1.0,) * 6

    def test_cardinal_test_sequence(self):
        assert window_vector(delta(), 0, 9) == (0, 0, 0, 0, 1, 0, 0, 0, 0)

    def test_tie_breaks_toward_lower_index(self):
        P = ControlPolygon(0, 0, (F(1), F(2), F(3), F(4)))
        assert window_vector(P, 2, 2) == (2.0, 3.0)


class TestIterateLocal:
    def test_constant_vector_is_fixed(self):
        traj = iterate_local((1.0,) * 6, A_MATRIX, 10)
        assert all(d < 1e-12 for d in traj.distances)
        assert traj.monotonicity_violations == 0

    def test_width6_convergence_is_not_monotone(self):
        traj = iterate_local(E1, A_MATRIX, 30)
        assert traj.monotonicity_violations >= 1

    def test_two_point_distances_halve(self):
        M = build_local_matrix(catalog_get("c").mask)
        traj = iterate_local((1.0, 0.0, 0.0), M, 30)
        d = traj.distances
        for k in range(1, 15):
            assert abs(d[k + 1] / d[k] - 0.5) < 1e-9

    def test_non_convergent_matrix_reported(self):
        # eigenvalue 1 is simple with u = e2, so f = v0[1] = 0 and the
        # transients are the states, the first entry doubling each step
        A = LocalMatrix(1, ((2, 0), (0, 1)), 0)
        traj = iterate_local((1.0, 0.0), A, 5)
        assert traj.transients == tuple((2.0 ** k, 0.0) for k in range(6))

    def test_float_overflow_is_named_error(self):
        # the width-8 mask of eight 3s: transient 287 of e4 is the first past
        # the float range
        M = matrix_from_coeffs(-4, (F(3),) * 8)
        v0 = tuple(float(i == 4) for i in range(8))
        assert first_overflow(v0, M, 300) == 287
        with pytest.raises(TrajectoryOverflowError, match="transient 287 leaves the float range"):
            iterate_local(v0, M, 300)
        with pytest.raises(OverflowError):
            iterate_local(v0, M, 287)
        traj = iterate_local(v0, M, 286)
        assert len(traj.distances) == 287 and math.isfinite(traj.distances[-1])

    def test_K_bound_checked_before_any_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("trajectory work before the K bound was checked")

        monkeypatch.setattr(dynamics, "_transient_numerators", fail)
        monkeypatch.setattr(dynamics, "_rational_null_weights", fail)
        identity = LocalMatrix(1, tuple(tuple(int(i == j) for j in range(6)) for i in range(6)), 0)
        for A in (A_MATRIX, identity):
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, MAX_K + 1)
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, 10 ** 9)


def sympy_null_weights(A: LocalMatrix):
    """Null vector of A^T - I by sympy, normalized to sum 1; None unless the
    null space is one line whose vectors do not sum to 0."""
    n, E = A.n, fraction_entries(A)
    M = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(E[j][i])) - int(i == j))
    basis = M.nullspace()
    if len(basis) != 1 or sum(basis[0]) == 0:
        return None
    u = basis[0] / sum(basis[0])
    return [F(int(x.p), int(x.q)) for x in u]


def reference_trajectory(v0, A: LocalMatrix, K: int, norm: str):
    """The former Fraction loop, kept as an oracle: (transients,
    fixed_point, distances), with the weights solved by sympy; the fixed
    point is 0 where eigenvalue 1 is not simple."""
    fq, transients = exact_transients(v0, A, K)
    diffs = [np.array([float(x) for x in t]) for t in transients]
    if norm == "inf":
        dists = [float(np.max(np.abs(d))) for d in diffs]
    else:
        dists = [float(np.linalg.norm(d)) for d in diffs]
    return diffs, [float(fq)] * A.n, dists


def exact_transients(v0, A: LocalMatrix, K: int):
    """(f, [v_k - f 1 for k = 0..K]) in Fractions, f from sympy's weights
    (0 where eigenvalue 1 is not simple)."""
    weights = sympy_null_weights(A)
    n, E = A.n, fraction_entries(A)
    vq = [F(x) for x in v0]
    fq = F(0) if weights is None else sum((w * x for w, x in zip(weights, vq)), F(0))
    states_q = [vq]
    for _ in range(K):
        prev = states_q[-1]
        states_q.append([sum((E[i][j] * prev[j] for j in range(n)), F(0))
                         for i in range(n)])
    return fq, [[x - fq for x in s] for s in states_q]


# the least magnitude that rounds to inf: the largest double plus half its ulp
FLOAT_EDGE = F(2 ** 1024 - 2 ** 970)


def first_overflow(v0, A: LocalMatrix, K: int):
    """The first k <= K whose exact transient has an entry that rounds past
    the float range, or None."""
    _, transients = exact_transients(v0, A, K)
    return next((k for k, t in enumerate(transients) if any(abs(x) >= FLOAT_EDGE for x in t)),
                None)


def scaled_norm(d) -> float:
    """The 2-norm of a float row, scaled by 2^-e (e the exponent of its
    largest entry) before squaring and scaled back: finite wherever the
    norm is."""
    _, e = np.frexp(np.max(np.abs(d)))
    return float(np.ldexp(np.linalg.norm(np.ldexp(d, -e)), e))


def bits(rows):
    """Nested float sequences as hex strings: equal only bit for bit."""
    return [bits(r) if np.ndim(r) else float.hex(float(r)) for r in rows]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def local_matrices(draw):
    """Local matrices of rational masks of widths 2-12, palindromic or not.

    Most masks are balanced: a middle coefficient is moved so the even- and
    odd-indexed sums agree (a palindrome stays one), then the mask is scaled
    so both are 1.  The rows then sum to 1, so eigenvalue 1 is present."""
    w = draw(st.integers(2, 12))
    ends = rationals.filter(bool)
    if draw(st.booleans()):
        half = [draw(ends)] + draw(st.lists(rationals, min_size=(w - 1) // 2,
                                            max_size=(w - 1) // 2))
        coeffs = half + half[:w // 2][::-1]
    else:
        coeffs = [draw(ends)] + draw(st.lists(rationals, min_size=w - 2,
                                              max_size=w - 2)) + [draw(ends)]
    if w > 2 and draw(st.integers(0, 4)):
        mid = (w - 1) // 2
        even, odd = sum(coeffs[0::2]), sum(coeffs[1::2])
        coeffs[mid] += (odd - even) if mid % 2 == 0 else (even - odd)
        total = sum(coeffs[0::2])
        if total != 0:
            coeffs = [c / total for c in coeffs]
    return matrix_from_coeffs(draw(st.integers(-w, 0)), coeffs)


dyadic = st.builds(lambda m, e: m / 2 ** e, st.integers(-2 ** 20, 2 ** 20), st.integers(0, 40))


class TestExactTrajectory:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), local_matrices(), st.integers(1, 40), st.sampled_from(["inf", "2"]))
    def test_matches_fraction_reference(self, data, A, K, norm):
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        traj = iterate_local(v0, A, K, norm)
        transients, fixed, dists = reference_trajectory(v0, A, K, norm)
        assert bits(traj.transients) == bits(transients)
        assert bits(traj.fixed_point) == bits(fixed)
        assert bits(traj.distances) == bits(dists)

    @settings(deadline=None)
    @given(local_matrices())
    def test_null_weights_match_sympy(self, A):
        assert _rational_null_weights(A.L, A.B) == sympy_null_weights(A)

    @pytest.mark.parametrize("entries", [
        ((F(1, 2), 0), (0, F(1, 3))),                        # no eigenvalue 1
        ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))),  # two eigenvectors
        ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))),           # Jordan block at 1
    ], ids=["absent", "double", "defective"])
    def test_null_weights_none_unless_simple(self, entries):
        L = math.lcm(*(F(e).denominator for row in entries for e in row))
        A = LocalMatrix(L, tuple(tuple(int(F(e) * L) for e in row) for row in entries), 0)
        assert _rational_null_weights(A.L, A.B) is None
        assert sympy_null_weights(A) is None

    def test_catalog_weights(self):
        w = _rational_null_weights(A_MATRIX.L, A_MATRIX.B)
        assert sum(w) == 1 and w == sympy_null_weights(A_MATRIX)

    @settings(deadline=None)
    @given(local_matrices(),
           st.lists(st.builds(F, st.integers(-36, 36), st.integers(1, 12)),
                    min_size=12, max_size=12),
           st.builds(F, st.integers(-120, 120), st.integers(1, 40)))
    def test_transient_steps_are_exact(self, A, v0, f):
        # any f: the recurrence holds whether or not f 1 is the fixed point,
        # and whether or not the rows of A sum to 1
        L, B = A.L, A.B
        steps = _transient_numerators(v0[:A.n], f, L, B)
        T, common = next(steps)
        v = [F(y, common) + f for y in T]
        assert v == v0[:A.n]
        for _ in range(2):  # the second step meets den_1 = den_0 L
            T, common = next(steps)
            assert common > 0 and all(type(y) is int for y in T)
            v = [sum((e * x for e, x in zip(row, v)), F(0)) for row in fraction_entries(A)]
            assert [F(y, common) for y in T] == [x - f for x in v]


class TestTwoNormRange:
    """2-norm distances of rows whose squares pass the float range: A keeps
    the first entry and halves and mixes the other two, so eigenvalue 1 is
    simple with fixed point 0 when v0 starts with 0."""
    A = LocalMatrix(2, ((2, 0, 0), (0, 1, 0), (0, 1, 1)), 0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_exact_path_matches_fraction_reference(self, scale):
        v0, K = (0.0, 3 * scale, 4 * scale), 20
        traj = iterate_local(v0, self.A, K, "2")
        E, v = fraction_entries(self.A), [F(x) for x in v0]
        for d in traj.distances:
            ref = math.hypot(*(float(x) for x in v))
            assert 0 < ref < math.inf and d == pytest.approx(ref, rel=1e-15, abs=0)
            v = [sum((e * x for e, x in zip(row, v)), F(0)) for row in E]


class TestDecomposeModes:
    def test_rotation_scaling_of_width6_scheme(self):
        traj = decompose_modes(iterate_local(E1, A_MATRIX, 30))
        rho, theta = traj.rotation
        assert abs(rho - math.sqrt(6) / 5) < 1e-12
        assert abs(theta - math.atan(math.sqrt(2) / 2)) < 1e-12

    def test_complex_pair_contracts_by_modulus(self):
        traj = decompose_modes(iterate_local(E1, A_MATRIX, 30))
        pair = [m for m in traj.modes if m.is_complex_pair][0]
        mags = pair.magnitudes
        for k in range(len(mags) - 1):
            if mags[k] > 1e-12:
                assert abs(mags[k + 1] / mags[k] - math.sqrt(6) / 5) < 1e-9

    def test_negative_mode_alternates(self):
        K = 30
        traj = decompose_modes(iterate_local(E1, A_MATRIX, K))
        neg = [m for m in traj.modes
               if not m.is_complex_pair and abs(m.eigenvalue.real + 0.1) < 1e-9]
        assert neg
        excited = [m for m in neg if max(m.magnitudes) > 1e-9]
        assert excited
        for m in excited:
            c = m.coefficients
            # flips at every step where the coefficient is resolvable: it
            # underflows the 1e-12 floor near k = 12, after which projection
            # cross-talk noise (~1e-24) owns the sign
            eligible = sum(1 for k in range(K)
                           if abs(c[k]) > 1e-12 and abs(c[k + 1]) > 1e-12)
            assert m.sign_flips == eligible >= 10
            for k in range(K):
                assert abs(c[k + 1] - (-0.1) * c[k]) < 1e-9

    def test_real_spectrum_has_no_rotation(self):
        M = build_local_matrix(catalog_get("c").mask)
        traj = decompose_modes(iterate_local((1.0, 0.0, 0.0), M, 10))
        assert traj.rotation is None
        assert all(not m.is_complex_pair for m in traj.modes)

    def test_defective_matrix_skips_decomposition(self):
        A = LocalMatrix(2, ((1, 2), (0, 1)), 0)  # a Jordan block at 1/2
        traj = decompose_modes(iterate_local((1.0, 1.0), A, 5))
        assert traj.modes is None
        assert "defective" in traj.mode_diagnostic
        assert len(traj.distances) == 6


def reference_decompose(traj, tol=1e-9):
    """The former per-state loop, kept as an oracle: one np.linalg.solve per
    transient, scalar np.hypot and np.abs per coefficient, the flip loop,
    and complex pairs found by the former tolerance search (|Im| > tol,
    partner within 1e-8).  None where the matrix is defective and the
    decomposition is skipped."""
    Af = np.asarray(traj.matrix)
    w, V = np.linalg.eig(Af)
    if np.linalg.cond(V) > 1e10:
        return None
    coeffs = np.array([np.linalg.solve(V, d) for d in traj.transients])
    used = [False] * len(w)
    modes = []
    for j, mu in enumerate(w):
        if used[j]:
            continue
        used[j] = True
        if abs(mu.imag) > tol:
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
            modes.append((complex(rep), True, mags, None, 0))
        else:
            cj = np.real(coeffs[:, j])
            flips = sum(
                1 for k in range(len(cj) - 1)
                if abs(cj[k]) > 1e-12 and abs(cj[k + 1]) > 1e-12
                and (cj[k] > 0) != (cj[k + 1] > 0)
            )
            modes.append((complex(mu.real, 0.0), False, tuple(float(abs(c)) for c in cj),
                          tuple(float(c) for c in cj), flips))
    return modes


def mode_bits(modes):
    return [(bits([m[0].real, m[0].imag]), m[1], bits(m[2]),
             None if m[3] is None else bits(m[3]), m[4]) for m in modes]


@st.composite
def mixed_spectrum_matrices(draw):
    """Real matrices of order 3-10 with one to three complex pairs and one or
    two negative eigenvalues, some with eigenvalue 1: real blocks
    [[r cos t, -r sin t], [r sin t, r cos t]] and diagonal entries in a
    random basis."""
    pairs = draw(st.lists(st.tuples(st.floats(0.05, 1.1), st.floats(0.05, 3.1)),
                          min_size=1, max_size=3))
    reals = draw(st.lists(st.floats(-0.99, -0.01), min_size=1, max_size=2))
    reals += draw(st.lists(st.sampled_from([1.0, 0.5, 0.25, -0.5]), max_size=2))
    n = 2 * len(pairs) + len(reals)
    J = np.zeros((n, n))
    for i, (r, t) in enumerate(pairs):
        c, s = r * math.cos(t), r * math.sin(t)
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    for i, x in enumerate(reals):
        J[2 * len(pairs) + i, 2 * len(pairs) + i] = x
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    return P @ J @ np.linalg.inv(P)


def float_trajectory(A, v0, K):
    """A TrajectoryReport of float states v_{k+1} = A v_k about the fixed
    point 0: decompose_modes reads only the matrix and the transients."""
    states = [np.array(v0, dtype=float)]
    for _ in range(K):
        states.append(A @ states[-1])
    D = np.array(states)
    return TrajectoryReport(
        transients=tuple(map(tuple, D.tolist())), fixed_point=(0.0,) * len(A),
        distances=tuple(np.max(np.abs(D), axis=1).tolist()),
        monotonicity_violations=0, matrix=tuple(map(tuple, A.tolist())))


class TestDecomposeBitIdentity:
    """The stacked solve and array-wide magnitudes and distances against the
    former per-state loop, bit for bit."""

    def check(self, traj, norm):
        self.check_modes(traj)
        rows = [np.array(d) for d in traj.transients]
        if norm == "inf":
            dists = [float(np.max(np.abs(d))) for d in rows]
        else:
            dists = [scaled_norm(d) for d in rows]
        assert bits(traj.distances) == bits(dists)
        assert all(type(x) is float for x in traj.distances + traj.fixed_point
                   + traj.transients[-1] + traj.matrix[0])

    @staticmethod
    def check_modes(traj):
        got = decompose_modes(traj)
        # the former tolerance and LAPACK's conjugate order pair the same
        # eigenvalues unless some |Im| lies in (0, 1e-9], as when LAPACK
        # splits a double real eigenvalue: it then reports a complex pair,
        # which the oracle finds at tol = 0
        w = np.linalg.eig(np.asarray(traj.matrix))[0]
        ref = reference_decompose(traj, 0.0 if any(0 < abs(mu.imag) <= 1e-9 for mu in w)
                                  else 1e-9)
        if ref is None:
            assert got.modes is None
        else:
            assert mode_bits([(m.eigenvalue, m.is_complex_pair, m.magnitudes,
                               m.coefficients, m.sign_flips) for m in got.modes]) == \
                mode_bits(ref)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), mixed_spectrum_matrices(), st.integers(1, 300))
    def test_float_matrices(self, data, A, K):
        v0 = data.draw(st.lists(st.floats(-4, 4), min_size=len(A), max_size=len(A)))
        self.check_modes(float_trajectory(A, v0, K))

    # a matrix with an eigenvalue past 1 can leave the float range within
    # 300 steps: the trajectory is then an error, and the modes of a
    # trajectory near the edge may overflow in the solve
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.data(), local_matrices(), st.integers(1, 300), st.sampled_from(["inf", "2"]))
    def test_rational_matrices(self, data, A, K, norm):
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        try:
            traj = iterate_local(v0, A, K, norm)
        except TrajectoryOverflowError as exc:
            k = first_overflow(v0, A, K)
            assert k is not None and "transient %d " % k in str(exc)
            return
        self.check(traj, norm)

    @pytest.mark.parametrize("norm", ["inf", "2"])
    def test_width6_scheme(self, norm):
        traj = iterate_local(E1, A_MATRIX, 300, norm)
        assert any(m[1] for m in reference_decompose(traj))
        self.check(traj, norm)


class TestLapackPairs:
    """decompose_modes pairs w[j] (Im > 0) with w[j + 1] and reads every
    entry with Im exactly 0 as real: dgeev's order for a real matrix."""

    @settings(max_examples=40, deadline=None)
    @given(mixed_spectrum_matrices())
    def test_modes_follow_the_eigenvalue_order(self, A):
        w = np.linalg.eig(A)[0]
        for j, mu in enumerate(w):
            assert mu.imag >= 0 or w[j - 1] == np.conj(mu)
            assert mu.imag <= 0 or w[j + 1] == np.conj(mu)
        traj = decompose_modes(float_trajectory(A, np.ones(len(A)), 3))
        if traj.modes is None:
            return
        assert [(m.eigenvalue, m.is_complex_pair) for m in traj.modes] == \
            [(complex(mu), mu.imag > 0) for mu in w if mu.imag >= 0]


class TestTrajectoryCsv:
    def test_columns(self, tmp_path):
        traj = decompose_modes(iterate_local(E1, A_MATRIX, 5))
        path = tmp_path / "traj.csv"
        with open(path, "w") as f:
            write_trajectory_csv(traj, f)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("k,d_k,")
        assert len(lines) == 7
        assert len(lines[1].split(",")) == 2 + len(traj.modes)
