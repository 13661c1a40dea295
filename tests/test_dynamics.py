import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from subdiv import dynamics
from subdiv.dynamics import (MAX_K, _rational_null_weights, _step, decompose_modes,
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
        traj = iterate_local((1.0, 0.0), np.array([[2.0, 0.0], [0.0, 1.0]]), 5)
        assert len(traj.states) == 6

    def test_K_bound_checked_before_any_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("trajectory work before the K bound was checked")

        monkeypatch.setattr(dynamics, "_step", fail)
        monkeypatch.setattr(dynamics, "_rational_null_weights", fail)
        for A in (A_MATRIX, np.eye(6)):
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, MAX_K + 1)
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, 10 ** 9)


def sympy_null_weights(A: LocalMatrix):
    """Null vector of A^T - I by sympy, normalized to sum 1; None unless the
    null space is one line whose vectors do not sum to 0."""
    n = A.n
    M = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(A.entries[j][i])) - int(i == j))
    basis = M.nullspace()
    if len(basis) != 1 or sum(basis[0]) == 0:
        return None
    u = basis[0] / sum(basis[0])
    return [F(int(x.p), int(x.q)) for x in u]


def reference_trajectory(v0, A: LocalMatrix, K: int, norm: str):
    """The former Fraction loop, kept as an oracle: (states, transients,
    fixed_point, distances), with the weights solved by sympy; None where
    eigenvalue 1 is not simple and the float path runs instead."""
    weights = sympy_null_weights(A)
    if weights is None:
        return None
    n = A.n
    vq = [F(x) for x in v0]
    fq = sum((w * x for w, x in zip(weights, vq)), F(0))
    states_q = [vq]
    for _ in range(K):
        prev = states_q[-1]
        states_q.append([sum((A.entries[i][j] * prev[j] for j in range(n)), F(0))
                         for i in range(n)])
    diffs = [np.array([float(x - fq) for x in s]) for s in states_q]
    if norm == "inf":
        dists = [float(np.max(np.abs(d))) for d in diffs]
    else:
        dists = [float(np.linalg.norm(d)) for d in diffs]
    return ([[float(x) for x in s] for s in states_q], diffs, [float(fq)] * n, dists)


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
        ref = reference_trajectory(v0, A, K, norm)
        if ref is None:
            assert _rational_null_weights(A) is None
            return
        states, transients, fixed, dists = ref
        assert bits(traj.states) == bits(states)
        assert bits(traj.transients) == bits(transients)
        assert bits(traj.fixed_point) == bits(fixed)
        assert bits(traj.distances) == bits(dists)

    @settings(deadline=None)
    @given(local_matrices())
    def test_null_weights_match_sympy(self, A):
        assert _rational_null_weights(A) == sympy_null_weights(A)

    @pytest.mark.parametrize("entries", [
        ((F(1, 2), 0), (0, F(1, 3))),                        # no eigenvalue 1
        ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))),  # two eigenvectors
        ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))),           # Jordan block at 1
    ], ids=["absent", "double", "defective"])
    def test_null_weights_none_unless_simple(self, entries):
        A = LocalMatrix(tuple(tuple(F(e) for e in row) for row in entries), 0)
        assert _rational_null_weights(A) is None
        assert sympy_null_weights(A) is None

    def test_catalog_weights(self):
        w = _rational_null_weights(A_MATRIX)
        assert sum(w) == 1 and w == sympy_null_weights(A_MATRIX)

    @given(local_matrices(), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=12, max_size=12),
           st.integers(1, 2 ** 12))
    def test_step_is_reduced_exact_product(self, A, nums, den):
        L, B = A.integer_scaled()
        nums = nums[:A.n]
        rows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
        out, den2 = _step(rows, L, math.lcm(L, den), nums, den)
        assert den2 > 0 and math.gcd(den2, *out) == 1
        assert [F(x, den2) for x in out] == [
            sum((e * F(x, den) for e, x in zip(row, nums)), F(0)) for row in A.entries]


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
        A = np.array([[0.5, 1.0], [0.0, 0.5]])  # Jordan block
        traj = decompose_modes(iterate_local((1.0, 1.0), A, 5))
        assert traj.modes is None
        assert "defective" in traj.mode_diagnostic
        assert len(traj.distances) == 6


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
