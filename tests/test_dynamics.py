import math
from fractions import Fraction as F

import numpy as np
import pytest

from subdiv.dynamics import (decompose_modes, iterate_local, window_vector,
                             write_trajectory_csv)
from subdiv.localmatrix import build_local_matrix
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
