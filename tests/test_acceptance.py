"""End-to-end acceptance checks for the whole toolkit.

Each test prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them.  Tolerances are stated inline next to each assertion.
"""
import math
import random
from fractions import Fraction as F

import numpy as np

from conftest import fraction_entries
from subdiv.convergence import certify, contractivity_norm, difference_scheme, smooth_lift
from subdiv.dynamics import decompose_modes, iterate_local
from subdiv.localmatrix import (build_local_matrix, complex_region_predicate,
                               eigenvalues, matrix_from_coeffs, spectra, w5_closed_form,
                               w6_closed_form, w6_discriminant)
from subdiv.masks import catalog_get
from subdiv.refine import basis_points_exact, delta, refine_k
from subdiv.search import min_width_report, negativity_lemma_check


def _match(got, expected, tol):
    pool = [complex(e) for e in expected]
    assert len(got) == len(pool)
    for g in got:
        j = min(range(len(pool)), key=lambda j: abs(pool[j] - g))
        assert abs(pool[j] - g) <= tol, (g, pool[j])
        pool.pop(j)


def _criterion(num, label, body):
    try:
        body()
    except BaseException:
        print("criterion %2d (%s): FAIL" % (num, label))
        raise
    print("criterion %2d (%s): PASS" % (num, label))


def test_criterion_01_width6_spectrum():
    def body():
        sp = eigenvalues(build_local_matrix(catalog_get("a").mask))
        expect = [1, F(-1, 10), F(-1, 10), F(2, 5),
                  complex(0.4, math.sqrt(2) / 5), complex(0.4, -math.sqrt(2) / 5)]
        _match(sp.eigenvalues, expect, 1e-9)
    _criterion(1, "width-6 scheme spectrum", body)


def test_criterion_02_contractivity_norm():
    def body():
        b = difference_scheme(catalog_get("a").mask)
        assert contractivity_norm(b) == F(4, 5)
    _criterion(2, "difference norm 4/5 exact", body)


def test_criterion_03_smooth_lift():
    def body():
        lifted = smooth_lift(catalog_get("a").mask)
        assert lifted.coeffs == tuple(map(F, ("-1/20", "1/10", "11/20", "4/5",
                                              "11/20", "1/10", "-1/20")))
        sp = eigenvalues(build_local_matrix(lifted))
        assert max(abs(v.imag) for v in sp.eigenvalues) > 1e-7
    _criterion(3, "C1 lift mask and complex pair", body)


def test_criterion_04_width5_closed_form():
    def body():
        for k in range(-100, 101):
            a = F(k, 100)
            M = matrix_from_coeffs(-2, (a, F(1, 2), 1 - 2 * a, F(1, 2), a))
            sp = w5_closed_form(a)
            _match(eigenvalues(M).eigenvalues, sp.eigenvalues, 1e-8)
            assert not sp.has_complex
    _criterion(4, "width-5 closed form on 201-point grid", body)


def test_criterion_05_width6_closed_form():
    def body():
        grid = [(F(i, 100), F(j, 100)) for i in range(-50, 51) for j in range(-50, 51)]
        Ms = [matrix_from_coeffs(-2, (a, b, 1 - a - b, 1 - a - b, b, a)) for a, b in grid]
        for (a, b), sp in zip(grid, spectra([(M.L, M.B) for M in Ms])):
            vals = sp.eigenvalues
            _match(vals, w6_closed_form(a, b).eigenvalues, 1e-8)
            if abs(w6_discriminant(a, b)) >= F(1, 10 ** 10):
                numc = max(abs(v.imag) for v in vals) > 1e-7
                assert complex_region_predicate(a, b) == numc
    _criterion(5, "width-6 closed form + predicate on 101x101 grid", body)


def test_criterion_06_negativity_lemma():
    def body():
        mx, argmax = negativity_lemma_check(F(-5), F(5), F(1, 1000))
        assert mx <= 1e-9
        assert abs(float(argmax) - 1.0 / 3.0) < 0.01
        rng = random.Random(101)
        for _ in range(100):
            b = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            assert 8 * (1 - 5 * b + 8 * b * b) - (1 + b) ** 2 == 7 * (3 * b - 1) ** 2
    _criterion(6, "negativity lemma", body)


def test_criterion_07_c1_width6_obstruction():
    def body():
        rng = random.Random(103)
        for _ in range(100):
            a = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            assert w6_discriminant(a, a + F(1, 4)) == (2 * a + F(1, 4)) ** 2
    _criterion(7, "lifted-family discriminant is a perfect square", body)


def test_criterion_08_tent_exactness():
    def body():
        pts = basis_points_exact(catalog_get("c").mask, 10)
        assert len(pts) == 8 * 2 ** 10 + 1
        for t, v in pts:
            assert v == max(F(0), 1 - abs(t))
    _criterion(8, "two-point scheme basis is the exact tent", body)


def test_criterion_09_cubic_bspline_center():
    def body():
        pts = dict(basis_points_exact(catalog_get("d").mask, 10))
        assert abs(float(pts[F(0)]) - 2.0 / 3.0) < 1e-3
    _criterion(9, "cubic B-spline basis value at 0", body)


def test_criterion_10_local_dynamics():
    def body():
        M = build_local_matrix(catalog_get("a").mask)
        # second standard basis vector: the first is itself an eigenvector
        # of this matrix and would leave every other mode unexcited
        v0 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        traj = decompose_modes(iterate_local(v0, M, 30))
        assert traj.monotonicity_violations >= 1

        pair = [m for m in traj.modes if m.is_complex_pair][0]
        for k in range(len(pair.magnitudes) - 1):
            if pair.magnitudes[k] > 1e-12:
                ratio = pair.magnitudes[k + 1] / pair.magnitudes[k]
                assert abs(ratio - math.sqrt(6) / 5) < 1e-9

        neg = [m for m in traj.modes
               if not m.is_complex_pair and abs(m.eigenvalue.real + 0.1) < 1e-9
               and max(m.magnitudes) > 1e-9]
        assert neg
        for m in neg:
            c = m.coefficients
            eligible = sum(1 for k in range(len(c) - 1)
                           if abs(c[k]) > 1e-12 and abs(c[k + 1]) > 1e-12)
            assert m.sign_flips == eligible >= 10
    _criterion(10, "rotation contraction, alternating mode, non-monotone", body)


def test_criterion_11_minimum_width():
    def body():
        report = min_width_report(6)
        assert report.min_width == 6
        assert (F(-1, 10), F(3, 10)) in report.witnesses
    _criterion(11, "minimum width for a complex convergent scheme", body)


def test_criterion_12_structural_invariants():
    def body():
        for name in "abcd":
            mask = catalog_get(name).mask
            M = build_local_matrix(mask)
            assert all(sum(row) == 1 for row in fraction_entries(M))
            assert min(abs(v - 1) for v in eigenvalues(M).eigenvalues) < 1e-9
            P = delta()
            for k in range(1, 7):
                P = refine_k(P, mask, 1)
                assert P.total() == 2 ** k
    _criterion(12, "row sums, eigenvalue 1, mass doubling", body)
