import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from subdiv.localmatrix import (Spectrum, build_local_matrix,
                                complex_region_predicate, eigenvalues,
                                matrix_from_coeffs, w5_closed_form,
                                w6_closed_form, w6_discriminant)
from subdiv.masks import Mask, catalog_get


def match_multiset(got, expected, tol):
    """Greedy nearest-neighbour multiset comparison of complex values."""
    pool = [complex(e) for e in expected]
    assert len(got) == len(pool)
    for g in got:
        j = min(range(len(pool)), key=lambda j: abs(pool[j] - g))
        assert abs(pool[j] - g) <= tol, (g, pool[j])
        pool.pop(j)


def w5_mask(a):
    a = F(a)
    return matrix_from_coeffs(-2, (a, F(1, 2), 1 - 2 * a, F(1, 2), a))


def w6_matrix(a, b):
    a, b = F(a), F(b)
    c = 1 - a - b
    return matrix_from_coeffs(-2, (a, b, c, c, b, a))


PROP2_EIGS = [1, F(-1, 10), F(-1, 10), F(2, 5),
              complex(0.4, np.sqrt(2) / 5), complex(0.4, -np.sqrt(2) / 5)]


class TestBuild:
    def test_width6_matrix_matches_printed_form(self):
        M = build_local_matrix(catalog_get("a").mask)
        expect = [
            ["-1/10", "4/5", "3/10", "0", "0", "0"],
            ["0", "3/10", "4/5", "-1/10", "0", "0"],
            ["0", "-1/10", "4/5", "3/10", "0", "0"],
            ["0", "0", "3/10", "4/5", "-1/10", "0"],
            ["0", "0", "-1/10", "4/5", "3/10", "0"],
            ["0", "0", "0", "3/10", "4/5", "-1/10"],
        ]
        assert M.entries == tuple(tuple(map(F, row)) for row in expect)
        assert M.column_offset == 3

    def test_width5_family_matrix(self):
        a = F(1, 7)
        M = w5_mask(a)
        expect = [
            [a, 1 - 2 * a, a, 0, 0],
            [0, F(1, 2), F(1, 2), 0, 0],
            [0, a, 1 - 2 * a, a, 0],
            [0, 0, F(1, 2), F(1, 2), 0],
            [0, 0, a, 1 - 2 * a, a],
        ]
        assert M.entries == tuple(tuple(map(F, row)) for row in expect)

    def test_two_point_matrix(self):
        M = build_local_matrix(catalog_get("c").mask)
        expect = [["1/2", "1/2", "0"], ["0", "1", "0"], ["0", "1/2", "1/2"]]
        assert M.entries == tuple(tuple(map(F, row)) for row in expect)

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            build_local_matrix(Mask(0, (F(2),)))

    def test_row_sums_are_one_for_catalog(self):
        for name in "abcd":
            M = build_local_matrix(catalog_get(name).mask)
            assert all(s == 1 for s in M.row_sums())


class TestEigenvalues:
    def test_width6_scheme_spectrum(self):
        sp = eigenvalues(build_local_matrix(catalog_get("a").mask))
        match_multiset(sp.eigenvalues, PROP2_EIGS, 1e-9)

    def test_identity(self):
        sp = eigenvalues(np.eye(2))
        match_multiset(sp.eigenvalues, [1, 1], 1e-12)

    def test_quarter_rotation(self):
        sp = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        match_multiset(sp.eigenvalues, [1j, -1j], 1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_conjugate_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            vals = list(eigenvalues(A).eigenvalues)
            match_multiset(vals, [v.conjugate() for v in vals], 1e-8)

    def test_sorted_by_modulus(self):
        sp = eigenvalues(build_local_matrix(catalog_get("d").mask))
        mods = [abs(v) for v in sp.eigenvalues]
        assert mods == sorted(mods, reverse=True)
        assert abs(sp.subdominant_modulus - mods[1]) < 1e-15


class TestClassify:
    """The spectral class is decided in Spectrum.from_values at tol."""

    def test_width6_scheme(self):
        sp = eigenvalues(build_local_matrix(catalog_get("a").mask), tol=1e-7)
        assert sp.has_complex and sp.negative_real_count == 2
        assert sp.convergence_spectral_ok

    def test_cubic_bspline(self):
        sp = eigenvalues(build_local_matrix(catalog_get("d").mask), tol=1e-7)
        assert not sp.has_complex and sp.negative_real_count == 0
        assert sp.convergence_spectral_ok

    def test_double_dominant_fails(self):
        sp = Spectrum.from_values([1.0, 1.0, 0.5], tol=1e-7)
        assert sp.convergence_spectral_ok is False

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tol_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            Spectrum.from_values([1.0, 0.5], tol=tol)


class TestW5ClosedForm:
    def test_cubic_bspline_values(self):
        sp = w5_closed_form(F(1, 8))
        match_multiset(sp.eigenvalues, [1, 0.5, 0.25, 0.125, 0.125], 1e-15)

    def test_a_zero(self):
        match_multiset(w5_closed_form(0).eigenvalues, [1, 0.5, 0.5, 0, 0], 1e-15)

    def test_matches_numerical_on_random_values(self):
        rng = random.Random(17)
        for _ in range(20):
            a = F(rng.randint(-100, 100), 100)
            sp = eigenvalues(w5_mask(a))
            match_multiset(sp.eigenvalues, w5_closed_form(a).eigenvalues, 1e-8)


class TestW6ClosedForm:
    def test_width6_scheme_parameters(self):
        sp = w6_closed_form(F(-1, 10), F(3, 10))
        match_multiset(sp.eigenvalues, PROP2_EIGS, 1e-12)

    def test_obstruction_line_is_real(self):
        for k in range(-4, 5):
            a = F(k, 8)
            D = w6_discriminant(a, a + F(1, 4))
            assert D == (2 * a + F(1, 4)) ** 2
            assert not w6_closed_form(a, a + F(1, 4)).has_complex

    def test_degenerate_lazy_embedding(self):
        match_multiset(w6_closed_form(0, 0).eigenvalues, [1, 0, 0, 0, 1, 0], 1e-15)

    def test_printed_form_disagrees_with_example(self):
        sp = w6_closed_form(F(-1, 10), F(3, 10), as_printed=True)
        with pytest.raises(AssertionError):
            match_multiset(sp.eigenvalues, PROP2_EIGS, 1e-6)


class TestComplexRegion:
    def test_width6_scheme_is_complex(self):
        assert complex_region_predicate(F(-1, 10), F(3, 10))

    def test_positive_a_example_is_real(self):
        assert w6_discriminant(F(1, 10), F(3, 10)) == F(1, 5)
        assert not complex_region_predicate(F(1, 10), F(3, 10))

    def test_agrees_with_discriminant_sign(self):
        rng = random.Random(23)
        for _ in range(100):
            a = F(rng.randint(-50, 50), 100)
            b = F(rng.randint(-50, 50), 100)
            assert complex_region_predicate(a, b) == (w6_discriminant(a, b) < 0)

    def test_agrees_with_numerical_spectrum(self):
        rng = random.Random(29)
        for _ in range(40):
            a = F(rng.randint(-50, 50), 100)
            b = F(rng.randint(-50, 50), 100)
            if abs(w6_discriminant(a, b)) < F(1, 10 ** 10):
                continue
            sp = eigenvalues(w6_matrix(a, b))
            numc = max(abs(v.imag) for v in sp.eigenvalues) > 1e-7
            assert complex_region_predicate(a, b) == numc


class TestRowSumEigenvector:
    def test_ones_vector_is_fixed(self):
        for name in "abcd":
            M = build_local_matrix(catalog_get(name).mask)
            ones = [F(1)] * M.n
            image = [sum(row[j] * ones[j] for j in range(M.n)) for row in M.entries]
            assert image == ones

    def test_eigenvalue_one_present(self):
        for name in "abcd":
            sp = eigenvalues(build_local_matrix(catalog_get(name).mask))
            assert min(abs(v - 1) for v in sp.eigenvalues) < 1e-9
