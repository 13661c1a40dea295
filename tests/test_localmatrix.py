import cmath
import math
import random
import struct
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from conftest import fraction_entries
from subdiv import localmatrix
from subdiv.localmatrix import (_PRIMES, Spectrum, _block_charpolys, _central_charpolys,
                                _centrosymmetric, _certified, _charpoly_factors, _charpolys,
                                _discriminants, _flip_stacks, _gcd_mod, _poly_mul,
                                _roots_stacked, _squarefree_split, build_local_matrix,
                                local_entries, local_stack, complex_region_predicate,
                                eigenvalues, matrix_from_coeffs, palindromic_classes,
                                w5_closed_form, w6_closed_form, w6_discriminant)
from subdiv.masks import Mask, catalog_get
from subdiv.search import _run_numerators, default_grid, palindromic_coeffs


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
        assert fraction_entries(M) == tuple(tuple(map(F, row)) for row in expect)
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
        assert fraction_entries(M) == tuple(tuple(map(F, row)) for row in expect)

    def test_two_point_matrix(self):
        M = build_local_matrix(catalog_get("c").mask)
        expect = [["1/2", "1/2", "0"], ["0", "1", "0"], ["0", "1/2", "1/2"]]
        assert fraction_entries(M) == tuple(tuple(map(F, row)) for row in expect)

    @given(st.integers(2, 14).flatmap(lambda w: st.tuples(
        st.integers(-w - 2, 2),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                 min_size=w, max_size=w))))
    @example((-3, [F(0), F(1, 2), F(1), F(1, 2), F(0)]))  # zero end coefficients
    @example((2, [F(1, 3), F(5, 3)]))                      # positive support_min
    def test_entries_follow_the_index_rule(self, drawn):
        support_min, run = drawn
        n, c = len(run), -support_min + 1

        def a(idx):  # a_idx of the mask, zero off the run
            k = idx - support_min
            return run[k] if 0 <= k < n else F(0)

        M = matrix_from_coeffs(support_min, run)
        # A[i][j] = a_{2j-i-c} with 1-based i, j
        assert fraction_entries(M) == tuple(tuple(a(2 * j - i - c) for j in range(1, n + 1))
                                  for i in range(1, n + 1))
        assert M.column_offset == c

    def test_entries_are_ints_over_the_mask_lcm(self):
        M = matrix_from_coeffs(-1, (1, 0, 1))
        assert M.L == 1 and all(type(b) is int for row in M.B for b in row)
        mask = catalog_get("a").mask  # denominators 10 and 5
        M = build_local_matrix(mask)
        assert M.L == math.lcm(*(c.denominator for c in mask.coeffs)) == 10
        assert all(type(b) is int for row in M.B for b in row)

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            build_local_matrix(Mask(0, (F(2),)))

    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    def test_stack_rows_are_each_runs_entries(self, runs):
        # one home for the layout: local_entries is local_stack of one run,
        # and each matrix of a stack is its run's on its own
        n = len(runs[0])
        S = local_stack(runs)
        assert S.shape == (len(runs), n, n)
        for run, B in zip(runs, S.tolist()):
            assert tuple(map(tuple, B)) == local_entries(run) == tuple(
                tuple(run[2 * j - i] if 0 <= 2 * j - i < n else 0 for j in range(n))
                for i in range(n))
            assert all(type(b) is int for row in B for b in row)

    def test_row_sums_are_one_for_catalog(self):
        for name in "abcd":
            M = build_local_matrix(catalog_get(name).mask)
            assert all(sum(row) == 1 for row in fraction_entries(M))


class TestEigenvalues:
    def test_width6_scheme_spectrum(self):
        sp = eigenvalues(build_local_matrix(catalog_get("a").mask))
        match_multiset(sp.eigenvalues, PROP2_EIGS, 1e-9)

    def test_conjugate_closure(self):
        rng = random.Random(5)
        for _ in range(20):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(6)]
            vals = list(eigenvalues(matrix_from_coeffs(-2, coeffs)).eigenvalues)
            match_multiset(vals, [v.conjugate() for v in vals], 1e-8)

    def test_sorted_by_modulus(self):
        sp = eigenvalues(build_local_matrix(catalog_get("d").mask))
        mods = [abs(v) for v in sp.eigenvalues]
        assert mods == sorted(mods, reverse=True)
        assert abs(sp.subdominant_modulus - mods[1]) < 1e-15


def reference_roots(cf):
    """The per-factor root finder that _roots_stacked replaced: np.roots,
    then three Newton steps with np.polyval."""
    cf = np.array(cf)
    roots = np.roots(cf)
    cfd = np.polyder(cf)
    for _ in range(3):
        vals = np.polyval(cf, roots)
        dvals = np.polyval(cfd, roots)
        step = np.where(dvals != 0, vals / np.where(dvals != 0, dvals, 1), 0)
        roots = roots - step
    return [complex(r) for r in roots]


def packed(roots):
    """The bytes of every root's real and imaginary part, in order."""
    return b"".join(struct.pack("<dd", complex(r).real, complex(r).imag) for r in roots)


@st.composite
def monic_rows(draw, degree):
    """A monic row of the given degree, coefficients from the top down:
    distinct real roots, or small random coefficients (mostly a complex pair
    or more)."""
    if draw(st.booleans()):
        roots = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree,
                              unique=True))
        return [float(x) for x in np.atleast_1d(np.poly([r / 7 for r in roots]))]
    tail = draw(st.lists(st.integers(-25, 25), min_size=degree, max_size=degree))
    return [1.0] + [k / 5 for k in tail]


@st.composite
def row_stacks(draw):
    """Rows of 1-4 shapes: degree 1-8, 0-2 of it zero roots (the bare y
    among them), 1-6 rows a shape, shuffled."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 8))
        zeros = draw(st.integers(0, min(2, degree)))
        for _ in range(draw(st.integers(1, 6))):
            rows.append(draw(monic_rows(degree - zeros)) + [0.0] * zeros)
    return draw(st.permutations(rows))


class TestRootsStack:
    """_roots_stacked equals the per-row np.roots path bit for bit."""

    @given(row_stacks())
    @example([[1.0, -3.0, 2.0], [1.0, 0.0, 1.0], [1.0, 0.0], [1.0, -1.0, 0.0],
              [1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, -6.0, 11.0, -6.0]])
    def test_bit_identical_to_np_roots(self, rows):
        got = _roots_stacked(rows)
        assert len(got) == len(rows)
        for row, roots in zip(rows, got):
            assert packed(roots) == packed(reference_roots(row)), row

    def test_real_and_complex_rows_share_a_shape(self):
        # y^2 - 3y + 2 has real roots and y^2 + 1 a complex pair: one stacked
        # eigvals call returns both, and each row keeps its own dtype
        rows = [[1.0, -3.0, 2.0], [1.0, 0.0, 1.0]]
        got = _roots_stacked(rows)
        assert [type(r) for r in got[0]] == [float, float]
        assert [type(r) for r in got[1]] == [complex, complex]
        assert all(packed(g) == packed(reference_roots(r)) for g, r in zip(got, rows))

    def test_spectra_of_many_matrices_equal_single_calls(self):
        Ms = [w6_matrix(F(a, 10), F(b, 10)) for a in range(-5, 6) for b in range(-5, 6)]
        Ms += [w5_mask(F(a, 8)) for a in range(-8, 9)]
        for M, sp in zip(Ms, localmatrix.spectra([(M.L, M.B) for M in Ms])):
            assert sp == eigenvalues(M)


class TestClassify:
    """The spectral class is decided in Spectrum.from_values at SPECTRAL_TOL."""

    def test_width6_scheme(self):
        sp = eigenvalues(build_local_matrix(catalog_get("a").mask))
        assert sp.has_complex and sp.negative_real_count == 2
        assert sp.convergence_spectral_ok

    def test_cubic_bspline(self):
        sp = eigenvalues(build_local_matrix(catalog_get("d").mask))
        assert not sp.has_complex and sp.negative_real_count == 0
        assert sp.convergence_spectral_ok

    def test_double_dominant_fails(self):
        sp = Spectrum.from_values([1.0, 1.0, 0.5])
        assert sp.convergence_spectral_ok is False


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
        # the published formula drops the /2 on the pair: (1-a-b) +- sqrt(D)
        a, b = F(-1, 10), F(3, 10)
        root = cmath.sqrt(float(w6_discriminant(a, b)))
        printed = [1, float(a), float(a), float(b - a), float(1 - a - b) + root,
                   float(1 - a - b) - root]
        with pytest.raises(AssertionError):
            match_multiset(printed, PROP2_EIGS, 1e-6)


SMALL_W6 = st.fractions(min_value=-1, max_value=1, max_denominator=60)


class TestW6DiscriminantScaled:
    @given(SMALL_W6, SMALL_W6, st.integers(1, 30))
    def test_integer_numerators(self, a, b, k):
        # over a common denominator den it is den^2 D, an integer
        den = 2 * k * a.denominator * b.denominator
        num = [x.numerator * (den // x.denominator) for x in (a, b)]
        got = w6_discriminant(*num, den)
        assert type(got) is int and got == den * den * w6_discriminant(a, b)


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
            image = [sum(row[j] * ones[j] for j in range(M.n)) for row in fraction_entries(M)]
            assert image == ones

    def test_eigenvalue_one_present(self):
        for name in "abcd":
            sp = eigenvalues(build_local_matrix(catalog_get(name).mask))
            assert min(abs(v - 1) for v in sp.eigenvalues) < 1e-9


Y = sympy.Symbol("y")


def stack(*matrices):
    """Integer matrices of one order as an (N, m, m) stack of Python ints."""
    return np.array(matrices, dtype=object)


def full_charpoly(M):
    """det(yI - L*A), from sympy's charpoly of the whole integer matrix."""
    return sympy_charpoly(M.B)


def _family_charpolys():
    """Charpolys of every 37th default-grid cell at widths 6-8, plus the
    width-6 cells (0, 1/5) and (0, 1/3) with a double zero eigenvalue,
    (-1/8, 1/8) where D = 0 and the pair is a double root, and the paper's
    cell (-1/10, 3/10)."""
    cells = [(6, (F(0), F(1, 5))), (6, (F(0), F(1, 3))),
             (6, (F(-1, 8), F(1, 8))), (6, (F(-1, 10), F(3, 10)))]
    for w in (6, 7, 8):
        grid = list(product(*(r.values() for r in default_grid(w))))
        cells += [(w, params) for params in grid[::37]]
    for w, params in cells:
        yield full_charpoly(matrix_from_coeffs(*palindromic_coeffs(w, params)))


def sympy_split(c):
    """sympy's square-free split of the monic integer c, as {multiplicity:
    coefficients from y^0 up}."""
    _, factors = sympy.Poly(list(reversed(c)), Y, domain="ZZ").sqf_list()
    return {m: [int(x) for x in reversed(f.all_coeffs())]
            for f, m in factors if f.degree() > 0}


def split(c):
    """_squarefree_split without a constant class (the split of c = 1)."""
    return {m: f for m, f in _squarefree_split(c).items() if len(f) > 1}


def times(*factors):
    """The product of integer coefficient lists."""
    c = [1]
    for f in factors:
        c = _poly_mul(c, f)
    return c


BIG = st.integers(-2 ** 80, 2 ** 80) | st.integers(-9, 9)


@st.composite
def repeated_factor_polys(draw):
    """A monic integer polynomial with forced repeated and shared factors:
    1-3 drawn monic factors of degree 1-3, coefficients up to 2^80 (beyond
    the first table prime), each raised to a power 1-3, and the first one
    multiplied in once more."""
    factors = draw(st.lists(st.integers(1, 3).flatmap(
        lambda d: st.lists(BIG, min_size=d, max_size=d).map(lambda f: f + [1])),
        min_size=1, max_size=3))
    powers = [f for f in factors for _ in range(draw(st.integers(1, 3)))]
    return times(*powers, factors[0])


class TestSquarefreeSplit:
    def test_zero_eigenvalue_cell(self):
        # w6 (0, 1/5), L = 5: (x^2 - 8/5 x + 3/5)(x^2 - 1/5 x)^2 in y = 5x
        assert split(full_charpoly(w6_matrix(0, F(1, 5)))) == {
            1: [15, -8, 1], 2: [0, -1, 1]}

    def test_matches_sympy(self):
        for c in _family_charpolys():
            assert split(c) == sympy_split(c)

    @given(repeated_factor_polys())
    def test_matches_sympy_on_repeated_and_shared_factors(self, c):
        assert split(c) == sympy_split(c)

    def test_unlucky_prime_moves_to_the_next(self, monkeypatch):
        # f1 and f2 share a root mod q, a prime factor of their resultant
        # above twice the Mignotte bound of f1 f2^2: over GF(q) the
        # shared root has multiplicity 3, the lifted product is not c, and
        # the next table prime splits c
        f1, f2 = [-8, 10, 14, 15, 1], [10, 5, 20, -11, 1]
        c = times(f1, f2, f2)
        res = sympy.resultant(*(sympy.Poly(list(reversed(f)), Y) for f in (f1, f2)))
        q = max(sympy.factorint(abs(int(res))))
        assert q > 2 ** len(c) * (math.isqrt(sum(x * x for x in c)) + 1)
        tried = []

        def recorded(c, g, p):
            out = lift(c, g, p)
            tried.append((p, out is not None))
            return out

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", recorded)
        monkeypatch.setattr(localmatrix, "_PRIMES", (q,) + tuple(p for p in _PRIMES if p > q))
        assert split(c) == sympy_split(c) == {1: f1, 2: f2}
        assert tried == [(q, False), (_PRIMES[0], True)]


# -- the corner-deflated factor route ------------------------------------

def sympy_factors(M):
    """sympy's square-free factors of det(yI - L*A), from sympy's own
    charpoly of the integer matrix: [(coefficients from y^0 up, m)] in
    ascending multiplicity."""
    L, B = M.L, M.B
    cp = DomainMatrix([[sympy.ZZ(e) for e in row] for row in B],
                      (M.n, M.n), sympy.ZZ).charpoly()
    _, factors = sympy.Poly(cp, Y, domain="ZZ").sqf_list()
    return sorted(([int(c) for c in reversed(f.all_coeffs())], m)
                  for f, m in factors if f.degree() > 0)


def route_factors_of(Ms):
    """_charpoly_factors of the integer-scaled Ms, local matrices of one
    order, in one stack; each checked to be in ascending multiplicity."""
    out = []
    for factors in _charpoly_factors([M.B for M in Ms]):
        assert [m for _, m in factors] == sorted(m for _, m in factors)
        out.append(sorted(factors))
    return out


def route_factors(M):
    [factors] = route_factors_of([M])
    return factors


def w6_double_pair(t):
    """The w6 cell with D = 0 on the conic branch a = 96/(256 - t^2), where
    the pair (1-a-b)/2 is a double root of the central block."""
    a = F(96, 256 - t * t)
    return a, (6 - 2 * a + a * t) / 18


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@st.composite
def drawn_runs(draw):
    """(support_min, run) of width 2-14, of a kind drawn from: asymmetric,
    palindromic, equal ends on a non-palindromic run, zero at every odd
    place (0 is then a repeated root of the central block, and a corner too
    at even width), w6 (a, 2a) (the corner a is a root of the central
    block) and a w6 cell with D = 0 (a repeated central root)."""
    kind = draw(st.sampled_from(["asymmetric", "palindromic", "equal_ends",
                                 "odd_zero", "w6_corner_root", "w6_double_pair"]))
    if kind == "w6_corner_root":
        a = draw(SMALL)
        return palindromic_coeffs(6, (a, 2 * a))
    if kind == "w6_double_pair":
        return palindromic_coeffs(6, w6_double_pair(draw(st.integers(-15, 15))))
    w = draw(st.integers(5 if kind == "odd_zero" else 2, 14))
    run = draw(st.lists(SMALL, min_size=w, max_size=w))
    if kind == "palindromic":
        run = run[:(w + 1) // 2] + run[:w // 2][::-1]
    elif kind == "equal_ends":
        run[-1] = run[0]
    elif kind == "odd_zero":
        run = [c if k % 2 == 0 else F(0) for k, c in enumerate(run)]
    return draw(st.integers(-w, 1)), run


class TestCharpolyFactors:
    def test_matches_sympy_on_every_grid_cell(self):
        for w in (4, 5, 6, 7, 8):
            grid = list(product(*(r.values() for r in default_grid(w))))
            Ms = [matrix_from_coeffs(*palindromic_coeffs(w, params)) for params in grid]
            for params, M, factors in zip(grid, Ms, route_factors_of(Ms)):
                assert factors == sympy_factors(M), (w, params)

    @given(drawn_runs())
    @example((-2, [F(0), F(1, 5), F(4, 5), F(4, 5), F(1, 5), F(0)]))  # w6 (0, 1/5)
    @example(palindromic_coeffs(6, (F(1, 10), F(1, 5))))               # triple 1/10
    @example(palindromic_coeffs(6, (F(-1, 8), F(1, 8))))               # double 1/2
    def test_matches_sympy_on_drawn_masks(self, drawn):
        M = matrix_from_coeffs(*drawn)
        assert route_factors(M) == sympy_factors(M)

    @given(st.integers(2, 14).flatmap(
        lambda w: st.tuples(st.integers(-w, 1), st.lists(SMALL, min_size=w, max_size=w))))
    def test_corner_deflation(self, drawn):
        # det(xI - A) = (x - A_00)(x - A_{n-1,n-1}) det(xI - C), C the
        # central block, against sympy's determinant of the whole matrix
        M = matrix_from_coeffs(*drawn)
        n, QQ, x = M.n, sympy.QQ, sympy.Symbol("x")
        A = DomainMatrix([[QQ(e.numerator, e.denominator) for e in row]
                          for row in fraction_entries(M)], (n, n), QQ)
        ref = sympy.Poly(A.charpoly(), x, domain="QQ")
        L, B = M.L, M.B
        [c] = _central_charpolys(np.array(B, dtype=object)[None, 1:n - 1, 1:n - 1]).tolist()
        q = sympy.Poly([QQ(ck, L ** (n - 2 - k)) for k, ck in reversed(list(enumerate(c)))],
                       x, domain="QQ")
        first, last = (sympy.Poly([1, -QQ(e.numerator, e.denominator)], x, domain="QQ")
                       for e in (fraction_entries(M)[0][0], fraction_entries(M)[-1][-1]))
        assert ref == first * last * q

    def test_yun_runs_only_where_the_central_block_repeats_a_root(self, monkeypatch):
        # the paper's cell and (1/10, 1/5), whose corner 1/10 is a root of
        # the square-free central block, stay off the modular split;
        # (0, 1/5) has a double central root and takes it, once
        calls = []

        def counted(c, g, p):
            calls.append(p)
            return lift(c, g, p)

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", counted)
        for params, fallback in [((F(-1, 10), F(3, 10)), False),
                                 ((F(1, 10), F(1, 5)), False),
                                 ((F(0), F(1, 5)), True)]:
            calls.clear()
            M = w6_matrix(*params)
            assert route_factors(M) == sympy_factors(M), params
            assert len(calls) == (1 if fallback else 0), params


def stacked_spectrum(M):
    """The Spectrum with every factor, linear ones included, root-solved by
    _roots_stacked, as spectra did before linear factors skipped it."""
    L, B = M.L, M.B
    vals = []
    for f, mult in _charpoly_factors([B])[0]:
        d = len(f) - 1
        [roots] = _roots_stacked([[f[k] / L ** (d - k) for k in range(d, -1, -1)]])
        vals += roots * mult
    return Spectrum.from_values(vals)


class TestLinearFactors:
    """A monic linear factor y + f0 over L gets its root -f0/L by one integer
    division, bit for bit the root the stacked eigvals and polish give."""

    @given(st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80))
    @example(0, 7)
    @example(-1, 3)
    def test_division_is_the_stacked_root(self, f0, L):
        assert packed([-f0 / L]) == packed(_roots_stacked([[1.0, f0 / L]])[0])

    @settings(max_examples=40)
    @given(drawn_runs())
    @example((-2, [F(0), F(1, 5), F(4, 5), F(4, 5), F(1, 5), F(0)]))  # w6 (0, 1/5)
    @example(palindromic_coeffs(6, (F(1, 10), F(1, 5))))               # triple 1/10
    def test_spectra_unchanged(self, drawn):
        M = matrix_from_coeffs(*drawn)
        assert packed(eigenvalues(M).eigenvalues) == packed(stacked_spectrum(M).eigenvalues)

    def test_no_linear_row_reaches_the_stacked_solve(self, monkeypatch):
        seen = []

        def recording(rows):
            seen.extend(rows)
            return _roots_stacked(rows)

        monkeypatch.setattr(localmatrix, "_roots_stacked", recording)
        Ms = [w6_matrix(F(a, 10), F(b, 10)) for a in range(-5, 6) for b in range(-5, 6)]
        for M, sp in zip(Ms, localmatrix.spectra([(M.L, M.B) for M in Ms])):
            assert packed(sp.eigenvalues) == packed(stacked_spectrum(M).eigenvalues)
        assert seen and all(len(row) > 2 for row in seen)


class TestModularCertificate:
    @pytest.mark.parametrize("roots, squarefree", [
        ((), True),
        ((3,), True),
        ((1, 2, -3, 0), True),
        ((1, 1, -2), False),
        ((0, 0), False),
        ((5, -7, 5, -7, 2), False),
    ])
    def test_products_of_linear_factors(self, monkeypatch, roots, squarefree):
        lifts = []

        def counted(*args):
            lifts.append(args)
            return lift(*args)

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", counted)
        c = times(*([-r, 1] for r in roots))
        # a square-free c is certified by the stacked certificate; any c
        # the split gets goes straight to Yun, over one prime here
        assert _certified(stack(c)).tolist() == [squarefree]
        assert split(c) == sympy_split(c)
        assert len(lifts) == 1

    def test_square_mod_the_prime_is_not_certified(self):
        # y (y - P) is square-free over the rationals but y^2 mod P = 2^61 - 1:
        # the certificate leaves it out, the Mignotte bound passes P, and
        # Yun over the next prime returns c whole
        P = _PRIMES[0]
        assert _certified(stack([0, -P, 1])).tolist() == [False]
        assert _squarefree_split([0, -P, 1]) == {1: [0, -P, 1]}

    def test_no_prime_above_the_bound_is_an_eigensolve_error(self, monkeypatch):
        P = _PRIMES[0]
        monkeypatch.setattr(localmatrix, "_PRIMES", (P,))
        with pytest.raises(localmatrix.EigensolveError, match="no table prime"):
            _squarefree_split([0, -P, 1])

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    def test_never_certifies_a_square(self, roots):
        c = times(*([-r, 1] for r in roots))
        assert (set(split(c)) == {1}) is (len(set(roots)) == len(roots))


class TestSizeCap:
    @pytest.mark.parametrize("width", [2, 3, 13, 24])
    def test_edge(self, width):
        # bits is the bit length of the largest of L and |L a_k|
        cap = localmatrix.MAX_CHARPOLY_BITS // max(width - 2, 1)
        for bits, accepted in ((cap, True), (cap + 1, False)):
            L = 2 ** (bits - 1) + 1
            for coeffs in ((F(1, L),) * width, (F(2 ** bits - 1),) * width):
                if accepted:
                    localmatrix.check_size(Mask(0, coeffs))
                else:
                    with pytest.raises(ValueError, match="mask too large"):
                        localmatrix.check_size(Mask(0, coeffs))

    def test_every_accepted_mignotte_bound_is_below_the_top_prime(self):
        # entries |B_ij| < H = 2^bits: each k x k principal minor is at most
        # (sqrt(k) H)^k (Hadamard), so ||c||_2 <= (1 + sqrt(m) H)^m, and
        # the bound 2^(m+1) (isqrt(||c||^2) + 1) has at most
        # m bits + 2m + 2 + (m/2) log2 m bits
        top = _PRIMES[-1].bit_length() - 1
        for m in range(1, localmatrix.MAX_ORDER - 1):
            bits = localmatrix.MAX_CHARPOLY_BITS // m
            assert m * bits + 2 * m + 2 + m / 2 * math.log2(m) < top, m
        # a width-24 palindromic mask at the cap, against the formula
        L = 2 ** 499 + 1
        rng = random.Random(24)
        half = [F(rng.randrange(-L + 1, L), L) for _ in range(12)]
        n, B = 24, matrix_from_coeffs(-11, half[::-1] + half).B
        [c] = _central_charpolys(stack([row[1:n - 1] for row in B[1:n - 1]])).tolist()
        bound = 2 ** len(c) * (math.isqrt(sum(x * x for x in c)) + 1)
        assert bound.bit_length() <= 22 * 500 + 44 + 2 + 11 * math.log2(22) < top


# -- the J-symmetric split of the central block ---------------------------

def sympy_charpoly(C):
    """det(yI - C) of an integer matrix, from sympy, coefficients from y^0 up."""
    m = len(C)
    cp = DomainMatrix([[sympy.ZZ(e) for e in row] for row in C], (m, m), sympy.ZZ).charpoly()
    return [int(c) for c in reversed(cp)]


@st.composite
def centrosymmetric(draw):
    """An integer matrix of order 1-10 with C[i][j] = C[m-1-i][m-1-j]: each
    entry reads the drawn value of the first of its flip pair."""
    m = draw(st.integers(1, 10))
    vals = draw(st.lists(st.integers(-9, 9), min_size=m * m, max_size=m * m))
    return [[vals[min(i * m + j, (m - 1 - i) * m + m - 1 - j)] for j in range(m)]
            for i in range(m)]


# W13R_COEFFS of the CLI determinism test (argv13): an asymmetric width-13
# mask whose central block has a double eigenvalue
W13R = tuple(F(c) for c in (
    "3/7", "0", "0", "0", "0", "-6/7", "6/35", "0", "0", "1", "0", "6/7", "2/5"))


class TestFlipSplit:
    @given(centrosymmetric())
    def test_split_charpoly_matches_full_route_and_sympy(self, C):
        m = len(C)
        [even], [odd] = _flip_stacks(stack(C))
        assert (len(even), len(odd)) == ((m + 1) // 2, m // 2)
        ref = sympy_charpoly(C)
        assert _central_charpolys(stack(C))[0].tolist() == _charpolys(stack(C))[0].tolist() == ref
        # the J-symmetry check: the J-even and J-odd characteristic
        # polynomials, each from sympy, multiply to the whole one
        x = sympy.Symbol("x")
        halves = [sympy.Poly(list(reversed(sympy_charpoly(b))), x) for b in (even, odd)]
        assert halves[0] * halves[1] == sympy.Poly(list(reversed(ref)), x)

    def test_not_centrosymmetric(self):
        assert _centrosymmetric(stack([[1, 2], [3, 1]])).tolist() == [False]
        assert _centrosymmetric(stack([[1, 2, 3], [4, 5, 6], [3, 2, 1]],  # middle row
                                      [[1, 2, 3], [4, 5, 4], [3, 2, 1]])).tolist() == [False, True]

    @pytest.mark.parametrize("support_min, run, orders", [
        (-6, W13R, [11]),                                # asymmetric: unsplit
        (*palindromic_coeffs(6, (F(-1, 10), F(3, 10))), [2, 2]),
        (*palindromic_coeffs(7, (F(1, 20), F(-1, 10))), [3, 2]),
        (*palindromic_coeffs(8, (F(1, 10), F(0), F(-1, 10))), [3, 3]),
    ])
    def test_route_by_symmetry(self, monkeypatch, support_min, run, orders):
        seen = []

        def counted(S):
            seen.append(S.shape[1])
            return _charpolys(S)

        monkeypatch.setattr(localmatrix, "_charpolys", counted)
        M = matrix_from_coeffs(support_min, run)
        assert route_factors(M) == sympy_factors(M)
        assert seen == orders


# -- the stacked exact stage ----------------------------------------------

@st.composite
def central_stacks(draw):
    """An (N, m, m) stack, m = 0 .. MAX_ORDER - 2 (the central orders), of
    integer matrices of up to 3, 66 or 80 bits (past 2^64); each row drawn
    general or centrosymmetric."""
    m = draw(st.integers(0, localmatrix.MAX_ORDER - 2))
    bound = 2 ** draw(st.sampled_from([3, 66, 80]))
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        vals = [rnd.randint(-bound, bound) for _ in range(m * m)]
        if draw(st.booleans()):
            rows.append([[vals[min(i * m + j, (m - 1 - i) * m + m - 1 - j)] for j in range(m)]
                         for i in range(m)])
        else:
            rows.append([[vals[i * m + j] for j in range(m)] for i in range(m)])
    return np.array(rows, dtype=object).reshape(len(rows), m, m)


@st.composite
def mixed_order_runs(draw):
    """1-4 (support_min, run) pairs of widths 2 to MAX_ORDER, palindromic or
    not, coefficients in [-2, 2]; over the denominator 2^64 + 13 the
    integer-scaled entries pass 2^64."""
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.integers(2, localmatrix.MAX_ORDER))
        den = draw(st.sampled_from([1, 3, 10, 2 ** 64 + 13]))
        run = draw(st.lists(st.integers(-2 * den, 2 * den).map(lambda x: F(x, den)),
                            min_size=w, max_size=w))
        if draw(st.booleans()):
            run = run[:(w + 1) // 2] + run[:w // 2][::-1]
        runs.append((draw(st.integers(-w, 1)), run))
    return runs


class TestStackedCharpoly:
    """The stacked Faddeev-LeVerrier on Python ints, against sympy."""

    @settings(max_examples=30, deadline=None)
    @given(central_stacks())
    @example(stack([[2 ** 64 + 5 * (i - j) ** 2 for j in range(4)] for i in range(4)],
                   [[2 ** 64 + i + 2 * j for j in range(4)] for i in range(4)]))
    @example(stack([[2 ** 64, 2 ** 64 + 1, 1], [7, 2 ** 65, 7], [1, 2 ** 64 + 1, 2 ** 64]]))
    def test_central_charpolys_match_sympy(self, S):
        got = _central_charpolys(S).tolist()
        assert got == _charpolys(S).tolist()
        assert got == [sympy_charpoly(C.tolist()) if len(C) else [1] for C in S]

    @pytest.mark.parametrize("m", [0, 1])
    def test_central_orders_zero_and_one(self, m):
        S = np.full((3, m, m), 5, dtype=object)
        assert _central_charpolys(S).tolist() == [[-5, 1] if m else [1]] * 3

    def test_a_trace_not_divisible_is_an_eigensolve_error(self):
        # a rational entry leaves tr(B M_1) = 1/2 not divisible by 1: the
        # check raises, and is no assert that python -O removes
        with pytest.raises(localmatrix.EigensolveError, match="not divisible by 1"):
            _charpolys(stack([[F(1, 2)]]))

    @settings(max_examples=20, deadline=None)
    @given(mixed_order_runs())
    @example([(0, [F(2 ** 64 + 1, 2 ** 65)] * 24), (-1, [F(1), F(-2 ** 64, 2 ** 64 + 13)]),
              (0, [F(0), F(2 ** 65, 2 ** 64 + 13), F(0)]),
              (-2, [F(1, 4), F(2 ** 64, 2 ** 64 + 13), F(1, 4)] * 2)])
    def test_mixed_orders_in_one_call(self, runs):
        # spectra groups by order: one factor stack per order, every matrix
        # in one of them, its factors multiplying to sympy's charpoly
        stacks = []

        def recorded(Bs):
            out = factor_stack(Bs)
            stacks.append((np.array(Bs, dtype=object), out))
            return out

        factor_stack = localmatrix._charpoly_factors
        Ms = [matrix_from_coeffs(*r) for r in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localmatrix, "_charpoly_factors", recorded)
            got = localmatrix.spectra([(M.L, M.B) for M in Ms])
        orders = [S.shape[1] for S, _ in stacks]
        assert sorted(orders) == sorted(set(M.n for M in Ms))
        assert sum(len(S) for S, _ in stacks) == len(Ms)
        for S, out in stacks:
            for B, factors in zip(S.tolist(), out):
                assert times(*(f for f, m in factors for _ in range(m))) == sympy_charpoly(B)
        assert got == [eigenvalues(M) for M in Ms]


def derivative(c):
    return [k * x for k, x in enumerate(c)][1:]


monic_row_stacks = st.integers(0, 8).flatmap(
    lambda d: st.lists(st.lists(BIG, min_size=d, max_size=d).map(lambda f: f + [1]),
                       min_size=1, max_size=6))


class TestStackedCertificate:
    """_certified clears a row only when gcd(c, c') is a unit over GF(p)."""

    @given(monic_row_stacks)
    def test_certified_rows_have_a_unit_gcd(self, rows):
        for c, ok in zip(rows, _certified(np.array(rows, dtype=object))):
            if ok:
                assert _gcd_mod(c, derivative(c), _PRIMES[0]) == [1], c

    @given(st.integers(1, 8).flatmap(lambda d: st.lists(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=6)))
    def test_squares_are_never_certified(self, roots):
        rows = [times(*([-x, 1] for x in r)) for r in roots]
        for r, ok in zip(roots, _certified(np.array(rows, dtype=object))):
            assert not ok or len(set(r)) == len(r), r

    def test_repeated_root(self):
        assert _certified(stack([1, 2, 1])).tolist() == [False]

    @pytest.mark.parametrize("c", [[2, 3, 3, 1], [-1, 0, 0, 1]])
    def test_abnormal_sequences_take_the_split(self, monkeypatch, c):
        # (y + 2)(y^2 + y + 1) and y^3 - 1 are square-free, but a
        # pseudo-remainder skips a degree: no certificate, and the split
        # returns c whole through Yun, which takes gcd(c, c') once
        assert _certified(stack(c, [0, -1, 0, 1])).tolist() == [False, True]
        lifts, gcds = [], []

        def counted_lift(*args):
            lifts.append(args)
            return lift(*args)

        def counted_gcd(a, b, p):
            gcds.append((list(a), list(b)))
            return gcd(a, b, p)

        lift, gcd = localmatrix._yun_lift, localmatrix._gcd_mod
        monkeypatch.setattr(localmatrix, "_yun_lift", counted_lift)
        monkeypatch.setattr(localmatrix, "_gcd_mod", counted_gcd)
        assert _squarefree_split(c) == {1: c}
        assert len(lifts) == 1 and gcds.count((c, derivative(c))) == 1

    @pytest.mark.parametrize("d", [0, 1])
    def test_constant_and_linear_rows(self, d):
        assert _certified(stack(*[[3] * d + [1]] * 2)).tolist() == [True, True]


class TestScaleInvariance:
    """spectra of (L, B) and of (kL, kB) agree bit for bit: a factor's
    coefficients in x are the same rationals whatever the scale."""

    @pytest.mark.parametrize("params", [
        (F(0), F(1, 5)),       # a double central root: the modular split
        (F(1, 10), F(1, 5)),   # the corner 1/10 is a central root
        (F(-1, 10), F(3, 10)),  # the paper's complex pair
        (F(-1, 8), F(1, 8)),   # D = 0
    ])
    @pytest.mark.parametrize("k", [2, 3, 7, 10 ** 9 + 7])
    def test_width6_cells(self, params, k):
        M = w6_matrix(*params)
        L, B = M.L, M.B
        base, scaled = localmatrix.spectra(
            [(L, B), (k * L, [[k * e for e in row] for row in B])])
        assert packed(scaled.eigenvalues) == packed(base.eigenvalues)
        assert scaled == base

    @given(drawn_runs(), st.integers(2, 10 ** 6))
    def test_drawn_masks(self, drawn, k):
        M = matrix_from_coeffs(*drawn)
        L, B = M.L, M.B
        base, scaled = localmatrix.spectra(
            [(L, B), (k * L, [[k * e for e in row] for row in B])])
        assert packed(scaled.eigenvalues) == packed(base.eigenvalues)


# -- the exact class of palindromic cells --------------------------------

@st.composite
def flip_blocks(draw):
    """A centrosymmetric integer matrix of order 0-6 (the central blocks of
    widths 2-8) and the name of a J-block forced to a repeated root, or
    None: the forced block is triangular with a repeated diagonal entry."""
    m = draw(st.integers(0, 6))
    k = m // 2
    vals = draw(st.lists(st.integers(-9, 9), min_size=m * m, max_size=m * m))
    C = [[vals[min(i * m + j, (m - 1 - i) * m + m - 1 - j)] for j in range(m)]
         for i in range(m)]
    forced = draw(st.sampled_from([None, "odd", "even"] if m % 2 == 0 else [None, "odd"]))
    if k < 2:
        forced = None
    if forced:
        r, s = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        T = [[(r, r, s)[i] if i == j else draw(st.integers(-9, 9)) if j > i else 0
              for j in range(k)] for i in range(k)]
        # the J-odd block is P - QJ and the J-even one P + QJ (at even
        # order), with QJ[i][j] = C[i][m-1-j], whose flip partner is
        # C[m-1-i][j]
        for i in range(k):
            for j in range(k):
                qj = C[i][j] - T[i][j] if forced == "odd" else T[i][j] - C[i][j]
                C[i][m - 1 - j] = C[m - 1 - i][j] = qj
    return C, forced


class TestBlockDiscriminants:
    """The exact rule of palindromic_classes: a centrosymmetric integer
    matrix of order <= 6 has a non-real eigenvalue exactly when one of its
    J-block charpolys has a negative discriminant."""

    @settings(max_examples=150, deadline=None)
    @given(flip_blocks())
    def test_rule_matches_sympy_real_root_count(self, drawn):
        C, forced = drawn
        m = len(C)
        S = np.array(C, dtype=object).reshape(1, m, m)
        assert _centrosymmetric(S).all()
        even, odd = _block_charpolys(S)
        discs = {"even": _discriminants(even)[0], "odd": _discriminants(odd)[0]}
        if forced:
            assert discs[forced] == 0
        # count_roots counts distinct real roots: compare it with the
        # degree of the square-free part
        x = sympy.Symbol("x")
        p = sympy.Poly(list(reversed(sympy_charpoly(C))), x).sqf_part()
        assert (min(discs.values()) < 0) == (p.count_roots() < p.degree())

    @pytest.mark.parametrize("c, disc", [
        ([[5]], 1), ([[-3, 1]], 1),                         # degree <= 1: no repeated root
        ([[4, -4, 1]], 0), ([[1, 0, 1]], -4), ([[-1, 0, 1]], 4),
        ([[-1, 3, -3, 1]], 0), ([[0, -1, 0, 1]], 4), ([[-1, 0, 0, 1]], -27),
    ])
    def test_discriminant_values(self, c, disc):
        assert _discriminants(np.array(c, dtype=object)).tolist() == [disc]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-300, 300), st.integers(-300, 300),
           st.sampled_from([2, 10, 60, 2 ** 64 + 2]))
    @example(0, 10, 30)  # (a, b) = (0, 1/3): D = 0, a degenerate cell
    @example(-4, 1, 32)  # b = a + 1/4: D a perfect square
    def test_width6_blocks(self, a, b, den):
        # at width 6 the J-odd discriminant is den^2 D(a, b) and the J-even
        # one the square (a - b + den)^2
        _, run = _run_numerators(6, [a, b], den)
        S = local_stack([run])
        even, odd = _block_charpolys(S[:, 1:5, 1:5])
        D = w6_discriminant(a, b, den)
        assert _discriminants(odd).tolist() == [D]
        assert _discriminants(even).tolist() == [(a - b + den) ** 2]
        [(has_complex, max_imag, odd_disc)] = palindromic_classes(den, S)
        assert (has_complex, odd_disc) == (D < 0, D)
        assert (max_imag > 0) == has_complex

    def test_rejects_a_matrix_that_is_not_palindromic(self):
        S = local_stack([[1, 2, 3, 4, 5, 6]])
        with pytest.raises(ValueError, match="palindromic"):
            palindromic_classes(1, S)
