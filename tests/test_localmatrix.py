import cmath
import random
import struct
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy.polys.matrices import DomainMatrix

from subdiv import localmatrix
from subdiv.localmatrix import (_PRIME, Spectrum, _central_charpoly, _charpoly,
                                _charpoly_factors, _flip_blocks, _roots_stacked,
                                _squarefree_factors, _squarefree_mod_p, build_local_matrix,
                                complex_region_predicate, eigenvalues,
                                matrix_from_coeffs, w5_closed_form,
                                w6_closed_form, w6_discriminant)
from subdiv.masks import Mask, catalog_get
from subdiv.search import default_grid, palindromic_coeffs
from subdiv.symbols import LaurentPoly


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
        assert M.entries == tuple(tuple(a(2 * j - i - c) for j in range(1, n + 1))
                                  for i in range(1, n + 1))
        assert M.column_offset == c

    def test_integer_coefficients_are_fractions(self):
        M = matrix_from_coeffs(-1, (1, 0, 1))
        assert all(type(e) is F for row in M.entries for e in row)

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            build_local_matrix(Mask(0, (F(2),)))

    def test_row_sums_are_one_for_catalog(self):
        for name in "abcd":
            M = build_local_matrix(catalog_get(name).mask)
            assert all(sum(row) == 1 for row in M.entries)


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
        for M, sp in zip(Ms, localmatrix.spectra([M.integer_scaled() for M in Ms])):
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
            image = [sum(row[j] * ones[j] for j in range(M.n)) for row in M.entries]
            assert image == ones

    def test_eigenvalue_one_present(self):
        for name in "abcd":
            sp = eigenvalues(build_local_matrix(catalog_get(name).mask))
            assert min(abs(v - 1) for v in sp.eigenvalues) < 1e-9


def full_charpoly(M):
    """det(xI - A), from _charpoly on the whole integer matrix B = L*A."""
    L, B = M.integer_scaled()
    return LaurentPoly({k: F(c, L ** (M.n - k)) for k, c in enumerate(_charpoly(B))})


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


class TestSquarefreeSplit:
    def test_zero_eigenvalue_cell(self):
        # w6 (0, 1/5): (x^2 - 8/5 x + 3/5)(x^2 - 1/5 x)^2
        p = full_charpoly(w6_matrix(0, F(1, 5)))
        assert _squarefree_factors(p) == [
            (LaurentPoly({2: 1, 1: F(-8, 5), 0: F(3, 5)}), 1),
            (LaurentPoly({2: 1, 1: F(-1, 5)}), 2),
        ]

    def test_matches_sympy(self):
        x = sympy.Symbol("x")
        for p in _family_charpolys():
            ref = sympy.Poly({(e,): sympy.Rational(c.numerator, c.denominator)
                              for e, c in p.coeffs.items()}, x, domain="QQ")
            _, ref_factors = ref.sqf_list()
            expect = sorted(
                (tuple(F(int(c.p), int(c.q)) for c in f.monic().all_coeffs()), m)
                for f, m in ref_factors)
            got = sorted(
                (tuple(f[e] for e in range(f.max_exp, -1, -1)), m)
                for f, m in _squarefree_factors(p))
            assert got == expect


# -- the corner-deflated factor route ------------------------------------

Y = sympy.Symbol("y")


def sympy_factors(M):
    """sympy's square-free factors of det(yI - L*A), from sympy's own
    charpoly of the integer matrix: [(coefficients from y^0 up, m)] in
    ascending multiplicity."""
    L, B = M.integer_scaled()
    cp = DomainMatrix([[sympy.ZZ(e) for e in row] for row in B],
                      (M.n, M.n), sympy.ZZ).charpoly()
    _, factors = sympy.Poly(cp, Y, domain="ZZ").sqf_list()
    return sorted(([int(c) for c in reversed(f.all_coeffs())], m)
                  for f, m in factors if f.degree() > 0)


def route_factors(M):
    """_charpoly_factors of the integer-scaled M, checked to be in ascending
    multiplicity."""
    factors = _charpoly_factors(M.integer_scaled()[1])
    assert [m for _, m in factors] == sorted(m for _, m in factors)
    return sorted(factors)


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
            for params in product(*(r.values() for r in default_grid(w))):
                M = matrix_from_coeffs(*palindromic_coeffs(w, params))
                assert route_factors(M) == sympy_factors(M), (w, params)

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
                          for row in M.entries], (n, n), QQ)
        ref = sympy.Poly(A.charpoly(), x, domain="QQ")
        L, B = M.integer_scaled()
        c = _charpoly([row[1:n - 1] for row in B[1:n - 1]])
        q = sympy.Poly([QQ(ck, L ** (n - 2 - k)) for k, ck in reversed(list(enumerate(c)))],
                       x, domain="QQ")
        first, last = (sympy.Poly([1, -QQ(e.numerator, e.denominator)], x, domain="QQ")
                       for e in (M.entries[0][0], M.entries[-1][-1]))
        assert ref == first * last * q

    def test_yun_runs_only_where_the_central_block_repeats_a_root(self, monkeypatch):
        # the paper's cell and (1/10, 1/5), whose corner 1/10 is a root of
        # the square-free central block, stay off Yun's split; (0, 1/5)
        # has a double central root and takes it
        calls = []

        def counted(p):
            calls.append(p)
            return _squarefree_factors(p)

        monkeypatch.setattr(localmatrix, "_squarefree_factors", counted)
        for params, fallback in [((F(-1, 10), F(3, 10)), False),
                                 ((F(1, 10), F(1, 5)), False),
                                 ((F(0), F(1, 5)), True)]:
            calls.clear()
            M = w6_matrix(*params)
            assert route_factors(M) == sympy_factors(M), params
            assert len(calls) == (1 if fallback else 0), params


class TestModularCertificate:
    @pytest.mark.parametrize("roots, squarefree", [
        ((), True),
        ((3,), True),
        ((1, 2, -3, 0), True),
        ((1, 1, -2), False),
        ((0, 0), False),
        ((5, -7, 5, -7, 2), False),
    ])
    def test_products_of_linear_factors(self, roots, squarefree):
        c = [1]
        for r in roots:  # c <- c * (y - r)
            c = [0] + c
            for k in range(len(c) - 1):
                c[k] -= r * c[k + 1]
        assert _squarefree_mod_p(c) is squarefree

    def test_square_mod_the_prime_is_not_certified(self):
        # y (y - P) is square-free over the rationals but y^2 mod P: the
        # certificate only ever proves, and the route falls back to Yun
        assert not _squarefree_mod_p([0, -_PRIME, 1])

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    def test_never_certifies_a_square(self, roots):
        c = sympy.Poly(sympy.prod([Y - r for r in roots]), Y, domain="ZZ")
        ints = [int(k) for k in reversed(c.all_coeffs())]
        if _squarefree_mod_p(ints):
            assert len(set(roots)) == len(roots)
        else:
            assert len(set(roots)) < len(roots)


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
        even, odd = _flip_blocks(C)
        assert (len(even), len(odd)) == ((m + 1) // 2, m // 2)
        ref = sympy_charpoly(C)
        assert _central_charpoly(C) == _charpoly(C) == ref
        # the J-symmetry check: the J-even and J-odd characteristic
        # polynomials, each from sympy, multiply to the whole one
        x = sympy.Symbol("x")
        halves = [sympy.Poly(list(reversed(sympy_charpoly(b))), x) for b in (even, odd)]
        assert halves[0] * halves[1] == sympy.Poly(list(reversed(ref)), x)

    def test_not_centrosymmetric(self):
        assert _flip_blocks([[1, 2], [3, 1]]) is None
        assert _flip_blocks([[1, 2, 3], [4, 5, 6], [3, 2, 1]]) is None  # middle row
        assert _flip_blocks([[1, 2, 3], [4, 5, 4], [3, 2, 1]]) is not None

    @pytest.mark.parametrize("support_min, run, orders", [
        (-6, W13R, [11]),                                # asymmetric: unsplit
        (*palindromic_coeffs(6, (F(-1, 10), F(3, 10))), [2, 2]),
        (*palindromic_coeffs(7, (F(1, 20), F(-1, 10))), [3, 2]),
        (*palindromic_coeffs(8, (F(1, 10), F(0), F(-1, 10))), [3, 3]),
    ])
    def test_route_by_symmetry(self, monkeypatch, support_min, run, orders):
        seen = []

        def counted(B):
            seen.append(len(B))
            return _charpoly(B)

        monkeypatch.setattr(localmatrix, "_charpoly", counted)
        M = matrix_from_coeffs(support_min, run)
        assert route_factors(M) == sympy_factors(M)
        assert seen == orders


class TestScaleInvariance:
    """spectra of (L, B) and of (kL, kB) agree bit for bit: a factor's
    coefficients in x are the same rationals whatever the scale."""

    @pytest.mark.parametrize("params", [
        (F(0), F(1, 5)),       # a double central root: Yun's split
        (F(1, 10), F(1, 5)),   # the corner 1/10 is a central root
        (F(-1, 10), F(3, 10)),  # the paper's complex pair
        (F(-1, 8), F(1, 8)),   # D = 0
    ])
    @pytest.mark.parametrize("k", [2, 3, 7, 10 ** 9 + 7])
    def test_width6_cells(self, params, k):
        L, B = w6_matrix(*params).integer_scaled()
        base, scaled = localmatrix.spectra(
            [(L, B), (k * L, [[k * e for e in row] for row in B])])
        assert packed(scaled.eigenvalues) == packed(base.eigenvalues)
        assert scaled == base

    @given(drawn_runs(), st.integers(2, 10 ** 6))
    def test_drawn_masks(self, drawn, k):
        L, B = matrix_from_coeffs(*drawn).integer_scaled()
        base, scaled = localmatrix.spectra(
            [(L, B), (k * L, [[k * e for e in row] for row in B])])
        assert packed(scaled.eigenvalues) == packed(base.eigenvalues)
