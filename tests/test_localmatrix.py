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

from closed_forms import w5_closed_form, w6_closed_form
from conftest import fraction_entries, mask_matrix
from subdiv import localmatrix
from subdiv.localmatrix import (_CERT_PRIME, _PRIMES, Spectrum, _block_charpolys,
                                _centrosymmetric, _certified, _charpolys, _discriminants,
                                _flip_stacks, _gcd_mod, _polyval, _roots_of_stack,
                                _row_products, _squarefree_split, local_stack,
                                eigenvalues, matrix_from_coeffs,
                                palindromic_classes, w6_discriminant)
from subdiv.masks import Mask, catalog_get
from subdiv.search import family, palindromic_coeffs


def scaled_run(width, params, den):
    """The run of palindromic_coeffs(width, params) as numerators over den."""
    return tuple(int(x * den) for x in palindromic_coeffs(width, params)[1])


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


def common_stack(Ms):
    """(L, S) of local matrices of one order: L the lcm of their scales and
    S the (N, n, n) stack of their integer-scaled matrices over it, the
    arguments spectra takes."""
    L = math.lcm(*(M.L for M in Ms))
    return L, np.stack([M.B * (L // M.L) for M in Ms])


def central_charpolys(C):
    """det(yI - C) of each matrix of an (N, m, m) stack of central blocks,
    by spectra's choice: the J-block product when every block is
    centrosymmetric, whole-order Faddeev-LeVerrier otherwise."""
    return _row_products(*_block_charpolys(C)) if _centrosymmetric(C).all() else _charpolys(C)


def w6_matrix(a, b):
    a, b = F(a), F(b)
    c = 1 - a - b
    return matrix_from_coeffs(-2, (a, b, c, c, b, a))


PROP2_EIGS = [1, F(-1, 10), F(-1, 10), F(2, 5),
              complex(0.4, np.sqrt(2) / 5), complex(0.4, -np.sqrt(2) / 5)]


class TestBuild:
    def test_width6_matrix_matches_printed_form(self):
        M = mask_matrix(catalog_get("a").mask)
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
        M = mask_matrix(catalog_get("c").mask)
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
        M = mask_matrix(mask)
        assert M.L == math.lcm(*(c.denominator for c in mask.coeffs)) == 10
        assert all(type(b) is int for row in M.B for b in row)

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            mask_matrix(Mask(0, (F(2),)))

    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    def test_stack_rows_are_each_runs_entries(self, runs):
        # one home for the layout: matrix_from_coeffs takes local_stack of
        # its one run, and each matrix of a stack is its run's on its own
        n = len(runs[0])
        S = local_stack(runs)
        assert S.shape == (len(runs), n, n)
        for run, B in zip(runs, S):
            assert np.array_equal(matrix_from_coeffs(0, run).B, B)
            assert B.tolist() == [[run[2 * j - i] if 0 <= 2 * j - i < n else 0 for j in range(n)]
                                  for i in range(n)]
            assert all(type(b) is int for row in B.tolist() for b in row)

    def test_matrix_is_its_stack_row_read_only(self):
        # B is local_stack's own row of Python ints, and no caller can
        # change it
        mask = catalog_get("a").mask
        M = matrix_from_coeffs(mask.support_min, mask.coeffs)
        assert isinstance(M.B, np.ndarray) and M.B.dtype == object
        assert np.array_equal(M.B, local_stack([[int(c * M.L) for c in mask.coeffs]])[0])
        assert not M.B.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            M.B[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            M.B[1] += 1
        assert M.B[0, 0] == -1 and M.B[1].tolist() == [0, 3, 8, -1, 0, 0]

    def test_row_sums_are_one_for_catalog(self):
        for name in "abcd":
            M = mask_matrix(catalog_get(name).mask)
            assert all(sum(row) == 1 for row in fraction_entries(M))


class TestEigenvalues:
    def test_width6_scheme_spectrum(self):
        sp = eigenvalues(mask_matrix(catalog_get("a").mask))
        match_multiset(sp.eigenvalues, PROP2_EIGS, 1e-9)

    def test_conjugate_closure(self):
        rng = random.Random(5)
        for _ in range(20):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(6)]
            vals = list(eigenvalues(matrix_from_coeffs(-2, coeffs)).eigenvalues)
            match_multiset(vals, [v.conjugate() for v in vals], 1e-8)

    def test_sorted_by_modulus(self):
        sp = eigenvalues(mask_matrix(catalog_get("d").mask))
        mods = [abs(v) for v in sp.eigenvalues]
        assert mods == sorted(mods, reverse=True)
        assert abs(sp.subdominant_modulus - mods[1]) < 1e-15


def reference_roots(cf):
    """The per-factor root finder that _roots_of_stack replaced: np.roots,
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


def roots_by_length(rows):
    """The roots of each row, in input order: one _roots_of_stack call per
    row length, on the rows of that length."""
    out = [None] * len(rows)
    for n in {len(r) for r in rows}:
        ks = [k for k, r in enumerate(rows) if len(r) == n]
        for k, roots in zip(ks, _roots_of_stack(np.array([rows[k] for k in ks])).tolist()):
            out[k] = roots
    return out


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
    """_roots_of_stack equals the per-row np.roots path bit for bit."""

    @given(row_stacks())
    @example([[1.0, -3.0, 2.0], [1.0, 0.0, 1.0], [1.0, 0.0], [1.0, -1.0, 0.0],
              [1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, -6.0, 11.0, -6.0]])
    def test_bit_identical_to_np_roots(self, rows):
        got = roots_by_length(rows)
        for row, roots in zip(rows, got):
            assert packed(roots) == packed(reference_roots(row)), row

    @settings(max_examples=15)
    @given(st.data())
    def test_mixed_lengths_and_zeros_in_one_call(self, data):
        # every degree 1-8 with each count of appended zero roots 0-3 it
        # allows, 1-3 rows a shape, shuffled, one call per length: rows of
        # one length with different zero counts in one call, and one zero
        # count at several lengths.  One eigvals per shape (length, trailing
        # zeros; a drawn row may end in zeros of its own) that has a
        # companion, and each row's roots, in input order, bit-identical to
        # np.roots of the row
        rows = [data.draw(monic_rows(d - z)) + [0.0] * z
                for d in range(1, 9) for z in range(min(3, d) + 1)
                for _ in range(data.draw(st.integers(1, 3)))]
        rows = data.draw(st.permutations(rows))
        shapes = {(len(r), len(r) - 1 - max(j for j, x in enumerate(r) if x)) for r in rows}
        assert len({n for n, _ in shapes}) == 8 and len({z for _, z in shapes}) >= 4
        calls = []
        eigvals = np.linalg.eigvals
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", lambda C: calls.append(C.shape) or eigvals(C))
            got = roots_by_length(rows)
        assert sorted(c[1] for c in calls) == sorted(n - 1 - z for n, z in shapes if n - 1 > z)
        for row, roots in zip(rows, got):
            assert packed(roots) == packed(reference_roots(row)), row

    def test_real_and_complex_rows_share_a_shape(self):
        # y^2 - 3y + 2 has real roots and y^2 + 1 a complex pair: one stacked
        # eigvals call returns both, each bit for bit np.roots of its row
        rows = [[1.0, -3.0, 2.0], [1.0, 0.0, 1.0]]
        got = _roots_of_stack(np.array(rows)).tolist()
        assert all(packed(g) == packed(reference_roots(r)) for g, r in zip(got, rows))

    def test_spectra_of_many_matrices_equal_single_calls(self):
        for Ms in ([w6_matrix(F(a, 10), F(b, 10)) for a in range(-5, 6) for b in range(-5, 6)],
                   [w5_mask(F(a, 8)) for a in range(-8, 9)]):
            for M, sp in zip(Ms, localmatrix.spectra(*common_stack(Ms))):
                assert sp == eigenvalues(M)


class TestClassify:
    """The spectral class is decided in Spectrum.from_values at SPECTRAL_TOL."""

    def test_width6_scheme(self):
        sp = eigenvalues(mask_matrix(catalog_get("a").mask))
        assert sp.has_complex and sp.negative_real_count == 2
        assert sp.convergence_spectral_ok

    def test_cubic_bspline(self):
        sp = eigenvalues(mask_matrix(catalog_get("d").mask))
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
        # over a common denominator den the scan's J-odd discriminant is
        # den^2 D, an integer
        den = 2 * k * a.denominator * b.denominator
        run = scaled_run(6, (a, b), den)
        [got] = palindromic_classes(den, local_stack([run]))[2].tolist()
        assert type(got) is int and got == den * den * w6_discriminant(a, b)


class TestComplexRegion:
    """The width-6 family has a complex pair exactly where D(a, b) < 0."""

    def test_width6_scheme_is_complex(self):
        assert w6_discriminant(F(-1, 10), F(3, 10)) < 0

    def test_positive_a_example_is_real(self):
        assert w6_discriminant(F(1, 10), F(3, 10)) == F(1, 5)

    def test_agrees_with_discriminant_sign(self):
        # the closed form's class, at SPECTRAL_TOL, agrees with the sign:
        # on this grid a nonzero D is at least 1/10^4 in size
        rng = random.Random(23)
        for _ in range(100):
            a = F(rng.randint(-50, 50), 100)
            b = F(rng.randint(-50, 50), 100)
            assert w6_closed_form(a, b).has_complex == (w6_discriminant(a, b) < 0)

    def test_agrees_with_numerical_spectrum(self):
        rng = random.Random(29)
        for _ in range(40):
            a = F(rng.randint(-50, 50), 100)
            b = F(rng.randint(-50, 50), 100)
            if abs(w6_discriminant(a, b)) < F(1, 10 ** 10):
                continue
            sp = eigenvalues(w6_matrix(a, b))
            numc = max(abs(v.imag) for v in sp.eigenvalues) > 1e-7
            assert (w6_discriminant(a, b) < 0) == numc


class TestRowSumEigenvector:
    def test_ones_vector_is_fixed(self):
        for name in "abcd":
            M = mask_matrix(catalog_get(name).mask)
            ones = [F(1)] * M.n
            image = [sum(row[j] * ones[j] for j in range(M.n)) for row in fraction_entries(M)]
            assert image == ones

    def test_eigenvalue_one_present(self):
        for name in "abcd":
            sp = eigenvalues(mask_matrix(catalog_get(name).mask))
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
        grid = list(product(*(r.values() for r in family(w).grid)))
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
    """The product of integer coefficient lists, exact (np.convolve on
    Python ints)."""
    c = np.ones(1, dtype=object)
    for f in factors:
        c = np.convolve(c, np.array(f, dtype=object))
    return c.tolist()


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


def table_rows(table, N):
    """The factor list of each of the N rows of a _split_factors table of
    stacks (rows, m, F), in the table's order: [(coefficients from y^0 up,
    m)].  Each stack is checked to hold integer rows of one degree >= 1."""
    out = [[] for _ in range(N)]
    for rows, m, F in table:
        assert F.dtype == object and F.shape == (len(rows), F.shape[1]) and F.shape[1] > 1
        for i, f in zip(rows.tolist(), F.tolist()):
            assert all(type(x) is int for x in f)
            out[i].append((f, m))
    return out


def charpoly_factors(Bs):
    """The monic square-free factors of det(yI - B), in ascending
    multiplicity, of each matrix of a stack of one order, by the route:
    central_charpolys, then _split_factors' table."""
    S = np.array(Bs, dtype=object)
    n = S.shape[1]
    cs = central_charpolys(S[:, 1:n - 1, 1:n - 1])
    return table_rows(localmatrix._split_factors(cs, S), len(S))


def route_factors_of(Ms):
    """charpoly_factors of the integer-scaled Ms, local matrices of one
    order, in one stack; each checked to be in ascending multiplicity."""
    out = []
    for factors in charpoly_factors([M.B for M in Ms]):
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
            grid = list(product(*(r.values() for r in family(w).grid)))
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
        [c] = central_charpolys(B[None, 1:n - 1, 1:n - 1]).tolist()
        q = sympy.Poly([QQ(ck, L ** (n - 2 - k)) for k, ck in reversed(list(enumerate(c)))],
                       x, domain="QQ")
        first, last = (sympy.Poly([1, -QQ(e.numerator, e.denominator)], x, domain="QQ")
                       for e in (fraction_entries(M)[0][0], fraction_entries(M)[-1][-1]))
        assert ref == first * last * q

    def test_yun_runs_only_off_the_plain_path(self, monkeypatch):
        # the paper's cell, certified with no corner among its central
        # roots, stays off the modular split; (1/10, 1/5), whose corner 1/10
        # is a root of the square-free central block, and (0, 1/5), with a
        # double central root, each take it once, on the whole polynomial
        calls = []

        def counted(c, g, p):
            calls.append(len(c) - 1)
            return lift(c, g, p)

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", counted)
        for params, fallback in [((F(-1, 10), F(3, 10)), False),
                                 ((F(1, 10), F(1, 5)), True),
                                 ((F(0), F(1, 5)), True)]:
            calls.clear()
            M = w6_matrix(*params)
            assert route_factors(M) == sympy_factors(M), params
            assert calls == ([M.n] if fallback else []), params


def stacked_spectrum(M):
    """The Spectrum with every factor, linear ones included, root-solved by
    _roots_of_stack, as spectra did before linear factors skipped it."""
    L, B = M.L, M.B
    vals = []
    for f, mult in charpoly_factors([B])[0]:
        d = len(f) - 1
        [roots] = _roots_of_stack(np.array([[f[k] / L ** (d - k) for k in range(d, -1, -1)]])).tolist()
        vals += roots * mult
    return Spectrum.from_values(vals)


class TestLinearFactors:
    """A monic linear factor y + f0 over L gets its root -f0/L by one integer
    division, bit for bit the root the stacked eigvals and polish give."""

    @given(st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80))
    @example(0, 7)
    @example(-1, 3)
    def test_division_is_the_stacked_root(self, f0, L):
        assert packed([-f0 / L]) == packed(_roots_of_stack(np.array([[1.0, f0 / L]]))[0])

    @settings(max_examples=40)
    @given(drawn_runs())
    @example((-2, [F(0), F(1, 5), F(4, 5), F(4, 5), F(1, 5), F(0)]))  # w6 (0, 1/5)
    @example(palindromic_coeffs(6, (F(1, 10), F(1, 5))))               # triple 1/10
    def test_spectra_unchanged(self, drawn):
        M = matrix_from_coeffs(*drawn)
        assert packed(eigenvalues(M).eigenvalues) == packed(stacked_spectrum(M).eigenvalues)

    def test_no_linear_row_reaches_the_stacked_solve(self, monkeypatch):
        # the w6 grid has linear factors (the corners, and split central
        # roots) on every route: none reaches _roots_of_stack
        seen = []

        def recording(P):
            seen.append(P.shape[1])
            return _roots_of_stack(P)

        monkeypatch.setattr(localmatrix, "_roots_of_stack", recording)
        Ms = [w6_matrix(F(a, 10), F(b, 10)) for a in range(-5, 6) for b in range(-5, 6)]
        for M, sp in zip(Ms, localmatrix.spectra(*common_stack(Ms))):
            assert packed(sp.eigenvalues) == packed(stacked_spectrum(M).eigenvalues)
        assert seen and all(length > 2 for length in seen)


def reference_values(M):
    """Every eigenvalue of M, factor by factor (charpoly_factors) in
    ascending multiplicity: a non-linear factor by the per-factor np.roots
    and three np.polyval Newton steps (reference_roots), a linear one by
    the integer division -f0/L."""
    vals = []
    for f, mult in charpoly_factors([M.B])[0]:
        d = len(f) - 1
        roots = [-f[0] / M.L] if d == 1 else reference_roots(
            [f[k] / M.L ** (d - k) for k in range(d, -1, -1)])
        vals += roots * mult
    return vals


BIG_DEN = st.sampled_from([1, 3, 10, 2 ** 64 + 13])


@st.composite
def one_order_stacks(draw):
    """1-6 runs of one width 2-12, each palindromic (equal corners),
    asymmetric (unequal corners) or with equal ends on an asymmetric run,
    or zero at every odd place (a repeated central root), over
    denominators up to 2^64 + 13."""
    w = draw(st.integers(2, 12))
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(BIG_DEN)
        run = draw(st.lists(st.integers(-2 * den, 2 * den).map(lambda x: F(x, den)),
                            min_size=w, max_size=w))
        kind = draw(st.sampled_from(["palindromic", "asymmetric", "equal_ends", "odd_zero"]))
        if kind == "palindromic":
            run = run[:(w + 1) // 2] + run[:w // 2][::-1]
        elif kind == "equal_ends":
            run[-1] = run[0]
        elif kind == "odd_zero":
            run = [c if k % 2 == 0 else F(0) for k, c in enumerate(run)]
        runs.append((draw(st.integers(-w, 1)), run))
    return [matrix_from_coeffs(*r) for r in runs]


def route_values(Ms):
    """The eigenvalues of a stack of local matrices of one order by the
    route, over their common L: _eigenvalues' (N, n) array."""
    L, S = common_stack(Ms)
    n = S.shape[1]
    return localmatrix._eigenvalues(L, central_charpolys(S[:, 1:n - 1, 1:n - 1]), S)


class TestPlainRows:
    """The plain rows of a stack (certified, no corner among the central
    roots) are root-solved as one array, bit for bit what np.roots and
    np.polyval give factor by factor."""

    @settings(max_examples=60, deadline=None)
    @given(one_order_stacks())
    @example([w6_matrix(F(-1, 10), F(3, 10)), w6_matrix(F(0), F(1, 5)),    # plain, split
              w6_matrix(F(1, 10), F(1, 5)), w6_matrix(F(1, 7), F(2, 9))])  # corner root, plain
    @example([matrix_from_coeffs(-1, [F(1, 3), F(1), F(2, 3)]),             # order 3: a linear c
              matrix_from_coeffs(-1, [F(1, 2), F(1), F(1, 2)])])
    def test_bit_identical_to_the_per_factor_roots(self, Ms):
        got = route_values(Ms)
        assert got.shape == (len(Ms), Ms[0].n)
        for M, row in zip(Ms, got.tolist()):
            assert packed(row) == packed(reference_values(M))

    def test_both_corner_kinds_are_plain(self, monkeypatch):
        # equal corners (palindromic) and unequal ones, at orders 2-8, each
        # a plain row: its factors are arrays, so no row reaches Yun's split
        # (_yun_lift), and each row's order of roots is that of its factors
        def no_call(*args):
            raise AssertionError("a plain row reached Yun's split")

        Ms = [matrix_from_coeffs(-1, [F(1, 3), F(2, 3)]),
              matrix_from_coeffs(0, [F(1, 4), F(3, 4)]),
              matrix_from_coeffs(-1, [F(1, 3), F(1), F(2, 3)]),
              w6_matrix(F(-1, 10), F(3, 10)),
              matrix_from_coeffs(-2, [F(-1, 9), F(1, 3), F(5, 7), F(2, 3), F(1, 5), F(-1, 7)]),
              matrix_from_coeffs(*palindromic_coeffs(8, (F(-1, 20), F(1, 10), F(3, 20))))]
        for M in Ms:
            with monkeypatch.context() as mp:
                mp.setattr(localmatrix, "_yun_lift", no_call)
                [row] = route_values([M])
            assert packed(row) == packed(reference_values(M))
        corners = {(M.B[0][0] == M.B[-1][-1]) for M in Ms}
        assert corners == {True, False}


@st.composite
def mixed_kind_stacks(draw):
    """1-6 local matrices of one order 2-8, each of a kind drawn from:
    palindromic or equal ends on an asymmetric run (equal corners),
    asymmetric (unequal corners), zero at every odd place (orders >= 5: a
    repeated central root, which _certified leaves out), a corner that is
    a root of the central block (orders 3-6), and the w6 cell with a
    double central root."""
    n = draw(st.integers(2, 8))
    kinds = (["palindromic", "asymmetric", "equal_ends"] + ["odd_zero"] * (n >= 5)
             + ["corner_root"] * (3 <= n <= 6) + ["double_pair"] * (n == 6))
    Ms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        run = draw(st.lists(SMALL, min_size=n, max_size=n))
        if kind == "palindromic":
            run = run[:(n + 1) // 2] + run[:n // 2][::-1]
        elif kind == "equal_ends":
            run[-1] = run[0]
        elif kind == "odd_zero":
            run = [c if k % 2 == 0 else F(0) for k, c in enumerate(run)]
        elif kind == "double_pair":
            run = palindromic_coeffs(6, w6_double_pair(draw(st.integers(-15, 15))))[1]
        elif kind == "corner_root" and n == 3:  # c = y - run[1]
            run[1] = run[0]
        elif kind == "corner_root" and n == 4:
            # c = (y - r1)(y - r2) - r0 r3, zero at the corner r0
            r0 = run[0] or F(1)
            run = [r0, run[1], run[2], (r0 - run[1]) * (r0 - run[2]) / r0]
        elif kind == "corner_root" and n == 5:  # {1, 1/2, 1/2 - 2a, a, a}
            a = draw(st.sampled_from([F(1, 6), F(1, 2)]))
            run = [a, F(1, 2), 1 - 2 * a, F(1, 2), a]
        elif kind == "corner_root":
            run = palindromic_coeffs(6, (run[0], 2 * run[0]))[1]
        Ms.append(matrix_from_coeffs(draw(st.integers(-n, 1)), run))
    return Ms


WIDE = st.integers(-2 ** 1100, 2 ** 1100) | st.integers(-2 ** 70, 2 ** 70) | st.integers(-9, 9)


@st.composite
def corner_rows(draw, d):
    """(c, a, b): a monic integer c of degree d, from y^0 up, and two
    corners, each drawn as a root of c or not."""
    a, b = draw(WIDE), draw(WIDE)
    roots = [r for r in (a, b) if draw(st.booleans())][:d]
    tail = draw(st.lists(WIDE, min_size=d - len(roots), max_size=d - len(roots)))
    return times(tail + [1], *([-r, 1] for r in roots)), a, b


class TestExactPolyval:
    """_polyval on object stacks is exact in Python ints: _split_factors'
    corner test evaluates every row's central charpoly at both of its
    corners in one call."""

    @given(st.integers(0, 6).flatmap(lambda d: st.lists(corner_rows(d), min_size=1, max_size=5)))
    def test_equals_sympy(self, rows):
        cs = np.array([c for c, _, _ in rows], dtype=object)
        corners = np.array([(a, b) for _, a, b in rows], dtype=object)
        got = _polyval(cs[:, ::-1], corners).tolist()
        want = [[int(sympy.Poly(list(reversed(c)), Y).eval(x)) for x in (a, b)]
                for c, a, b in rows]
        assert got == want
        assert all(type(v) is int for row in got for v in row)

    @pytest.mark.parametrize("a", [2 ** 63 + 1, 2 ** 1000 + 1])
    def test_a_corner_root_is_exactly_zero(self, a):
        # c = (y - a)(y - a - 1) at the corners a (a root) and a + 2, where
        # a float evaluation has no bit left of either value
        c = times([-a, 1], [-a - 1, 1])
        got = _polyval(np.array([c], dtype=object)[:, ::-1], np.array([[a, a + 2]], dtype=object))
        assert got.tolist() == [[0, 2]]


class TestOneSolveLoop:
    """_eigenvalues is one loop over the factor table: whatever mix of row
    kinds a stack holds, each row's eigenvalues are bit for bit, and in
    column order, the per-factor reference."""

    @settings(max_examples=50, deadline=None)
    @given(mixed_kind_stacks())
    @example([w6_matrix(F(-1, 10), F(3, 10)),                       # plain, equal corners
              matrix_from_coeffs(-2, [F(-1, 9), F(1, 3), F(5, 7), F(2, 3), F(1, 5), F(-1, 7)]),
              w6_matrix(F(0), F(1, 5)),                             # not certified
              w6_matrix(F(1, 10), F(1, 5))])                        # certified, corner root
    @example([w6_matrix(F(0), F(1, 5)), w6_matrix(F(1, 10), F(1, 5))])  # no plain row
    @example([w6_matrix(F(-1, 10), F(3, 10)), w6_matrix(F(1, 7), F(2, 9))])  # only plain rows
    @example([matrix_from_coeffs(0, [F(1, 3), F(2, 3)]), matrix_from_coeffs(0, [F(1, 2)] * 2)])
    @example([matrix_from_coeffs(-1, [F(1, 3), F(1, 3), F(2, 3)]),  # order 3: corner root
              matrix_from_coeffs(-1, [F(1, 2), F(1), F(1, 2)])])
    def test_bit_identical_to_the_per_factor_roots(self, Ms):
        got = route_values(Ms)
        assert got.shape == (len(Ms), Ms[0].n)
        for M, row in zip(Ms, got.tolist()):
            assert packed(row) == packed(reference_values(M))

    def test_zero_equal_corner_is_positive_zero(self):
        # the plain corners 0, 0 of (0, 1/3, 1/2, 0) are the root of y - 0,
        # (-0) / L = +0.0; -(0 / L) would be -0.0
        M = matrix_from_coeffs(-1, [F(0), F(1, 3), F(1, 2), F(0)])
        [row] = route_values([M])
        assert packed(row) == packed(reference_values(M))
        assert packed(row[2:]) == packed([0.0, 0.0])

    def test_classes_of_multiplicity_one_two_and_three(self):
        # w6 (0, 1/2), L = 2: y - 2, (y - 1)^2 and y^3, in ascending
        # multiplicity, each class's roots written m times
        M = w6_matrix(F(0), F(1, 2))
        assert [m for _, m in charpoly_factors([M.B])[0]] == [1, 2, 3]
        [row] = route_values([M])
        assert packed(row) == packed(reference_values(M)) == packed([1.0, 0.5, 0.5, 0.0, 0.0, 0.0])


class TestSpectraOfAStack:
    """spectra(L, S) of one stack over one L: each matrix's Spectrum is, bit
    for bit, that of eigenvalues on the matrix alone, whether every central
    block of the stack is centrosymmetric (the J-block product) or not (the
    whole order on every row)."""

    PALINDROMIC = w6_matrix(F(-1, 10), F(3, 10))
    ASYMMETRIC = matrix_from_coeffs(-2, [F(-1, 9), F(1, 3), F(5, 7), F(2, 3), F(1, 5), F(-1, 7)])

    @settings(max_examples=40, deadline=None)
    @given(mixed_kind_stacks())
    @example([PALINDROMIC, ASYMMETRIC, w6_matrix(F(0), F(1, 5)), w6_matrix(F(1, 10), F(1, 5))])
    @example([matrix_from_coeffs(-1, [F(1, 3), F(1), F(2, 3)]),
              matrix_from_coeffs(-1, [F(1, 2), F(1), F(1, 2)])])
    def test_equals_per_matrix_eigenvalues(self, Ms):
        for M, sp in zip(Ms, localmatrix.spectra(*common_stack(Ms))):
            want = eigenvalues(M)
            assert packed(sp.eigenvalues) == packed(want.eigenvalues)
            assert sp == want

    def test_central_route_follows_the_whole_stack(self, monkeypatch):
        # the palindromic cell alone takes two J-blocks of order 2; with an
        # asymmetric matrix in its stack every row takes order 4
        seen = []

        def counted(S):
            seen.append(S.shape[1])
            return charpolys(S)

        charpolys = localmatrix._charpolys
        monkeypatch.setattr(localmatrix, "_charpolys", counted)
        for Ms, orders in (([self.PALINDROMIC], [2, 2]),
                           ([self.PALINDROMIC, self.ASYMMETRIC], [4])):
            seen.clear()
            localmatrix.spectra(*common_stack(Ms))
            assert seen == orders


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
        # y (y - P) is square-free over the rationals but y^2 mod the
        # certificate's prime P = 2^31 - 1: the certificate leaves it out,
        # the Mignotte bound passes P, and Yun over the first table prime
        # returns c whole
        P = _CERT_PRIME
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
        # (sqrt(k) H)^k (Hadamard), so ||c||_1 <= (1 + sqrt(m) H)^m; the
        # corners are below H, so the whole polynomial w = c (y - a)(y - b)
        # of degree n = m + 2 has ||w||_2 <= H^2 ||c||_1, and twice the bound
        # 2^(n+1) (isqrt(||w||^2) + 1) has at most
        # (m + 2) bits + 2m + 4 + (m/2) log2 m bits
        top = _PRIMES[-1].bit_length() - 1
        for n in range(2, localmatrix.MAX_ORDER + 1):
            m = n - 2
            bits = localmatrix.MAX_CHARPOLY_BITS // max(m, 1)
            assert (m + 2) * bits + 2 * m + 4 + m / 2 * math.log2(max(m, 1)) < top, n
        # a width-24 palindromic mask at the cap, against the formula
        L = 2 ** 499 + 1
        rng = random.Random(24)
        half = [F(rng.randrange(-L + 1, L), L) for _ in range(12)]
        n, B = 24, matrix_from_coeffs(-11, half[::-1] + half).B
        [c] = central_charpolys(B[None, 1:n - 1, 1:n - 1]).tolist()
        w = times(c, [-B[0][0], 1], [-B[-1][-1], 1])
        bound = 2 ** len(w) * (math.isqrt(sum(x * x for x in w)) + 1)
        assert bound.bit_length() <= 24 * 500 + 44 + 4 + 11 * math.log2(22) < top

    def test_width_3_at_the_cap_splits_over_the_top_prime(self, monkeypatch):
        # (x, x, x) with x = 2^11000 - 1 has w = (y - x)^3, the largest
        # whole polynomial check_size lets through (33000-bit coefficients)
        x = 2 ** localmatrix.MAX_CHARPOLY_BITS - 1
        mask = Mask(-1, (F(x),) * 3)
        localmatrix.check_size(mask)
        primes = []

        def recorded(c, g, p):
            primes.append(p)
            return lift(c, g, p)

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", recorded)
        assert route_factors(mask_matrix(mask)) == [([-x, 1], 3)]
        assert primes == [_PRIMES[-1]]

    def test_table_primes_are_mersenne(self):
        # the Mersenne exponents of OEIS A000043 up to the table's top one
        a000043 = {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203,
                   2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497}
        assert list(_PRIMES) == sorted(set(_PRIMES))
        for p in _PRIMES:
            assert p == (1 << p.bit_length()) - 1 and p.bit_length() in a000043, p
        assert _PRIMES[-1] == 2 ** 44497 - 1


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
        split = _row_products(*_block_charpolys(stack(C)))
        assert split[0].tolist() == _charpolys(stack(C))[0].tolist() == ref
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

        M = matrix_from_coeffs(support_min, run)
        assert route_factors(M) == sympy_factors(M)
        monkeypatch.setattr(localmatrix, "_charpolys", counted)
        eigenvalues(M)
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


class TestStackedCharpoly:
    """The stacked Faddeev-LeVerrier on Python ints, against sympy."""

    @settings(max_examples=30, deadline=None)
    @given(central_stacks())
    @example(stack([[2 ** 64 + 5 * (i - j) ** 2 for j in range(4)] for i in range(4)],
                   [[2 ** 64 + i + 2 * j for j in range(4)] for i in range(4)]))
    @example(stack([[2 ** 64, 2 ** 64 + 1, 1], [7, 2 ** 65, 7], [1, 2 ** 64 + 1, 2 ** 64]]))
    def test_central_charpolys_match_sympy(self, S):
        # the whole order on every row, the J-block product on the
        # centrosymmetric ones
        got = _charpolys(S).tolist()
        assert got == [sympy_charpoly(C.tolist()) if len(C) else [1] for C in S]
        sym = _centrosymmetric(S)
        if sym.any():
            split = _row_products(*_block_charpolys(S[sym])).tolist()
            assert split == [got[i] for i in np.flatnonzero(sym).tolist()]

    @pytest.mark.parametrize("m", [0, 1])
    def test_central_orders_zero_and_one(self, m):
        S = np.full((3, m, m), 5, dtype=object)
        want = [[-5, 1] if m else [1]] * 3
        assert _charpolys(S).tolist() == _row_products(*_block_charpolys(S)).tolist() == want

    def test_wide_mask_past_int64_stays_exact(self, monkeypatch):
        # width 20 over the 17-bit L = 99991: the central charpoly passes
        # 2^63, and eigenvalues runs it on Python ints (only search.scan
        # chooses int64)
        M = matrix_from_coeffs(0, [F(7919 * k * k % 99991 - 49995, 99991) for k in range(1, 21)])
        seen = []

        def recorded(S):
            seen.append(S)
            return charpolys(S)

        charpolys = localmatrix._charpolys
        monkeypatch.setattr(localmatrix, "_charpolys", recorded)
        sp = eigenvalues(M)
        [S] = seen
        want = sympy_charpoly([row[1:19] for row in M.B[1:19]])
        assert S.dtype == object and charpolys(S)[0].tolist() == want
        assert M.L.bit_length() == 17 and max(map(abs, want)) >= 2 ** 63
        trace = sum(F(M.B[i][i], M.L) for i in range(20))
        assert abs(sum(sp.eigenvalues) - float(trace)) < 1e-9

    def test_a_trace_not_divisible_is_an_eigensolve_error(self):
        # a rational entry leaves tr(B M_1) = 1/2 not divisible by 1: the
        # check raises, and is no assert that python -O removes
        with pytest.raises(localmatrix.EigensolveError, match="not divisible by 1"):
            _charpolys(stack([[F(1, 2)]]))


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
                assert _gcd_mod(c, derivative(c), _CERT_PRIME) == [1], c

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


def object_certified(c, p):
    """_certified's remainder sequence run in Python ints (an object
    array) mod p, as it ran before it moved to int64 residues."""
    a = np.array(c, dtype=object) % p
    b = a[:, 1:] * np.arange(1, a.shape[1]) % p
    ok = np.ones(len(a), dtype=bool)
    for _ in range(a.shape[1] - 2, 0, -1):
        lb = b[:, -1:]
        t = lb * a[:, :-1]
        t[:, 1:] -= a[:, -1:] * b[:, :-1]
        t %= p
        r = (lb * t[:, :-1] - t[:, -1:] * b[:, :-1]) % p
        ok &= r[:, -1] != 0
        a, b = b, r
    return ok.tolist()


HUGE = 2 ** localmatrix.MAX_CHARPOLY_BITS


@st.composite
def certificate_rows(draw, d):
    """A monic row of degree d: coefficients up to MAX_CHARPOLY_BITS bits,
    or each one p - 1 mod the certificate's prime p (the largest residue,
    whose products reach 2^62), or small, or (d >= 2) a square f^2 g with
    f's coefficients up to 5400 bits."""
    kind = draw(st.sampled_from(["huge", "p-1", "small"] + ["square"] * (d >= 2)))
    if kind == "square":
        k = draw(st.integers(1, d // 2))
        f = draw(st.lists(st.integers(-2 ** 5400, 2 ** 5400), min_size=k, max_size=k)) + [1]
        g = draw(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=d - 2 * k, max_size=d - 2 * k))
        return times(f, f, g + [1])
    tail = {"huge": st.integers(-HUGE + 1, HUGE - 1),
            "p-1": st.integers(-2 ** 300, 2 ** 300).map(lambda j: j * _CERT_PRIME - 1),
            "small": st.integers(-9, 9)}[kind]
    return draw(st.lists(tail, min_size=d, max_size=d)) + [1]


class TestInt64Certificate:
    """The certificate in int64 residues mod 2^31 - 1 gives the verdicts of
    the same sequence in Python ints, and never clears a row with a
    repeated factor."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda d: st.lists(certificate_rows(d), min_size=1, max_size=5)))
    @example([[_CERT_PRIME - 1] * 8 + [1], [-1] * 8 + [1], [HUGE - 1] * 8 + [1]])
    @example([[2 * _CERT_PRIME - 1, _CERT_PRIME - 1, 1], [0, -_CERT_PRIME, 1]])
    def test_matches_python_int_residues(self, rows):
        assert _certified(np.array(rows, dtype=object)).tolist() == object_certified(rows, _CERT_PRIME)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8).flatmap(certificate_rows))
    def test_never_clears_a_row_sympy_finds_not_squarefree(self, c):
        poly = sympy.Poly(list(reversed(c)), Y, domain="ZZ")
        if sympy.gcd(poly, poly.diff(Y)).degree() > 0:
            assert _certified(np.array([c], dtype=object)).tolist() == [False], c


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
        L, S = M.L, stack(M.B)
        [base], [scaled] = localmatrix.spectra(L, S), localmatrix.spectra(k * L, k * S)
        assert packed(scaled.eigenvalues) == packed(base.eigenvalues)
        assert scaled == base

    @given(drawn_runs(), st.integers(2, 10 ** 6))
    def test_drawn_masks(self, drawn, k):
        M = matrix_from_coeffs(*drawn)
        L, S = M.L, stack(M.B)
        [base], [scaled] = localmatrix.spectra(L, S), localmatrix.spectra(k * L, k * S)
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
        run = scaled_run(6, (F(a, den), F(b, den)), den)
        S = local_stack([run])
        even, odd = _block_charpolys(S[:, 1:5, 1:5])
        D = den * den * w6_discriminant(F(a, den), F(b, den))
        assert _discriminants(odd).tolist() == [D]
        assert _discriminants(even).tolist() == [(a - b + den) ** 2]
        [(has_complex, max_imag, odd_disc)] = zip(*palindromic_classes(den, S))
        assert (has_complex, odd_disc) == (D < 0, D)
        assert (max_imag > 0) == has_complex

    def test_rejects_a_matrix_that_is_not_palindromic(self):
        S = local_stack([[1, 2, 3, 4, 5, 6]])
        with pytest.raises(ValueError, match="palindromic"):
            palindromic_classes(1, S)

    def test_order_above_8_is_refused_first(self, monkeypatch):
        # width 9 has a central block of order 7 and a J-even block of
        # order 4, with no closed-form discriminant: refused by name before
        # any block is built; width 8, with blocks of order 3, runs
        def no_call(*args):
            raise AssertionError("a block built for an order-9 stack")

        run8 = scaled_run(8, (F(1, 20), F(-2, 20), F(3, 20)), 20)
        has_complex, max_imag, _ = palindromic_classes(20, local_stack([run8]))
        assert len(has_complex) == len(max_imag) == 1
        monkeypatch.setattr(localmatrix, "_block_charpolys", no_call)
        with pytest.raises(ValueError, match="order <= 8, got 9"):
            palindromic_classes(2, local_stack([[1, -2, 3, 2, 2, 2, 3, -2, 1]]))
