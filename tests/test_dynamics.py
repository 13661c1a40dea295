import cmath
import math
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import fraction_entries, local_matrix, mask_matrix
from subdiv import dynamics
from subdiv.dynamics import (MAX_K, ModeOverflowError, TrajectoryOverflowError,
                             _fixed_point_numerators, _fixed_point_transients, _null_vector,
                             _precision, _transient_numerators, decompose_modes, iterate_local,
                             write_trajectory_csv)
from subdiv.localmatrix import LocalMatrix, matrix_from_coeffs
from subdiv.masks import catalog_get

A_MATRIX = mask_matrix(catalog_get("a").mask)

# second standard basis vector: the first one is itself an eigenvector of
# the width-6 matrix (its first column is -e1/10), so it excites no other mode
E1 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestIterateLocal:
    def test_constant_vector_is_fixed(self):
        traj = iterate_local((1.0,) * 6, A_MATRIX, 10)
        d = traj.distances
        assert all(x < 1e-12 for x in d)
        assert all(d[k + 1] <= d[k] for k in range(10))

    def test_width6_convergence_is_not_monotone(self):
        d = iterate_local(E1, A_MATRIX, 30).distances
        assert any(d[k + 1] > d[k] for k in range(30))

    def test_two_point_distances_halve(self):
        M = mask_matrix(catalog_get("c").mask)
        traj = iterate_local((1.0, 0.0, 0.0), M, 30)
        d = traj.distances
        for k in range(1, 15):
            assert abs(d[k + 1] / d[k] - 0.5) < 1e-9

    def test_non_convergent_matrix_reported(self):
        # eigenvalue 1 is simple with left and right eigenvectors e2, so the
        # eigenvalue-1 component is v0[1] e2 = 0 and the transients are the
        # states, which have no limit: the first entry doubles each step
        A = local_matrix(1, ((2, 0), (0, 1)))
        traj = iterate_local((1.0, 0.0), A, 5)
        assert traj.transients.dtype == np.float64
        assert traj.transients.tolist() == [[2.0 ** k, 0.0] for k in range(6)]

    def test_float_overflow_is_named_error(self):
        # the width-8 mask of eight 3s: transient 287 of e4 is the first past
        # the float range, and the mode magnitudes of transient 286 already
        # are (TestDecomposeModes.test_mode_overflow_is_named_error), so
        # K = 285 is the last K with a report
        M = matrix_from_coeffs(-4, (F(3),) * 8)
        v0 = tuple(float(i == 4) for i in range(8))
        assert first_overflow(v0, M, 300) == 287
        with pytest.raises(TrajectoryOverflowError, match="transient 287 leaves the float range"):
            iterate_local(v0, M, 300)
        with pytest.raises(OverflowError):
            iterate_local(v0, M, 287)
        with pytest.raises(ModeOverflowError, match="^the mode magnitudes of transient 286 "):
            iterate_local(v0, M, 286)
        traj = iterate_local(v0, M, 285)
        assert len(traj.distances) == 286 and math.isfinite(traj.distances[-1])

    def test_K_bound_checked_before_any_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("trajectory work before the K bound was checked")

        monkeypatch.setattr(dynamics, "_transient_numerators", fail)
        monkeypatch.setattr(dynamics, "_null_vector", fail)
        identity = local_matrix(1, np.identity(6, dtype=int).tolist())
        for A in (A_MATRIX, identity):
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, MAX_K + 1)
            with pytest.raises(ValueError, match="K must be <= %d" % MAX_K):
                iterate_local(E1, A, 10 ** 9)

    def test_refuses_k_below_1_and_an_unknown_norm(self):
        # the CLI reaches the first (dynamics --K 0, test_cli) but not the
        # second: --norm takes only inf and 2
        with pytest.raises(ValueError, match="^K must be >= 1$"):
            iterate_local(E1, A_MATRIX, 0)
        with pytest.raises(ValueError, match="^norm must be 'inf' or '2'$"):
            iterate_local(E1, A_MATRIX, 5, norm="1")


def sympy_null_space(A: LocalMatrix, left: bool):
    """The null space of A^T - I (left) or of A - I by sympy, as a list of
    sympy column vectors."""
    n, E = A.n, fraction_entries(A)
    return sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(E[j][i] if left else E[i][j]))
                        - int(i == j)).nullspace()


def sympy_limit(A: LocalMatrix, v0):
    """The eigenvalue-1 component z of v0 in Fractions, the limit of the
    states A^k v0 when every other eigenvalue has modulus below 1, from
    sympy's left and right null spaces of A - I: (u . v0 / u . w) w where
    both are one line and u . w != 0, else 0."""
    left, right = sympy_null_space(A, True), sympy_null_space(A, False)
    if len(left) != 1 or len(right) != 1 or (left[0].T * right[0])[0] == 0:
        return [F(0)] * A.n
    u, w = left[0], right[0]
    c = sum(x * sympy.Rational(str(F(y))) for x, y in zip(u, v0)) / (u.T * w)[0]
    return [F(int(x.p), int(x.q)) for x in (c * w)]


def entry_matrix(entries) -> LocalMatrix:
    """The LocalMatrix of a matrix of rationals, L the lcm of their
    denominators."""
    L = math.lcm(*(F(e).denominator for row in entries for e in row))
    return local_matrix(L, [[int(F(e) * L) for e in row] for row in entries])


def reference_trajectory(v0, A: LocalMatrix, K: int, norm: str):
    """The former Fraction loop, kept as an oracle: (transients,
    distances), with the eigenvalue-1 component z solved by sympy; it is 0
    where eigenvalue 1 is absent, not simple or defective."""
    _, transients = exact_transients(v0, A, K)
    diffs = [np.array([float(x) for x in t]) for t in transients]
    if norm == "inf":
        dists = [float(np.max(np.abs(d))) for d in diffs]
    else:
        dists = [float(np.linalg.norm(d)) for d in diffs]
    return diffs, dists


def exact_transients(v0, A: LocalMatrix, K: int):
    """(z, [v_k - z for k = 0..K]) in Fractions, the states v_k stepped in
    Fractions and z v0's eigenvalue-1 component by sympy (sympy_limit)."""
    n, E = A.n, fraction_entries(A)
    vq = [F(x) for x in v0]
    z = sympy_limit(A, vq)
    states_q = [vq]
    for _ in range(K):
        prev = states_q[-1]
        states_q.append([sum((E[i][j] * prev[j] for j in range(n)), F(0))
                         for i in range(n)])
    return z, [[x - y for x, y in zip(s, z)] for s in states_q]


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


@st.composite
def unbalanced_matrices(draw):
    """Local matrices of rational matrices of orders 2-6 whose rows do not
    all sum to 1.  Half of them are given eigenvalue 1 on a drawn right
    eigenvector w, not 1: a column j with w_j != 0 is moved so that A w = w,
    and z is then often nonzero."""
    n = draw(st.integers(2, 6))
    A = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        w = draw(st.lists(rationals, min_size=n, max_size=n).filter(any))
        j = next(i for i, x in enumerate(w) if x)
        Aw = [sum(a * b for a, b in zip(row, w)) for row in A]
        for i, row in enumerate(A):
            row[j] += (w[i] - Aw[i]) / w[j]
    if all(sum(row) == 1 for row in A):
        A[0][0] += 1
    return entry_matrix(A)


class TestExactTrajectory:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), local_matrices(), st.integers(1, 40), st.sampled_from(["inf", "2"]))
    def test_matches_fraction_reference(self, data, A, K, norm):
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        traj = iterate_local(v0, A, K, norm)
        transients, dists = reference_trajectory(v0, A, K, norm)
        assert bits(traj.transients) == bits(transients)
        assert bits(traj.distances) == bits(dists)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), unbalanced_matrices(), st.integers(1, 40))
    def test_unbalanced_matrices_match_sympy(self, data, A, K):
        # the transients are A^k (v0 - z), z the eigenvalue-1 component from
        # sympy's null spaces, stepped by sympy and each correctly rounded
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        Am = sympy.Matrix(A.n, A.n, lambda i, j: sympy.Rational(int(A.B[i][j]), A.L))
        t = sympy.Matrix([sympy.Rational(str(F(x) - y))
                          for x, y in zip(v0, sympy_limit(A, v0))])
        rows = []
        for _ in range(K + 1):
            rows.append([float(F(int(x.p), int(x.q))) for x in t])
            t = Am * t
        assert bits(iterate_local(v0, A, K).transients) == bits(rows)

    @settings(deadline=None)
    @given(local_matrices())
    def test_null_vectors_match_sympy(self, A):
        check_null_vectors(A)

    @pytest.mark.parametrize("entries, nullity, z", [
        (((F(1, 2), 0), (0, F(1, 3))), 0, (0, 0)),                            # no eigenvalue 1
        (((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))), 2, (0, 0, 0)),  # two eigenvectors
        (((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))), 1, (0, 0)),   # Jordan block at 1: u . w = 0
        # u = w = (1, -1), which sums to 0, and the rows sum to 2
        (((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))), 1, (F(-1, 4), F(1, 4))),
    ], ids=["absent", "double", "defective", "sum-zero"])
    def test_null_vector_none_unless_the_nullity_is_1(self, entries, nullity, z):
        A = entry_matrix(entries)
        assert len(sympy_null_space(A, True)) == len(sympy_null_space(A, False)) == nullity
        assert (_null_vector(A.L, A.B) is None) == (_null_vector(A.L, A.B.T) is None) == \
            (nullity != 1)
        check_null_vectors(A)
        v0 = (F(1, 2), F(1), F(3, 4))[:A.n]
        assert sympy_limit(A, v0) == limit(A, v0) == list(z)
        assert iterate_local(v0, A, 1).transients[0].tolist() == \
            [float(x - y) for x, y in zip(v0, z)]

    P = 2 ** 64 + 13

    @pytest.mark.parametrize("entries", [
        # A[0][0] = 1 zeroes the first pivot of B^T - L I: a row swap
        ((1, F(1, 2), F(1, 4)), (0, F(1, 2), F(1, 4)), (0, 0, F(1, 2))),
        ((1, F(1, 3), 0, F(-1, 3)), (F(1, 2), 0, F(1, 2), 0), (0, F(1, 4), F(1, 2), F(1, 4)),
         (F(1, 5), F(2, 5), 0, F(2, 5))),
        # L and the numerators of B past 2^63
        ((1 - F(1, P), F(1, P)), (F(3, P + 2), 1 - F(3, P + 2))),
        ((F(P - 1, P), F(1, 2 * P), F(1, 2 * P), 0), (F(1, 3), F(1, 3), F(1, 3), 0),
         (0, F(2, P + 2), F(P, P + 2), 0), (F(1, P), 0, 0, F(P - 1, P))),
    ], ids=["swap-3", "swap-4", "big-2", "big-4"])
    def test_null_vector_swap_and_big_entries(self, entries):
        A = entry_matrix(entries)
        assert _null_vector(A.L, A.B) is not None
        check_null_vectors(A)

    def test_catalog_null_vectors(self):
        # a balanced mask: its right eigenvector is 1, and the limit f 1
        assert _null_vector(A_MATRIX.L, A_MATRIX.B) is not None
        check_null_vectors(A_MATRIX)
        z = sympy_limit(A_MATRIX, E1)
        assert z == [z[0]] * A_MATRIX.n and z[0] != 0

    @settings(deadline=None)
    @given(local_matrices(),
           st.lists(st.builds(F, st.integers(-36, 36), st.integers(1, 12)),
                    min_size=12, max_size=12))
    def test_transient_steps_are_exact(self, A, t0):
        # any start steps as t_{k+1} = A t_k, whether or not it is a
        # transient, and whether or not the rows of A sum to 1
        steps = _transient_numerators(t0[:A.n], A.L, A.B)
        T, common = next(steps)
        t = [F(y, common) for y in T]
        assert t == t0[:A.n]
        for _ in range(2):  # the second step meets den_1 = den_0 L
            T, common = next(steps)
            assert common > 0 and all(type(y) is int for y in T)
            t = [sum((e * x for e, x in zip(row, t)), F(0)) for row in fraction_entries(A)]
            assert [F(y, common) for y in T] == t

    # MASK4U of test_cli: a width-4 mask from -6 whose rows of A do not sum
    # to 1 and whose eigenvalue 1 is simple
    W4U = matrix_from_coeffs(-6, tuple(map(F, ("1", "-2/3", "-1/3", "-1/2"))))

    def test_the_limit_is_fixed_where_f_1_is_not(self):
        # f 1, f = u . v0 / u . 1, the limit on a balanced mask, is not fixed
        # by this A; the limit z is, exactly, and the transients about it decay
        A = self.W4U
        E = fraction_entries(A)
        v0 = [F(i == A.n // 2) for i in range(A.n)]
        z = limit(A, v0)
        assert z == sympy_limit(A, v0) and z[0] != 0
        assert [sum((e * x for e, x in zip(row, z)), F(0)) for row in E] == z
        u = _null_vector(A.L, A.B)
        f = sum((a * b for a, b in zip(u, v0)), F(0)) / sum(u)
        assert z != [f] * A.n
        assert [sum(row, F(0)) * f for row in E] != [f] * A.n
        traj = iterate_local(v0, A, 300)
        assert traj.transients[0].tolist() == [float(x - y) for x, y in zip(v0, z)]
        assert traj.distances[-1] < 1e-20


def check_null_vectors(A: LocalMatrix):
    """_null_vector on B and on B^T against sympy's left and right null
    spaces of A - I: None unless the null space is one line, and otherwise
    a nonzero vector of Python ints on that line."""
    for B, left in ((A.B, True), (A.B.T, False)):
        got, basis = _null_vector(A.L, B), sympy_null_space(A, left)
        if len(basis) != 1:
            assert got is None
            continue
        s = [F(int(x.p), int(x.q)) for x in basis[0]]
        assert all(type(x) is int for x in got) and any(got)
        k = next(i for i, x in enumerate(s) if x)
        assert [x * s[k] for x in got] == [y * got[k] for y in s]


def limit(A: LocalMatrix, v):
    """The eigenvalue-1 component z of v from _null_vector's left and right
    eigenvectors u and w, one elimination each: (u . v / u . w) w, or 0
    where either is None or u . w = 0."""
    u, w = _null_vector(A.L, A.B), _null_vector(A.L, A.B.T)
    uw = 0 if u is None or w is None else sum(a * b for a, b in zip(u, w))
    if uw == 0:
        return [F(0)] * A.n
    c = sum((a * F(b) for a, b in zip(u, v)), F(0)) / uw
    return [c * b for b in w]


def dense_numerators(t, L, B):
    """The transient recurrence with one dense product B T a step, kept as
    an oracle for the band step."""
    common = math.lcm(*(x.denominator for x in t))
    Bq = np.array(B, dtype=object)
    T = np.array([int(x * common) for x in t], dtype=object)
    while True:
        yield T, common
        T = Bq @ T
        common *= L


@st.composite
def integer_matrices(draw):
    """(L, B) for square integer B of orders 1-9, dense or mostly zero;
    half of them with rows that sum to L."""
    n = draw(st.integers(1, 9))
    entry = draw(st.sampled_from([st.integers(-60, 60), st.sampled_from([0, 0, 0, -7, 1, 13])]))
    B = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    L = draw(st.integers(1, 9))
    if draw(st.booleans()):
        for i, row in enumerate(B):
            row[i] += L - sum(row)
    return L, B


V0 = [F(k - 2, k + 3) for k in range(12)]


class TestBandStep:
    """_transient_numerators steps B T on a band of each row's nonzeros: the
    integers are those of the dense product, for any integer B."""

    # zero rows, a lone nonzero at either end of a row, a band as wide as
    # the matrix, and rows that sum to L
    @settings(deadline=None)
    @given(st.one_of(integer_matrices(), local_matrices().map(lambda A: (A.L, A.B))),
           st.lists(st.builds(F, st.integers(-36, 36), st.integers(1, 12)),
                    min_size=12, max_size=12))
    @example((7, ((0, 0), (0, 0))), V0)
    @example((7, ((0, 0, 0), (5, 0, 0), (0, 0, -2))), V0)
    @example((7, ((1, 0, 0, 0), (0, 0, 0, 3), (2, 0, 0, 0), (0, 0, 0, 0))), V0)
    @example((7, ((1, 2, 3), (4, 5, 6), (7, 8, 9))), V0)
    @example((7, ((3, 0, 4), (0, 7, 0), (5, 2, 0))), V0)
    def test_band_step_is_the_dense_product(self, LB, t0):
        L, B = LB[0], np.array(LB[1], dtype=object)  # the examples give nested tuples
        band, dense = (steps(t0[:len(B)], L, B) for steps in (_transient_numerators,
                                                              dense_numerators))
        for _ in range(6):
            (T, common), (T_dense, common_dense) = next(band), next(dense)
            assert T.tolist() == T_dense.tolist() and common == common_dense


def exact_floats(t, L, B, K):
    """The exact route's floats of the transients 0..K from t: each one
    integer division of _transient_numerators; None where one leaves the
    float range."""
    try:
        return [[y / common for y in T]
                for T, common in islice(_transient_numerators(t, L, B), K + 1)]
    except OverflowError:
        return None


def exact_rows(v0, A: LocalMatrix, K: int):
    """exact_floats of the transients 0..K of iterate_local(v0, A, K), from
    v0 minus its limit, or None."""
    vq = [F(x) for x in v0]
    return exact_floats([x - y for x, y in zip(vq, limit(A, vq))], A.L, A.B, K)


@st.composite
def fixed_point_inputs(draw):
    """(t, L, B, K, P): integer B of orders 1-10 with entries up to 2^20,
    L up to 2^40 (half of the time near the largest row sum of |B|, where
    the transients neither overflow nor underflow at once), rows that sum
    to L (eigenvalue 1) or not, a rational start t, K <= 400, and P the
    one iterate_local picks or a fixed one."""
    n = draw(st.integers(1, 10))
    top = 2 ** draw(st.integers(1, 20))
    entry = draw(st.sampled_from([st.integers(-top, top), st.sampled_from([0, 0, 0, -7, 1, 13])]))
    B = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    R = max(1, max(sum(map(abs, row)) for row in B))
    L = draw(st.one_of(st.integers(1, 2 ** 40),
                       st.builds(lambda p, q: max(1, R * p // q),
                                 st.integers(4, 12), st.integers(4, 12))))
    if draw(st.booleans()):
        for i, row in enumerate(B):
            row[i] += L - sum(row)
    B = np.array(B, dtype=object)
    small = st.builds(F, st.integers(-2 ** 30, 2 ** 30), st.integers(1, 2 ** 10))
    t = draw(st.lists(small, min_size=n, max_size=n))
    K = draw(st.integers(1, 400))
    P = draw(st.sampled_from([None, 0, 60, 200, 600, 960]))
    if P is None:
        A = local_matrix(L, B)
        P = _precision(A, K, np.linalg.eig(A.as_float())[0])
    return t, L, B, K, P


class TestFixedPointRoute:
    """_fixed_point_numerators keeps its error bound, and
    _fixed_point_transients returns either None or the exact route's
    floats, bit for bit; None sends iterate_local to the exact route."""

    @settings(max_examples=100, deadline=None)
    @given(fixed_point_inputs())
    def test_error_bound_holds(self, inputs):
        # |2^P t_k - X_k| < E_k, with t_k = T_k / common exactly
        t, L, B, K, P = inputs
        steps = zip(_fixed_point_numerators(t, L, B, P), _transient_numerators(t, L, B))
        for (X, E), (T, common) in islice(steps, K + 1):
            assert all(abs((t << P) - x * common) < E * common for x, t in zip(X, T))

    @settings(max_examples=150, deadline=None)
    @given(fixed_point_inputs())
    def test_none_or_the_exact_floats(self, inputs):
        t, L, B, K, P = inputs
        got = _fixed_point_transients(t, L, B, K, P)
        if got is not None:
            assert got.shape == (K + 1, len(B))
            assert bits(got) == bits(exact_floats(t, L, B, K))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), local_matrices(), st.integers(1, 300), st.sampled_from(["inf", "2"]))
    def test_iterate_local_gives_the_exact_floats(self, data, A, K, norm):
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        ref = exact_rows(v0, A, K)
        if ref is None:
            with pytest.raises(TrajectoryOverflowError):
                iterate_local(v0, A, K, norm)
            return
        try:
            traj = iterate_local(v0, A, K, norm)
        except ModeOverflowError:
            # finite transients whose mode magnitudes are not: those of the
            # exact floats overflow too
            with pytest.raises(ModeOverflowError):
                decompose_modes(*np.linalg.eig(A.as_float()), np.array(ref))
            return
        assert bits(traj.transients) == bits(ref)

    @staticmethod
    def spy(monkeypatch):
        """The results of the _fixed_point_transients calls iterate_local makes."""
        results = []

        def spied(*args):
            results.append(_fixed_point_transients(*args))
            return results[-1]

        monkeypatch.setattr(dynamics, "_fixed_point_transients", spied)
        return results

    # an asymmetric mask drawn like the benchmark's user masks: rational,
    # balanced, L = 5040
    WIDE = matrix_from_coeffs(-3, tuple(map(F, ("-1/16", "-1/18", "1/5", "2741/2520", "61/80",
                                                   "-3/28", "1/10", "3/40"))))

    def test_route_by_size(self, monkeypatch):
        # K = 300 is tried and returns the exact floats; K = 10 is not tried,
        # its exact operands being shorter than twice P
        results = self.spy(monkeypatch)
        v0 = tuple(float(i == self.WIDE.n // 2) for i in range(self.WIDE.n))
        traj = iterate_local(v0, self.WIDE, 300)
        assert len(results) == 1 and results[0] is not None
        ref = exact_rows(v0, self.WIDE, 300)
        assert bits(traj.transients) == bits(ref)
        iterate_local(v0, self.WIDE, 10)
        assert len(results) == 1

    def test_zero_transients_fall_back(self, monkeypatch):
        # v0 = 1 on a balanced mask is its own limit: every transient is an
        # exact 0, which no bracket float(X - E) == float(X + E) holds
        assert limit(self.WIDE, [F(1)] * self.WIDE.n) == [F(1)] * self.WIDE.n
        t = [F(0)] * self.WIDE.n
        assert _fixed_point_transients(t, self.WIDE.L, self.WIDE.B, 300, 400) is None
        results = self.spy(monkeypatch)
        traj = iterate_local((1.0,) * self.WIDE.n, self.WIDE, 300)
        assert results == [None]
        assert traj.transients.dtype == np.float64
        assert traj.transients.tolist() == [[0.0] * self.WIDE.n] * 301

    def test_growing_mask_keeps_its_overflow_error(self, monkeypatch):
        # catalog a times 1.1 (1 + 10^-6): the states grow by about 1.1 a
        # step, and from 1e300 they pass the float range before K = 300.
        # The fixed-point route is tried, overflows and returns None; the
        # exact route names the step.
        a = catalog_get("a").mask
        M = matrix_from_coeffs(a.support_min, tuple(c * F(1100001, 1000000) for c in a.coeffs))
        v0 = tuple(1e300 * (k + 1) for k in range(M.n))
        k = first_overflow(v0, M, 300)
        results = self.spy(monkeypatch)
        with pytest.raises(TrajectoryOverflowError,
                           match="^transient %d leaves the float range; the trajectory is "
                                 "finite up to K = %d$" % (k, k - 1)):
            iterate_local(v0, M, 300)
        assert results == [None] and 0 < k < 300

    # a palindromic width-10 mask from -4, L = 2400: its P passes 1024 bits
    # before K = 1000, where the exact operands are longer still
    W10 = matrix_from_coeffs(-4, tuple(map(F, ("-1/20", "1/30", "-1/25", "3/32", "2311/2400",
                                                  "2311/2400", "3/32", "-1/25", "1/30",
                                                  "-1/20"))))

    @pytest.mark.parametrize("K", [1000, 2000])
    def test_precision_past_the_float_range_falls_back(self, monkeypatch, K):
        # X +- E leaves the float range at the first bracket: the route is
        # tried once, returns None, and the exact route gives the floats
        v0 = tuple(float(i == self.W10.n // 2) for i in range(self.W10.n))
        assert _precision(self.W10, K, np.linalg.eig(self.W10.as_float())[0]) > 1024
        results = self.spy(monkeypatch)
        traj = iterate_local(v0, self.W10, K)
        assert results == [None]
        assert bits(traj.transients) == bits(exact_rows(v0, self.W10, K))

    # a palindromic width-7 mask of the benchmark's user masks (um-w7-11):
    # its subdominant eigenvector is J-odd, J the flip, so the centred start
    # does not excite it, and its transients decay at the slowest J-even mode
    W7 = matrix_from_coeffs(-3, tuple(map(F, ("1/16", "1/10", "7/16", "4/5", "7/16", "1/10",
                                                 "1/16"))))

    def test_symmetric_start_sizes_p_from_the_even_modes(self, monkeypatch):
        # P from the whole spectrum ran short of that decay before k = 300,
        # a bracket failed and the exact route ran; from the J-even modes
        # the fixed-point route answers alone
        def fail(*args):
            raise AssertionError("the exact route ran")

        monkeypatch.setattr(dynamics, "_transient_numerators", fail)
        v0 = tuple(float(i == self.W7.n // 2) for i in range(self.W7.n))
        assert v0 == v0[::-1]
        traj = iterate_local(v0, self.W7, 300)
        assert bits(traj.transients) == bits(reference_trajectory(v0, self.W7, 300, "inf")[0])

    def test_symmetric_start_without_two_even_modes_keeps_the_spectrum(self, monkeypatch):
        # I of order 2 is its own flip, and V = I has no column nearer the
        # J-even subspace than the J-odd one: P is sized from all of w
        sizes = []
        monkeypatch.setattr(dynamics, "_precision",
                            lambda M, K, w: sizes.append(len(w)) or _precision(M, K, w))
        traj = iterate_local((0.0, 0.0), local_matrix(1, ((1, 0), (0, 1))), 300)
        assert sizes == [2] and traj.transients.dtype == np.float64
        assert traj.transients.tolist() == [[0.0, 0.0]] * 301

    def test_subnormal_transients_fall_back(self):
        # A = I / 2 halves the states (no eigenvalue 1: z = 0), from
        # 2^-1000 (1 + 2^-59).  State 23 is the first below the normal range,
        # and the route gives None from K = 23 on.  State 75 shows why: it
        # rounds to 2^-1074, while its 53-bit float 2^-1075 scaled by 2^-P
        # rounds again, to 0.
        L, B = 2, np.identity(2, dtype=object)
        v = [F(2 ** 59 + 1, 2 ** 1059), F(3, 2 ** 1000)]
        got = _fixed_point_transients(v, L, B, 22, 1200)
        assert bits(got) == bits(exact_floats(v, L, B, 22))
        assert _fixed_point_transients(v, L, B, 23, 1200) is None
        assert _fixed_point_transients(v, L, B, 75, 1200) is None
        assert exact_floats(v, L, B, 75)[-1][0] == math.ulp(0.0)
        assert math.ldexp(float(2 ** 125 + 2 ** 66), -1200) == 0.0

    def test_small_p_fails_part_of_the_way(self):
        # at P = 100 the bracket holds for the first steps and then fails,
        # as the transients decay into the bound
        vq = [F(x) for x in E1]
        args = [x - y for x, y in zip(vq, limit(A_MATRIX, vq))], A_MATRIX.L, A_MATRIX.B
        fails = next(K for K in range(1, 301) if _fixed_point_transients(*args, K, 100) is None)
        assert 1 < fails < 300
        assert bits(_fixed_point_transients(*args, fails - 1, 100)) == \
            bits(exact_floats(*args, fails - 1))
        P = _precision(A_MATRIX, 300, np.linalg.eig(A_MATRIX.as_float())[0])
        assert bits(_fixed_point_transients(*args, 300, P)) == bits(exact_floats(*args, 300))


class TestTwoNormRows:
    """The 2-norm distances, one stacked product of each row with itself,
    against np.linalg.norm a row, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 24), st.integers(1, 300))
    def test_stacked_dot_is_the_row_loop(self, data, w, K):
        coeffs = data.draw(st.lists(rationals.filter(bool), min_size=w, max_size=w))
        A = matrix_from_coeffs(-w // 2, coeffs)
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        try:
            traj = iterate_local(v0, A, K, "2")
        except (TrajectoryOverflowError, ModeOverflowError):
            return
        assert bits(traj.distances) == bits([scaled_norm(np.array(d)) for d in traj.transients])


class TestTwoNormRange:
    """2-norm distances of rows whose squares pass the float range: A keeps
    the first entry and halves and mixes the other two, so eigenvalue 1 is
    simple with fixed point 0 when v0 starts with 0."""
    A = local_matrix(2, ((2, 0, 0), (0, 1, 0), (0, 1, 1)))

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
        traj = iterate_local(E1, A_MATRIX, 30)
        pairs = [m.eigenvalue for m in traj.modes if m.coefficients is None]
        mu = max(pairs, key=abs)
        rho, theta = abs(mu), cmath.phase(mu)
        assert abs(rho - math.sqrt(6) / 5) < 1e-12
        assert abs(theta - math.atan(math.sqrt(2) / 2)) < 1e-12

    def test_complex_pair_contracts_by_modulus(self):
        traj = iterate_local(E1, A_MATRIX, 30)
        pair = [m for m in traj.modes if m.coefficients is None][0]
        mags = pair.magnitudes
        for k in range(len(mags) - 1):
            if mags[k] > 1e-12:
                assert abs(mags[k + 1] / mags[k] - math.sqrt(6) / 5) < 1e-9

    def test_negative_mode_alternates(self):
        K = 30
        traj = iterate_local(E1, A_MATRIX, K)
        neg = [m for m in traj.modes
               if m.coefficients is not None and abs(m.eigenvalue.real + 0.1) < 1e-9]
        assert neg
        excited = [m for m in neg if max(m.magnitudes) > 1e-9]
        assert excited
        for m in excited:
            c = m.coefficients
            # flips at every step where the coefficient is resolvable: it
            # underflows 1e-12 near k = 12, after which projection
            # cross-talk noise (~1e-24) owns the sign
            resolvable = [k for k in range(K) if abs(c[k]) > 1e-12 and abs(c[k + 1]) > 1e-12]
            assert len(resolvable) >= 10
            assert all((c[k] > 0) != (c[k + 1] > 0) for k in resolvable)
            for k in range(K):
                assert abs(c[k + 1] - (-0.1) * c[k]) < 1e-9

    def test_real_spectrum_has_no_rotation(self):
        M = mask_matrix(catalog_get("c").mask)
        traj = iterate_local((1.0, 0.0, 0.0), M, 10)
        assert all(m.coefficients is not None for m in traj.modes)

    def test_mode_overflow_is_named_error(self):
        # the width-8 mask of eight 3s: transient 286 of e4 is finite, but
        # its coordinates in the eigenbasis are not (the solve gives inf and
        # nan), so its mode magnitudes cannot be printed
        M = matrix_from_coeffs(-4, (F(3),) * 8)
        v0 = tuple(float(i == 4) for i in range(8))
        D = np.array(exact_rows(v0, M, 286))
        assert np.isfinite(D).all()
        message = ("^the mode magnitudes of transient 286 leave the float range; they are "
                   "finite up to K = 285$")
        with pytest.raises(ModeOverflowError, match=message):
            decompose_modes(*np.linalg.eig(M.as_float()), D)
        with pytest.raises(ModeOverflowError, match=message):
            iterate_local(v0, M, 286)
        modes = iterate_local(v0, M, 285).modes
        assert all(math.isfinite(x) for m in modes for x in m.magnitudes)

    def test_pair_magnitude_overflow_at_step_0(self):
        # a quarter turn: the pair's two coefficients are finite, their
        # hypot |d| = 1.5e308 * sqrt(2) is not
        w, V = np.linalg.eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ModeOverflowError,
                           match="^the mode magnitudes of transient 0 leave the float range$"):
            decompose_modes(w, V, np.array([[1.5e308, 1.5e308]]))

    def test_defective_matrix_skips_decomposition(self):
        A = local_matrix(2, ((1, 2), (0, 1)))  # a Jordan block at 1/2
        traj = iterate_local((1.0, 1.0), A, 5)
        assert traj.modes is None
        assert len(traj.distances) == 6

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 2: decompose_modes decides "
                       "defectiveness from cond(V) > 1e10, and a Jordan block that LAPACK "
                       "splits into a complex pair passes at cond(V) = 3.2e8")
    def test_defective_cell_on_the_d0_curve_is_skipped(self):
        # (a, b) = (8/21, 1/3) lies on the width-6 family's D = 0 curve: a
        # Jordan block of order 2 at 1/7, which comes back as the pair
        # 0.142857 +- 3.66e-9i, whose k = 0 magnitude is 5.96e7 against a
        # d_0 of 0.68
        A = matrix_from_coeffs(-2, tuple(map(F, ("8/21", "1/3", "2/7", "2/7", "1/3", "8/21"))))
        exact = sympy.Matrix(A.B) / A.L
        assert not exact.is_diagonalizable() and exact.eigenvals()[sympy.Rational(1, 7)] == 2
        v0 = tuple(float(i == A.n // 2) for i in range(A.n))
        traj = iterate_local(v0, A, 3)
        assert traj.modes is None


def reference_decompose(A, transients, tol=1e-9):
    """The former per-state loop on the float matrix A, kept as an oracle:
    one np.linalg.solve per transient, scalar np.hypot and np.abs per
    coefficient, and complex pairs found by the former tolerance search
    (|Im| > tol, partner within 1e-8).  None where the matrix is defective
    and the decomposition is skipped."""
    w, V = np.linalg.eig(A)
    if np.linalg.cond(V) > 1e10:
        return None
    coeffs = np.array([np.linalg.solve(V, d) for d in transients])
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
            modes.append((complex(rep), True, mags, None))
        else:
            cj = np.real(coeffs[:, j])
            modes.append((complex(mu.real, 0.0), False, tuple(float(abs(c)) for c in cj),
                          tuple(float(c) for c in cj)))
    return modes


def mode_bits(modes):
    return [(bits([m[0].real, m[0].imag]), m[1], bits(m[2]),
             None if m[3] is None else bits(m[3])) for m in modes]


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
    """The float states v_{k+1} = A v_k, k = 0..K, one row a step: the
    transients about the fixed point 0."""
    states = [np.array(v0, dtype=float)]
    for _ in range(K):
        states.append(A @ states[-1])
    return np.array(states)


class TestDecomposeBitIdentity:
    """The stacked solve and array-wide magnitudes and distances against the
    former per-state loop, bit for bit."""

    def check(self, A: LocalMatrix, v0, K, norm):
        """iterate_local(v0, A, K, norm) against the former loops on the
        exact floats of its transients: its modes, or the ModeOverflowError
        they give, and its distances."""
        D = exact_rows(v0, A, K)
        self.check_modes(A.as_float(), D, lambda: iterate_local(v0, A, K, norm).modes)
        try:
            traj = iterate_local(v0, A, K, norm)
        except ModeOverflowError:
            return
        assert bits(traj.transients) == bits(D)
        rows = [np.array(d) for d in traj.transients]
        if norm == "inf":
            dists = [float(np.max(np.abs(d))) for d in rows]
        else:
            dists = [scaled_norm(d) for d in rows]
        assert bits(traj.distances) == bits(dists)
        assert traj.distances.dtype == traj.transients.dtype == np.float64
        assert all(x.dtype == np.float64 for m in traj.modes or ()
                   for x in (m.magnitudes, m.coefficients) if x is not None)

    @staticmethod
    def check_modes(A, D, modes):
        """modes(), the modes of the transients D of the float matrix A,
        against the former per-state loop, bit for bit."""
        # the former tolerance and LAPACK's conjugate order pair the same
        # eigenvalues unless some |Im| lies in (0, 1e-9], as when LAPACK
        # splits a double real eigenvalue: it then reports a complex pair,
        # which the oracle finds at tol = 0
        w = np.linalg.eig(A)[0]
        ref = reference_decompose(A, D, 0.0 if any(0 < abs(mu.imag) <= 1e-9 for mu in w)
                                  else 1e-9)
        if ref is not None and not all(map(math.isfinite, (x for m in ref for x in m[2]))):
            # a magnitude the former loop gave as inf or nan is an error,
            # named by the first transient that has one
            k = min(k for m in ref for k, x in enumerate(m[2]) if not math.isfinite(x))
            with pytest.raises(ModeOverflowError, match="transient %d " % k):
                modes()
            return
        got = modes()
        if ref is None:
            assert got is None
        else:
            assert mode_bits([(m.eigenvalue, m.coefficients is None, m.magnitudes,
                               m.coefficients) for m in got]) == \
                mode_bits(ref)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), mixed_spectrum_matrices(), st.integers(1, 300))
    def test_float_matrices(self, data, A, K):
        v0 = data.draw(st.lists(st.floats(-4, 4), min_size=len(A), max_size=len(A)))
        D = float_trajectory(A, v0, K)
        self.check_modes(A, D, lambda: decompose_modes(*np.linalg.eig(A), D))

    # a matrix with an eigenvalue past 1 can leave the float range within
    # 300 steps: the trajectory is then an error, and the modes of a
    # trajectory near the edge may overflow in the solve
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.data(), local_matrices(), st.integers(1, 300), st.sampled_from(["inf", "2"]))
    def test_rational_matrices(self, data, A, K, norm):
        v0 = data.draw(st.lists(dyadic, min_size=A.n, max_size=A.n))
        if exact_rows(v0, A, K) is None:
            k = first_overflow(v0, A, K)
            with pytest.raises(TrajectoryOverflowError) as exc:
                iterate_local(v0, A, K, norm)
            assert k is not None and "transient %d " % k in str(exc.value)
            return
        self.check(A, v0, K, norm)

    @pytest.mark.parametrize("norm", ["inf", "2"])
    def test_width6_scheme(self, norm):
        traj = iterate_local(E1, A_MATRIX, 300, norm)
        assert any(m[1] for m in reference_decompose(A_MATRIX.as_float(), traj.transients))
        self.check(A_MATRIX, E1, 300, norm)


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
        modes = decompose_modes(*np.linalg.eig(A), float_trajectory(A, np.ones(len(A)), 3))
        if modes is None:
            return
        assert [(m.eigenvalue, m.coefficients is None) for m in modes] == \
            [(complex(mu), mu.imag > 0) for mu in w if mu.imag >= 0]


class TestTrajectoryCsv:
    def test_columns(self, tmp_path):
        traj = iterate_local(E1, A_MATRIX, 5)
        path = tmp_path / "traj.csv"
        with open(path, "w") as f:
            write_trajectory_csv(traj, f)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("k,d_k,")
        assert len(lines) == 7
        assert len(lines[1].split(",")) == 2 + len(traj.modes)
