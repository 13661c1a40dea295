import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from subdiv.symbols import LaurentPoly

ONE_PLUS_Z = LaurentPoly({0: 1, 1: 1})

# symbol of the width-6 complex-eigenvalue scheme
S_A = LaurentPoly.from_coeffs([F(-1, 10), F(3, 10), F(4, 5), F(4, 5), F(3, 10), F(-1, 10)], -2)
# cubic B-spline symbol
S_D = LaurentPoly.from_coeffs([F(1, 8), F(4, 8), F(6, 8), F(4, 8), F(1, 8)], -2)
# two-point scheme symbol
S_C = LaurentPoly.from_coeffs([F(1, 2), F(1), F(1, 2)], -1)


def polys(lo, hi):
    """Strategy: polynomials with exponents in lo..hi, small rationals."""
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return st.dictionaries(st.integers(lo, hi), coeffs, max_size=6).map(LaurentPoly)


def rand_poly(rng, max_terms=6):
    c = {rng.randint(-5, 5): F(rng.randint(-20, 20), rng.randint(1, 9))
         for _ in range(rng.randint(0, max_terms))}
    return LaurentPoly(c)


class TestEval:
    def test_cubic_bspline_at_one(self):
        assert S_D(1) == 2

    def test_cubic_bspline_at_minus_one(self):
        assert S_D(-1) == 0

    def test_zero_polynomial(self):
        assert LaurentPoly()(1) == 0

    def test_z_zero_rejected(self):
        with pytest.raises(ValueError):
            S_D(0)


class TestMul:
    def test_lift_of_width6_scheme(self):
        half = ONE_PLUS_Z * F(1, 2)
        lifted = half * S_A
        expect = LaurentPoly.from_coeffs(
            [F(-1, 20), F(1, 10), F(11, 20), F(4, 5), F(11, 20), F(1, 10), F(-1, 20)], -2)
        assert lifted == expect

    def test_multiplicative_identity(self):
        assert S_A * LaurentPoly({0: 1}) == S_A

    def test_two_point_factorization(self):
        assert ONE_PLUS_Z * LaurentPoly({-1: F(1, 2), 0: F(1, 2)}) == S_C


class TestDivmod:
    @given(polys(0, 8), polys(0, 4).filter(bool))
    def test_division_identity(self, p, d):
        q, r = p.divmod(d)
        assert q * d + r == p
        assert not r or r.max_exp < d.max_exp

    def test_zero_root_is_not_a_unit(self):
        # x is no unit here: x^2 - x/5 = x (x - 1/5) exactly, and x^3
        # leaves the remainder x/25 on division by x^2 - x/5
        x = LaurentPoly({1: 1})
        p = LaurentPoly({2: 1, 1: F(-1, 5)})
        assert p.divmod(x) == (LaurentPoly({1: 1, 0: F(-1, 5)}), LaurentPoly())
        assert (x * x * x).divmod(p) == (LaurentPoly({1: 1, 0: F(1, 5)}),
                                         LaurentPoly({1: F(1, 25)}))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            S_A.divmod(ONE_PLUS_Z)
        with pytest.raises(ValueError):
            ONE_PLUS_Z.divmod(S_A)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE_PLUS_Z.divmod(LaurentPoly())


class TestGcd:
    @given(polys(0, 4), polys(0, 4), polys(0, 3).filter(bool))
    def test_gcd_divides_both(self, p, q, common):
        a, b = p * common, q * common
        assume(a or b)
        g = a.gcd(b)
        assert g[g.max_exp] == 1
        assert not a.divmod(g)[1] and not b.divmod(g)[1]
        assert not g.divmod(common)[1]  # greatest: the common factor divides it

    def test_gcd_of_zeros(self):
        assert LaurentPoly().gcd(LaurentPoly()) == LaurentPoly()

    def test_deriv(self):
        p = LaurentPoly({-1: 2, 0: 5, 3: F(1, 3)})
        assert p.deriv() == LaurentPoly({-2: -2, 2: 1})


class TestProperties:
    @given(polys(0, 5).filter(bool), polys(0, 5))
    def test_division_round_trip(self, d, q):
        assert (d * q).divmod(d) == (q, LaurentPoly())

    def test_eval_is_multiplicative_at_pm1(self):
        rng = random.Random(11)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            for z in (1, -1):
                assert (p * q)(z) == p(z) * q(z)

    def test_canonical_form_drops_zeros(self):
        p = LaurentPoly({0: 1, 3: 0, -2: F(0)})
        assert sorted(p.coeffs) == [0]
        assert p.min_exp == p.max_exp == 0
