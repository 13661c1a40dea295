"""Facts about mask symbols s(z) = sum a_k z^k, checked on the mask-level
operations that stand in for symbol arithmetic: certify(mask) evaluates
s(1) and s(-1) and divides by (1+z) (its difference mask), and smooth_lift
multiplies by (1+z)/2."""
from fractions import Fraction as F

from subdiv.convergence import certify, smooth_lift
from subdiv.masks import Mask, catalog_get


class TestEval:
    def test_cubic_bspline_at_one(self):
        assert certify(catalog_get("d").mask).s_at_1 == 2

    def test_cubic_bspline_at_minus_one(self):
        assert certify(catalog_get("d").mask).s_at_minus1 == 0


class TestMul:
    def test_lift_of_width6_scheme(self):
        lifted = smooth_lift(catalog_get("a").mask)
        assert lifted.coeffs == (F(-1, 20), F(1, 10), F(11, 20), F(4, 5),
                                 F(11, 20), F(1, 10), F(-1, 20))

    def test_two_point_factorization(self):
        # (1+z) * (1/2 z^-1 + 1/2) is the two-point symbol 1/2 z^-1 + 1 + 1/2 z
        two_point = catalog_get("c").mask
        assert two_point == Mask(-1, (F(1, 2), F(1), F(1, 2)))
        assert certify(two_point).difference_mask == Mask(-1, (F(1, 2), F(1, 2)))
