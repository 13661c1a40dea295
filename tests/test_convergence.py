from fractions import Fraction as F

import pytest

from subdiv.convergence import (Verdict, certify, contractivity_norm,
                                difference_scheme, is_contractive,
                                necessary_conditions, NotFactorableError,
                                smooth_lift)
from subdiv.masks import Mask, catalog_get
from subdiv.symbols import LaurentPoly

ONE_PLUS_Z = LaurentPoly({0: 1, 1: 1})


class TestNecessaryConditions:
    def test_width6_scheme(self):
        assert necessary_conditions(catalog_get("a").mask) == (2, 0, True)

    def test_cubic_bspline(self):
        assert necessary_conditions(catalog_get("d").mask) == (2, 0, True)

    def test_constant_mask_fails(self):
        s1, sm1, ok = necessary_conditions(Mask(0, (F(1), F(1), F(1))))
        assert s1 == 3 and not ok

    def test_translation_invariance(self):
        mask = catalog_get("a").mask
        moved = Mask(mask.support_min + 4, mask.coeffs)
        assert necessary_conditions(moved)[0] == necessary_conditions(mask)[0]
        assert necessary_conditions(moved)[2] == necessary_conditions(mask)[2]


class TestDifferenceScheme:
    def test_width6_scheme(self):
        b = difference_scheme(catalog_get("a").mask)
        assert b == Mask(-2, tuple(map(F, ("-1/10", "2/5", "2/5", "2/5", "-1/10"))))

    def test_two_point_scheme(self):
        b = difference_scheme(catalog_get("c").mask)
        assert b == Mask(-1, (F(1, 2), F(1, 2)))

    def test_not_factorable(self):
        with pytest.raises(NotFactorableError):
            difference_scheme(Mask(0, (F(1), F(1), F(1))))

    def test_factor_round_trip(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            b = difference_scheme(mask)
            assert ONE_PLUS_Z * b.symbol() == mask.symbol()


class TestContractivityNorm:
    def test_width6_scheme(self):
        assert contractivity_norm(difference_scheme(catalog_get("a").mask)) == F(4, 5)

    def test_two_point_scheme(self):
        assert contractivity_norm(difference_scheme(catalog_get("c").mask)) == F(1, 2)

    def test_cubic_bspline(self):
        b = difference_scheme(catalog_get("d").mask)
        assert b.coeffs == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
        assert contractivity_norm(b) == F(1, 2)

    def test_is_contractive_is_strict(self):
        assert is_contractive(catalog_get("a").mask)        # norm 4/5
        assert not is_contractive(Mask(0, (F(1), F(1))))    # norm exactly 1


class TestCertify:
    def test_cubic_bspline_reaches_c2(self):
        report = certify(catalog_get("d").mask, 2)
        assert report.verdict is Verdict.C0_CERTIFIED
        assert report.certified_smoothness == 2

    def test_lifted_scheme_reaches_c1(self):
        report = certify(catalog_get("b").mask, 1)
        assert report.certified_smoothness == 1

    def test_divergent_mask(self):
        report = certify(Mask(0, (F(1), F(1), F(1))), 3)
        assert report.verdict is Verdict.DIVERGENT
        assert report.certified_smoothness is None

    def test_report_invariants(self):
        for name in "abcd":
            r = certify(catalog_get(name).mask, 4)
            assert r.necessary_ok == (r.s_at_1 == 2 and r.s_at_minus1 == 0)
            if r.verdict is Verdict.C0_CERTIFIED:
                assert r.necessary_ok and r.norm < 1

    def test_matches_documented_smoothness(self):
        for name in "abcd":
            rec = catalog_get(name)
            assert certify(rec.mask, 6).certified_smoothness == rec.smoothness

    def test_json_round_serializable(self):
        doc = certify(catalog_get("a").mask, 2).to_json()
        assert doc["norm"] == "4/5"
        assert doc["verdict"] == "C0Certified"


class TestSmoothLift:
    def test_width6_scheme(self):
        lifted = smooth_lift(catalog_get("a").mask)
        assert lifted == catalog_get("b").mask

    def test_two_point_scheme(self):
        lifted = smooth_lift(catalog_get("c").mask)
        assert lifted == Mask(-1, (F(1, 4), F(3, 4), F(3, 4), F(1, 4)))

    def test_zero_mask(self):
        zero = Mask(0, (F(0),))
        assert smooth_lift(zero) == zero

    def test_width_grows_and_class_flips(self):
        from subdiv.masks import classify_symmetry, SymmetryClass
        for name in "acd":
            mask = catalog_get(name).mask
            lifted = smooth_lift(mask)
            assert lifted.width == mask.width + 1
            before, after = classify_symmetry(mask), classify_symmetry(lifted)
            assert {before, after} == {SymmetryClass.PRIMAL, SymmetryClass.DUAL}

    def test_lift_then_difference_halves_symbol(self):
        for name in "acd":
            mask = catalog_get(name).mask
            b = difference_scheme(smooth_lift(mask))
            # equality up to the recentering translation applied by smooth_lift
            half = mask.symbol() * F(1, 2)
            shift = half.min_exp - b.symbol().min_exp
            assert b.symbol().shift(shift) == half

    def test_lift_raises_certified_smoothness(self):
        for name in "acd":
            mask = catalog_get(name).mask
            m = certify(mask, 4).certified_smoothness
            lifted = certify(smooth_lift(mask), 5).certified_smoothness
            assert lifted >= m + 1
