import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from conftest import Z, laurent_terms, sympy_symbol
from subdiv.convergence import (ConvergenceReport, Verdict, _over_one_plus_z, certify,
                                contractivity_norm, difference_scheme, is_contractive,
                                necessary_conditions, NotFactorableError,
                                smooth_lift)
from subdiv.masks import Mask, catalog_get, recenter

small = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def runs(draw):
    """Coefficient runs: a drawn run, or the run of (1+z) times a drawn run
    (exactly divisible), with up to two zeros padded at either end."""
    run = draw(st.lists(small, min_size=1, max_size=8))
    if draw(st.booleans()):
        run = [c + p for c, p in zip(run + [F(0)], [F(0)] + run)]
    if draw(st.booleans()):
        run = [F(0)] * draw(st.integers(0, 2)) + run + [F(0)] * draw(st.integers(0, 2))
    return run


def sympy_poly(coeffs):
    """The polynomial sum c_k z^k over QQ."""
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in coeffs])), Z, domain="QQ")


def sympy_run(p):
    """Coefficient run of a sympy polynomial, from z^0 up."""
    return [F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


def sympy_over_one_plus_z(coeffs):
    """Quotient run of the polynomial sum c_k z^k by 1+z from sympy, padded
    to len(coeffs) - 1 entries, or None when the remainder is nonzero."""
    q, r = sympy_poly(coeffs).div(sympy.Poly(Z + 1, Z, domain="QQ"))
    if not r.is_zero:
        return None
    return (sympy_run(q) + [F(0)] * len(coeffs))[:len(coeffs) - 1]


def parity_norm(support_min, coeffs):
    return max(sum((abs(c) for k, c in enumerate(coeffs, support_min) if k % 2 == e), F(0))
               for e in (0, 1))


def reference_certify(mask, target_m):
    """The certification ladder on sympy's long division: the symbol,
    moved to start at z^0, is divided by (1+z)/2 while the division is
    exact, and rung m is certified when its quotient q has q(1) = 2,
    q(-1) = 0 and q / (1+z) has parity norm < 1 (parities of the absolute
    index).  Returns (verdict, certified_smoothness, norm, difference mask)."""
    s1, sm1, ok = necessary_conditions(mask)
    if not ok:
        return Verdict.DIVERGENT, None, None, None
    lo = mask.support_min
    one_plus_z = sympy.Poly(Z + 1, Z, domain="QQ")

    def exact(p, d):
        q, r = p.div(d)
        return None if not r.is_zero else q

    b = exact(sympy_poly(mask.coeffs), one_plus_z)
    norm = parity_norm(lo, sympy_run(b))
    quotients = [sympy_poly(mask.coeffs)]
    while len(quotients) <= target_m:
        q = exact(quotients[-1], one_plus_z * sympy.QQ(1, 2))
        if q is None:
            break
        quotients.append(q)
    for m in range(len(quotients) - 1, -1, -1):
        q = quotients[m]
        if (q.eval(1) == 2 and q.eval(-1) == 0
                and parity_norm(lo, sympy_run(exact(q, one_plus_z))) < 1):
            return Verdict.C0_CERTIFIED, m, norm, Mask(lo, tuple(sympy_run(b)))
    return Verdict.INCONCLUSIVE, None, norm, Mask(lo, tuple(sympy_run(b)))


@st.composite
def ladder_masks(draw):
    """Masks with forced ((1+z)/2)^k factors, s(1) = 2 and s(-1) = 0 (a
    base run scaled to sum 1, times (1+z) and ((1+z)/2)^k), or a raw run."""
    base = draw(st.lists(small, min_size=1, max_size=5))
    assume(base[0] != 0 and base[-1] != 0)
    support_min = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        return Mask(support_min, tuple(base))
    assume(sum(base) != 0)
    s = sympy_symbol(0, [c / sum(base) for c in base]) * (1 + Z)
    for _ in range(draw(st.integers(0, 4))):
        s = s * (1 + Z) / 2
    terms = laurent_terms(s)
    return Mask(support_min, tuple(terms.get(e, F(0)) for e in range(max(terms) + 1)))


def fraction_certify(mask, target_m):
    """certify as it ran on Fraction runs, kept as an oracle: d[j] =
    s_a / (1+z)^j while exact, and rung m certified when the run 2^m d[m]
    divides by (1+z) to a parity norm < 1."""
    s1, sm1, ok = necessary_conditions(mask)
    if not ok:
        return ConvergenceReport(s1, sm1, False, None, None, Verdict.DIVERGENT, None)
    b = difference_scheme(mask)
    norm = contractivity_norm(b)
    d = [mask.coeffs]
    while len(d) <= target_m + 1 and (nxt := _over_one_plus_z(d[-1])) is not None:
        d.append(nxt)
    for m in range(len(d) - 2, -1, -1):
        if parity_norm(mask.support_min, _over_one_plus_z([c * 2 ** m for c in d[m]])) < 1:
            return ConvergenceReport(s1, sm1, True, b, norm, Verdict.C0_CERTIFIED, m)
    return ConvergenceReport(s1, sm1, True, b, norm, Verdict.INCONCLUSIVE, None)


@st.composite
def plain_masks(draw):
    """Masks of widths 1-8 with negative or positive support_min, nonzero
    ends and zero interior coefficients included; the zero mask comes from
    @example."""
    nonzero, width = small.filter(bool), draw(st.integers(1, 8))
    run = [draw(nonzero)]
    if width > 1:
        run += draw(st.lists(small, min_size=width - 2, max_size=width - 2)) + [draw(nonzero)]
    return Mask(draw(st.integers(-6, 3)), tuple(run))


def rational(x):
    return F(int(x.p), int(x.q))


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
        # the zero mask divides exactly, but its quotient is no mask
        assert _over_one_plus_z((F(0),)) == []
        with pytest.raises(NotFactorableError):
            difference_scheme(Mask(0, (F(0),)))

    def test_factor_round_trip(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            b = difference_scheme(mask)
            assert sympy.expand((1 + Z) * sympy_symbol(b.support_min, b.coeffs)
                                - sympy_symbol(mask.support_min, mask.coeffs)) == 0

    @given(runs(), st.integers(-4, 4))
    def test_matches_sympy_division(self, coeffs, support_min):
        # zero end coefficients and all-zero runs included
        expect = sympy_over_one_plus_z(coeffs)
        assert _over_one_plus_z(coeffs) == expect
        if expect is None:
            with pytest.raises(NotFactorableError):
                is_contractive(support_min, coeffs)
        else:
            assert is_contractive(support_min, coeffs) == (parity_norm(support_min, expect) < 1)
        if len(coeffs) > 1 and (coeffs[0] == 0 or coeffs[-1] == 0):
            return  # no Mask: its end coefficients must be nonzero
        mask = Mask(support_min, tuple(coeffs))
        if expect is None or mask.is_zero():
            with pytest.raises(NotFactorableError):
                difference_scheme(mask)
        else:
            assert difference_scheme(mask) == Mask(support_min, tuple(expect))


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
        a = catalog_get("a").mask
        assert is_contractive(a.support_min, a.coeffs)      # norm 4/5
        assert not is_contractive(0, (F(1), F(1)))          # norm exactly 1
        # a nominal run with zero end coefficients gives the trimmed verdict
        assert is_contractive(a.support_min - 1, (0,) + a.coeffs + (0, 0))

    @given(runs(), st.integers(-4, 4), st.integers(1, 50))
    def test_integer_numerators_over_a_denominator(self, coeffs, support_min, k):
        # the run as numerators over a multiple of its common denominator
        # gets the verdict of the Fraction run
        assume(_over_one_plus_z(coeffs) is not None)
        den = k * math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        assert is_contractive(support_min, nums, den) == is_contractive(support_min, coeffs)


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

    @given(ladder_masks(), st.integers(0, 6))
    def test_matches_fraction_ladder(self, mask, target_m):
        assert certify(mask, target_m) == fraction_certify(mask, target_m)

    @given(ladder_masks(), st.integers(0, 6))
    def test_matches_reference_ladder(self, mask, target_m):
        r = certify(mask, target_m)
        assert (r.verdict, r.certified_smoothness, r.norm, r.difference_mask) \
            == reference_certify(mask, target_m)

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

    @given(plain_masks())
    @example(Mask(0, (F(0),)))
    @example(Mask(-3, (F(0),)))
    @example(Mask(-3, (F(1, 2), F(0), F(0), F(3, 2))))
    def test_conditions_and_lift_match_sympy(self, mask):
        # s(1), s(-1) and ((1+z)/2) s(z) of the symbol s(z) = sum a_k z^k
        s = sympy_symbol(mask.support_min, mask.coeffs)
        s1, sm1 = rational(s.subs(Z, 1)), rational(s.subs(Z, -1))
        assert necessary_conditions(mask) == (s1, sm1, s1 == 2 and sm1 == 0)
        terms = laurent_terms((1 + Z) / 2 * s)
        if not terms:  # the zero mask lifts to itself
            assert smooth_lift(mask) == mask
            return
        lo, hi = min(terms), max(terms)
        run = tuple(terms.get(e, F(0)) for e in range(lo, hi + 1))
        assert smooth_lift(mask) == recenter(Mask(lo, run))

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
            # equal coefficient runs: equality up to the recentering
            # translation applied by smooth_lift
            assert b.coeffs == tuple(c / 2 for c in mask.coeffs)

    def test_lift_raises_certified_smoothness(self):
        for name in "acd":
            mask = catalog_get(name).mask
            m = certify(mask, 4).certified_smoothness
            lifted = certify(smooth_lift(mask), 5).certified_smoothness
            assert lifted >= m + 1
