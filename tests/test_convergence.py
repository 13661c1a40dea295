import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from conftest import Z, laurent_terms, sympy_symbol
from subdiv import convergence
from subdiv.convergence import (ConvergenceReport, Verdict, certify, contractive_runs,
                                NotFactorableError, smooth_lift)
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


def over_one_plus_z(coeffs):
    """Quotient run of s(z) / (1+z), same start exponent, by the synthetic
    division loop q_k = a_k - q_{k-1}; None when the remainder s(-1) is not
    0.  The zero run gives the empty run.  The reference for the module's
    prefix-sum division."""
    q, r = [], 0
    for c in coeffs:
        r = c - r
        q.append(r)
    return q[:-1] if r == 0 else None


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


def alternating_sum(mask):
    """s(-1) = sum (-1)^k a_k, k the absolute index."""
    return sum((-c if k % 2 else c for k, c in enumerate(mask.coeffs, mask.support_min)), F(0))


def parity_norm(support_min, coeffs):
    return max(sum((abs(c) for k, c in enumerate(coeffs, support_min) if k % 2 == e), F(0))
               for e in (0, 1))


def reference_certify(mask, target_m):
    """The certification ladder on sympy's long division: the symbol,
    moved to start at z^0, is divided by (1+z)/2 while the division is
    exact, and rung m is certified when its quotient q has q(1) = 2,
    q(-1) = 0 and q / (1+z) has parity norm < 1 (parities of the absolute
    index).  Returns (verdict, certified_smoothness, norm, difference mask)."""
    s = sympy_symbol(mask.support_min, mask.coeffs)
    if s.subs(Z, 1) != 2 or s.subs(Z, -1) != 0:
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
    s1, sm1 = sum(mask.coeffs), alternating_sum(mask)
    if s1 != 2 or sm1:
        return ConvergenceReport(s1, sm1, False, None, None, Verdict.DIVERGENT, None)
    b = Mask(mask.support_min, tuple(over_one_plus_z(mask.coeffs)))
    norm = parity_norm(b.support_min, b.coeffs)
    d = [mask.coeffs]
    while len(d) <= target_m + 1 and (nxt := over_one_plus_z(d[-1])) is not None:
        d.append(nxt)
    for m in range(len(d) - 2, -1, -1):
        if parity_norm(mask.support_min, over_one_plus_z([c * 2 ** m for c in d[m]])) < 1:
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
    """s(1), s(-1) and their flag are those of certify(mask, 0)."""

    def conditions(self, mask):
        r = certify(mask, 0)
        return r.s_at_1, r.s_at_minus1, r.necessary_ok

    def test_width6_scheme(self):
        assert self.conditions(catalog_get("a").mask) == (2, 0, True)

    def test_cubic_bspline(self):
        assert self.conditions(catalog_get("d").mask) == (2, 0, True)

    def test_constant_mask_fails(self):
        s1, sm1, ok = self.conditions(Mask(0, (F(1), F(1), F(1))))
        assert s1 == 3 and not ok

    def test_translation_invariance(self):
        mask = catalog_get("a").mask
        for shift in (1, 4):
            moved = Mask(mask.support_min + shift, mask.coeffs)
            s1, sm1, ok = self.conditions(mask)
            assert self.conditions(moved) == (s1, (-1) ** shift * sm1, ok)
        # an odd shift negates s(-1): s(-1) = 1 at one parity, -1 at the other
        run = (F(1), F(1), F(1))
        assert self.conditions(Mask(1, run))[1] == -self.conditions(Mask(0, run))[1] == -1


class TestDifferenceScheme:
    """The difference mask is certify(mask, 0).difference_mask, given when
    s(1) = 2 and s(-1) = 0."""

    def test_width6_scheme(self):
        b = certify(catalog_get("a").mask, 0).difference_mask
        assert b == Mask(-2, tuple(map(F, ("-1/10", "2/5", "2/5", "2/5", "-1/10"))))

    def test_two_point_scheme(self):
        b = certify(catalog_get("c").mask, 0).difference_mask
        assert b == Mask(-1, (F(1, 2), F(1, 2)))

    def test_cubic_bspline(self):
        b = certify(catalog_get("d").mask, 0).difference_mask
        assert b == Mask(-2, (F(1, 8), F(3, 8), F(3, 8), F(1, 8)))

    def test_not_factorable(self):
        # s(-1) = 1: no difference mask, and contractive_runs raises
        r = certify(Mask(0, (F(1), F(1), F(1))), 0)
        assert r.s_at_minus1 == 1 and r.difference_mask is None
        with pytest.raises(NotFactorableError):
            contractive_runs(0, [(F(1), F(1), F(1))], 1)
        # the zero mask divides exactly, but its quotient is no mask
        assert over_one_plus_z((F(0),)) == []
        assert certify(Mask(0, (F(0),)), 0).difference_mask is None

    def test_no_difference_mask_unless_s1_is_2(self):
        # s(z) = (1 + z) / 2 divides by (1+z), but s(1) = 1
        r = certify(Mask(0, (F(1, 2), F(1, 2))), 0)
        assert (r.s_at_1, r.s_at_minus1, r.necessary_ok, r.difference_mask) == (1, 0, False, None)
        # twice that has s(1) = 2, and its difference mask is the constant 1
        assert certify(Mask(0, (F(1), F(1))), 0).difference_mask == Mask(0, (F(1),))

    def test_factor_round_trip(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            b = certify(mask, 0).difference_mask
            assert sympy.expand((1 + Z) * sympy_symbol(b.support_min, b.coeffs)
                                - sympy_symbol(mask.support_min, mask.coeffs)) == 0

    @given(runs(), st.integers(-4, 4))
    def test_matches_sympy_division(self, coeffs, support_min):
        # zero end coefficients and all-zero runs included
        expect = sympy_over_one_plus_z(coeffs)
        assert over_one_plus_z(coeffs) == expect
        if expect is None:
            with pytest.raises(NotFactorableError):
                contractive_runs(support_min, [coeffs], 1)
        else:
            assert contractive_runs(support_min, [coeffs], 1)[0] == (
                parity_norm(support_min, expect) < 1)
        if len(coeffs) > 1 and (coeffs[0] == 0 or coeffs[-1] == 0):
            return  # no Mask: its end coefficients must be nonzero
        # the run scaled to s(1) = 2 where it can be: the division is linear
        scale = 2 / sum(coeffs) if sum(coeffs) else F(1)
        r = certify(Mask(support_min, tuple(c * scale for c in coeffs)), 0)
        if expect is None or not sum(coeffs):
            assert r.difference_mask is None
        else:
            assert r.difference_mask == Mask(support_min, tuple(c * scale for c in expect))


class TestContractivityNorm:
    """The norm of the difference scheme is certify(mask, 0).norm, and the
    verdict of one run its one-row contractive_runs stack."""

    def test_width6_scheme(self):
        assert certify(catalog_get("a").mask, 0).norm == F(4, 5)

    def test_two_point_scheme(self):
        assert certify(catalog_get("c").mask, 0).norm == F(1, 2)

    def test_cubic_bspline(self):
        assert certify(catalog_get("d").mask, 0).norm == F(1, 2)

    def test_is_contractive_is_strict(self):
        a = catalog_get("a").mask
        assert contractive_runs(a.support_min, [a.coeffs], 1)[0]      # norm 4/5
        assert not contractive_runs(0, [(F(1), F(1))], 1)[0]          # norm exactly 1
        # a nominal run with zero end coefficients gives the trimmed verdict
        assert contractive_runs(a.support_min - 1, [(0,) + a.coeffs + (0, 0)], 1)[0]

    @given(runs(), st.integers(-4, 4), st.integers(1, 50))
    def test_integer_numerators_over_a_denominator(self, coeffs, support_min, k):
        # the run as numerators over a multiple of its common denominator
        # gets the verdict of the Fraction run
        assume(over_one_plus_z(coeffs) is not None)
        den = k * math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        assert (contractive_runs(support_min, [nums], den)[0]
                == contractive_runs(support_min, [coeffs], 1)[0])


class TestParityNorm:
    """_parity_norm keeps the dtype of its runs: one run of Python ints
    gives a Python int at any size, and a stack one entry a run."""

    def test_one_run_past_int64(self):
        # a bare np.maximum casts the two Python-int sums to int64, and
        # 2^200 overflows it
        norm = convergence._parity_norm([2 ** 200, 1])
        assert type(norm) is int and norm == 2 ** 200

    def test_one_small_run_is_a_python_int(self):
        # not np.int64(4), on which later products would wrap past 2^63
        norm = convergence._parity_norm([1, 2, 3])
        assert type(norm) is int and norm == 4
        assert type(convergence._parity_norm([])) is int

    def test_stacks_keep_their_dtype(self):
        got = convergence._parity_norm([[1, -2, 3], [2 ** 70, 0, -1]])
        assert got.dtype == object and got.tolist() == [4, 2 ** 70 + 1]
        got = convergence._parity_norm(np.array([[1, -2, 3], [0, 5, 0]], dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == [4, 5]


def synthetic_division_verdict(support_min, run, den):
    """The per-run reference: q = over_one_plus_z(run), None when the
    remainder s(-1) is not 0, else whether the parity norm of q is < den."""
    q = over_one_plus_z(run)
    return None if q is None else parity_norm(support_min, q) < den


@st.composite
def numerator_stacks(draw):
    """(rows, den): 1-6 integer runs of one length 1-9, each (1+z) times a
    drawn run (so s(-1) = 0), numerators up to 2^8, 2^64 or 2^300 in size,
    up to two zero coefficients at either end, and a den that puts the
    verdicts either way."""
    n = draw(st.integers(1, 9))
    big = draw(st.sampled_from([2 ** 8, 2 ** 64, 2 ** 300]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        b = draw(st.lists(st.integers(-big, big), min_size=n - 1, max_size=n - 1))
        lo, hi = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        b = [0 if k < lo or k >= n - 1 - hi else x for k, x in enumerate(b)]
        rows.append([x + y for x, y in zip(b + [0], [0] + b)])
    return rows, draw(st.integers(1, 2 * n * big))


class TestFarShift:
    """Only the parity of support_min enters the alternated run: a shift
    past int64, or past any float, gives what the shift 0 or 1 of the same
    parity gives, save for the shift itself."""

    MASKS = [catalog_get(name).mask.coeffs for name in "abcd"] + [(F(1), F(1, 3), F(1, 2))]

    @pytest.mark.parametrize("shift", [2 ** 63, 2 ** 63 + 1, 10 ** 400])
    @pytest.mark.parametrize("coeffs", MASKS, ids=["a", "b", "c", "d", "no-factor"])
    def test_same_as_the_near_shift(self, shift, coeffs):
        near, far = Mask(shift % 2, coeffs), Mask(shift, coeffs)
        for target_m in (0, 6):
            a, b = certify(near, target_m), certify(far, target_m)
            if a.difference_mask is None:
                assert b == a
            else:
                assert b == dataclasses.replace(
                    a, difference_mask=Mask(shift, a.difference_mask.coeffs))

    @pytest.mark.parametrize("shift", [2 ** 63, 2 ** 63 + 1, 10 ** 400])
    def test_contractive_runs(self, shift):
        rows = [[3, 3, 1, 1], [1, 2, 1, 0], [3, 4, 1, 0]]
        for den in (4, 5):
            want = contractive_runs(shift % 2, rows, den).tolist()
            assert contractive_runs(shift, rows, den).tolist() == want
        with pytest.raises(NotFactorableError):
            contractive_runs(shift, [[1, 1, 1, 0]], 4)


class TestContractiveRuns:
    """The stack-wise rule equals a synthetic division per run."""

    @given(numerator_stacks(), st.integers(-5, 5))
    @example(([[0]], 1), 0)
    @example(([[1, 1], [2 ** 300, 2 ** 300]], 2 ** 300 + 1), -1)
    def test_matches_synthetic_division(self, stack, support_min):
        rows, den = stack
        expect = [synthetic_division_verdict(support_min, r, den) for r in rows]
        assert contractive_runs(support_min, rows, den).tolist() == expect
        assert [contractive_runs(support_min, [r], den)[0] for r in rows] == expect

    def test_both_parities_of_support_min(self):
        # q = (3, 0, 1): parity sums 4 and 0 at an even start, or the
        # other way round at an odd one; the norm is 4 either way
        rows = [[3, 3, 1, 1]]
        for support_min in (-3, -2, 0, 1):
            assert contractive_runs(support_min, rows, 5).tolist() == [True]
            assert contractive_runs(support_min, rows, 4).tolist() == [False]
        # q = (3, 1): 3 at one parity, 1 at the other
        assert contractive_runs(0, [[3, 4, 1]], 4).tolist() == [True]

    @given(numerator_stacks(), st.integers(-5, 5), st.data())
    def test_nonzero_remainder_raises(self, stack, support_min, data):
        rows, den = stack
        k = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[k]) - 1))
        rows[k][j] += data.draw(st.sampled_from([-1, 1]))  # s(-1) moves by 1
        assert synthetic_division_verdict(support_min, rows[k], den) is None
        with pytest.raises(NotFactorableError):
            contractive_runs(support_min, rows, den)
        with pytest.raises(NotFactorableError):
            contractive_runs(support_min, [rows[k]], den)


class TestOneDivision:
    """Every check reads the one (1+z) division and the one parity norm,
    and certify computes each quotient of its chain once."""

    @given(st.one_of(plain_masks(), ladder_masks()))
    @example(Mask(0, (F(0),)))
    @example(Mask(-3, (F(1), F(1))))
    def test_checks_agree(self, mask):
        r = certify(mask, 0)
        try:
            contractive = contractive_runs(mask.support_min, [mask.coeffs], 1)[0]
        except NotFactorableError:
            contractive = None
        assert (r.s_at_minus1 == 0) == (contractive is not None)
        assert r.necessary_ok == (r.difference_mask is not None)
        if r.necessary_ok:
            b = r.difference_mask
            assert r.norm == parity_norm(b.support_min, b.coeffs)
            assert contractive == (r.norm < 1)

    def test_certify_divides_each_quotient_once(self, monkeypatch):
        divided = []
        divide = convergence._divide

        def spy(alt):
            divided.append(tuple(alt))
            return divide(alt)

        def no_second_division(*args):
            raise AssertionError("certify divided outside its chain")

        monkeypatch.setattr(convergence, "_divide", spy)
        monkeypatch.setattr(convergence, "contractive_runs", no_second_division)
        for name in "abcd":
            for target_m in range(7):
                divided.clear()
                report = certify(catalog_get(name).mask, target_m)
                assert 1 <= len(divided) <= target_m + 1
                # the runs divided are pairwise distinct up to a scale, so
                # no rung's quotient is divided again from a scaled run
                primitive = {tuple(F(x, run[0]) for x in run) for run in divided}
                assert len(primitive) == len(divided)
                assert report.certified_smoothness == min(target_m, catalog_get(name).smoothness)
        # the cubic B-spline (1+z)^4 / 8: four exact divisions, and the
        # fifth stops the chain on its remainder
        divided.clear()
        certify(catalog_get("d").mask, 6)
        assert len(divided) == 5


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

    def test_prefix_sums_past_int64_stay_exact(self, monkeypatch):
        # every numerator fits int64, but the alternated prefix sums reach
        # 2^63 + 1: certify divides on Python ints (only search.scan
        # chooses int64)
        mask = Mask(0, (2 ** 62, -2 ** 62, 1, 2 ** 62, -2 ** 62, 1))
        dtypes = []

        def recorded(alt):
            dtypes.append(alt.dtype)
            return divide(alt)

        divide = convergence._divide
        monkeypatch.setattr(convergence, "_divide", recorded)
        for target_m in range(3):
            assert certify(mask, target_m) == fraction_certify(mask, target_m)
        assert dtypes and all(d == object for d in dtypes)

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
        r = certify(mask, 0)
        assert (r.s_at_1, r.s_at_minus1, r.necessary_ok) == (s1, sm1, s1 == 2 and sm1 == 0)
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
            b = certify(smooth_lift(mask), 0).difference_mask
            # equal coefficient runs: equality up to the recentering
            # translation applied by smooth_lift
            assert b.coeffs == tuple(c / 2 for c in mask.coeffs)

    def test_lift_raises_certified_smoothness(self):
        for name in "acd":
            mask = catalog_get(name).mask
            m = certify(mask, 4).certified_smoothness
            lifted = certify(smooth_lift(mask), 5).certified_smoothness
            assert lifted >= m + 1
