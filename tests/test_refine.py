import math
import random
import tracemalloc
import unittest.mock
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import Z, laurent_terms, polygon_key, polygon_values, sympy_symbol
from subdiv import refine
from subdiv.masks import Mask, catalog_get, integer_run
from subdiv.refine import (ControlPolygon, CurveRows, MeshType, RefinementLimitError,
                           basis_points_exact, basis_polygon, basis_rows, curve_csv,
                           curve_svg, delta, refine_k)


def stored_rows(P):
    """The CurveRows of P's stored window, as refine exports it."""
    return CurveRows(P, P.first_index, P.last_index)


def value_at(P, i):
    """P's value at index i as a Fraction, 0 outside the stored window."""
    j = i - P.first_index
    return F(int(P.nums[j]), P.den) if 0 <= j < len(P.nums) else F(0)


def points(rows):
    """Every (t, value) row of a CurveRows, in order, chunk after chunk."""
    return tuple((t, v) for ts, vs in rows for t, v in zip(ts, vs))


def rand_polygon(rng, mesh=MeshType.PRIMAL):
    n = rng.randint(1, 6)
    values = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
    if all(v == 0 for v in values):
        values[0] = F(1)
    return ControlPolygon(0, rng.randint(-5, 5), tuple(values), mesh)


class TestRefineOnce:
    def test_delta_reproduces_mask(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            P = refine_k(delta(), mask, 1)
            assert P.first_index == mask.support_min
            assert polygon_values(P) == mask.coeffs
            assert P.level == 1

    def test_two_point_scheme_delta(self):
        P = refine_k(delta(), catalog_get("c").mask, 1)
        assert (P.first_index, polygon_values(P)) == (-1, (F(1, 2), F(1), F(1, 2)))

    def test_constant_window_stays_constant_inside(self):
        mask = catalog_get("a").mask
        P = ControlPolygon(0, -10, (F(1),) * 21)
        Q = refine_k(P, mask, 1)
        # indices far from the boundary see a complete rule: value exactly 1
        for i in range(-10, 11):
            assert value_at(Q, i) == 1

    def test_linearity(self):
        rng = random.Random(41)
        mask = catalog_get("a").mask
        for _ in range(20):
            P, Q = rand_polygon(rng), rand_polygon(rng)
            alpha, beta = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            lo = min(P.first_index, Q.first_index)
            hi = max(P.last_index, Q.last_index)
            combo = ControlPolygon(0, lo, tuple(alpha * value_at(P, i) + beta * value_at(Q, i)
                                                for i in range(lo, hi + 1)))
            rc = refine_k(combo, mask, 1)
            rp, rq = refine_k(P, mask, 1), refine_k(Q, mask, 1)
            for i in range(rc.first_index - 2, rc.last_index + 3):
                assert value_at(rc, i) == alpha * value_at(rp, i) + beta * value_at(rq, i)

    def test_translation_covariance(self):
        rng = random.Random(43)
        mask = catalog_get("b").mask
        for _ in range(10):
            P = rand_polygon(rng)
            shifted = ControlPolygon(P.level, P.first_index + 3, polygon_values(P), P.mesh)
            r, rs = refine_k(P, mask, 1), refine_k(shifted, mask, 1)
            assert rs.first_index == r.first_index + 6
            assert polygon_values(rs) == polygon_values(r)


def reference_refine_once(P: ControlPolygon, mask: Mask) -> tuple[int, tuple[F, ...]]:
    """The former dict-of-Fraction step, kept as an oracle: (first_index, values)."""
    out: dict[int, F] = {}
    for l, v in enumerate(polygon_values(P), P.first_index):
        if v == 0:
            continue
        for j, a in enumerate(mask.coeffs, mask.support_min):
            if a == 0:
                continue
            m = 2 * l + j
            out[m] = out.get(m, F(0)) + a * v
    if not out:
        return 2 * P.first_index, (F(0),)
    lo, hi = min(out), max(out)
    return lo, tuple(out.get(i, F(0)) for i in range(lo, hi + 1))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def masks(draw):
    """Rational masks with interior zeros, any support start, or the zero mask."""
    if draw(st.integers(0, 9)) == 0:
        return Mask(draw(st.integers(-4, 4)), (F(0),))
    ends = rationals.filter(bool)
    inner = st.lists(st.one_of(st.just(F(0)), rationals), max_size=6)
    coeffs = [draw(ends)]
    if draw(st.booleans()):
        coeffs += draw(inner) + [draw(ends)]
    return Mask(draw(st.integers(-6, 3)), tuple(coeffs))


@st.composite
def polygons(draw):
    """Polygons on either mesh, with zero padding, or the zero polygon."""
    values = draw(st.lists(st.one_of(st.just(F(0)), rationals), min_size=1, max_size=7))
    return ControlPolygon(draw(st.integers(0, 3)), draw(st.integers(-8, 8)), values,
                          draw(st.sampled_from(MeshType)))


@st.composite
def coprime_masks(draw):
    """Masks of 1/d, d drawn up to 2^64: L is near the product of the
    denominators, far above any one of them."""
    dens = draw(st.lists(st.integers(1, 2 ** 64), min_size=1, max_size=40))
    return Mask(draw(st.integers(-6, 3)), tuple(F(1, d) for d in dens))


@st.composite
def wide_polygons(draw):
    """polygons() with every value scaled by 1, 2^64 + 1 or 2^201 + 3, so
    refinement runs on int64 throughout, on Python ints throughout, or
    switches from one to the other."""
    P = draw(polygons())
    scale = draw(st.sampled_from((1, 2 ** 64 + 1, 2 ** 201 + 3)))
    return ControlPolygon(P.level, P.first_index, [v * scale for v in polygon_values(P)], P.mesh)


def assert_canonical(P: ControlPolygon):
    nums = P.nums.tolist()
    assert P.nums.dtype in (np.int64, object) and not P.nums.flags.writeable
    assert all(type(v) is int for v in nums) and type(P.den) is int
    assert P.den > 0 and math.gcd(P.den, *nums) == 1
    if nums == [0]:
        assert P.den == 1
    else:
        assert nums[0] != 0 and nums[-1] != 0


class TestIntegerStep:
    @given(wide_polygons(), masks())
    def test_matches_fraction_reference(self, P, mask):
        Q = refine_k(P, mask, 1)
        assert (Q.first_index, polygon_values(Q)) == reference_refine_once(P, mask)
        assert (Q.level, Q.mesh) == (P.level + 1, P.mesh)

    @given(polygons(), masks())
    def test_canonical_form(self, P, mask):
        assert_canonical(P)
        Q = refine_k(P, mask, 1)
        assert_canonical(Q)
        assert_canonical(refine_k(Q, mask, 1))

    @given(polygons(), masks(), st.integers(0, 2))
    def test_floats_are_rounded_fractions(self, P, mask, k):
        P = refine_k(P, mask, k)
        n = 2 ** P.level
        offset = F(0) if P.mesh is MeshType.PRIMAL else F(1, 2)
        want = tuple((float((i + offset) / n), float(v))
                     for i, v in enumerate(polygon_values(P), P.first_index))
        assert points(stored_rows(P)) == want

    @given(st.lists(st.integers(-2 ** 100, 2 ** 100), min_size=1, max_size=8).filter(
        lambda body: body[0] and body[-1]), st.integers(1, 2 ** 100), st.sampled_from((1, 6, 2 ** 64 + 13)))
    @example([2 ** 80 * 3, 0, 2 ** 80 * 5], 2 ** 90, 1)  # gcd 2^80
    @example([3 ** 60, -5 ** 40], 7 ** 30, 1)  # gcd 1
    def test_canonical_form_of_python_ints(self, body, den, g):
        # an object array, with the common factor g on top of any the
        # numerators and den share, against the Fractions' lowest terms
        P = ControlPolygon._from_nums(0, 0, np.array([g * v for v in body], object), g * den,
                                      MeshType.PRIMAL)
        fs = [F(v, den) for v in body]
        D = math.lcm(*(f.denominator for f in fs))
        assert P.nums.dtype == object
        assert (P.nums.tolist(), P.den) == ([int(f * D) for f in fs], D)

    def test_constructor_takes_rationals(self):
        P = ControlPolygon(2, -3, (0, F(1, 6), 0.5, F(-4, 3), 0, 0))
        assert (P.first_index, P.nums.tolist(), P.den) == (-2, [1, 3, -8], 6)
        assert polygon_values(P) == (F(1, 6), F(1, 2), F(-4, 3))
        Z = ControlPolygon(0, 4, (0, 0, 0))
        assert (Z.first_index, Z.nums.tolist(), Z.den) == (6, [0], 1)


class TestLevelLoop:
    @settings(max_examples=150)
    @given(wide_polygons(), masks(), st.integers(0, 10))
    def test_matches_level_by_level_steps(self, P, mask, k):
        # one step is checked against the Fraction reference above
        Q = P
        for _ in range(k):
            Q = refine_k(Q, mask, 1)
        assert polygon_key(refine_k(P, mask, k)) == polygon_key(Q)
        assert_canonical(Q)

    @pytest.mark.parametrize("scale", [1, 2 ** 50, 2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 63,
                                       -(2 ** 63), 2 ** 200 + 1])
    def test_int64_switch(self, scale):
        # values at the int64 limit, one tap per phase (width 2, odd start),
        # a width-1 mask and a mask with zero interior taps; the result is
        # int64 exactly where max|P| * M^k, M the larger phase sum of |taps|,
        # is below 2^63.  With M = 7, the last mask switches 2^50 within a
        # run: levels 1-4 on int64, and from level 5 on Python ints
        for mask in (Mask(-1, (F(1), F(1))), Mask(0, (F(-3, 2),)),
                     Mask(-3, (F(1, 4), F(0), F(0), F(-1), F(0), F(3, 4)))):
            P = ControlPolygon(0, 1, (scale, -scale, 0, scale - 1))
            taps = integer_run(mask.coeffs)[1]
            M = max(sum(map(abs, taps[0::2])), sum(map(abs, taps[1::2])))
            Q = P
            for k in range(7):
                R = refine_k(P, mask, k)
                assert polygon_key(R) == polygon_key(Q)
                fits = max(map(abs, P.nums.tolist())) * M ** k < 2 ** 63
                if k:
                    assert (R.nums.dtype == np.int64) == fits
                if mask.width == 2:
                    # phase sums 1: 2^63 - 1 stays int64 at its limit, and a
                    # value of 2^63 or -2^63 (scale - 1 at -(2^63 - 1)) does not
                    assert fits == (scale in (1, 2 ** 50, 2 ** 63 - 1))
                first, values = reference_refine_once(Q, mask)
                Q = ControlPolygon(k + 1, first, values)

    @pytest.mark.parametrize("taps", [[], [1, 1], [-3], integer_run(catalog_get("a").mask.coeffs)[1],
                                      [2 ** 200, 1], [2 ** 62, 5, 2 ** 62]])
    def test_growth_is_python_ints(self, taps):
        # M is the parity norm of the bare taps, a Python int: an np.int64
        # would wrap in bound * M^k past 2^63
        for P in (delta(), refine_k(delta(), catalog_get("a").mask, 3),
                  ControlPolygon(0, 0, (F(2 ** 70), F(-3)))):
            bound, M = refine._growth(P, taps)
            assert (type(bound), type(M)) == (int, int)
            assert bound == max(map(abs, P.nums.tolist()))
            assert M == max(sum(map(abs, taps[0::2])), sum(map(abs, taps[1::2])))

    def test_zero_polygon_and_zero_mask(self):
        zero = ControlPolygon(2, -3, (0,), MeshType.DUAL)
        assert polygon_key(refine_k(zero, catalog_get("a").mask, 5)) == \
            polygon_key(ControlPolygon(7, -96, (0,), MeshType.DUAL))
        P = ControlPolygon(0, 5, (F(1, 3), F(2)))
        assert polygon_key(refine_k(P, Mask(2, (F(0),)), 3)) == polygon_key(ControlPolygon(3, 40, (0,)))

    def test_every_entry_point_shares_the_core(self, monkeypatch):
        calls = []

        def spy(P, mask, k):
            calls.append(k)
            return P
        monkeypatch.setattr(refine, "_refine", spy)
        mask = catalog_get("a").mask
        refine_k(delta(), mask, 1)
        refine_k(delta(), mask, 4)
        basis_polygon(mask, 3)
        assert calls == [1, 4, 3]


class TestRefineK:
    def test_two_levels_match_symbol_product(self):
        mask = catalog_get("a").mask
        P = refine_k(delta(), mask, 2)
        s = sympy_symbol(mask.support_min, mask.coeffs)
        two_level = laurent_terms(s * s.subs(Z, Z ** 2))  # s(z) s(z^2)
        assert P.first_index == min(two_level)
        for i in range(P.first_index, P.last_index + 1):
            assert value_at(P, i) == two_level.get(i, 0)

    def test_refuses_an_empty_polygon_and_negative_depths(self):
        with pytest.raises(ValueError, match="^control polygon needs at least one value$"):
            ControlPolygon(0, 0, ())
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            refine_k(delta(), catalog_get("a").mask, -1)
        with pytest.raises(ValueError, match="^iters must be >= 0$"):
            basis_polygon(catalog_get("a").mask, -1)

    def test_support_growth(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            for k in (1, 2, 5):
                P = refine_k(delta(), mask, k)
                lo = mask.support_min * (2 ** k - 1)
                hi = (mask.support_min + mask.width - 1) * (2 ** k - 1)
                assert P.first_index >= lo and P.last_index <= hi
        # width-6 scheme at one step: (w-1)(2^k - 1) + 1 = 6 points
        assert len(refine_k(delta(), catalog_get("a").mask, 1).nums) == 6

    def test_sum_doubles_each_level(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            P = delta()
            for k in range(1, 7):
                P = refine_k(P, mask, 1)
                assert sum(polygon_values(P)) == 2 ** k

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(refine, "MAX_POINTS", 1000)
        with pytest.raises(RefinementLimitError, match="exceed 1000 stored points"):
            refine_k(delta(), catalog_get("a").mask, 40)

    def test_cap_decided_before_any_step(self, monkeypatch):
        def no_step(P, mask, k):
            raise AssertionError("refined before the point cap was checked")

        monkeypatch.setattr(refine, "_refine", no_step)
        with pytest.raises(RefinementLimitError, match="exceed 10000000 stored points"):
            refine_k(delta(), catalog_get("a").mask, 40)

    def test_level_cap(self, monkeypatch):
        # a width-1 mask keeps one point: neither the point nor the memory
        # cap bounds its depth
        mask = Mask(0, (F(2, 3),))
        assert polygon_key(refine_k(delta(), mask, 60)) == polygon_key(ControlPolygon(60, 0, (F(2, 3) ** 60,)))

        def no_step(P, mask, k):
            raise AssertionError("refined before the level cap was checked")

        monkeypatch.setattr(refine, "_refine", no_step)
        for refuse in (lambda: refine_k(delta(), mask, 61),
                       lambda: refine_k(ControlPolygon(3, 0, (1,)), mask, 58),
                       lambda: basis_polygon(mask, 61)):
            with pytest.raises(RefinementLimitError, match="exceed level 60"):
                refuse()

    def test_memory_cap_counts_basis_samples(self, monkeypatch):
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        # the two-point scheme stores 2^20 - 1 points at depth 19, but its
        # basis experiment samples 8 * 2^19 + 1
        mask = catalog_get("c").mask
        refine_k(delta(), mask, 19)
        with pytest.raises(RefinementLimitError, match="exceed 1024 MB of memory"):
            basis_polygon(mask, 19)
        # within the point cap, refused by the memory estimate
        mask = catalog_get("a").mask
        with pytest.raises(RefinementLimitError, match="exceed 1024 MB of memory"):
            basis_polygon(mask, 20)
        basis_polygon(mask, 17)

    @pytest.mark.parametrize("name, k", [("a", 14), ("b", 14), ("c", 14), ("d", 14),
                                         ("a", 17), ("c", 18)])
    def test_memory_cap_admits(self, monkeypatch, name, k):
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        basis_polygon(catalog_get(name).mask, k)
        refine_k(ControlPolygon(0, -1, (F(1, 3), F(-2, 5), F(4, 7))), catalog_get(name).mask, k)

    def test_memory_cap_counts_numerator_growth(self, monkeypatch):
        # 5 * 2^k + 1 points, each numerator near 3000 k bits at depth k
        mask = Mask(-2, (F(1, 3 ** 1900), F(1, 2), F(1), F(1), F(1, 2), F(1, 4)))
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        refine_k(delta(), mask, 12)
        with pytest.raises(RefinementLimitError, match="exceed 1024 MB of memory"):
            refine_k(delta(), mask, 14)

    def test_memory_cap_counts_slot_width(self, monkeypatch):
        # L = 1, but the values grow by 200 bits a level: at depth 20, 2^20
        # numerators of up to 4001 bits, each a Python int of about 540 bytes
        mask = Mask(0, (F(2 ** 200), F(1)))
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        refine_k(delta(), mask, 19)
        with pytest.raises(RefinementLimitError, match="exceed 1024 MB of memory"):
            refine_k(delta(), mask, 20)

    @pytest.mark.parametrize("mask, k", [
        (Mask(0, (F(2 ** 200), F(1))), 12),                             # large taps, L = 1
        (Mask(-1, (F(3 ** 40, 7), F(-1, 7), F(5 ** 30, 7), F(1, 7))), 10),
        (catalog_get("a").mask, 12),
    ])
    def test_memory_estimate_bounds_the_step(self, mask, k):
        P = ControlPolygon(0, -1, (F(1, 3), F(-4, 5), F(2, 7)))
        need = refine._check_limits(P, mask, k, 0)
        tracemalloc.start()
        try:
            refine_k(P, mask, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need

    @given(polygons(), masks(), st.integers(0, 7), st.integers(1, 200))
    def test_cap_matches_level_by_level_check(self, P, mask, k, cap):
        # the former rule: refuse a level once 2 * points + width > cap
        Q, refused = P, False
        for _ in range(k):
            if 2 * len(Q.nums) + mask.width > cap:
                refused = True
                break
            Q = refine_k(Q, mask, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine, "MAX_POINTS", cap)
            if refused:
                with pytest.raises(RefinementLimitError):
                    refine_k(P, mask, k)
            else:
                assert polygon_key(refine_k(P, mask, k)) == polygon_key(Q)

    @given(polygons(), masks() | coprime_masks(), st.integers(0, 7),
           st.sampled_from([None, 0, 1000]))
    @example(delta(), Mask(0, tuple(F(1, 2 ** 64 + j) for j in range(40))), 1, 0)
    def test_lcm_floor_refuses_nothing_the_estimate_admits(self, P, mask, k, samples):
        # with MAX_BYTES at the estimate itself, the floor that refuses a
        # wide mask before its integer form still admits
        need = refine._check_limits(P, mask, k, samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine, "MAX_BYTES", need)
            assert refine._check_limits(P, mask, k, samples) == need


def prime_mask(count):
    """The mask of the coefficients 1/p over the first count primes."""
    return Mask(0, tuple(F(1, p) for p in sympy.primerange(2, sympy.prime(count) + 1)))


class TestWorkCap:
    """MAX_WORK prices the last level before any step: on Python ints each
    product at its digit products, and at least _PRODUCT_FLOOR, on int64 at
    _INT64_UNITS."""

    @pytest.mark.parametrize("count, k, about", [(1000, 2, "1.4e+11"), (5000, 2, "1.3e+14")])
    def test_refuses_long_products(self, monkeypatch, count, k, about):
        # 10^6 products of 11400-bit ints (45 s of _refine), and 2.5 * 10^7
        # of 70000-bit ones
        monkeypatch.setattr(refine, "_refine", lambda *args: pytest.fail("refined"))
        with pytest.raises(RefinementLimitError) as exc:
            refine_k(delta(), prime_mask(count), k)
        assert str(exc.value) == "refinement would exceed 1e+10 units of work (about %s)" % about

    @pytest.mark.parametrize("count, k", [(5000, 1), (300, 3)])
    def test_admits_the_fast_ones(self, monkeypatch, count, k):
        # 0.13 s and 2.9 s of _refine, estimates 1.2e7 and 4.6e9
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        refine_k(delta(), prime_mask(count), k)

    def test_small_products_are_priced_at_the_floor(self, monkeypatch):
        # 2000 taps 1: levels 1-6 run on int64 (bound 1000^6), level 7 on
        # Python ints, 2.5e8 products of one digit each at 40-50 ns of
        # object overhead, priced 200 each
        mask = Mask(0, (F(1, 2),) * 2000)
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        refine_k(delta(), mask, 6)
        with pytest.raises(RefinementLimitError, match=r"units of work \(about 5\.0e\+10\)"):
            refine_k(delta(), mask, 7)

    def test_prices_int64_levels(self, monkeypatch):
        # w halves: taps 1, int64 throughout; the last level is
        # n_3 * w = 2.8e9 multiply-adds at w = 20000 (1.5 s of _refine) and
        # 1.1e10 at w = 40000 (6.1 s)
        monkeypatch.setattr(refine, "_refine", lambda P, mask, k: P)
        refine_k(delta(), Mask(0, (F(1, 2),) * 20000), 4)
        with pytest.raises(RefinementLimitError) as exc:
            refine_k(delta(), Mask(0, (F(1, 2),) * 40000), 4)
        assert str(exc.value) == "refinement would exceed 1e+10 units of work (about 2.2e+10)"


class TestParameterize:
    def test_level0_delta(self):
        assert points(stored_rows(delta())) == ((0.0, 1.0),)

    def test_level1_primal(self):
        P = ControlPolygon(1, -1, (F(1), F(2), F(1)))
        ts = [t for t, _ in points(stored_rows(P))]
        assert ts == [-0.5, 0.0, 0.5]

    def test_level1_dual_offsets_by_half_step(self):
        P = ControlPolygon(1, 0, (F(1), F(2)), MeshType.DUAL)
        ts = [t for t, _ in points(stored_rows(P))]
        assert ts == [0.25, 0.75]

    @pytest.mark.parametrize("mesh", list(MeshType))
    @pytest.mark.parametrize("level", [3, 1020, 1021, 1022, 1023])
    @pytest.mark.parametrize("center", [0, 2 ** 63, -(2 ** 63)])
    def test_t_is_one_rounded_division(self, mesh, level, center):
        # t = u / (s 2^k), u = s i + s - 1, on rows whose u crosses center
        # (0 or the ends of int64) at levels whose s 2^k crosses 2^1022
        s = 1 if mesh is MeshType.PRIMAL else 2
        i = (center - s + 1) // s
        rows = CurveRows(ControlPolygon(level, i, (F(1),), mesh), i - 3, i + 3)
        want = [float(F(s * j + s - 1, s << level)) for j in range(i - 3, i + 4)]
        assert [t for t, _ in points(rows)] == want
        assert (rows.tmin, rows.tmax) == (want[0], want[-1])


class TestBasisExperiment:
    def test_two_point_scheme_is_exact_tent(self):
        for t, v in basis_points_exact(catalog_get("c").mask, 10):
            assert v == max(F(0), 1 - abs(t))

    def test_cubic_bspline_center_value(self):
        pts = dict(basis_points_exact(catalog_get("d").mask, 10))
        assert abs(float(pts[F(0)]) - 2.0 / 3.0) < 1e-3

    def test_zero_iters_gives_nine_points(self):
        curve = points(basis_rows(catalog_get("a").mask, 0))
        assert len(curve) == 9
        assert [t for t, _ in curve] == [float(i) for i in range(-4, 5)]

    @pytest.mark.parametrize("name", "abcd")
    def test_floats_match_exact_points(self, name):
        mask = catalog_get(name).mask
        exact = basis_points_exact(mask, 5)
        assert points(basis_rows(mask, 5)) == tuple((float(t), float(v)) for t, v in exact)

    def test_grid_size(self):
        assert len(points(basis_rows(catalog_get("c").mask, 4))) == 8 * 2 ** 4 + 1

    def test_compact_support_outside_is_zero(self):
        mask = catalog_get("d").mask
        P = basis_polygon(mask, 6)
        lo = mask.support_min * (2 ** 6 - 1)
        hi = (mask.support_min + mask.width - 1) * (2 ** 6 - 1)
        assert P.first_index >= lo and P.last_index <= hi


class TestCsvExport:
    def test_header_and_format(self):
        text = "".join(curve_csv(CurveRows(delta(), 0, 0)))
        lines = text.split("\n")
        assert lines[0] == "t,value"
        assert lines[1] == "0,1"
        assert text.endswith("\n")


def basis_per_index(mask: Mask, iters: int) -> tuple:
    """The former per-index basis sampling, kept as an oracle."""
    P = basis_polygon(mask, iters)
    n, first, last, nums = 2 ** P.level, P.first_index, P.last_index, P.nums.tolist()
    return tuple((i / n, nums[i - first] / P.den if first <= i <= last else 0.0)
                 for i in range(-4 * n, 4 * n + 1))


def rows_per_index(P: ControlPolygon, lo: int, hi: int) -> list:
    """The rows lo..hi of P as (t, value) floats, one division each."""
    n, first, last, nums = 2 ** P.level, P.first_index, P.last_index, P.nums.tolist()
    return [(i / n if P.mesh is MeshType.PRIMAL else (2 * i + 1) / (2 * n),
             nums[i - first] / P.den if first <= i <= last else 0.0)
            for i in range(lo, hi + 1)]


def csv_per_line(points) -> str:
    """The former line-by-line CSV formatter, kept as an oracle."""
    lines = ["t,value"]
    for t, y in points:
        lines.append("%.12g,%.12g" % (t, y))
    return "\n".join(lines) + "\n"


def svg_per_point(points) -> str:
    """The former point-by-point SVG formatter, kept as an oracle."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    vb = "%.6g %.6g %.6g %.6g" % (xmin, -ymax, xmax - xmin, ymax - ymin)
    pts = " ".join("%.6g,%.6g" % (x, -y) for x, y in points)
    sw = (ymax - ymin) / 200.0
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="%s" preserveAspectRatio="none">\n'
        '<polyline fill="none" stroke="black" stroke-width="%.6g" points="%s"/>\n'
        "</svg>\n" % (vb, sw, pts)
    )


@st.composite
def wide_masks(draw):
    """Masks of widths 10-24 placed so that the basis function spills past
    [-4, 4] on either side, or misses it entirely."""
    width = draw(st.integers(10, 24))
    coeffs = [draw(rationals.filter(bool))] + draw(
        st.lists(st.one_of(st.just(F(0)), rationals), min_size=width - 2, max_size=width - 2)
    ) + [draw(rationals.filter(bool))]
    return Mask(draw(st.integers(-width - 30, 30)), tuple(coeffs))


class TestColumnExport:
    @settings(max_examples=60)
    @given(wide_masks(), st.integers(0, 4))
    def test_basis_matches_per_index_formula(self, mask, k):
        assert points(basis_rows(mask, k)) == basis_per_index(mask, k)

    @pytest.mark.parametrize("mask, k, misses", [
        (Mask(20, (F(1),) * 12), 3, True),                  # support right of [-4, 4]
        (Mask(-40, (F(1, 2),) * 10), 2, True),              # support left of it
        (Mask(-12, (F(1, 3), F(-1, 7)) * 12), 3, False),    # spills past both ends
    ])
    def test_basis_window_clipped(self, mask, k, misses):
        curve = points(basis_rows(mask, k))
        assert curve == basis_per_index(mask, k)
        assert len(curve) == 8 * 2 ** k + 1
        assert (set(v for _, v in curve) == {0.0}) == misses

    def curves(self):
        yield CurveRows(delta(), 0, 0)                                     # one point
        yield CurveRows(ControlPolygon(3, -2, (F(1, 3),) * 5), -2, 2)      # constant y
        tiny = F(-1, 2 ** 1100)                                            # rounds to -0.0
        yield CurveRows(ControlPolygon(1, -1, (tiny, 0, tiny)), -1, 1)     # signed zeros
        yield CurveRows(ControlPolygon(0, 1, (tiny,)), 1, 1)
        yield CurveRows(ControlPolygon(0, 0, (-1, tiny, -tiny)), -1, 2)   # max -0.0, then 0.0
        yield CurveRows(ControlPolygon(0, 0, (1, -tiny, tiny)), 0, 2)     # min 0.0, then -0.0
        P = refine_k(ControlPolygon(0, 0, (F(1), F(-2, 3)), MeshType.DUAL),
                     catalog_get("b").mask, 4)
        yield CurveRows(P, P.first_index, P.last_index)                    # dual mesh
        for level in (0, 5, 70):                                           # t past 2^53
            P = ControlPolygon(level, 2 ** 60 + 1, (F(1, 7), F(-3), F(5, 9)))
            yield CurveRows(P, P.first_index, P.last_index)
            P = ControlPolygon(level, -(2 ** 54) - 3, (F(2), 0, F(1, 3)), MeshType.DUAL)
            yield CurveRows(P, P.first_index, P.last_index)
        for first in (2 ** 63 - 2, -(2 ** 63) - 1):                       # past int64
            P = ControlPolygon(3, first, (F(1, 7), F(-3), F(5, 9)))
            yield CurveRows(P, P.first_index, P.last_index)
        for first in (2 ** 62 - 3, 2 ** 62 - 1):       # dual u up to 2^63 - 1, across 2^63
            P = ControlPolygon(3, first, (F(1, 7), F(-3), F(5, 9)), MeshType.DUAL)
            yield CurveRows(P, first - 1500, P.last_index)
        yield basis_rows(catalog_get("a").mask, 6)

    def test_csv_and_svg_match_per_line_formatters(self):
        for rows in self.curves():
            points = rows_per_index(rows.P, rows.lo, rows.hi)
            assert "".join(curve_csv(rows)) == csv_per_line(points)
            assert "".join(curve_svg(rows)) == svg_per_point(points)

    def test_huge_first_index_parameters(self):
        # integer true division, correctly rounded, as the per-point loop did,
        # also where t is subnormal
        for level in (0, 5, 1100):
            n = 2 ** level
            P = ControlPolygon(level, 2 ** 60 + 1, (F(1, 7), F(-3), F(5, 9)))
            ts = tuple(t for t, _ in points(stored_rows(P)))
            assert ts == tuple(i / n for i in range(P.first_index, P.last_index + 1))
            P = ControlPolygon(level, -(2 ** 54) - 3, (F(2), F(1), F(1, 3)), MeshType.DUAL)
            ts = tuple(t for t, _ in points(stored_rows(P)))
            assert ts == tuple((2 * i + 1) / (2 * n) for i in range(P.first_index, P.last_index + 1))
            # dual u = 2i + 1 past 2^53, in one chunk: up to 2^63 - 1, all in
            # int64 and rounded by the cast, or across 2^63, one truediv each
            for first in (2 ** 62 - 3, 2 ** 62 - 1):
                P = ControlPolygon(level, first, (F(1, 7), F(-3), F(5, 9)), MeshType.DUAL)
                rows = CurveRows(P, first - 1500, P.last_index)
                ts = [t for ts, _ in rows for t in ts]
                assert len(list(rows)) == 1
                assert ts == [(2 * i + 1) / (2 * n) for i in range(rows.lo, rows.hi + 1)]


@st.composite
def row_ranges(draw):
    """A polygon, some with values that round to -0.0 or 0.0 among others
    that do not (denominators past 2^1074), and rows lo..hi that cover,
    clip or miss its window."""
    P = draw(wide_polygons())
    if draw(st.booleans()):
        tiny = draw(st.lists(st.booleans(), min_size=len(P.nums), max_size=len(P.nums)))
        P = ControlPolygon(P.level, P.first_index,
                           [v / 2 ** 1100 if t else v for v, t in zip(polygon_values(P), tiny)], P.mesh)
    lo = P.first_index + draw(st.integers(-12, 12))
    return P, lo, lo + draw(st.integers(0, 24))


class TestStreamedExport:
    """The chunked exports against the per-row oracles, byte for byte."""

    # (stored rows n, zero rows before and after them): the window's edges
    # inside a chunk, or on a chunk's first or last row
    @pytest.mark.parametrize("n, before, after", [
        (refine._CHUNK - 1, 0, 0), (refine._CHUNK, 0, 0), (refine._CHUNK + 1, 0, 0),
        (2 * refine._CHUNK + 1, 0, 0), (refine._CHUNK, refine._CHUNK, refine._CHUNK),
        (refine._CHUNK - 1, 1, refine._CHUNK), (1, refine._CHUNK - 1, refine._CHUNK),
        (refine._CHUNK + 1, refine._CHUNK - 1, 0)],
        ids=["4095", "4096", "4097", "8193", "edges-on-chunk-edges", "window-ends-a-chunk",
             "window-is-a-chunk-end", "window-from-a-chunk-end"])
    def test_chunk_boundaries(self, n, before, after):
        rng = random.Random(n)
        values = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
        values[0] = values[-1] = F(1, 3)
        for mesh in MeshType:
            P = ControlPolygon(7, -n // 2, values, mesh)
            rows = CurveRows(P, P.first_index - before, P.last_index + after)
            sizes = [len(t) for t, _ in rows]
            assert sum(sizes) == before + n + after and set(sizes[:-1]) <= {refine._CHUNK}
            points = rows_per_index(P, rows.lo, rows.hi)
            assert "".join(curve_csv(rows)) == csv_per_line(points)
            assert "".join(curve_svg(rows)) == svg_per_point(points)

    @settings(max_examples=150)
    @given(row_ranges(), st.integers(1, 5))
    def test_any_rows_in_small_chunks(self, case, chunk):
        P, lo, hi = case
        points = rows_per_index(P, lo, hi)
        with unittest.mock.patch.object(refine, "_CHUNK", chunk):
            rows = CurveRows(P, lo, hi)
            assert [(t, v) for ts, vs in rows for t, v in zip(ts, vs)] == points
            assert "".join(curve_csv(rows)) == csv_per_line(points)
            assert "".join(curve_svg(rows)) == svg_per_point(points)

    @pytest.mark.parametrize("mask", [Mask(20, (F(1),) * 12), Mask(-40, (F(-1, 2),) * 10)])
    def test_basis_support_misses_the_window(self, mask):
        rows = basis_rows(mask, 3)
        points = basis_per_index(mask, 3)
        assert set(v for _, v in points) == {0.0}
        assert "".join(curve_csv(rows)) == csv_per_line(points)
        assert "".join(curve_svg(rows)) == svg_per_point(points)

    def test_pad_rows_take_no_value(self):
        # the zero rows outside the stored window are literal text in the
        # template: only window rows reach CurveRows._values and a % slot
        asked = []
        values = CurveRows._values

        def spy(self, a, b):
            asked.append(b - a)
            return values(self, a, b)

        def slots(rows):
            """The % slots of the CSV and SVG templates of rows."""
            return [sum(t.count("%") for t, _ in refine._templates(rows, *args))
                    for args in ((12, "", ",%.12g\n", 0.0), (6, " ", ",%.6g", -0.0))]

        with unittest.mock.patch.object(CurveRows, "_values", spy):
            rows = basis_rows(catalog_get("c").mask, 14)
            assert len(rows.window) == 32767 and rows.hi - rows.lo + 1 == 131073
            assert slots(rows) == [32767, 32767] and sum(asked) == 2 * 32767
            asked.clear()
            "".join(curve_csv(rows)) + "".join(curve_svg(rows))
            assert sum(asked) == 2 * 32767
            for rows in (basis_rows(Mask(20, (F(1),) * 12), 3),
                         CurveRows(ControlPolygon(2, 2 ** 63, (F(1, 3), F(2))), -4, 4)):
                asked.clear()
                assert slots(rows) == [0, 0]
                "".join(curve_csv(rows)) + "".join(curve_svg(rows))
                assert sum(asked) == 0

    @pytest.mark.parametrize("first", [2 ** 63, 10 ** 400, -(2 ** 63) - 1])
    def test_window_far_outside_the_rows(self, first):
        # zero rows past sys.maxsize of them before the window: only those
        # in lo..hi are read
        rows = CurveRows(ControlPolygon(2, first, (F(1, 3), F(2))), -4, 4)
        assert points(rows) == tuple((i / 4, 0.0) for i in range(-4, 5))
        assert "".join(curve_csv(rows)) == csv_per_line(points(rows))
        assert "".join(curve_svg(rows)) == svg_per_point(points(rows))

    def test_value_range_checked_when_rows_are_made(self):
        # only the rows in lo..hi count: a stored value past the float range
        # outside them is no error
        P = ControlPolygon(0, 0, (F(1), F(10 ** 400)))
        assert list(CurveRows(P, -1, 0)) == [([-1.0, 0.0], [0.0, 1.0])]
        for lo, hi in ((0, 1), (1, 3)):
            with pytest.raises(OverflowError, match="a curve value leaves the float range"):
                CurveRows(P, lo, hi)
        with pytest.raises(OverflowError, match="a curve value leaves the float range"):
            stored_rows(ControlPolygon(0, 0, (F(-(10 ** 400)), F(1))))

    # 2^1024 - 2^970 is the least integer that rounds past the largest double
    @pytest.mark.parametrize("first, mesh", [(2 ** 1024 - 2 ** 970 - 1, MeshType.PRIMAL),
                                             (-(2 ** 1024 - 2 ** 970), MeshType.PRIMAL),
                                             (-(10 ** 400), MeshType.DUAL)],
                             ids=["last", "first", "both"])
    def test_t_range_checked_when_rows_are_made(self, first, mesh):
        # the t of only the last row, only the first row, or both leave the range
        P = ControlPolygon(0, first, (F(1), F(2)), mesh)
        with pytest.raises(OverflowError, match="a curve value leaves the float range"):
            stored_rows(P)


def spy_tables(monkeypatch) -> list:
    """(prec, digit count, entries) of every t table the exports make, from
    an empty table cache."""
    made, make = [], refine._t_table
    refine._mesh_table.cache_clear()

    def spy(prec, d, fracs):
        made.append((prec, d, len(fracs)))
        return make(prec, d, fracs)

    monkeypatch.setattr(refine, "_t_table", spy)
    return made


def assert_exports_match(rows):
    points = rows_per_index(rows.P, rows.lo, rows.hi)
    assert "".join(curve_csv(rows)) == csv_per_line(points)
    assert "".join(curve_svg(rows)) == svg_per_point(points)


class TestTTables:
    """The t column read from per-export digit tables: "%.{P}g" % t is the
    sign, str(n) and entry j of the table of n's digit count, t = n + j/2^e."""

    @pytest.mark.parametrize("prec", [6, 12])
    def test_rule_on_every_u_to_12_units(self, prec):
        fmt = "%%.%dg|" % prec
        for e in range(15):
            fracs = np.arange(2 ** e) / 2 ** e
            for d in (0, 1, 2):
                assert refine._admits(prec, e, d)
                text, offs = refine._t_table(prec, d, fracs)
                entries = text.split("|")
                assert entries.pop() == ""
                assert [text[offs[m] + 1:offs[m + 1]] for m in range(2 ** e)] == entries
                for n in [n for n in range(13) if len(str(n or "")) == d]:
                    for sign in ("", "-"):
                        t = float(sign + "1") * (fracs + n)
                        pre = sign + str(n or "")
                        assert pre + text[:-1].replace("|", "|" + pre) == (fmt * 2 ** e % tuple(t.tolist()))[:-1]

    # the last level the guard admits and the first it refuses
    @pytest.mark.parametrize("prec, d, e", [(6, 1, 17), (6, 2, 14), (12, 1, 37)])
    def test_guard_is_tight(self, prec, d, e):
        def wrong(e):
            js = sorted({*range(2 ** e - 300, 2 ** e), *range(2 ** (e - 1) - 150, 2 ** (e - 1) + 150)})
            text, _ = refine._t_table(prec, d, np.array(js) / 2 ** e)
            return [(n, j) for j, entry in zip(js, text.split("|")) for n in (10 ** (d - 1), 10 ** d - 1)
                    if str(n) + entry != "%.*g" % (prec, n + j / 2 ** e)]

        assert refine._admits(prec, e, d) and wrong(e) == []
        assert not refine._admits(prec, e + 1, d) and wrong(e + 1)

    def test_level_12_basis_takes_the_tables(self, monkeypatch):
        # the first export makes its tables and the second takes them all
        # from the cache
        made = spy_tables(monkeypatch)
        for _ in range(2):
            assert_exports_match(basis_rows(catalog_get("a").mask, 12))
            assert sorted(made) == [(6, 0, 4096), (6, 1, 4096), (12, 0, 4096), (12, 1, 4096)]

    def test_cache_keeps_16_tables_of_level_15_at_most(self, monkeypatch):
        made, info = spy_tables(monkeypatch), refine._mesh_table.cache_info
        assert refine._CACHE_LEVEL == 15 and info().maxsize == 16

        def export(k):
            # 2^k rows of 1 at t in [0, 1): one table of 2^k entries a format
            assert_exports_match(stored_rows(refine_k(delta(), Mask(0, (F(1), F(1))), k)))

        export(16)  # made for its export alone
        assert [n for _, _, n in made] == [2 ** 16] * 2 and info().currsize == 0
        for k in range(16):
            export(k)
            assert len(made) == 2 * k + 4 and info().currsize == min(2 * k + 2, 16)
        export(16)
        assert len(made) == 36 and info().currsize == 16
        export(15)  # among the 16 last used
        assert len(made) == 36

    def test_no_table_for_few_rows_or_inexact_t(self, monkeypatch):
        made = spy_tables(monkeypatch)
        P = refine_k(delta(), Mask(0, (F(1),)), 20)  # one row at level 20
        assert P.level == 20 and len(P.nums) == 1
        assert_exports_match(stored_rows(P))
        for mesh in MeshType:  # 2^k rows or more, with |u| >= 2^53
            assert_exports_match(stored_rows(ControlPolygon(0, 2 ** 53, (F(1, 3), F(2), F(-5, 7)), mesh)))
        assert made == []

    @pytest.mark.parametrize("chunk", [5, 4096])
    @pytest.mark.parametrize("mesh", list(MeshType))
    @pytest.mark.parametrize("level", [0, 3, 7, 11])
    def test_exports_match_per_line(self, monkeypatch, chunk, mesh, level):
        # ranges that cross 0, run from |t| < 10 to >= 10 and from < 100 to
        # >= 100, on either side; at level 11 the dual mesh's 3-digit t is
        # past the guard for %.6g, so those chunks format their t
        made = spy_tables(monkeypatch)
        monkeypatch.setattr(refine, "_CHUNK", chunk)
        rng, n = random.Random(level), 2 ** level
        for lo, hi in ((-5 * n - 3, 3 * n + 5), (9 * n - 2, 11 * n), (99 * n - 5, 101 * n + 1),
                       (-101 * n, -99 * n + 3), (-11 * n - 1, -9 * n)):
            values = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(hi - lo - 1)]
            values[0] = values[-1] = F(1, 3)
            assert_exports_match(CurveRows(ControlPolygon(level, lo + 1, values, mesh), lo, hi))
        assert {d for _, d, _ in made} == {0, 1, 2, 3}
        assert ((6, 3, n) in made) == (level < 11)

    @pytest.mark.parametrize("nums, den", [
        ((2 ** 53, -2 ** 53, 1), 3), ((1, -2 ** 53 - 1), 3), ((1, -1), 2 ** 53),
        ((1, 2), 2 ** 53 + 1), ((2 ** 63, 1), 3), ((1, -2 ** 63 - 1), 3)])
    def test_value_column(self, nums, den):
        # correctly rounded values, padded with 0.0, around 2^53 and past int64
        P = ControlPolygon(0, 0, [F(v, den) for v in nums])
        rows = CurveRows(P, -1, len(nums))
        assert list(rows) == [([-1.0, *map(float, range(len(nums) + 1))],
                               [0.0, *(v / den for v in nums), 0.0])]
        assert_exports_match(rows)


def int64_polygon(values, first=0, mesh=MeshType.PRIMAL):
    """The polygon of values, refined one step by the mask 1 + z, which
    repeats every value: the step runs on int64 and keeps den and max|num|,
    and the polygon keeps the int64 array."""
    P = refine_k(ControlPolygon(0, first, values, mesh), Mask(0, (F(1), F(1))), 1)
    assert P.nums.dtype == np.int64
    return P


@st.composite
def int64_runs(draw):
    """int64 numerators with zero ends and a common factor, over a den that
    may share it, or all zeros."""
    g = draw(st.integers(1, 2 ** 20))
    body = [g * v for v in draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=8))]
    nums = [0] * draw(st.integers(0, 3)) + body + [0] * draw(st.integers(0, 3))
    den = draw(st.integers(1, 2 ** 70)) * draw(st.sampled_from((1, g)))
    return nums, den


@st.composite
def scaled_runs(draw):
    """int64 numerators over den = d 2^e with odd d < 2^53 and
    den < 2^1022; some next to q d or q d +- d/2, with q at a midpoint of
    53-bit doubles where it has more bits.  A 1 at each end keeps den."""
    d = 2 * draw(st.integers(0, 2 ** 52 - 1)) + 1
    den = d << draw(st.integers(0, 1022 - d.bit_length()))
    top = 2 ** 63 - 1

    def near(q, off):
        j = max(q.bit_length() - 53, 0)
        return (q >> j << j | 1 << j >> 1) * d + off

    ties = st.builds(near, st.integers(0, top // d), st.sampled_from((0, 1, -1, d // 2, -(d // 2))))
    nums = draw(st.lists(st.integers(-top - 1, top) | ties.filter(lambda x: x <= top).map(
        lambda x: x * draw(st.sampled_from((1, -1)))), min_size=1, max_size=8))
    return [1, *nums, 1], den


class TestInt64Numerators:
    """Polygons that keep _refine's int64 array, against the Fraction route
    and the per-row oracles."""

    @settings(max_examples=200)
    @given(int64_runs(), st.integers(0, 5), st.integers(-8, 8), st.sampled_from(MeshType))
    @example(([0, 0, 0], 2 ** 70 + 2), 1, -3, MeshType.DUAL)  # zeros over a den past int64
    def test_canonical_form_matches_fraction_route(self, run, level, first, mesh):
        nums, den = run
        P = ControlPolygon._from_nums(level, first, np.array(nums, np.int64), den, mesh)
        Q = ControlPolygon(level, first, [F(v, den) for v in nums], mesh)
        assert P.nums.dtype == np.int64 and Q.nums.dtype == object
        assert polygon_key(P) == polygon_key(Q)
        assert_canonical(P)
        assert polygon_values(P) == polygon_values(Q)

    @given(polygons(), masks(), st.integers(0, 4), st.integers(0, 4))
    def test_chained_refine_matches_fraction_route(self, P, mask, k, k2):
        Q = refine_k(P, mask, k)
        R = ControlPolygon(Q.level, Q.first_index, polygon_values(Q), Q.mesh)
        assert polygon_key(Q) == polygon_key(R)
        assert (polygon_key(refine_k(Q, mask, k2)) == polygon_key(refine_k(R, mask, k2))
                == polygon_key(refine_k(P, mask, k + k2)))

    def test_routes_keep_their_storage(self):
        # int64 only where _refine's last level ran on int64
        assert refine_k(delta(), catalog_get("a").mask, 12).nums.dtype == np.int64
        assert refine_k(delta(), Mask(0, (F(2 ** 200), F(1))), 2).nums.dtype == object
        assert ControlPolygon(0, 0, (F(1, 3), F(2))).nums.tolist() == [1, 6]
        assert not CurveRows(ControlPolygon(0, 0, (F(1, 3), F(2))), -1, 2).exact_doubles
        with pytest.raises(ValueError):
            refine_k(delta(), catalog_get("a").mask, 3).nums[0] = 1

    @settings(max_examples=300)
    @given(scaled_runs())
    @example(([1, 0, 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63 - 1, -(2 ** 63) + 1, -(2 ** 63), 1], 3))
    @example(([1, -(2 ** 63), 2 ** 63 - 1, 1], 2 ** 9))
    # near-ties of 53-bit doubles: q d +- 1 and q d +- (d // 2)
    @example(([1, *((2 ** 61 + 2 ** 8) * 3 + o for o in (1, -1)), 1], 3 << 7))
    @example(([1, *((2 ** 52 + 1) * 2047 + o for o in (1, -1, 1023, -1023)), 1], 2047))
    @example(([1, *(-1023 * (2 ** 53 - 1) + o for o in (1, -1, 2 ** 52 - 1, 1 - 2 ** 52)), 1],
              2 ** 53 - 1))
    # den on either side of 2^1022: numpy below, truediv from it on
    @example(([1, 2 ** 63 - 1, -(2 ** 53) - 1, 1], (2 ** 53 - 1) << 969))
    @example(([1, 2 ** 63 - 1, -(2 ** 53) - 1, 1], 3 << 1020))
    @example(([1, 2 ** 63 - 1, -(2 ** 53) - 1, 1], 2 ** 1022))
    @example(([1, 2 ** 63 - 1, -(2 ** 53) - 1, 1], 3 << 1021))
    def test_value_column_is_truediv(self, run):
        nums, den = run
        P = ControlPolygon._from_nums(0, 0, np.array(nums, np.int64), den, MeshType.PRIMAL)
        rows = stored_rows(P)
        assert P.den == den and (rows.scale is None) == (den >= 2 ** 1022)
        # bit for bit, as hex
        assert [v.hex() for _, vs in rows for v in vs] == [(x / den).hex() for x in nums]

    def test_route_takes_no_truediv_where_scaled(self, monkeypatch):
        # the value column's per-row truediv calls, those that divide by den
        calls = []
        monkeypatch.setattr(refine, "truediv", lambda x, y: calls.append(y) or x / y)

        def divisions(rows):
            calls.clear()
            "".join(curve_csv(rows))
            return calls.count(rows.P.den)

        # catalog b at level 12 from (1/5, 11/7): den 2^24 times a 33-bit
        # odd part, numerators of up to 58 bits
        rows = stored_rows(refine_k(ControlPolygon(0, 0, (F(1, 5), F(11, 7))),
                                    catalog_get("b").mask, 12))
        assert rows.window.dtype == np.int64 and rows.P.den > 2 ** 53
        assert max(map(abs, rows.P.nums.tolist())) > 2 ** 53 and not rows.exact_doubles
        assert divisions(rows) == 0
        # an object window, and int64 ones of an odd part of at least 2^53
        # or of den at least 2^1022, one truediv a row; 3 * 2^1020 none
        assert divisions(stored_rows(ControlPolygon(0, 0, (F(1, 3), F(2), F(5, 3))))) == 3
        for den in (2 ** 53 + 1, (2 ** 53 + 1) << 9, 2 ** 1022, 3 << 1021, 3 << 1020):
            P = ControlPolygon._from_nums(0, 0, np.array([1, 2 ** 60, 1], np.int64), den,
                                          MeshType.PRIMAL)
            assert divisions(stored_rows(P)) == (0 if den == 3 << 1020 else 3)

    # a numerator of 2^53 + 1 or a den of 2^53 + 1 is no double; dens of an
    # odd part below 2^53 up to 2^1022 and past it
    @pytest.mark.parametrize("top", [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) + 1,
                                     -(2 ** 53), -(2 ** 53) - 1])
    @pytest.mark.parametrize("den", [3, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 3 << 60,
                                     (2 ** 53 - 1) << 969, 2 ** 1022])
    @pytest.mark.parametrize("mesh", list(MeshType))
    def test_value_column_at_two_to_the_53(self, top, den, mesh):
        P = int64_polygon([F(v, den) for v in (1, top, -2, 5)], -1, mesh)
        assert max(map(abs, P.nums.tolist())) == abs(top) and P.den == den
        # rows before, inside and after the window
        rows = CurveRows(P, P.first_index - 2, P.last_index + 3)
        assert rows.exact_doubles == (abs(top) <= 2 ** 53 and den <= 2 ** 53)
        points = rows_per_index(P, rows.lo, rows.hi)
        assert [(t, v) for ts, vs in rows for t, v in zip(ts, vs)] == points
        csv, svg = "".join(curve_csv(rows)), "".join(curve_svg(rows))
        assert csv == csv_per_line(points) and svg == svg_per_point(points)
        assert csv.endswith(",0\n") and svg.endswith(",-0\"/>\n</svg>\n")

    @pytest.mark.parametrize("n", [refine._CHUNK - 1, refine._CHUNK, refine._CHUNK + 1,
                                   2 * refine._CHUNK + 1])
    @pytest.mark.parametrize("mesh", list(MeshType))
    def test_chunk_edges(self, n, mesh):
        rng = random.Random(n)
        values = [F(rng.randint(-50, 50), rng.choice((3, 5, 7))) for _ in range(refine._CHUNK + 1)]
        values[0] = values[-1] = F(-1, 3)
        P = int64_polygon(values, -1000, mesh)
        # n rows from the window's start, from before it and up to past its end
        for lo in (P.first_index, P.first_index - 5, P.last_index - n + 9):
            rows = CurveRows(P, lo, lo + n - 1)
            assert rows.exact_doubles
            points = rows_per_index(P, rows.lo, rows.hi)
            assert [(t, v) for ts, vs in rows for t, v in zip(ts, vs)] == points
            assert "".join(curve_csv(rows)) == csv_per_line(points)
            assert "".join(curve_svg(rows)) == svg_per_point(points)

    def bounds_cases(self):
        P = int64_polygon([F(-3, 7), F(-1, 7), F(-5, 7)], 2)
        yield P, P.first_index + 1, P.first_index + 1                 # one row, negative
        yield P, P.first_index, P.last_index                           # all negative
        yield P, P.first_index - 2, P.first_index + 1                  # part outside
        P = int64_polygon([F(2, 9), F(1, 9), F(4, 9)], -3, MeshType.DUAL)
        yield P, P.first_index + 3, P.first_index + 3                 # one row, positive
        yield P, P.first_index, P.last_index                           # all positive
        yield P, P.first_index + 2, P.last_index + 5                   # part outside
        yield P, P.last_index + 1, P.last_index + 4                    # outside only
        P = refine_k(delta(), Mask(0, (F(1),)), 20)                   # one row at level 20
        yield P, P.first_index, P.last_index
        # den >= 2^1074: values round to 0.0 and -0.0 in one pass over the rows
        P = int64_polygon([F(1, 2 ** 1100), F(-3, 2 ** 1100), F(2 ** 60, 2 ** 1100)])
        yield P, P.first_index, P.last_index
        yield P, P.first_index - 1, P.first_index + 3

    def test_bounds_are_min_and_max_over_the_rows(self):
        for P, lo, hi in self.bounds_cases():
            assert P.nums.dtype == np.int64
            rows = CurveRows(P, lo, hi)
            points = rows_per_index(P, lo, hi)
            ts, vs = [t for t, _ in points], [v for _, v in points]
            # compared as hex, so that -0.0 and 0.0 differ
            want = (min(ts), max(ts), min(vs), max(vs))
            assert list(map(float.hex, rows.bounds())) == list(map(float.hex, want))
            assert "".join(curve_svg(rows)) == svg_per_point(points)
