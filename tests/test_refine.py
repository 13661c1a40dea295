import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z, laurent_terms, sympy_symbol
from subdiv import refine
from subdiv.masks import Mask, catalog_get
from subdiv.refine import (ControlPolygon, MeshType, RefinementLimitError,
                           SampledCurve, basis_experiment, basis_points_exact,
                           basis_polygon, curve_csv_text, curve_svg_text, delta,
                           parameterize, refine_k)


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
            assert P.values == mask.coeffs
            assert P.level == 1

    def test_two_point_scheme_delta(self):
        P = refine_k(delta(), catalog_get("c").mask, 1)
        assert (P.first_index, P.values) == (-1, (F(1, 2), F(1), F(1, 2)))

    def test_constant_window_stays_constant_inside(self):
        mask = catalog_get("a").mask
        P = ControlPolygon(0, -10, (F(1),) * 21)
        Q = refine_k(P, mask, 1)
        # indices far from the boundary see a complete rule: value exactly 1
        for i in range(-10, 11):
            assert Q[i] == 1

    def test_linearity(self):
        rng = random.Random(41)
        mask = catalog_get("a").mask
        for _ in range(20):
            P, Q = rand_polygon(rng), rand_polygon(rng)
            alpha, beta = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            lo = min(P.first_index, Q.first_index)
            hi = max(P.last_index, Q.last_index)
            combo = ControlPolygon(0, lo, tuple(alpha * P[i] + beta * Q[i]
                                                for i in range(lo, hi + 1)))
            rc = refine_k(combo, mask, 1)
            rp, rq = refine_k(P, mask, 1), refine_k(Q, mask, 1)
            for i in range(rc.first_index - 2, rc.last_index + 3):
                assert rc[i] == alpha * rp[i] + beta * rq[i]

    def test_translation_covariance(self):
        rng = random.Random(43)
        mask = catalog_get("b").mask
        for _ in range(10):
            P = rand_polygon(rng)
            shifted = ControlPolygon(P.level, P.first_index + 3, P.values, P.mesh)
            r, rs = refine_k(P, mask, 1), refine_k(shifted, mask, 1)
            assert rs.first_index == r.first_index + 6
            assert rs.values == r.values


def reference_refine_once(P: ControlPolygon, mask: Mask) -> tuple[int, tuple[F, ...]]:
    """The former dict-of-Fraction step, kept as an oracle: (first_index, values)."""
    out: dict[int, F] = {}
    for l, v in P.items():
        if v == 0:
            continue
        for j, a in zip(mask.support, mask.coeffs):
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
def wide_polygons(draw):
    """polygons() with every value scaled by 1, 2^64 + 1 or 2^201 + 3, so
    slots of one, two and four 64-bit limbs all occur."""
    P = draw(polygons())
    scale = draw(st.sampled_from((1, 2 ** 64 + 1, 2 ** 201 + 3)))
    return ControlPolygon(P.level, P.first_index, [v * scale for v in P.values], P.mesh)


def assert_canonical(P: ControlPolygon):
    assert all(type(v) is int for v in P.nums) and type(P.den) is int
    assert P.den > 0 and math.gcd(P.den, *P.nums) == 1
    if P.nums == (0,):
        assert P.den == 1
    else:
        assert P.nums[0] != 0 and P.nums[-1] != 0


class TestIntegerStep:
    @given(wide_polygons(), masks())
    def test_matches_fraction_reference(self, P, mask):
        Q = refine_k(P, mask, 1)
        assert (Q.first_index, Q.values) == reference_refine_once(P, mask)
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
        want = tuple((float((i + offset) / n), float(v)) for i, v in P.items())
        assert parameterize(P).points == want

    def test_constructor_takes_rationals(self):
        P = ControlPolygon(2, -3, (0, F(1, 6), 0.5, F(-4, 3), 0, 0))
        assert (P.first_index, P.nums, P.den) == (-2, (1, 3, -8), 6)
        assert P.values == (F(1, 6), F(1, 2), F(-4, 3))
        assert P[-1] == F(1, 2) and P[5] == 0
        Z = ControlPolygon(0, 4, (0, 0, 0))
        assert (Z.first_index, Z.nums, Z.den) == (6, (0,), 1)


class TestPackedRefinement:
    @settings(max_examples=150)
    @given(wide_polygons(), masks(), st.integers(0, 10))
    def test_matches_level_by_level_steps(self, P, mask, k):
        # one step is checked against the Fraction reference above
        Q = P
        for _ in range(k):
            Q = refine_k(Q, mask, 1)
        assert refine_k(P, mask, k) == Q
        assert_canonical(Q)

    @pytest.mark.parametrize("scale", [1, 2 ** 63, -(2 ** 63), 2 ** 200 + 1])
    def test_slot_edges(self, scale):
        # values at a slot boundary, one tap per phase (width 2, odd start),
        # a width-1 mask and a mask with zero interior taps
        for mask in (Mask(-1, (F(1), F(1))), Mask(0, (F(-3, 2),)),
                     Mask(-3, (F(1, 4), F(0), F(0), F(-1), F(0), F(3, 4)))):
            P = ControlPolygon(0, 1, (scale, -scale, 0, scale - 1))
            Q = P
            for k in range(7):
                assert refine_k(P, mask, k) == Q
                first, values = reference_refine_once(Q, mask)
                Q = ControlPolygon(k + 1, first, values)

    def test_zero_polygon_and_zero_mask(self):
        zero = ControlPolygon(2, -3, (0,), MeshType.DUAL)
        assert refine_k(zero, catalog_get("a").mask, 5) == ControlPolygon(7, -96, (0,), MeshType.DUAL)
        P = ControlPolygon(0, 5, (F(1, 3), F(2)))
        assert refine_k(P, Mask(2, (F(0),)), 3) == ControlPolygon(3, 40, (0,))

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
            assert P[i] == two_level.get(i, 0)

    def test_support_growth(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            for k in (1, 2, 5):
                P = refine_k(delta(), mask, k)
                lo = mask.support_min * (2 ** k - 1)
                hi = mask.support_max * (2 ** k - 1)
                assert P.first_index >= lo and P.last_index <= hi
        # width-6 scheme at one step: (w-1)(2^k - 1) + 1 = 6 points
        assert len(refine_k(delta(), catalog_get("a").mask, 1).values) == 6

    def test_sum_doubles_each_level(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            P = delta()
            for k in range(1, 7):
                P = refine_k(P, mask, 1)
                assert P.total() == 2 ** k

    def test_resource_cap(self):
        with pytest.raises(RefinementLimitError):
            refine_k(delta(), catalog_get("a").mask, 40, max_points=1000)

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
        assert refine_k(delta(), mask, 60) == ControlPolygon(60, 0, (F(2, 3) ** 60,))

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
        # L = 1, but the values grow by 200 bits a level, and every slot of
        # the packed step is as wide as the largest: 2^20 slots of 504 bytes
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
        need = refine._check_limits(P, mask, k, refine.MAX_POINTS, 0)
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
        if refused:
            with pytest.raises(RefinementLimitError):
                refine_k(P, mask, k, max_points=cap)
        else:
            assert refine_k(P, mask, k, max_points=cap) == Q


class TestParameterize:
    def test_level0_delta(self):
        curve = parameterize(delta())
        assert curve.points == ((0.0, 1.0),)

    def test_level1_primal(self):
        P = ControlPolygon(1, -1, (F(1), F(2), F(1)))
        ts = [t for t, _ in parameterize(P).points]
        assert ts == [-0.5, 0.0, 0.5]

    def test_level1_dual_offsets_by_half_step(self):
        P = ControlPolygon(1, 0, (F(1), F(2)), MeshType.DUAL)
        ts = [t for t, _ in parameterize(P).points]
        assert ts == [0.25, 0.75]


class TestBasisExperiment:
    def test_two_point_scheme_is_exact_tent(self):
        for t, v in basis_points_exact(catalog_get("c").mask, 10):
            assert v == max(F(0), 1 - abs(t))

    def test_cubic_bspline_center_value(self):
        pts = dict(basis_points_exact(catalog_get("d").mask, 10))
        assert abs(float(pts[F(0)]) - 2.0 / 3.0) < 1e-3

    def test_zero_iters_gives_nine_points(self):
        curve = basis_experiment(catalog_get("a").mask, 0)
        assert len(curve.points) == 9
        assert [t for t, _ in curve.points] == [float(i) for i in range(-4, 5)]

    @pytest.mark.parametrize("name", "abcd")
    def test_floats_match_exact_points(self, name):
        mask = catalog_get(name).mask
        exact = basis_points_exact(mask, 5)
        assert basis_experiment(mask, 5).points == tuple((float(t), float(v)) for t, v in exact)

    def test_grid_size(self):
        curve = basis_experiment(catalog_get("c").mask, 4)
        assert len(curve.points) == 8 * 2 ** 4 + 1

    def test_compact_support_outside_is_zero(self):
        mask = catalog_get("d").mask
        P = basis_polygon(mask, 6)
        lo = mask.support_min * (2 ** 6 - 1)
        hi = mask.support_max * (2 ** 6 - 1)
        assert P.first_index >= lo and P.last_index <= hi


class TestCsvExport:
    def test_header_and_format(self):
        text = curve_csv_text(parameterize(delta()))
        lines = text.split("\n")
        assert lines[0] == "t,value"
        assert lines[1] == "0,1"
        assert text.endswith("\n")


def basis_per_index(mask: Mask, iters: int) -> tuple:
    """The former per-index basis sampling, kept as an oracle."""
    P = basis_polygon(mask, iters)
    n, first, last = 2 ** P.level, P.first_index, P.last_index
    return tuple((i / n, P.nums[i - first] / P.den if first <= i <= last else 0.0)
                 for i in range(-4 * n, 4 * n + 1))


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
        assert basis_experiment(mask, k).points == basis_per_index(mask, k)

    @pytest.mark.parametrize("mask, k, misses", [
        (Mask(20, (F(1),) * 12), 3, True),                  # support right of [-4, 4]
        (Mask(-40, (F(1, 2),) * 10), 2, True),              # support left of it
        (Mask(-12, (F(1, 3), F(-1, 7)) * 12), 3, False),    # spills past both ends
    ])
    def test_basis_window_clipped(self, mask, k, misses):
        curve = basis_experiment(mask, k)
        assert curve.points == basis_per_index(mask, k)
        assert len(curve.t) == len(curve.value) == 8 * 2 ** k + 1
        assert (set(curve.value) == {0.0}) == misses

    def curves(self):
        yield parameterize(delta())                                        # one point
        yield parameterize(ControlPolygon(3, -2, (F(1, 3),) * 5))          # constant y
        yield SampledCurve((-0.5, 0.0, 0.5), (-0.0, 0.0, -0.0))            # signed zeros
        yield SampledCurve((1.0,), (-0.0,))
        yield parameterize(refine_k(ControlPolygon(0, 0, (F(1), F(-2, 3)), MeshType.DUAL),
                                    catalog_get("b").mask, 4))             # dual mesh
        for level in (0, 5):                                               # t past 2^53
            yield parameterize(ControlPolygon(level, 2 ** 60 + 1, (F(1, 7), F(-3), F(5, 9))))
            yield parameterize(ControlPolygon(level, -(2 ** 54) - 3, (F(2), 0, F(1, 3)),
                                              MeshType.DUAL))
        yield basis_experiment(catalog_get("a").mask, 6)

    def test_csv_and_svg_match_per_line_formatters(self):
        for curve in self.curves():
            assert curve.points == tuple(zip(curve.t, curve.value))
            assert curve_csv_text(curve) == csv_per_line(curve.points)
            assert curve_svg_text(curve) == svg_per_point(curve.points)

    def test_huge_first_index_parameters(self):
        # integer true division, correctly rounded, as the per-point loop did
        for level in (0, 5):
            n = 2 ** level
            P = ControlPolygon(level, 2 ** 60 + 1, (F(1, 7), F(-3), F(5, 9)))
            assert parameterize(P).t == tuple(i / n for i in range(P.first_index, P.last_index + 1))
            P = ControlPolygon(level, -(2 ** 54) - 3, (F(2), F(1), F(1, 3)), MeshType.DUAL)
            assert parameterize(P).t == tuple((2 * i + 1) / (2 * n)
                                              for i in range(P.first_index, P.last_index + 1))
