import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from subdiv.masks import (Mask, SchemeFormatError, SchemeRecord, SymmetryClass,
                          catalog_get, classify_symmetry, integer_run, load_scheme,
                          recenter, save_scheme)


class TestSymmetry:
    def test_width6_scheme_is_dual(self):
        assert classify_symmetry(catalog_get("a").mask) is SymmetryClass.DUAL

    def test_cubic_bspline_is_primal(self):
        assert classify_symmetry(catalog_get("d").mask) is SymmetryClass.PRIMAL

    def test_asymmetric(self):
        assert classify_symmetry(Mask(0, (F(1), F(2)))) is SymmetryClass.ASYMMETRIC

    def test_translation_invariance(self):
        for name in "abcd":
            mask = catalog_get(name).mask
            for shift in (-3, 0, 2, 7):
                moved = Mask(mask.support_min + shift, mask.coeffs)
                assert classify_symmetry(moved) is classify_symmetry(mask)

    def test_recenter(self):
        moved = Mask(4, catalog_get("d").mask.coeffs)
        assert recenter(moved) == catalog_get("d").mask


class TestCatalog:
    def test_scheme_a(self):
        rec = catalog_get("a")
        assert rec.mask.coeffs == tuple(map(F, ("-1/10", "3/10", "4/5", "4/5", "3/10", "-1/10")))
        assert rec.mask.support_min == -2
        assert rec.smoothness == 0

    def test_scheme_d(self):
        rec = catalog_get("d")
        assert rec.mask.coeffs == tuple(map(F, ("1/8", "4/8", "6/8", "4/8", "1/8")))
        assert rec.smoothness == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_get("x")


class TestFileIO:
    def test_round_trip(self, tmp_path):
        rec = catalog_get("a")
        path = tmp_path / "a.json"
        save_scheme(rec, path)
        assert load_scheme(path) == rec

    def test_zero_denominator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "support_min": 0, "coeffs": ["1/0"]}))
        with pytest.raises(SchemeFormatError) as exc:
            load_scheme(path)
        assert "coeffs[0]" in str(exc.value)

    def test_missing_support_min(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "coeffs": ["1"]}))
        with pytest.raises(SchemeFormatError) as exc:
            load_scheme(path)
        assert "support_min" in str(exc.value)

    def test_rationals_survive_exactly(self, tmp_path):
        rec = SchemeRecord("tiny", Mask(-1, (F(1, 3), F(1, 3), F(1, 3))), None)
        path = tmp_path / "t.json"
        save_scheme(rec, path)
        assert load_scheme(path).mask.coeffs == rec.mask.coeffs


class TestMaskInvariants:
    def test_zero_end_rejected(self):
        with pytest.raises(ValueError):
            Mask(0, (F(0), F(1)))

    def test_indexing_outside_support(self):
        mask = catalog_get("c").mask
        assert mask[-2] == 0 and mask[2] == 0 and mask[0] == 1

    def test_indexing_by_absolute_index(self):
        mask = catalog_get("a").mask
        assert mask[-2] == F(-1, 10) and mask[3] == F(-1, 10)


class TestIntegerRun:
    def test_width6_scheme(self):
        assert integer_run(catalog_get("a").mask.coeffs) == (10, [-1, 3, 8, 8, 3, -1])

    @given(st.lists(st.one_of(st.integers(-50, 50),
                              st.fractions(max_denominator=60)), max_size=10))
    def test_numerators_over_the_lcm(self, values):
        L, nums = integer_run(values)
        assert L == math.lcm(*(F(v).denominator for v in values))
        assert all(type(x) is int for x in nums)
        assert [F(x, L) for x in nums] == [F(v) for v in values]
