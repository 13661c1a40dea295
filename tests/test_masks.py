import json
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import save_scheme
from subdiv.masks import (Mask, SchemeFormatError, SchemeRecord, SymmetryClass,
                          catalog_get, classify_symmetry, integer_run, load_scheme,
                          parse_rational, recenter)


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

    @pytest.mark.parametrize("field, value", [("support_min", True), ("smoothness", True),
                                              ("smoothness", False)])
    def test_boolean_is_not_an_integer(self, tmp_path, field, value):
        doc = {"name": "x", "support_min": -1, "coeffs": ["1/2", "1", "1/2"], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemeFormatError, match="field '%s' must be an integer" % field):
            load_scheme(path)

    def test_boolean_coefficient(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "support_min": -1, "coeffs": ["1/2", true, "1/2"]}')
        with pytest.raises(SchemeFormatError, match=r"coeffs\[1\] = True is not a valid rational"):
            load_scheme(path)

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_coefficient(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "support_min": 0, "coeffs": [1, %s]}' % text)
        with pytest.raises(SchemeFormatError, match=r"coeffs\[1\] = .* is not a valid rational"):
            load_scheme(path)

    @pytest.mark.parametrize("text", ["1e100000000", "1e-100000000"])
    def test_huge_exponent_is_refused_at_once(self, tmp_path, text):
        # Fraction would build 10**(10**8) first; the refusal names the field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "support_min": 0, "coeffs": ["1", text]}))
        start = time.perf_counter()
        with pytest.raises(SchemeFormatError, match=r"coeffs\[1\] = .* decimal exponent"):
            load_scheme(path)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("field", ["coeffs", "support_min"])
    def test_integer_past_the_digit_limit(self, tmp_path, field):
        # a bare JSON integer one digit past the int-string limit fails in
        # json.load, before any field is read; the refusal names the limit
        limit = sys.get_int_max_str_digits()
        doc = {"coeffs": '{"name": "x", "support_min": 0, "coeffs": [1, %s]}',
               "support_min": '{"name": "x", "support_min": %s, "coeffs": [1]}'}[field]
        path = tmp_path / "big.json"
        path.write_text(doc % ("1" * (limit + 1)))
        start = time.perf_counter()
        with pytest.raises(SchemeFormatError, match=r"limit \(%d digits\)" % limit):
            load_scheme(path)
        assert time.perf_counter() - start < 0.5

    def test_bad_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff{"name": "x"}')
        with pytest.raises(SchemeFormatError, match="utf-8"):
            load_scheme(path)

    @pytest.mark.parametrize("text, message", [
        ('[1, 2]', "scheme file must contain a JSON object"),
        ('{"name": 3, "support_min": 0, "coeffs": ["1"]}', "field 'name' must be a string"),
        ('{"name": "x", "support_min": 0, "coeffs": []}', "field 'coeffs' must be a nonempty list"),
        ('{"name": "x", "support_min": 0, "coeffs": "1"}', "field 'coeffs' must be a nonempty list"),
        ('{"name": "x", "support_min": 0, "coeffs": ["1", "0"]}',
         "mask end coefficients must be nonzero"),
        ('{"name": "x",\n "support_min": 0,,\n "coeffs": ["1"]}',
         "invalid JSON at line 2: Expecting property name enclosed in double quotes"),
    ], ids=["not-an-object", "name", "empty-coeffs", "coeffs-not-a-list", "zero-end",
            "malformed-json"])
    def test_format_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SchemeFormatError) as exc:
            load_scheme(path)
        assert str(exc.value) == message

    def test_rationals_survive_exactly(self, tmp_path):
        rec = SchemeRecord("tiny", Mask(-1, (F(1, 3), F(1, 3), F(1, 3))), None)
        path = tmp_path / "t.json"
        save_scheme(rec, path)
        assert load_scheme(path).mask.coeffs == rec.mask.coeffs


class TestParseRational:
    @pytest.mark.parametrize("text", ["3/7", " -2 ", "1.5e+3", "1e4300", "-1E-4300", "2e0_1",
                                      "0.5", "1_000"])
    def test_fraction_of_the_string(self, text):
        assert parse_rational(text) == F(text)

    @given(st.integers(-4300, 4300), st.integers(-99, 99))
    def test_every_exponent_in_the_bound_is_read(self, exp, digits):
        text = "%de%d" % (digits, exp)
        assert parse_rational(text) == F(text)

    @pytest.mark.parametrize("text", ["1e4301", "-1e-4301", "1e100000000", "1e-100000000",
                                      "1.5E+1_000_000", " 2e99999999999 "])
    def test_exponent_past_4300_is_refused_first(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text", ["1e", "e5", "1/2e3", "x"])
    def test_other_bad_strings_are_fractions_errors(self, text):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            parse_rational(text)

    def test_numbers_pass_through(self):
        assert parse_rational(3) == 3 and parse_rational(0.25) == F(1, 4)
        assert parse_rational(F(2, 3)) == F(2, 3)


class TestMaskInvariants:
    def test_zero_end_rejected(self):
        with pytest.raises(ValueError):
            Mask(0, (F(0), F(1)))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="^mask needs at least one coefficient$"):
            Mask(0, ())


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
