import io
import math
from fractions import Fraction as F

import pytest

from subdiv.localmatrix import complex_region_predicate, w6_discriminant
from subdiv.search import (CellClass, GridRange, SearchSpec, c1_w6_obstruction,
                           default_grid, free_param_count, min_width_report,
                           negativity_lemma_check, palindromic_coeffs, scan,
                           search_summary_json, write_search_csv)

HALF = F(1, 2)


class TestParameterization:
    def test_free_param_counts(self):
        assert [free_param_count(w) for w in range(2, 9)] == [0, 0, 1, 1, 2, 2, 3]

    def test_width5_family(self):
        a = F(1, 8)
        support_min, run = palindromic_coeffs(5, (a,))
        assert support_min == -2
        assert run == (a, HALF, 1 - 2 * a, HALF, a)

    def test_width6_family(self):
        a, b = F(-1, 10), F(3, 10)
        support_min, run = palindromic_coeffs(6, (a, b))
        assert support_min == -2
        assert run == (a, b, F(4, 5), F(4, 5), b, a)

    def test_width3_is_two_point_scheme(self):
        assert palindromic_coeffs(3, ()) == (-1, (HALF, F(1), HALF))

    def test_necessary_conditions_hold_by_construction(self):
        from subdiv.search import family_symbol
        for width in range(2, 9):
            params = tuple(F(k + 1, 17) for k in range(free_param_count(width)))
            s = family_symbol(width, params)
            assert s(1) == 2 and s(-1) == 0


class TestScan:
    def test_width5_has_no_complex_cells(self):
        spec = SearchSpec(5, (GridRange(F(-1), F(1), F(1, 20)),))
        result = scan(spec)
        assert result.counts["ComplexConvergent"] == 0
        assert result.counts["ComplexOther"] == 0

    def test_width6_finds_the_paper_cell(self):
        spec = SearchSpec(6, (GridRange(F(-1, 5), F(0), F(1, 10)),
                              GridRange(F(1, 5), F(2, 5), F(1, 10))))
        result = scan(spec)
        cell = next(c for c in result.cells if c.params == (F(-1, 10), F(3, 10)))
        assert cell.cls is CellClass.COMPLEX_CONVERGENT
        assert not cell.degenerate

    def test_small_widths_are_real(self):
        for width in (2, 3, 4):
            g = default_grid(width) if width == 4 else ()
            result = scan(SearchSpec(width, g))
            assert result.counts["ComplexConvergent"] == 0
            assert result.counts["ComplexOther"] == 0

    def test_counts_partition_cells(self):
        spec = SearchSpec(6, (GridRange(F(-1, 4), F(1, 4), F(1, 8)),) * 2)
        result = scan(spec)
        assert sum(result.counts.values()) == len(result.cells) == 25

    def test_eigenvalue_one_everywhere(self):
        spec = SearchSpec(6, (GridRange(F(-1, 4), F(1, 4), F(1, 4)),) * 2)
        from subdiv.localmatrix import eigenvalues, matrix_from_coeffs
        for c in scan(spec).cells:
            smin, run = palindromic_coeffs(6, c.params)
            sp = eigenvalues(matrix_from_coeffs(smin, run))
            assert min(abs(v - 1) for v in sp.eigenvalues) < 1e-9

    def test_predicate_agrees_on_width6_cells(self):
        spec = SearchSpec(6, (GridRange(F(-1, 4), F(1, 4), F(1, 10)),) * 2)
        for c in scan(spec).cells:
            if c.degenerate:
                continue
            a, b = c.params
            assert complex_region_predicate(a, b) == (c.max_imag > 1e-7)

    def test_complex_convergent_witnesses_have_negative_pair(self):
        spec = SearchSpec(6, (GridRange(-HALF, HALF, F(1, 10)),) * 2)
        from subdiv.localmatrix import eigenvalues, matrix_from_coeffs
        found = 0
        for c in scan(spec).cells:
            if c.cls is CellClass.COMPLEX_CONVERGENT and not c.degenerate:
                smin, run = palindromic_coeffs(6, c.params)
                sp = eigenvalues(matrix_from_coeffs(smin, run))
                assert sp.negative_real_count >= 2
                found += 1
        assert found >= 1

    def test_cell_cap(self, monkeypatch):
        spec = SearchSpec(6, (GridRange(F(-1), F(1), F(1, 100)),) * 2)
        with pytest.raises(ValueError):
            scan(spec, max_cells=100)

        # the cap fires before any grid list is built
        def no_values(self):
            raise AssertionError("grid values built before the cell cap")

        monkeypatch.setattr(GridRange, "values", no_values)
        huge = SearchSpec(5, (GridRange(F(0), F(10 ** 6), F(1, 10 ** 6)),))
        with pytest.raises(ValueError, match="cap is"):
            scan(huge)

    def test_grid_length_is_exact(self):
        r = GridRange(F(0), F(1), F(2, 5))
        assert len(r) == 3
        assert r.values() == [F(0), F(2, 5), F(4, 5)]
        assert len(GridRange(F(-1, 2), F(1, 2), F(1, 50))) == 51


class TestNegativityLemma:
    def test_grid_maximum_near_one_third(self):
        mx, argmax = negativity_lemma_check(F(-5), F(5), F(1, 100))
        assert mx <= 1e-9
        assert abs(float(argmax) - 1.0 / 3.0) < 0.02

    def test_equality_at_one_third_exact(self):
        b = F(1, 3)
        assert (1 + b) ** 2 == 8 * (1 - 5 * b + 8 * b * b)

    def test_value_at_zero(self):
        mx, _ = negativity_lemma_check(F(0), F(1, 100), F(1, 100))
        assert mx < 0
        assert abs((1 - 2 * math.sqrt(2)) - (1 + 0 - 2 * math.sqrt(2 * 1))) < 1e-15

    def test_square_identity(self):
        import random
        rng = random.Random(31)
        for _ in range(100):
            b = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
            assert 8 * (1 - 5 * b + 8 * b * b) - (1 + b) ** 2 == 7 * (3 * b - 1) ** 2


class TestObstruction:
    def test_grid(self):
        assert c1_w6_obstruction(F(-1), F(1), F(1, 100)) is True

    def test_double_root_point(self):
        assert w6_discriminant(F(-1, 8), F(-1, 8) + F(1, 4)) == 0

    def test_sample_point(self):
        assert w6_discriminant(F(0), F(1, 4)) == F(1, 16)


class TestMinWidth:
    def test_up_to_five_finds_nothing(self):
        report = min_width_report(5)
        assert report.min_width is None
        assert report.witnesses == ()

    def test_width_two_only(self):
        assert min_width_report(2).min_width is None

    def test_six_with_witness(self):
        report = min_width_report(6)
        assert report.min_width == 6
        assert (F(-1, 10), F(3, 10)) in report.witnesses


class TestExports:
    def test_csv_shape(self):
        result = scan(SearchSpec(6, (GridRange(F(-1, 4), F(1, 4), F(1, 4)),) * 2))
        buf = io.StringIO()
        write_search_csv(result, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "p0,p1,class,max_imag,degenerate"
        assert len(lines) == 1 + len(result.cells)

    def test_summary_json(self):
        result = scan(SearchSpec(5, (GridRange(F(-1, 4), F(1, 4), F(1, 4)),)))
        doc = search_summary_json(result)
        assert doc["width"] == 5
        assert doc["cells"] == len(result.cells)
