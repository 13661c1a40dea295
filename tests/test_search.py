import io
import math
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import Z, fraction_entries, sympy_symbol
from subdiv import localmatrix, search
from subdiv.convergence import is_contractive
from subdiv.localmatrix import (complex_region_predicate, eigenvalues, matrix_from_coeffs,
                                palindromic_classes, w6_discriminant)
from subdiv.masks import Mask
from subdiv.search import (SCAN_BLOCK, CellClass, GridRange, SearchSpec, c1_w6_obstruction,
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
        for width in range(2, 9):
            params = tuple(F(k + 1, 17) for k in range(free_param_count(width)))
            support_min, run = palindromic_coeffs(width, params)
            s = sympy_symbol(support_min, run)
            assert s.subs(Z, 1) == 2 and s.subs(Z, -1) == 0


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

    def test_degenerate_means_zero_discriminant(self):
        # D(0, 1/3 - 1e-6) = 9e-12 is tiny but nonzero: not degenerate
        eps = F(1, 10 ** 6)
        spec = SearchSpec(6, (GridRange(F(0), eps, eps),
                              GridRange(F(1, 3) - eps, F(1, 3), eps)))
        result = scan(spec)
        assert len(result.cells) == 4
        assert [c.params for c in result.cells if c.degenerate] == [(F(0), F(1, 3))]

    def test_spectra_calls_are_blocked(self, monkeypatch):
        # the 401 cells of the w5 default grid and the 2601 of w6 take more
        # than one block; no call classifies and no root finding stacks
        # more than SCAN_BLOCK matrices (every w5 cell is real and reaches
        # no root finding)
        sizes, solved = [], []

        def counted(L, S):
            sizes.append(len(S))
            return palindromic_classes(L, S)

        def counted_roots(Ls, orders, factors):
            solved.append(len(factors))
            return eigenvalues_of(Ls, orders, factors)

        eigenvalues_of = localmatrix._eigenvalues
        monkeypatch.setattr(search, "palindromic_classes", counted)
        monkeypatch.setattr(localmatrix, "_eigenvalues", counted_roots)
        result = scan(SearchSpec(5, default_grid(5)))
        assert len(result.cells) == 401 > SCAN_BLOCK
        assert max(sizes) <= SCAN_BLOCK and sum(sizes) == 401 and solved == []
        for cell in result.cells:
            smin, run = palindromic_coeffs(5, cell.params)
            sp = eigenvalues(matrix_from_coeffs(smin, run))
            convergent = is_contractive(smin, run)
            expect = {(True, True): CellClass.COMPLEX_CONVERGENT,
                      (True, False): CellClass.COMPLEX_OTHER,
                      (False, True): CellClass.REAL_CONVERGENT,
                      (False, False): CellClass.REAL_OTHER}[sp.has_complex, convergent]
            assert cell.cls is expect, cell.params
            assert cell.max_imag == max(abs(v.imag) for v in sp.eigenvalues), cell.params
        sizes.clear()
        solved.clear()
        result = scan(SearchSpec(6, default_grid(6)))
        assert max(sizes) <= SCAN_BLOCK and sum(sizes) == len(result.cells) == 2601
        assert len(solved) > 1 and max(solved) <= SCAN_BLOCK

    def test_only_complex_cells_reach_root_finding(self, monkeypatch):
        # the exact rule decides the class: of the 3862 default-grid cells
        # of widths 2-8 only the 1007 complex ones are factored and
        # root-solved, none at widths 2-5, and no cell builds a Spectrum or
        # evaluates w6_discriminant
        factored, solved = {}, {}

        def counted_split(cs, S):
            factored[S.shape[1]] = factored.get(S.shape[1], 0) + len(cs)
            return split(cs, S)

        def counted_roots(Ls, orders, factors):
            for n in orders:
                solved[n] = solved.get(n, 0) + 1
            return eigenvalues_of(Ls, orders, factors)

        def no_call(*args):
            raise AssertionError("called in a scan")

        split, eigenvalues_of = localmatrix._split_factors, localmatrix._eigenvalues
        monkeypatch.setattr(localmatrix, "_split_factors", counted_split)
        monkeypatch.setattr(localmatrix, "_eigenvalues", counted_roots)
        monkeypatch.setattr(localmatrix.Spectrum, "from_values", no_call)
        monkeypatch.setattr(localmatrix, "w6_discriminant", no_call)
        monkeypatch.setattr(search, "w6_discriminant", no_call)
        cells, n_complex = {}, {}
        for w in range(2, 9):
            result = scan(SearchSpec(w, default_grid(w)))
            cells[w] = len(result.cells)
            n_complex[w] = result.counts["ComplexConvergent"] + result.counts["ComplexOther"]
        assert sum(cells.values()) == 3862 and sum(n_complex.values()) == 1007
        assert n_complex == {2: 0, 3: 0, 4: 0, 5: 0, 6: 716, 7: 142, 8: 149}
        assert factored == solved == {w: n_complex[w] for w in (6, 7, 8)}

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

    def test_cell_past_float_range_ends_the_scan(self):
        # the cell at a = 2^300 has factor coefficients near the float range
        # and its Newton polish overflows: the whole scan is an error, as a
        # cell past 2^1024 is one (OverflowError), not a NaN classification
        spec = SearchSpec(6, (GridRange(F(0), F(2 ** 300), F(2 ** 300)),
                              GridRange(F(0), F(1, 4), F(1, 4))))
        with pytest.raises(localmatrix.EigensolveError, match="leaves the float range"):
            scan(spec)

    def test_contractivity_builds_no_mask(self, monkeypatch):
        built = []
        original = Mask.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Mask, "__post_init__", counted)
        result = scan(SearchSpec(6, (GridRange(-HALF, HALF, F(1, 10)),) * 2))
        assert len(result.cells) == 121 and result.counts["ComplexConvergent"] > 0
        assert built == []

    def test_grid_length_is_exact(self):
        r = GridRange(F(0), F(1), F(2, 5))
        assert len(r) == 3
        assert r.values() == [F(0), F(2, 5), F(4, 5)]
        assert len(GridRange(F(-1, 2), F(1, 2), F(1, 50))) == 51


def reference_cell(width, params, convergence_filter):
    """(class, max_imag, degenerate) of one cell the per-cell Fraction way:
    palindromic_coeffs, matrix_from_coeffs and eigenvalues."""
    smin, run = palindromic_coeffs(width, params)
    sp = eigenvalues(matrix_from_coeffs(smin, run))
    convergent = is_contractive(smin, run) if convergence_filter else True
    cls = {(True, True): CellClass.COMPLEX_CONVERGENT,
           (True, False): CellClass.COMPLEX_OTHER,
           (False, True): CellClass.REAL_CONVERGENT,
           (False, False): CellClass.REAL_OTHER}[sp.has_complex, convergent]
    degenerate = width == 6 and w6_discriminant(*params) == 0
    return cls, max(abs(v.imag) for v in sp.eigenvalues).hex(), degenerate


def odd_denominator_grid(width):
    """Ranges with steps 1/3, 1/7 and 2/9, a different one on each axis."""
    table = [GridRange(F(-1, 3), F(1, 3), F(1, 3)), GridRange(F(-3, 7), F(2, 7), F(1, 7)),
             GridRange(F(-4, 9), F(4, 9), F(2, 9))]
    return tuple(table[:free_param_count(width)])


class TestIntegerScan:
    """scan's integer pass equals a per-cell Fraction reference, cell for
    cell: params, class, degenerate flag and the bits of max_imag."""

    def check(self, spec):
        result = scan(spec)
        grid = list(product(*(r.values() for r in spec.param_ranges)))
        assert [c.params for c in result.cells] == grid
        for cell in result.cells:
            got = (cell.cls, cell.max_imag.hex(), cell.degenerate)
            assert got == reference_cell(spec.width, cell.params, spec.convergence_filter), \
                cell.params

    @pytest.mark.parametrize("width", range(2, 9))
    def test_default_grids(self, width):
        self.check(SearchSpec(width, default_grid(width)))

    @pytest.mark.parametrize("convergence_filter", [True, False])
    @pytest.mark.parametrize("width", range(2, 9))
    def test_odd_and_mixed_denominators(self, width, convergence_filter):
        self.check(SearchSpec(width, odd_denominator_grid(width), convergence_filter))

    def test_width6_mixed_denominators(self, monkeypatch):
        # D = lcm(2, 9, 15) = 90; the grid holds (0, 1/3), where the
        # discriminant is 0, and (0, 1/5), where the modular split runs
        fallbacks = []

        def counted(c, g, p):
            fallbacks.append(c)
            return lift(c, g, p)

        lift = localmatrix._yun_lift
        monkeypatch.setattr(localmatrix, "_yun_lift", counted)
        spec = SearchSpec(6, (GridRange(F(-2, 9), F(2, 9), F(1, 9)),
                              GridRange(F(-1, 15), F(3, 5), F(2, 15))), False)
        self.check(spec)
        assert fallbacks
        assert [c.params for c in scan(spec).cells if c.degenerate] == [(F(0), F(1, 3))]

    @pytest.mark.parametrize("width", range(2, 9))
    def test_block_matrices_follow_the_index_rule(self, monkeypatch, width):
        # scan gathers a block's matrices from the padded runs with one index
        # array; each pair (L, B) is the cell's local matrix times L
        seen = []

        def recorded(L, S):
            seen.extend((L, B) for B in S)
            return palindromic_classes(L, S)

        monkeypatch.setattr(search, "palindromic_classes", recorded)
        result = scan(SearchSpec(width, odd_denominator_grid(width)))
        assert len(seen) == len(result.cells)
        for (L, B), cell in zip(seen, result.cells):
            M = matrix_from_coeffs(*palindromic_coeffs(width, cell.params))
            assert [[F(x, L) for x in row] for row in B.tolist()] == [list(r) for r in fraction_entries(M)]

    def test_no_fraction_or_local_matrix_per_cell(self, monkeypatch):
        made = []
        original_new = F.__new__

        def counted_new(cls, *args, **kwargs):
            made.append(cls)
            return original_new(cls, *args, **kwargs)

        def no_call(*args, **kwargs):
            raise AssertionError("called in a scan")

        # the grid holds the lines a = 0 and a = b, where the central block
        # repeats a root and the modular split runs, in integers too
        spec = SearchSpec(6, (GridRange(F(-1, 3), F(1, 3), F(1, 60)),) * 2)
        monkeypatch.setattr(localmatrix.LocalMatrix, "__init__", no_call)
        monkeypatch.setattr(F, "__new__", counted_new)
        result = scan(spec)
        monkeypatch.undo()
        # the grid values of the two axes, not one per cell
        assert len(result.cells) == 41 * 41
        assert len(made) < 10 * 41


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
