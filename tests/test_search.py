import dataclasses
import io
import json
import math
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from conftest import Z, fraction_entries, sympy_symbol
from subdiv import localmatrix, search
from subdiv.convergence import contractive_runs
from subdiv.localmatrix import (_block_charpolys, eigenvalues, local_stack, matrix_from_coeffs,
                                palindromic_classes, w6_discriminant)
from subdiv.masks import Mask, integer_run
from subdiv.search import (FAMILIES, SCAN_BLOCK, CellClass, GridRange, SearchSpec,
                           c1_w6_obstruction, family, min_width_report,
                           negativity_lemma_check, palindromic_coeffs, scan,
                           search_summary_json, write_search_csv)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (as test_golden_pool reads perfbench/)

HALF = F(1, 2)


class TestParameterization:
    def test_free_param_counts(self):
        assert [len(family(w).lin) for w in range(2, 9)] == [0, 0, 1, 1, 2, 2, 3]
        assert all(len(f.grid) == len(f.lin) for f in FAMILIES.values())

    @pytest.mark.parametrize("width", [-3, 0, 1, 9, 100])
    @pytest.mark.parametrize("entry", [family, lambda w: palindromic_coeffs(w, ()),
                                       lambda w: SearchSpec(w, ())],
                             ids=["family", "palindromic_coeffs", "SearchSpec"])
    def test_refuses_a_width_outside_2_to_8(self, entry, width):
        with pytest.raises(ValueError, match=r"^width must be in 2\.\.8$"):
            entry(width)

    @pytest.mark.parametrize("width, params, support_min, run", [
        (5, (F(1, 8),), -2, (F(1, 8), HALF, F(3, 4), HALF, F(1, 8))),
        (6, (F(-1, 10), F(3, 10)), -2, (F(-1, 10), F(3, 10), F(4, 5), F(4, 5), F(3, 10), F(-1, 10))),
        (7, (F(-1, 10), F(3, 10)), -3,
         (F(-1, 10), F(3, 10), F(3, 5), F(2, 5), F(3, 5), F(3, 10), F(-1, 10))),
        (8, (F(1, 8), F(-1, 4), F(1, 3)), -3,
         (F(1, 8), F(-1, 4), F(1, 3), F(19, 24), F(19, 24), F(1, 3), F(-1, 4), F(1, 8))),
    ], ids=["width5", "width6", "width7", "width8"])
    def test_literal_family_runs(self, width, params, support_min, run):
        assert palindromic_coeffs(width, params) == (support_min, run)

    def test_refuses_the_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="^width 6 needs 2 free parameters, got 1$"):
            palindromic_coeffs(6, (F(1, 8),))

    def test_width3_is_two_point_scheme(self):
        assert palindromic_coeffs(3, ()) == (-1, (HALF, F(1), HALF))

    def test_necessary_conditions_hold_by_construction(self):
        # FAMILIES against the conditions it encodes, with sympy symbols as
        # the parameters: s(1) = 2 and s(-1) = 0 identically, a palindromic
        # run centred on 0 (primal) or 1/2 (dual), and outer taps that are
        # the parameters, outermost first
        for width in range(2, 9):
            fam = family(width)
            params = sympy.symbols("p0:%d" % len(fam.lin))
            run = [sympy.Rational(b.numerator, b.denominator) + sum(p * row[i] for p, row in zip(params, fam.lin))
                   for i, b in enumerate(fam.base)]
            s = sympy.Add(*(c * Z ** k for k, c in enumerate(run, fam.support_min)))
            assert len(run) == width and 2 * fam.support_min + width - 1 == 1 - width % 2, width
            assert sympy.expand(s.subs(Z, 1)) == 2 and sympy.expand(s.subs(Z, -1)) == 0, width
            assert all(sympy.expand(c - d) == 0 for c, d in zip(run, reversed(run))), width
            assert all(sympy.expand(c - p) == 0 for c, p in zip(run, params)), width
            # palindromic_coeffs is the table at rational params
            values = tuple(F(k + 1, 17) for k in range(len(params)))
            support_min, got = palindromic_coeffs(width, values)
            assert support_min == fam.support_min
            assert sympy.expand(sympy_symbol(support_min, got) - s.subs(dict(zip(params, values)))) == 0

    @given(st.integers(2, 8), st.data())
    def test_members_satisfy_the_conditions(self, width, data):
        # palindromic_coeffs at parameters with numerators up to 2^300:
        # s(1) = 2, s(-1) = 0, a palindromic run and the parameters as its
        # outer taps, read off the Fractions
        den = data.draw(st.integers(1, 2 ** 300))
        params = [F(x, den) for x in data.draw(st.lists(
            st.integers(-2 ** 300, 2 ** 300), min_size=len(family(width).lin),
            max_size=len(family(width).lin)))]
        support_min, run = palindromic_coeffs(width, params)
        assert len(run) == width and all(type(c) is F for c in run)
        assert sum(run) == 2
        assert sum(c if k % 2 == 0 else -c for k, c in enumerate(run, support_min)) == 0
        assert run == run[::-1] and list(run[:len(params)]) == params

    @pytest.mark.parametrize("width", range(4, 9))
    def test_default_grid_is_the_benchmarks(self, width):
        # the benchmark's oracle counts cells from its own copy of the grids
        assert [(r.lo, r.hi, r.step) for r in family(width).grid] == \
            list(workloads.DEFAULT_GRIDS[width])


def degenerate_params(result):
    """The params of the cells that result flags degenerate."""
    return [c.params for c, degenerate in zip(result.cells, result.degenerate.tolist()) if degenerate]


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
        k = next(k for k, c in enumerate(result.cells) if c.params == (F(-1, 10), F(3, 10)))
        assert result.cells[k].cls is CellClass.COMPLEX_CONVERGENT
        assert not result.degenerate[k]

    def test_small_widths_are_real(self):
        for width in (2, 3, 4):
            result = scan(SearchSpec(width, family(width).grid))
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
        result = scan(SearchSpec(6, (GridRange(F(-1, 4), F(1, 4), F(1, 10)),) * 2))
        for c, degenerate in zip(result.cells, result.degenerate.tolist()):
            if degenerate:
                continue
            a, b = c.params
            assert (w6_discriminant(a, b) < 0) == (c.max_imag > 1e-7)

    def test_complex_convergent_witnesses_have_negative_pair(self):
        result = scan(SearchSpec(6, (GridRange(-HALF, HALF, F(1, 10)),) * 2))
        from subdiv.localmatrix import eigenvalues, matrix_from_coeffs
        found = 0
        for c, degenerate in zip(result.cells, result.degenerate.tolist()):
            if c.cls is CellClass.COMPLEX_CONVERGENT and not degenerate:
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
        assert degenerate_params(result) == [(F(0), F(1, 3))]

    def test_spectra_calls_are_blocked(self, monkeypatch):
        # the 401 cells of the w5 default grid and the 2601 of w6 take more
        # than one block; no call classifies and no root finding stacks
        # more than SCAN_BLOCK matrices (every w5 cell is real and reaches
        # no root finding)
        sizes, solved = [], []

        def counted(L, S):
            sizes.append(len(S))
            return palindromic_classes(L, S)

        def counted_roots(L, cs, S):
            solved.append(len(S))
            return eigenvalues_of(L, cs, S)

        eigenvalues_of = localmatrix._eigenvalues
        monkeypatch.setattr(search, "palindromic_classes", counted)
        monkeypatch.setattr(localmatrix, "_eigenvalues", counted_roots)
        result = scan(SearchSpec(5, family(5).grid))
        assert len(result.cells) == 401 > SCAN_BLOCK
        assert max(sizes) <= SCAN_BLOCK and sum(sizes) == 401 and solved == []
        for cell in result.cells:
            smin, run = palindromic_coeffs(5, cell.params)
            sp = eigenvalues(matrix_from_coeffs(smin, run))
            convergent = contractive_runs(smin, [run], 1)[0]
            expect = {(True, True): CellClass.COMPLEX_CONVERGENT,
                      (True, False): CellClass.COMPLEX_OTHER,
                      (False, True): CellClass.REAL_CONVERGENT,
                      (False, False): CellClass.REAL_OTHER}[sp.has_complex, convergent]
            assert cell.cls is expect, cell.params
            assert cell.max_imag == max(abs(v.imag) for v in sp.eigenvalues), cell.params
        sizes.clear()
        solved.clear()
        result = scan(SearchSpec(6, family(6).grid))
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

        def counted_roots(L, cs, S):
            solved[S.shape[1]] = solved.get(S.shape[1], 0) + len(S)
            return eigenvalues_of(L, cs, S)

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
            result = scan(SearchSpec(w, family(w).grid))
            cells[w] = len(result.cells)
            n_complex[w] = result.counts["ComplexConvergent"] + result.counts["ComplexOther"]
        assert sum(cells.values()) == 3862 and sum(n_complex.values()) == 1007
        assert n_complex == {2: 0, 3: 0, 4: 0, 5: 0, 6: 716, 7: 142, 8: 149}
        assert factored == solved == {w: n_complex[w] for w in (6, 7, 8)}

    def test_reads_the_family_once_per_scan(self, monkeypatch):
        # the runs of every cell come from the family's base + X @ lin: one
        # family lookup a scan, and no per-cell palindromic_coeffs call
        calls = []

        def counted(width):
            calls.append(width)
            return lookup(width)

        def no_call(*args):
            raise AssertionError("palindromic_coeffs called in a scan")

        lookup = search.family
        specs = [SearchSpec(width, family(width).grid) for width in range(2, 9)]
        monkeypatch.setattr(search, "family", counted)
        monkeypatch.setattr(search, "palindromic_coeffs", no_call)
        cells = 0
        for spec in specs:
            calls.clear()
            cells += len(scan(spec).cells)
            assert calls == [spec.width]
        assert cells == 3862

    def test_cell_cap(self, monkeypatch):
        spec = SearchSpec(6, (GridRange(F(-1), F(1), F(1, 100)),) * 2)
        monkeypatch.setattr(search, "MAX_CELLS", 100)
        with pytest.raises(ValueError, match="grid has 40401 cells, cap is 100"):
            scan(spec)
        monkeypatch.undo()

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
        assert r.count == 3
        assert r.values() == [F(0), F(2, 5), F(4, 5)]
        assert GridRange(F(-1, 2), F(1, 2), F(1, 50)).count == 51

    @pytest.mark.parametrize("step", [F(1), F(1, 7), F(5)])
    def test_one_value_axis(self, step):
        # lo == hi is the one value lo, whatever the step
        r = GridRange(F(1, 3), F(1, 3), step)
        assert (r.count, r.values()) == (1, [F(1, 3)])
        with pytest.raises(ValueError, match="^grid range needs lo <= hi$"):
            GridRange(F(1, 3), F(0), step)

    def test_line_scan_is_a_row_of_the_default_grid(self):
        # the width-7 line p1 = 0 (the 4-point scheme at tension -p0),
        # cell for cell as the default grid scans it
        grid = family(7).grid
        full = scan(SearchSpec(7, grid))
        line = scan(SearchSpec(7, (grid[0], GridRange(F(0), F(0), F(1)))))
        assert line.cells == [c for c in full.cells if c.params[1] == 0]
        assert len(line.cells) == 21


def reference_cell(width, params, convergence_filter):
    """(class, max_imag, degenerate) of one cell the per-cell Fraction way:
    palindromic_coeffs, matrix_from_coeffs and eigenvalues."""
    smin, run = palindromic_coeffs(width, params)
    sp = eigenvalues(matrix_from_coeffs(smin, run))
    convergent = contractive_runs(smin, [run], 1)[0] if convergence_filter else True
    cls = {(True, True): CellClass.COMPLEX_CONVERGENT,
           (True, False): CellClass.COMPLEX_OTHER,
           (False, True): CellClass.REAL_CONVERGENT,
           (False, False): CellClass.REAL_OTHER}[sp.has_complex, bool(convergent)]
    degenerate = width == 6 and w6_discriminant(*params) == 0
    return cls, max(abs(v.imag) for v in sp.eigenvalues).hex(), degenerate


def odd_denominator_grid(width):
    """Ranges with steps 1/3, 1/7 and 2/9, a different one on each axis."""
    table = [GridRange(F(-1, 3), F(1, 3), F(1, 3)), GridRange(F(-3, 7), F(2, 7), F(1, 7)),
             GridRange(F(-4, 9), F(4, 9), F(2, 9))]
    return tuple(table[:len(family(width).lin)])


class TestIntegerScan:
    """scan's integer pass equals a per-cell Fraction reference, cell for
    cell: params, class, degenerate flag and the bits of max_imag."""

    def check(self, spec):
        result = scan(spec)
        grid = list(product(*(r.values() for r in spec.param_ranges)))
        assert [c.params for c in result.cells] == grid
        for cell, degenerate in zip(result.cells, result.degenerate.tolist()):
            got = (cell.cls, cell.max_imag.hex(), degenerate)
            assert got == reference_cell(spec.width, cell.params, spec.convergence_filter), \
                cell.params

    @pytest.mark.parametrize("width", range(2, 9))
    def test_default_grids(self, width):
        self.check(SearchSpec(width, family(width).grid))

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
        assert degenerate_params(scan(spec)) == [(F(0), F(1, 3))]

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


def grid_bits(spec):
    """The bit count scan takes for a grid: the bit length of its
    D = lcm(2, each range's lo and step denominators) or of the largest
    |run numerator| over D."""
    den = math.lcm(2, *(x.denominator for r in spec.param_ranges for x in (r.lo, r.step)))
    runs = (palindromic_coeffs(spec.width, params)[1]
            for params in product(*(r.values() for r in spec.param_ranges)))
    return max(den, *(abs(int(a * den)) for run in runs for a in run)).bit_length()


@st.composite
def bit_bound_specs(draw):
    """Grids of widths 4-8, one or two values an axis, whose bits fall
    between 15 and 19: either side of search._INT64_BITS."""
    width = draw(st.integers(4, 8))
    den = 2 * draw(st.integers(2 ** 12, 2 ** 17))
    ranges = []
    for _ in family(width).lin:
        lo, step = F(draw(st.integers(-den, den)), den), F(draw(st.integers(1, 2 ** 8)), den)
        ranges.append(GridRange(lo, lo + draw(st.integers(0, 1)) * step, step))
    spec = SearchSpec(width, tuple(ranges), draw(st.booleans()))
    assume(15 <= grid_bits(spec) <= 19)
    return spec


def one_value_spec(width, den, nums):
    """The one-cell grid of a family at the parameters nums / den."""
    return SearchSpec(width, tuple(GridRange(F(x, den), F(x, den), F(1, den)) for x in nums))


def object_reference(spec):
    """(codes, max_imag bits, degenerate flags) of each cell on its own, on
    Python ints: palindromic_classes and contractive_runs of a dtype=object
    stack of its run's numerators over their own lcm."""
    codes, imag, degenerate = [], [], []
    for params in product(*(r.values() for r in spec.param_ranges)):
        smin, run = palindromic_coeffs(spec.width, params)
        L, nums = integer_run(run)
        R = np.array([nums], dtype=object)
        [has_complex], [max_imag], [odd_disc] = palindromic_classes(L, local_stack(R))
        convergent = contractive_runs(smin, R, L)[0] if spec.convergence_filter else True
        codes.append(2 * (not has_complex) + (not convergent))
        imag.append(max_imag.hex())
        degenerate.append(spec.width == 6 and odd_disc == 0)
    return codes, imag, degenerate


# (D, numerators) of a width-8 cell at 20 bits whose J-odd block has so
# large a determinant that Faddeev-LeVerrier's last trace, 3 det, passes
# 2^63; no cell of these families was found to pass it below 20 bits
WIDE_W8 = (950448, (-1048575, 524287, 1048575))


class TestInt64Route:
    """scan runs a block's exact stage on int64 exactly when the grid has
    at most search._INT64_BITS bits, and either way its columns equal a
    per-cell reference on Python ints."""

    def check(self, spec):
        dtypes = []

        def recorded(L, S):
            dtypes.append(S.dtype)
            return palindromic_classes(L, S)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "palindromic_classes", recorded)
            result = scan(spec)
        int64 = grid_bits(spec) <= search._INT64_BITS
        assert set(dtypes) == {np.dtype(np.int64 if int64 else object)}
        codes, imag, degenerate = object_reference(spec)
        assert result.codes.tolist() == codes
        assert [m.hex() for m in result.max_imag.tolist()] == imag
        assert result.degenerate.tolist() == degenerate

    @settings(max_examples=60, deadline=None)
    @given(bit_bound_specs())
    @example(one_value_spec(8, 118806, (-131071, 65535, 131071)))  # 17 bits: int64
    @example(one_value_spec(8, 237612, (-262143, 131071, 262143)))  # 18 bits: Python ints
    @example(one_value_spec(7, 261264, (-84594, 257218)))  # 18 bits, the J-even block of order 3
    @example(SearchSpec(6, (GridRange(F(0), F(1, 2 ** 16), F(1, 2 ** 16)),
                            GridRange(F(1, 3), F(1, 3), F(1, 3))), True))  # D = 0 at (0, 1/3)
    def test_both_routes_match_python_ints(self, spec):
        self.check(spec)

    def test_int64_would_wrap_on_the_wide_width8_cell(self):
        # the 20-bit cell takes Python ints, where int64 would wrap
        den, nums = WIDE_W8
        spec = one_value_spec(8, den, nums)
        assert grid_bits(spec) == 20
        run = palindromic_coeffs(8, [F(x, den) for x in nums])[1]
        _, odd = _block_charpolys(local_stack([[int(a * den) for a in run]])[:, 1:7, 1:7])
        assert 3 * abs(odd[0, 0]) >= 2 ** 63
        self.check(spec)


class TestNearDoubleRealPair:
    """The width-5 cell a = 1/(2^70 + 1): its spectrum {1, 1/2, 1/2 - 2a,
    a, a} is real, with 1/2 and 1/2 - 2a closer than float resolution.
    The scan decides it exactly; analyze does not yet
    (test_cli.TestAnalyze.test_near_double_real_pair_is_real)."""

    A = F(1, 2 ** 70 + 1)

    def test_exact_scan_route_says_real(self):
        smin, run = palindromic_coeffs(5, (self.A,))
        assert run == (self.A, HALF, 1 - 2 * self.A, HALF, self.A)
        M = matrix_from_coeffs(smin, run)
        has_complex, max_imag, _ = palindromic_classes(M.L, M.B[None])
        assert has_complex.tolist() == [False] and max_imag.tolist() == [0.0]
        result = scan(SearchSpec(5, (GridRange(self.A, 2 * self.A, self.A),)))
        assert result.params(0) == (self.A,)
        assert result.counts["ComplexConvergent"] == result.counts["ComplexOther"] == 0


class TestNegativityLemma:
    def test_maximum_is_zero_at_one_third(self):
        # exact: the maximum over all real b, not over a grid
        assert negativity_lemma_check() == (0, F(1, 3))

    def test_three_point_check_is_not_vacuous(self):
        # a quadratic that vanishes at two of the three points, and the
        # identity with a wrong square, are told apart from zero
        assert search._vanishes(lambda x: 0 * x)
        assert not search._vanishes(lambda x: x * (x - 1))
        assert not search._vanishes(lambda b: 8 * (1 - 5 * b + 8 * b * b) - (1 + b) ** 2
                                    - 7 * (3 * b + 1) ** 2)

    def test_equality_at_one_third_exact(self):
        b = F(1, 3)
        assert (1 + b) ** 2 == 8 * (1 - 5 * b + 8 * b * b)

    def test_square_identity(self):
        import random
        rng = random.Random(31)
        for _ in range(100):
            b = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
            assert 8 * (1 - 5 * b + 8 * b * b) - (1 + b) ** 2 == 7 * (3 * b - 1) ** 2


class TestObstruction:
    def test_holds_exactly(self):
        assert c1_w6_obstruction() is True

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

    def test_root_solves_no_cell(self, monkeypatch):
        # the report prints no max_imag: its counts and witnesses are the
        # scans', with no eigenvalue computed
        scans = [scan(SearchSpec(w, family(w).grid)) for w in range(2, 7)]

        def no_call(*args):
            raise AssertionError("root-solved in min_width_report")

        monkeypatch.setattr(localmatrix, "_eigenvalues", no_call)
        report = min_width_report(6)
        assert report.counts_by_width == tuple((r.width, r.counts) for r in scans)
        assert report.witnesses == tuple(scans[-1].complex_convergent_params())


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


# -- the columnar result against the per-cell one ------------------------

def per_cell_csv(width, cells, flags):
    """write_search_csv as it was when a scan built a Cell per cell: one
    row per Cell and its degenerate flag, each field formatted on its own."""
    f = io.StringIO()
    header = ["p%d" % i for i in range(len(family(width).lin))] + ["class", "max_imag", "degenerate"]
    f.write(",".join(header) + "\n")
    for cell, degenerate in zip(cells, flags):
        row = [str(p) for p in cell.params]
        row += [cell.cls.value, "%.12g" % cell.max_imag, "1" if degenerate else "0"]
        f.write(",".join(row) + "\n")
    return f.getvalue()


def per_cell_summary(width, cells, flags):
    """search_summary_json from a list of Cells and their degenerate flags:
    counts by class, and the first cell of each class as its witness."""
    witnesses = {}
    for cell in cells:
        witnesses.setdefault(cell.cls.value, cell)
    return {
        "width": width,
        "cells": len(cells),
        "counts": {c.value: sum(1 for x in cells if x.cls is c) for c in CellClass},
        "degenerate_cells": sum(flags),
        "witnesses": {
            cls: {"params": [str(p) for p in cell.params], "max_imag": cell.max_imag}
            for cls, cell in sorted(witnesses.items())
        },
    }, witnesses


@st.composite
def small_specs(draw):
    """A SearchSpec of width 2-8, mostly 6-8 (the widths with complex
    cells), with at most about 40 cells: each axis a range from lo in
    [-1/2, 1/2] over denominators 1-12 (one drawn huge), the convergence
    filter on or off."""
    width = draw(st.sampled_from([2, 3, 4, 5, 6, 6, 6, 7, 7, 8, 8]))
    p = len(family(width).lin)
    ranges = []
    for _ in range(p):
        den = draw(st.sampled_from([1, 2, 3, 5, 7, 10, 12, 2 ** 70 + 1]))
        lo = F(draw(st.integers(-den, den)), 2 * den)
        step = F(draw(st.integers(1, den)), den * draw(st.sampled_from([1, 2, 5])))
        count = draw(st.integers(1, max(1, round(40 ** (1 / p)))))
        ranges.append(GridRange(lo, lo + (count - 1) * step + step / 2, step))
    return SearchSpec(width, tuple(ranges), draw(st.booleans()))


def one_cell(width, params, convergence_filter):
    """The Cell of one grid point on its own, and its degenerate flag:
    palindromic_classes of its one local matrix at its own lcm,
    contractive_runs of its run, the max |Im| of its spectrum when it has a
    complex pair (0.0 when not), and w6_discriminant at width 6."""
    smin, run = palindromic_coeffs(width, params)
    M = matrix_from_coeffs(smin, run)
    [(has_complex, _, _)] = zip(*palindromic_classes(M.L, M.B[None]))
    convergent = contractive_runs(smin, [run], 1)[0] if convergence_filter else True
    cls = {(True, True): CellClass.COMPLEX_CONVERGENT,
           (True, False): CellClass.COMPLEX_OTHER,
           (False, True): CellClass.REAL_CONVERGENT,
           (False, False): CellClass.REAL_OTHER}[bool(has_complex), bool(convergent)]
    max_imag = max(abs(v.imag) for v in eigenvalues(M).eigenvalues) if has_complex else 0.0
    return search.Cell(params, cls, max_imag), width == 6 and w6_discriminant(*params) == 0


class TestColumnarResult:
    """A scan's columns give the bytes, cells, witnesses and parameters of
    the per-cell route: a Cell per grid point, each classified on its own
    (one_cell), written by the per-cell CSV loop."""

    @settings(max_examples=60, deadline=None)
    @given(small_specs())
    @example(SearchSpec(6, (GridRange(F(-1, 8), F(0), F(1, 8)),          # D = 0 at
                            GridRange(F(1, 8), F(1, 3), F(5, 24))), True))  # (-1/8, 1/8), (0, 1/3)
    @example(SearchSpec(6, (GridRange(F(-1, 8), F(0), F(1, 8)),
                            GridRange(F(1, 8), F(1, 3), F(5, 24))), False))
    @example(SearchSpec(3, (), True))
    def test_matches_the_per_cell_route(self, spec):
        result = scan(spec)
        grid = list(product(*(r.values() for r in spec.param_ranges)))
        cells, flags = zip(*(one_cell(spec.width, params, spec.convergence_filter)
                             for params in grid))
        buf = io.StringIO()
        write_search_csv(result, buf)
        assert buf.getvalue() == per_cell_csv(spec.width, cells, flags)
        assert [(c.params, c.cls, c.max_imag.hex()) for c in result.cells] == \
            [(c.params, c.cls, c.max_imag.hex()) for c in cells]
        assert result.degenerate.tolist() == list(flags)
        summary, witnesses = per_cell_summary(spec.width, cells, flags)
        assert result.witnesses == witnesses
        assert list(result.witnesses) == list(witnesses)
        assert search_summary_json(result) == summary
        assert json.dumps(search_summary_json(result)) == json.dumps(summary)
        assert result.complex_convergent_params() == [
            c.params for c, degenerate in zip(cells, flags)
            if c.cls is CellClass.COMPLEX_CONVERGENT and not degenerate]

    def test_builds_no_fraction_or_cell_per_cell(self, monkeypatch):
        # the width-6 default grid: a Fraction per axis value and a Cell
        # per witness, none per cell, through the scan and its CSV
        made, built = [], []
        original_new, original_init = F.__new__, search.Cell.__init__

        def counted_new(cls, *args, **kwargs):
            made.append(args)
            return original_new(cls, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        spec = SearchSpec(6, family(6).grid)
        monkeypatch.setattr(F, "__new__", counted_new)
        monkeypatch.setattr(search.Cell, "__init__", counted_init)
        result = scan(spec)
        write_search_csv(result, io.StringIO())
        search_summary_json(result)
        monkeypatch.undo()
        axis_lengths = sum(r.count for r in spec.param_ranges)
        assert len(result.codes) == 51 * 51 and axis_lengths == 102
        assert len(made) <= axis_lengths + len(result.witnesses)
        assert len(built) == len(result.witnesses) == 4

    def test_result_is_frozen(self):
        # counts and witnesses are cached from the columns, so neither a
        # column nor a field may change under them
        result = scan(SearchSpec(6, family(6).grid))
        assert result.counts["ComplexConvergent"] == 97
        for column in (result.codes, result.max_imag, result.degenerate):
            with pytest.raises(ValueError, match="read-only"):
                column[:] = column[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.width = 7
        assert result.counts["ComplexConvergent"] == len(result.complex_convergent_params()) == 97
