import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from conftest import save_scheme
from subdiv import cli, convergence, dynamics, localmatrix, masks, refine
from subdiv.cli import build_parser, main
from subdiv.masks import Mask, SchemeRecord, catalog_get
from subdiv.search import GridRange


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_lists_all_schemes(self, capsys):
        code, out, err = run(capsys, "catalog")
        assert code == 0 and err == ""
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["a", "b", "c", "d"]
        a = rows[0]
        assert a["coeffs"] == ["-1/10", "3/10", "4/5", "4/5", "3/10", "-1/10"]
        assert a["smoothness"] == 0


class TestAnalyze:
    def test_width6_scheme_report(self, capsys):
        code, out, err = run(capsys, "analyze", "--scheme", "catalog:a")
        assert code == 0 and err == ""
        doc = json.loads(out)
        conv = doc["convergence"]
        assert conv["s_at_1"] == "2" and conv["s_at_minus1"] == "0"
        assert conv["norm"] == "4/5"
        assert conv["verdict"] == "C0Certified"
        assert conv["certified_smoothness"] == 0
        cls = doc["classification"]
        assert cls["has_complex"] is True
        assert cls["negative_real_count"] == 2
        assert cls["convergence_spectral_ok"] is True
        pair = sorted((v for v in doc["spectrum"]["eigenvalues"]
                       if abs(v["im"]) > 1e-9), key=lambda v: v["im"])
        assert len(pair) == 2
        for v in pair:
            assert abs(v["re"] - 0.4) < 1e-9
            assert abs(abs(v["im"]) - math.sqrt(2) / 5) < 1e-9

    def test_cubic_bspline_smoothness(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scheme", "catalog:d")
        doc = json.loads(out)
        assert doc["convergence"]["certified_smoothness"] == 2
        assert doc["classification"]["has_complex"] is False

    def test_file_scheme_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        save_scheme(catalog_get("b"), path)
        code, out, _ = run(capsys, "analyze", "--scheme", str(path))
        assert code == 0
        assert json.loads(out)["convergence"]["certified_smoothness"] == 1

    @pytest.mark.parametrize("text, field", [
        ('{"name": "x", "support_min": true, "coeffs": ["1/2", "1", "1/2"]}',
         "field 'support_min' must be an integer"),
        ('{"name": "x", "support_min": -1, "coeffs": ["1/2", "1", "1/2"], "smoothness": true}',
         "field 'smoothness' must be an integer or null"),
        ('{"name": "x", "support_min": -1, "coeffs": ["1/2", true, "1/2"]}', "coeffs[1] = True"),
        ('{"name": "x", "support_min": -1, "coeffs": ["1/2", Infinity, "1/2"]}', "coeffs[1] = inf"),
    ])
    def test_scheme_file_field_is_named(self, capsys, tmp_path, text, field):
        # JSON booleans are no integers, and Infinity no rational: exit 1,
        # the message naming the field
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: " + field)

    def test_unknown_catalog_name(self, capsys):
        code, out, err = run(capsys, "analyze", "--scheme", "catalog:nope")
        assert code == 1
        assert out == ""
        assert "unknown catalog scheme" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--scheme", str(tmp_path / "no.json"))
        assert code == 2
        assert "i/o error" in err

    def test_eigenvalue_past_float_range_is_an_error(self, capsys, tmp_path):
        # within the bit-size cap (16 * 65 bits), but the factor coefficients
        # pass the float range and the Newton polish overflows: no NaN in the
        # report, no RuntimeWarning, exit 1
        path = tmp_path / "wide.json"
        save_scheme(SchemeRecord("wide", Mask(0, (F(1),) + (F(0),) * 14 + (F(1), F(0), F(2 ** 64)))),
                    path)
        with np.errstate(all="raise"):
            code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert code == 1 and out == ""
        assert err == "error: an eigenvalue leaves the float range\n"

    def test_charpoly_coefficient_past_float_range_is_an_error(self, capsys, tmp_path):
        # 6 * 997 bits pass check_size, but a factor coefficient f_k / L^(d-k)
        # is past the largest double
        path = tmp_path / "w8.json"
        path.write_text('{"name": "w8", "support_min": -3, "coeffs": '
                        '["1e300", "1", "1", "1", "1", "1", "1", "1e300"]}')
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert code == 1 and out == ""
        assert err == "error: a characteristic polynomial coefficient leaves the float range\n"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 2: analyze decides has_complex "
                       "at SPECTRAL_TOL from float roots, and two real eigenvalues closer "
                       "than float resolution come back as a complex pair")
    def test_near_double_real_pair_is_real(self, capsys, tmp_path):
        # spectrum {1, 1/2, 1/2 - 2a, a, a}, real; the float roots give the
        # pair 0.49999999999999983 +- 1.02e-8i.  search decides the same
        # cell exactly and says real (test_search.TestNearDoubleRealPair)
        a = F(1, 2 ** 70 + 1)
        path = tmp_path / "near.json"
        save_scheme(SchemeRecord("near", Mask(-2, (a, F(1, 2), 1 - 2 * a, F(1, 2), a))), path)
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["classification"]["has_complex"] is False

    @pytest.mark.parametrize("shift", [2 ** 63, 10 ** 400, -(2 ** 63) - 1])
    def test_far_shifted_mask(self, capsys, tmp_path, shift):
        # only the parity of support_min reaches the arithmetic: the report
        # is that of the same run at shift 0 or 1, save for the shift
        reports = []
        for support_min in (shift % 2, shift):
            path = tmp_path / "shifted.json"
            path.write_text('{"name": "x", "support_min": %d, "coeffs": ["1/2", "1", "1/2"]}'
                            % support_min)
            code, out, err = run(capsys, "analyze", "--scheme", str(path))
            assert code == 0 and err == ""
            doc = json.loads(out)
            assert doc["scheme"]["support_min"] == doc["convergence"]["difference_mask"][
                "support_min"] == support_min
            assert doc["local_matrix"]["column_offset"] == 1 - support_min
            for d in (doc["scheme"], doc["convergence"]["difference_mask"], doc["local_matrix"]):
                d.pop("support_min", None), d.pop("column_offset", None)
            reports.append(doc)
        assert reports[1] == reports[0]


def first_primes(count):
    """The first count primes, by a sieve up to 13 * count (p_n < 13 n for
    every n up to 10^5)."""
    sieve = np.ones(13 * count, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)[:count].tolist()


def prime_mask(tmp_path, count):
    """A scheme file of the coefficients 1/p over the first count primes."""
    path = tmp_path / "primes.json"
    path.write_text(json.dumps({"name": "primes", "support_min": 0,
                                "coeffs": ["1/%d" % p for p in first_primes(count)]}))
    return path


class TestRefineAndBasis:
    def test_basis_row_count(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "catalog:a", "--iters", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) - 1 == 8 * 2 ** 10 + 1

    def test_refine_csv(self, capsys):
        code, out, _ = run(capsys, "refine", "--scheme", "catalog:c",
                           "--points", "1", "--iters", "3")
        assert code == 0
        lines = out.strip().split("\n")
        # delta refined 3 times under the two-point scheme: 2^4 - 1 points
        assert len(lines) - 1 == 15

    def test_svg_output(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "catalog:d",
                           "--iters", "4", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "<polyline" in out

    # analyze, search and dynamics are checked in TestTolValidation; no
    # command takes --tol
    @pytest.mark.parametrize("command", ["basis", "refine"])
    def test_exact_commands_take_no_tol(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scheme", "catalog:a", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_point_cap_exits_before_refining(self, capsys):
        code, out, err = run(capsys, "basis", "--scheme", "catalog:a", "--iters", "40")
        assert code == 1 and out == ""
        assert "refinement would exceed 10000000 stored points" in err

    @pytest.mark.parametrize("argv", [
        ("basis", "--scheme", "catalog:b", "--iters", "10", "--format", "csv"),
        ("basis", "--scheme", "catalog:d", "--iters", "10", "--format", "svg"),
        ("refine", "--scheme", "catalog:a", "--points=1/3,-2/5,4/7", "--iters", "10",
         "--format", "csv"),
        ("refine", "--scheme", "catalog:b", "--points=2/3,-1/5", "--mesh", "dual",
         "--iters", "10", "--format", "svg"),
    ], ids=["basis-csv", "basis-svg", "refine-csv", "refine-svg"])
    def test_out_matches_stdout(self, capsys, tmp_path, argv):
        # the streamed chunks reach a file and stdout alike
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "curve"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_basis_export_memory(self, tmp_path):
        # the curve is streamed from the integer numerators: no whole float
        # columns and no whole text.  Building both peaked at 12.2 MB here,
        # the stream at 2.2 MB.
        argv = ["basis", "--scheme", "catalog:c", "--iters", "14", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.1 * 2 ** 20

    def test_level_cap_exits_before_refining(self, capsys, monkeypatch, tmp_path):
        # a width-1 mask keeps one point, so only the level cap bounds the time
        def no_step(P, mask, k):
            raise AssertionError("refined before the level cap was checked")

        monkeypatch.setattr(refine, "_refine", no_step)
        path = tmp_path / "w1.json"
        save_scheme(SchemeRecord("w1", Mask(0, (F(2, 3),))), path)
        code, out, err = run(capsys, "refine", "--scheme", str(path), "--iters", "100000000")
        assert code == 1 and out == ""
        assert "refinement would exceed level 60" in err

    def test_memory_cap_exits_before_refining(self, capsys, monkeypatch):
        def no_step(P, mask, k):
            raise AssertionError("refined before the memory cap was checked")

        monkeypatch.setattr(refine, "_refine", no_step)
        code, out, err = run(capsys, "basis", "--scheme", "catalog:a", "--iters", "20")
        assert code == 1 and out == ""
        assert "refinement would exceed 1024 MB of memory" in err

    def test_work_cap_exits_before_refining(self, capsys, monkeypatch, tmp_path):
        # 1000 coefficients 1/p: the second level is 10^6 products of
        # 11400-bit ints, about 45 s of work, which the memory cap admits
        calls = []
        monkeypatch.setattr(refine, "_refine", lambda *args: calls.append(args))
        path, out_path = prime_mask(tmp_path, 1000), tmp_path / "curve.csv"
        code, out, err = run(capsys, "refine", "--scheme", str(path), "--iters", "2",
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: refinement would exceed 1e+10 units of work (about 1.4e+11)\n"
        assert not out_path.exists() and calls == []

    def test_int64_work_cap_exits_before_refining(self, capsys, monkeypatch, tmp_path):
        # 40000 coefficients 1/2: every level runs on int64, the last one
        # 1.1e10 multiply-adds, about 6 s of work
        calls = []
        monkeypatch.setattr(refine, "_refine", lambda *args: calls.append(args))
        path = tmp_path / "halves.json"
        save_scheme(SchemeRecord("halves", Mask(0, (F(1, 2),) * 40000)), path)
        code, out, err = run(capsys, "refine", "--scheme", str(path), "--iters", "4")
        assert (code, out) == (1, "")
        assert err == "error: refinement would exceed 1e+10 units of work (about 2.2e+10)\n"
        assert calls == []

    def test_wide_mask_from_a_file_answers_at_once(self, capsys, tmp_path, monkeypatch):
        # 40000 coefficients 1/p, p distinct primes: L has about 700000
        # bits, and the mask's integer form costs time and memory quadratic
        # in the width (12 s).  One step is refused from an lcm tree's floor
        # of the memory estimate, and no step needs the integer form at all.
        def integer_run(values):
            assert len(values) < 40000, "the wide mask's integer form was built"
            return masks.integer_run(values)

        monkeypatch.setattr(refine, "integer_run", integer_run)
        path = prime_mask(tmp_path, 40000)
        for command, iters, code_expected in (("basis", "1", 1), ("refine", "1", 1),
                                              ("refine", "0", 0)):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--scheme", str(path), "--iters", iters)
            assert time.perf_counter() - start < 5.0, (command, iters)
            assert code == code_expected, err
            if code:
                assert out == "" and "would exceed 1024 MB of memory (about " in err
            else:
                assert err == "" and out

    def test_many_prime_mask_refines_at_once(self, capsys, tmp_path):
        # 5000 coefficients 1/p: every numerator L/p has about 70000 bits,
        # and the gcd of the first j of them is L over j primes, so a gcd
        # folded over them from the left costs seconds
        path = prime_mask(tmp_path, 5000)
        start = time.perf_counter()
        code, out, err = run(capsys, "refine", "--scheme", str(path), "--iters", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        assert out == "t,value\n" + "".join("%.12g,%.12g\n" % (i / 2, 1 / p)
                                            for i, p in enumerate(first_primes(5000)))

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_basis_of_a_far_shifted_mask(self, capsys, tmp_path, fmt):
        # the basis function lies far right or left of [-4, 4]: every value
        # is 0, and the bytes are the same for every shift, to stdout and
        # to --out
        outs = []
        for shift in (100, 2 ** 63, 10 ** 400, -(2 ** 63) - 1):
            path = tmp_path / "shifted.json"
            path.write_text('{"name": "x", "support_min": %d, "coeffs": ["1/2", "1", "1/2"]}'
                            % shift)
            argv = ("basis", "--scheme", str(path), "--iters", "2", "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            out_path = tmp_path / "curve.out"
            assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
            assert out_path.read_text() == out
            outs.append(out)
        assert outs == [outs[0]] * 4
        if fmt == "csv":
            rows = [line.split(",") for line in outs[0].splitlines()[1:]]
            assert len(rows) == 8 * 2 ** 2 + 1 and {v for _, v in rows} == {"0"}

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "refine", "--scheme", "catalog:d",
                           "--iters", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("t,value\n")


class TestDynamics:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--scheme", "catalog:a", "--K", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("k,d_k,")
        assert len(lines) == 12

    @pytest.mark.parametrize("K", ["10001", "1000000000"])
    def test_K_bound_exits_before_any_step(self, capsys, monkeypatch, K):
        def no_step(*args):
            raise AssertionError("stepped before the K bound was checked")

        monkeypatch.setattr(dynamics, "_transient_numerators", no_step)
        code, out, err = run(capsys, "dynamics", "--scheme", "catalog:a", "--K", K)
        assert code == 1 and out == ""
        assert "K must be <= 10000" in err

    def test_float_overflow_is_domain_error(self, capsys, tmp_path):
        # a divergent mask whose states pass the float range by K = 1000
        path = tmp_path / "div.json"
        save_scheme(SchemeRecord("div", Mask(-1, (F(3), F(1), F(-2)))), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path), "--K", "1000")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_transient_past_float_range_is_named(self, capsys, tmp_path):
        # the width-8 mask of eight 3s: transient 287 is the first past the
        # float range, so K = 300 is an error, exit 1; the mode magnitudes
        # of transient 286 overflow too (test_mode_past_float_range_is_named),
        # so K = 285 is the last K that prints
        path = tmp_path / "threes.json"
        save_scheme(SchemeRecord("threes", Mask(-4, (F(3),) * 8)), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path), "--K", "300")
        assert code == 1 and out == ""
        assert err == ("error: transient 287 leaves the float range; "
                       "the trajectory is finite up to K = 286\n")
        code, out, _ = run(capsys, "dynamics", "--scheme", str(path), "--K", "285")
        assert code == 0 and len(out.splitlines()) == 287
        assert "nan" not in out and "inf" not in out

    def test_transient_0_past_float_range_names_no_finite_k(self, capsys):
        # the start's own transient overflows: there is no finite K to name
        code, out, err = run(capsys, "dynamics", "--scheme", "catalog:d", "--K", "3",
                             "--v0=1e308,1e308,1e308,1e308,-1e308")
        assert (code, out, err) == (1, "", "error: transient 0 leaves the float range\n")

    # MASK4U of TestDeterminism and a width-5 mask from -2: each matrix has
    # the simple eigenvalue 1 and rows that do not sum to 1, so the limit of
    # its states is not a multiple of 1
    @pytest.mark.parametrize("start, coeffs, bound", [
        (-6, ("1", "-2/3", "-1/3", "-1/2"), 1e-20),
        (-2, ("1", "3/5", "-1/5", "1/4", "1/4"), 1e-15),
    ], ids=["w4u", "w5u"])
    def test_unbalanced_mask_decays_to_its_limit(self, capsys, tmp_path, start, coeffs, bound):
        # the distance and every mode column at k = 300 are below the bound
        path = tmp_path / "unbalanced.json"
        save_scheme(SchemeRecord("unbalanced", Mask(start, tuple(map(F, coeffs)))), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path), "--K", "300")
        assert code == 0 and err == ""
        k, *values = out.splitlines()[-1].split(",")
        assert k == "300" and len(values) >= 2
        assert all(0 <= float(x) < bound for x in values)

    def test_mode_past_float_range_is_named(self, capsys, tmp_path):
        # transient 286 of the eight 3s is finite, but its eigenbasis
        # coefficients are not: exit 1 naming the step, no inf or nan row
        path = tmp_path / "threes.json"
        save_scheme(SchemeRecord("threes", Mask(-4, (F(3),) * 8)), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path), "--K", "286")
        assert code == 1 and out == ""
        assert err == ("error: the mode magnitudes of transient 286 leave the float range; "
                       "they are finite up to K = 285\n")

    def test_width_1_is_refused_by_the_local_matrix(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        save_scheme(SchemeRecord("one", Mask(0, (F(2),))), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path),
                             "--out", str(tmp_path / "X.csv"))
        assert (code, out, err) == (1, "", "error: local matrix needs mask width >= 2\n")
        assert not (tmp_path / "X.csv").exists()

    def test_bad_v0_length(self, capsys):
        code, _, err = run(capsys, "dynamics", "--scheme", "catalog:a",
                           "--v0", "1,2")
        assert code == 1
        assert "matrix order" in err

    def test_v0_length_named_by_iterate_local(self, capsys):
        # one check of the length, iterate_local's
        code, out, err = run(capsys, "dynamics", "--scheme", "catalog:a", "--v0", "1,2")
        assert code == 1 and out == ""
        assert err == "error: v0 has dimension 2, matrix order is 6\n"

    @pytest.mark.parametrize("width", [3, 6, 9])
    def test_default_v0_is_the_delta_window(self, capsys, tmp_path, width):
        # the window of delta() on the n = width points around index 0:
        # 1 at index n // 2, ties toward the lower index
        path = tmp_path / "bspline.json"
        coeffs = tuple(F(math.comb(width - 1, k), 2 ** (width - 2)) for k in range(width))
        save_scheme(SchemeRecord("bspline", Mask(-(width // 2), coeffs)), path)
        unit = ",".join("1" if i == width // 2 else "0" for i in range(width))
        got = run(capsys, "dynamics", "--scheme", str(path), "--K", "8")
        assert got[0] == 0 and got[2] == ""
        assert got == run(capsys, "dynamics", "--scheme", str(path), "--K", "8", "--v0", unit)


class TestSearch:
    def test_stdout_summary(self, capsys):
        code, out, _ = run(capsys, "search", "--width", "6",
                           "--grid=-1/5:0:1/10,1/5:2/5:1/10")
        assert code == 0
        doc = json.loads(out)
        assert doc["width"] == 6
        assert doc["counts"]["ComplexConvergent"] >= 1

    def test_file_pair(self, capsys, tmp_path):
        base = tmp_path / "scan"
        code, out, _ = run(capsys, "search", "--width", "5",
                           "--grid=-1/4:1/4:1/8", "--out", str(base))
        assert code == 0 and out == ""
        assert (tmp_path / "scan.csv").exists()
        assert (tmp_path / "scan.json").exists()

    def test_min_width(self, capsys):
        code, out, _ = run(capsys, "search", "--min-width", "--max-width", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["min_width"] == 6
        assert ["-1/10", "3/10"] in doc["witnesses"]

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "search", "--width", "5", "--grid", "0:1")
        assert code == 1
        assert "grid range" in err

    @pytest.mark.parametrize("width, grid, message", [
        ("4", "1:0:1", "grid range needs lo <= hi"),
        ("4", "0:1:0", "grid step must be > 0"),
        ("6", "0:1:1/2", "width 6 needs 2 grid ranges, got 1"),
        ("9", "0:1:1", "width must be in 2..8"),
    ], ids=["lo-above-hi", "zero-step", "range-count", "width-9"])
    def test_bad_spec_error_line(self, capsys, tmp_path, width, grid, message):
        code, out, err = run(capsys, "search", "--width", width, "--grid", grid,
                             "--out", str(tmp_path / "X"))
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert list(tmp_path.iterdir()) == []

    def test_cell_past_float_range_is_an_error(self, capsys):
        grid = "0:%d:%d,0:1/4:1/4" % (2 ** 300, 2 ** 300)
        with np.errstate(all="raise"):
            code, out, err = run(capsys, "search", "--width", "6", "--grid", grid)
        assert code == 1 and out == ""
        assert err == "error: an eigenvalue leaves the float range\n"

    def test_charpoly_coefficient_past_float_range_is_an_error(self, capsys):
        code, out, err = run(capsys, "search", "--width", "8",
                             "--grid", "1e300:2e300:1e300,0:1:1,0:1:1")
        assert code == 1 and out == ""
        assert err == "error: a characteristic polynomial coefficient leaves the float range\n"

    def test_grid_past_the_charpoly_cap(self, capsys, monkeypatch, tmp_path):
        # at a = 1 the corner is a root of the central charpoly, so every
        # complex cell takes the modular split of its whole charpoly; b =
        # 1/10^k puts 10^k in the common denominator.  At k = 2300 that
        # polynomial passes the largest table prime: refused before any
        # cell is classified, as analyze refuses such a mask.
        calls, split = [], localmatrix._squarefree_split
        monkeypatch.setattr(localmatrix, "_squarefree_split", lambda c: calls.append(c) or split(c))
        grid = "1:2:1,1/%d:1:1" % 10 ** 2300
        code, out, err = run(capsys, "search", "--width", "6", "--grid", grid,
                             "--out", str(tmp_path / "X"))
        assert (code, out, calls) == (1, "", [])
        assert err == ("error: grid too large for exact arithmetic: width 6, 7642 bits; "
                       "needs max(width - 2, 1) * bits <= 11000\n")
        assert list(tmp_path.iterdir()) == []
        # at k = 826, 4 * 2745 bits, the cap admits it and the split answers
        code, out, err = run(capsys, "search", "--width", "6", "--grid",
                             "1:2:1,1/%d:1:1" % 10 ** 826)
        assert code == 0 and err == "" and len(calls) == 1
        assert json.loads(out)["counts"]["ComplexOther"] == 2

    @pytest.mark.parametrize("width", ["1", "9"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "0:1:1"]], ids=["default", "grid"])
    def test_width_outside_2_to_8(self, capsys, width, grid):
        code, out, err = run(capsys, "search", "--width", width, *grid)
        assert code == 1 and out == ""
        assert err == "error: width must be in 2..8\n"

    # the cell count of each grid: the last two have more points than len()
    # can return, and past 10^18 the message says so, never inf
    CELLS = {"0:1000000:1/1000000": "1000000000001", "0:1e30:1e-30": "more than 10^18",
             "-1:1:1e-4300": "more than 10^18"}

    @pytest.mark.parametrize("grid", list(CELLS))
    def test_grid_over_cell_cap(self, capsys, monkeypatch, grid):
        def no_values(self):
            raise AssertionError("grid values built before the cell cap")

        monkeypatch.setattr(GridRange, "values", no_values)
        code, out, err = run(capsys, "search", "--width", "5", "--grid=" + grid)
        assert code == 1 and out == ""
        assert err == "error: grid has %s cells, cap is 1000000\n" % self.CELLS[grid]

    P, Q = 10 ** 2200 + 1, 10 ** 2200 + 3

    @pytest.mark.parametrize("grid, named", [
        ("1e4300:2e4300:1e4300", "p0 = lo + 0 step"),
        # lo, hi and step print, but lo + step has a 4401-digit denominator
        ("1/%d:2/%d:1/%d" % (P, P, Q), "p0 = lo + 1 step"),
    ], ids=["exponent", "lcm"])
    def test_grid_value_past_the_str_limit(self, capsys, tmp_path, grid, named):
        # str() of a grid value would fail in the export: refused by scan,
        # before either output file is opened
        out_path = tmp_path / "X"
        code, out, err = run(capsys, "search", "--width", "4", "--grid", grid,
                             "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == "error: grid value %s has more than 4300 digits\n" % named
        assert list(tmp_path.iterdir()) == []


class TestTolValidation:
    # no command takes --tol: analyze and search classify at
    # localmatrix.SPECTRAL_TOL, dynamics pairs modes by LAPACK's order
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("analyze", "--scheme", "catalog:a"),
        ("search", "--width", "5", "--grid=-1/4:1/4:1/8"),
        ("dynamics", "--scheme", "catalog:a", "--K", "5"),
    ], ids=["analyze", "search", "dynamics"])
    def test_rejects_tol_not_finite_positive(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol=" + tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err


class TestRationalBounds:
    """A decimal exponent past +-4300 is refused before Fraction builds
    10**exp: exit 1 at once, the message naming the option or field."""

    @pytest.mark.parametrize("text", ["1e100000000", "1e-100000000"])
    @pytest.mark.parametrize("argv, named", [
        (("refine", "--scheme", "catalog:c", "--points", "1,{}"), "--points"),
        (("search", "--width", "5", "--grid={}:1:1/8"), "--grid"),
        (("dynamics", "--scheme", "catalog:c", "--K", "5", "--v0", "1,{},1"), "--v0"),
    ], ids=["points", "grid", "v0"])
    def test_cli_values(self, capsys, argv, named, text):
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.format(text) for a in argv))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: bad rational %r in %s: decimal exponent" % (text, named))

    @pytest.mark.parametrize("text", ["1e100000000", "1e-100000000"])
    def test_scheme_file_coeffs(self, capsys, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "x", "support_min": -1, "coeffs": ["1/2", text, "1/2"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: coeffs[1] = %r is not a valid rational: decimal exponent" % text)


    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400 + "/3"],
                             ids=["1e400", "-1e400", "10^400/3"])
    def test_v0_past_the_float_range(self, capsys, text):
        code, out, err = run(capsys, "dynamics", "--scheme", "catalog:c", "--K", "3",
                             "--v0", "1,%s,1" % text)
        assert code == 1 and out == ""
        assert err == "error: bad rational %r in --v0: past the float range\n" % text

    def test_refined_curve_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "refine", "--scheme", "catalog:c", "--points", "1e400",
                             "--iters", "1")
        assert code == 1 and out == ""
        assert err == "error: a curve value leaves the float range\n"

    @pytest.mark.parametrize("argv", [
        # values near 1e600 after two levels, refused from the extreme numerators
        ("basis", "--scheme", "huge", "--iters", "2"),
        ("refine", "--scheme", "huge", "--iters", "2"),
        # the parameter t of the one row past the float range
        ("refine", "--scheme", "catalog:a", "--points", "1",
         "--first-index", str(10 ** 309), "--iters", "0"),
    ], ids=["basis", "refine", "refine-first-index"])
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_curve_past_the_float_range_writes_nothing(self, capsys, tmp_path, argv, fmt,
                                                       to_file):
        # refused before the output file is opened or stdout is written
        path = tmp_path / "huge.json"
        save_scheme(SchemeRecord("huge", Mask(-1, (F(10 ** 300), F(1), F(10 ** 300)))), path)
        out_path = tmp_path / "curve.out"
        argv = [str(path) if a == "huge" else a for a in argv]
        code, out, err = run(capsys, *argv, "--format", fmt,
                             *(["--out", str(out_path)] if to_file else []))
        assert code == 1 and out == ""
        assert err == "error: a curve value leaves the float range\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("field", ["coeffs", "support_min"])
    def test_scheme_file_integer_past_the_digit_limit(self, capsys, tmp_path, field):
        limit = sys.get_int_max_str_digits()
        doc = {"coeffs": '{"name": "x", "support_min": -1, "coeffs": [1, %s, 1]}',
               "support_min": '{"name": "x", "support_min": %s, "coeffs": [1]}'}[field]
        path = tmp_path / "big.json"
        path.write_text(doc % ("1" * (limit + 1)))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: unreadable scheme file: ")
        assert "limit (%d digits)" % limit in err


class TestParserReuse:
    """main() parses every call with one parser; each call's output must be
    the one a fresh process prints, with nothing carried over."""

    def fresh(self, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "subdiv.cli", *argv], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout

    @pytest.mark.parametrize("first, second", [
        (("dynamics", "--scheme", "catalog:a", "--K", "20", "--norm", "2"),
         ("dynamics", "--scheme", "catalog:a", "--K", "20")),
        (("search", "--width", "6", "--grid=-1/5:0:1/10,1/5:2/5:1/10", "--no-filter"),
         ("search", "--width", "6", "--grid=-1/5:0:1/10,1/5:2/5:1/10")),
    ], ids=["dynamics", "search"])
    def test_options_do_not_carry_over(self, capsys, first, second):
        outs = []
        for argv in (first, second):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] != outs[1]
        assert outs == [self.fresh(*first), self.fresh(*second)]

    def test_rejected_call_leaves_no_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--scheme", "catalog:a", "--K", "20", "--norm", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ("dynamics", "--scheme", "catalog:a", "--K", "20")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == self.fresh(*argv)

    def test_each_call_parses_into_a_fresh_namespace(self, capsys, monkeypatch):
        grid = "--grid=-1/5:0:1/10,1/5:2/5:1/10"
        calls = [("dynamics", "--scheme", "catalog:a", "--K", "5", "--norm", "2",
                  "--v0", "0,1,0,0,0,0"),
                 ("dynamics", "--scheme", "catalog:b"),
                 ("search", "--width", "6", grid, "--no-filter"),
                 ("search", "--width", "6", grid)]
        run(capsys, "catalog")  # main() builds its parser on the first call
        seen = []
        parse = cli._parser.parse_args
        monkeypatch.setattr(cli._parser, "parse_args",
                            lambda *a, **kw: seen.append(parse(*a, **kw)) or seen[-1])
        for argv in calls:
            assert run(capsys, *argv)[0] == 0
        assert [vars(ns) for ns in seen] == \
            [vars(build_parser().parse_args(list(argv))) for argv in calls]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_no_parser_built_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import subdiv.cli as c; assert c._parser is None"
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                       check=True)


# every option of every subcommand; a new option is a reviewed edit here
OPTIONS = {
    "catalog": {"-h", "--help", "--out", "-o"},
    "analyze": {"-h", "--help", "--scheme", "--out", "-o", "--target"},
    "refine": {"-h", "--help", "--scheme", "--out", "-o", "--iters", "--points",
               "--first-index", "--mesh", "--format"},
    "basis": {"-h", "--help", "--scheme", "--out", "-o", "--iters", "--format"},
    "dynamics": {"-h", "--help", "--scheme", "--out", "-o", "--K", "--v0", "--norm"},
    "search": {"-h", "--help", "--out", "-o", "--width", "--grid", "--no-filter",
               "--min-width", "--max-width"},
}


class TestRefusals:
    """Each refusal exits 1 with its one stderr line and writes no output."""

    @pytest.mark.parametrize("argv, message", [
        (["search"], "search needs --width or --min-width"),
        (["search", "--min-width", "--max-width", "1"], "max_width must be >= 2"),
        (["search", "--width", "9"], "width must be in 2..8"),
        (["dynamics", "--scheme", "catalog:a", "--K", "0"], "K must be >= 1"),
        (["analyze", "--scheme", "catalog:a", "--target", "-1"], "target_m must be >= 0"),
        (["refine", "--scheme", "catalog:a", "--iters", "-1"], "k must be >= 0"),
        (["basis", "--scheme", "catalog:a", "--iters", "-1"], "iters must be >= 0"),
    ])
    def test_option_values(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(out_path)) == (1, "", "error: %s\n" % message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, message", [
        ('[1, 2]', "scheme file must contain a JSON object"),
        ('{"name": 3, "support_min": 0, "coeffs": ["1"]}', "field 'name' must be a string"),
        ('{"name": "x", "support_min": 0, "coeffs": []}', "field 'coeffs' must be a nonempty list"),
        ('{"name": "x", "support_min": 0, "coeffs": "1"}', "field 'coeffs' must be a nonempty list"),
        ('{"name": "x", "support_min": 0, "coeffs": ["0", "1"]}',
         "mask end coefficients must be nonzero"),
        ('{"name": "x",\n "support_min": 0,,\n "coeffs": ["1"]}',
         "invalid JSON at line 2: Expecting property name enclosed in double quotes"),
    ], ids=["not-an-object", "name", "empty-coeffs", "coeffs-not-a-list", "zero-end",
            "malformed-json"])
    def test_scheme_files(self, capsys, tmp_path, text, message):
        path, out_path = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(text)
        assert run(capsys, "analyze", "--scheme", str(path), "--out", str(out_path)) == (
            1, "", "error: %s\n" % message)
        assert not out_path.exists()


def test_option_inventory():
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in sp._actions for s in a.option_strings}
           for name, sp in sub.choices.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("command", ["analyze", "dynamics"])
def test_order_cap_exits_before_any_matrix(capsys, monkeypatch, tmp_path, command):
    def no_charpoly(*args):
        raise AssertionError("eigensolve ran past the order cap")

    monkeypatch.setattr(localmatrix, "_charpolys", no_charpoly)
    n = localmatrix.MAX_ORDER
    assert localmatrix.matrix_from_coeffs(0, [F(1, n)] * n).n == n
    path = tmp_path / "wide.json"
    save_scheme(SchemeRecord("wide", Mask(0, (F(1, n + 1),) * (n + 1))), path)
    code, out, err = run(capsys, command, "--scheme", str(path))
    assert code == 1 and out == ""
    assert err == "error: local matrix needs mask width <= %d, got %d\n" % (n, n + 1)


def test_analyze_refuses_wide_mask_before_certify(capsys, monkeypatch, tmp_path):
    def no_certify(*args):
        raise AssertionError("certify ran past the order cap")

    monkeypatch.setattr(convergence, "certify", no_certify)
    n = localmatrix.MAX_ORDER + 1
    path = tmp_path / "wide.json"
    save_scheme(SchemeRecord("wide", Mask(0, (F(1, n),) * n)), path)
    code, out, err = run(capsys, "analyze", "--scheme", str(path))
    assert code == 1 and out == ""
    assert err == "error: local matrix needs mask width <= %d, got %d\n" % (n - 1, n)


def many_digit_mask(width, digits):
    """A width-`width` mask whose denominators are distinct `digits`-digit
    odd numbers, so L has about width * digits digits."""
    return Mask(0, tuple(F(k + 1, 10 ** (digits - 1) + 2 * k + 1) for k in range(width)))


@pytest.mark.parametrize("digits", [100, 400])
@pytest.mark.parametrize("command", ["analyze", "dynamics"])
def test_refuses_a_mask_of_too_many_bits(capsys, monkeypatch, tmp_path, command, digits):
    # at width 24, 100-digit denominators kept analyze's charpoly and the
    # exact fixed point of dynamics running for minutes, and 400-digit ones
    # passed CPython's int-to-string limit in analyze's convergence report
    def no_work(*args):
        raise AssertionError("ran past the bit-size cap")

    monkeypatch.setattr(convergence, "certify", no_work)
    monkeypatch.setattr(localmatrix, "matrix_from_coeffs", no_work)
    path = tmp_path / "bits.json"
    save_scheme(SchemeRecord("bits", many_digit_mask(24, digits)), path)
    code, out, err = run(capsys, command, "--scheme", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: mask too large for exact arithmetic: width 24, ")
    assert err.endswith("; needs max(width - 2, 1) * bits <= %d\n"
                        % localmatrix.MAX_CHARPOLY_BITS)


def test_analyze_at_the_bit_size_cap(capsys, monkeypatch, tmp_path):
    # width 23 (21 central rows), palindromic with zero at every odd place
    # (the centre too): the central block repeats the root 0, so the split
    # runs, at a prime far above 2^61; one more bit of L is refused
    bits = localmatrix.MAX_CHARPOLY_BITS // 21
    primes = []
    lift = localmatrix._yun_lift

    def recorded(c, g, p):
        primes.append(p)
        return lift(c, g, p)

    monkeypatch.setattr(localmatrix, "_yun_lift", recorded)
    for extra, code_expected in ((0, 0), (1, 1)):
        L = 2 ** (bits + extra - 1) + 1
        half = [F((-1) ** k * (L // (k + 2)), L) if k % 2 else F(0) for k in range(12)]
        path = tmp_path / ("edge%d.json" % extra)
        save_scheme(SchemeRecord("edge", Mask(-11, tuple(half[:0:-1] + half))), path)
        code, out, err = run(capsys, "analyze", "--scheme", str(path))
        assert code == code_expected, err
    assert len(primes) == 1 and primes[0] > 2 ** 521


def test_one_eigensolve_per_dynamics_request(capsys, monkeypatch):
    original = localmatrix.eigenvalues
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # every module that bound the exact solve under any name, and numpy's
    # float solves
    for name, mod in list(sys.modules.items()):
        if name == "subdiv" or name.startswith("subdiv."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted(original))
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    code, out, _ = run(capsys, "dynamics", "--scheme", "catalog:a", "--K", "10")
    assert code == 0 and out
    # the trajectory needs no exact spectrum; one np.linalg.eig of the float
    # matrix sizes the fixed-point precision and gives the modes
    assert calls == ["eig"]


# sha256 of stdout, recorded with this numpy version.  LAPACK-derived floats
# may differ under another numpy build, so the digest of a request that calls
# np.linalg holds only under this version; elsewhere run-to-run identity
# does.  The commands of LAPACK_FREE print integers, IEEE quotients and %
# formatting alone, so their digests hold on every build, as the deep-refine
# and user-masks basis hashes of tests/test_golden_pool.py do;
# test_basis_and_refine_call_no_lapack checks that their requests here call
# no np.linalg.
DIGEST_NUMPY = "2.4.6"
LAPACK_FREE = ("basis", "refine")


def calls_lapack(capsys, monkeypatch, argv) -> bool:
    """Whether the CLI request argv calls np.linalg: every function there
    records the call and raises while it runs."""
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("np.linalg called")

    with monkeypatch.context() as m:
        for name, value in vars(np.linalg).items():
            if callable(value) and not isinstance(value, type) and not name.startswith("_"):
                m.setattr(np.linalg, name, refused)
        try:
            run(capsys, *argv)
        except AssertionError:
            pass
    capsys.readouterr()
    return bool(calls)


# an asymmetric width-13 rational mask with s(1) = 2, s(-1) = 0 and a complex
# subdominant pair; the test writes it to a file in place of MASK13
MASK13 = "<width-13 mask file>"
W13_COEFFS = tuple(F(c) for c in (
    "1/21", "-1/35", "-2/15", "1/6", "3/10", "2/5", "1/2", "3/8", "3/14",
    "1/11", "-1/9", "-37/9240", "23/126"))
# an asymmetric width-13 rational mask whose corner 1/2 is also an eigenvalue
# of the (square-free) central block, so the corner joins class 2; the test
# writes it to a file in place of MASK13Y
MASK13Y = "<width-13 corner-root mask file>"
W13Y_COEFFS = tuple(F(c) for c in (
    "1/21", "0", "0", "0", "0", "1/2", "15/28", "1/2", "-1/12", "0", "0", "0",
    "1/2"))
# an asymmetric width-13 rational mask whose central block has the double
# eigenvalue 1, so its square-free split runs Yun's algorithm; the test
# writes it to a file in place of MASK13R
MASK13R = "<width-13 repeated-root mask file>"
W13R_COEFFS = tuple(F(c) for c in (
    "3/7", "0", "0", "0", "0", "-6/7", "6/35", "0", "0", "1", "0", "6/7", "2/5"))
# an unbalanced width-4 rational mask (even sum 2/3, odd sum -7/6) whose
# local matrix still has the simple dominant eigenvalue 1, so B*1 != L*1
# and the states' limit is not a multiple of 1; the test writes it to a
# file in place of MASK4U
MASK4U = "<width-4 unbalanced mask file>"
W4U_COEFFS = tuple(F(c) for c in ("1", "-2/3", "-1/3", "-1/2"))
# an unbalanced width-6 rational mask (even sum 1/2, odd sum 6/5) whose
# local matrix has no eigenvalue 1 and one complex pair: the fixed point is
# 0 and the transients are the exact states; the test writes it to a file
# in place of MASK6N
MASK6N = "<width-6 mask file without eigenvalue 1>"
W6N_COEFFS = tuple(F(c) for c in ("-1/8", "1/2", "3/4", "1/2", "-1/8", "1/5"))
MASK_FILES = {MASK13: ("w13", W13_COEFFS), MASK13Y: ("w13y", W13Y_COEFFS),
              MASK13R: ("w13r", W13R_COEFFS), MASK4U: ("w4u", W4U_COEFFS),
              MASK6N: ("w6n", W6N_COEFFS)}


# the recorded digests of TestDeterminism, each a (argv, sha256) param
DIGESTS = [
    pytest.param(("analyze", "--scheme", "catalog:a"),
                 "4850a429385b82e028d9d29deae34a3b59b2771ecaf5d18ae6020b37e1b09f96",
                 id="argv0"),
    pytest.param(("basis", "--scheme", "catalog:a", "--iters", "6"),
                 "cf0cdeec74925953c24c97aa1bd01ebf13e221665545bf5b27da56ffb4b5e8ea",
                 id="argv1"),
    pytest.param(("dynamics", "--scheme", "catalog:a", "--K", "20"),
                 "07b58f8b7fc1e40db075c04b1e919dda416b73f48019cd9adee765d7de3f6313",
                 id="argv2"),
    pytest.param(("search", "--width", "6", "--grid=-1/5:0:1/10,1/5:2/5:1/10"),
                 "ff94fae9b9c0495982e6461b93d82f53e56a64ba8b91451bd76f07a82d745158",
                 id="argv3"),
    pytest.param(("dynamics", "--scheme", "catalog:b", "--K", "30"),
                 "ea60af55b761a8c7d23426ee63c2a792cf45de345229f669f8df6f2316866fc3",
                 id="argv4"),
    pytest.param(("basis", "--scheme", "catalog:d", "--iters", "8", "--format", "svg"),
                 "712ef132c658db81d0753c5d0d8338d2fb436048f38fa592c6e953228b662302",
                 id="argv5"),
    pytest.param(("search", "--width", "8"),
                 "36be32c79431c00fe656d0800542941a158cd8b0cfb2212ff18804a38fd18008",
                 id="argv6"),
    pytest.param(("refine", "--scheme", "catalog:a", "--points=1/3,-2/5,4/7",
                  "--first-index=-1", "--iters", "10"),
                 "c2b172fd6aa3bcc6711ce094dcf8a3a34d4f16a1df3e66a10cfbe438db1bf0f3",
                 id="argv7"),
    pytest.param(("refine", "--scheme", "catalog:b", "--mesh", "dual",
                  "--points=2/3,-1/5", "--iters", "8", "--format", "svg"),
                 "dd72183265a4bc2883260ce9a51fc2595d36823f386b254f520f555450fee62b",
                 id="argv8"),
    pytest.param(("dynamics", "--scheme", "catalog:a", "--K", "300"),
                 "64e26a61a7a35ee978fb907affb8562834498aeeae4b4b80bd4d2330fc0541ae",
                 id="argv9"),
    pytest.param(("dynamics", "--scheme", MASK13, "--K", "300", "--norm", "2"),
                 "49134df9d6ec792c0c3265a6c1bb16a40166724dbd405842cdb7c3f03f6016f1",
                 id="argv10"),
    # cells (0, 1/5), (1/10, 1/10) and others of this grid have a double
    # central root and reach Yun's split
    pytest.param(("search", "--width", "6", "--grid=-1/10:1/10:1/20,1/10:3/10:1/20"),
                 "5409883c07bf6aa206b69f3c655848b85f416d3a47a98f3404b44180a48490f9",
                 id="argv11"),
    pytest.param(("analyze", "--scheme", MASK13Y),
                 "6a3c51b505ca0cde7cb3debadf0ff15b9a75cf74563dbb440438f19154c2eda0",
                 id="argv12"),
    pytest.param(("analyze", "--scheme", MASK13R),
                 "dd9ee6bedb04efc98a21ff44c941e36b8c6397e3a90aac369e83cd8336464890",
                 id="argv13"),
    # the w5 default grid (401 cells) spans two scan blocks
    pytest.param(("search", "--width", "5"),
                 "611ca495939d812a837812f54cb8bd15dd76393c85720d51da735c82506dbfcc",
                 id="argv14"),
    pytest.param(("search", "--width", "7", "--no-filter"),
                 "8a6b517ea1b871ff4853841b1baad8a79abd74b198cb4394861ea424274be9bf",
                 id="argv15"),
    # odd-denominator steps: the scan's common denominator is 126
    pytest.param(("search", "--width", "7", "--grid=-1/3:1/3:2/9,-3/7:3/7:1/7",
                  "--no-filter"),
                 "036c9114be9e09870464788cd5ca6f7862c46486a17a5b05c066fdc3da632739",
                 id="argv16"),
    # a dyadic start vector: the state's first denominator is 64
    pytest.param(("dynamics", "--scheme", "catalog:a", "--K", "300",
                  "--v0=1/4,-3/8,5/16,0,1/2,-1/64"),
                 "883246c2820b6005af5d41131196aa02b7518d545b1b56db60a92386c34e34b0",
                 id="argv17"),
    pytest.param(("dynamics", "--scheme", MASK4U, "--K", "300"),
                 "4f607ef0d32be82152640a80993de6d32d73c9d41cab514364b1a73e7cd54c77",
                 id="argv18"),
    pytest.param(("dynamics", "--scheme", MASK6N, "--K", "30"),
                 "32860fe0d2443a4a05e5e8072c97f4c3e8d392c0446dcdeaf3200bac1acc8cfb",
                 id="argv19"),
]


class TestDeterminism:
    @pytest.mark.parametrize("argv, sha256", DIGESTS)
    def test_byte_identical_runs(self, capsys, tmp_path, argv, sha256):
        for placeholder, (name, coeffs) in MASK_FILES.items():
            if placeholder in argv:
                path = tmp_path / (name + ".json")
                save_scheme(SchemeRecord(name, Mask(-6, coeffs)), path)
                argv = tuple(str(path) if a == placeholder else a for a in argv)
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first
        if argv[0] in LAPACK_FREE or np.__version__ == DIGEST_NUMPY:
            assert hashlib.sha256(first.encode("utf-8")).hexdigest() == sha256

    def test_basis_and_refine_call_no_lapack(self, capsys, monkeypatch):
        # so that their digests hold on every build: argv1, argv5, argv7, argv8
        free = [p for p in DIGESTS if p.values[0][0] in LAPACK_FREE]
        assert [p.id for p in free] == ["argv1", "argv5", "argv7", "argv8"]
        assert not any(calls_lapack(capsys, monkeypatch, p.values[0]) for p in free)
        assert calls_lapack(capsys, monkeypatch, ("analyze", "--scheme", "catalog:a"))
