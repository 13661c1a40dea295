import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from subdiv import cli, convergence, dynamics, localmatrix, refine
from subdiv.cli import build_parser, main
from subdiv.masks import Mask, SchemeRecord, catalog_get, save_scheme
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
        # float range, so K = 300 is an error, exit 1, and K = 286 is not
        path = tmp_path / "threes.json"
        save_scheme(SchemeRecord("threes", Mask(-4, (F(3),) * 8)), path)
        code, out, err = run(capsys, "dynamics", "--scheme", str(path), "--K", "300")
        assert code == 1 and out == ""
        assert err == ("error: transient 287 leaves the float range; "
                       "the trajectory is finite up to K = 286\n")
        code, out, _ = run(capsys, "dynamics", "--scheme", str(path), "--K", "286")
        assert code == 0 and len(out.splitlines()) == 288

    def test_bad_v0_length(self, capsys):
        code, _, err = run(capsys, "dynamics", "--scheme", "catalog:a",
                           "--v0", "1,2")
        assert code == 1
        assert "matrix order" in err


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

    def test_cell_past_float_range_is_an_error(self, capsys):
        grid = "0:%d:%d,0:1/4:1/4" % (2 ** 300, 2 ** 300)
        with np.errstate(all="raise"):
            code, out, err = run(capsys, "search", "--width", "6", "--grid", grid)
        assert code == 1 and out == ""
        assert err == "error: an eigenvalue leaves the float range\n"

    # the second grid has more points than len() can return
    @pytest.mark.parametrize("grid", ["0:1000000:1/1000000", "0:1e30:1e-30"])
    def test_grid_over_cell_cap(self, capsys, monkeypatch, grid):
        def no_values(self):
            raise AssertionError("grid values built before the cell cap")

        monkeypatch.setattr(GridRange, "values", no_values)
        code, out, err = run(capsys, "search", "--width", "5", "--grid", grid)
        assert code == 1 and out == ""
        assert "cap is" in err


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

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that bound the function under any name
    for name, mod in list(sys.modules.items()):
        if name == "subdiv" or name.startswith("subdiv."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    code, out, _ = run(capsys, "dynamics", "--scheme", "catalog:a", "--K", "10")
    assert code == 0 and out
    # the trajectory needs no spectrum; the matrix's modes come from LAPACK
    assert len(calls) == 0


# sha256 of stdout, recorded with this numpy version; LAPACK-derived floats
# may differ under another numpy build, where only run-to-run identity holds
DIGEST_NUMPY = "2.4.6"

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
# and the exact trajectory's constant term runs; the test writes it to a
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


class TestDeterminism:
    @pytest.mark.parametrize("argv, sha256", [
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
                     "bbed484491ecb69fed1dc3ebccb3adce30b4a504b21e00268a5871f03a9ce3d0",
                     id="argv18"),
        pytest.param(("dynamics", "--scheme", MASK6N, "--K", "30"),
                     "32860fe0d2443a4a05e5e8072c97f4c3e8d392c0446dcdeaf3200bac1acc8cfb",
                     id="argv19"),
    ])
    def test_byte_identical_runs(self, capsys, tmp_path, argv, sha256):
        for placeholder, (name, coeffs) in MASK_FILES.items():
            if placeholder in argv:
                path = tmp_path / (name + ".json")
                save_scheme(SchemeRecord(name, Mask(-6, coeffs)), path)
                argv = tuple(str(path) if a == placeholder else a for a in argv)
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first
        if np.__version__ == DIGEST_NUMPY:
            assert hashlib.sha256(first.encode("utf-8")).hexdigest() == sha256
