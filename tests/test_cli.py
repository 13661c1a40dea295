import hashlib
import json
import math
import sys

import numpy as np
import pytest

from subdiv import localmatrix
from subdiv.cli import main
from subdiv.masks import catalog_get, save_scheme
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
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("analyze", "--scheme", "catalog:a"),
        ("search", "--width", "5", "--grid=-1/4:1/4:1/8"),
        ("dynamics", "--scheme", "catalog:a", "--K", "5"),
    ], ids=["analyze", "search", "dynamics"])
    def test_rejects_tol_not_finite_positive(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, "--tol=" + tol)
        assert code == 1 and out == ""
        assert "tol must be > 0" in err


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
    assert len(calls) == 1


# sha256 of stdout, recorded with this numpy version; LAPACK-derived floats
# may differ under another numpy build, where only run-to-run identity holds
DIGEST_NUMPY = "2.4.6"


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
    ])
    def test_byte_identical_runs(self, capsys, argv, sha256):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first
        if np.__version__ == DIGEST_NUMPY:
            assert hashlib.sha256(first.encode("utf-8")).hexdigest() == sha256
