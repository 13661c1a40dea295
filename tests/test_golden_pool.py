"""The benchmark's recorded outputs, as a tier-1 check of unchanged bytes.

Every request of the benchmark pool (292 family-scan, 88 deep-refine, and
180 each of the user-masks analyze, basis and dynamics requests) runs
through subdiv.cli.main, and each output must hash, by
perfbench/run.digest, to the digest perfbench/golden.json records for it.
The curve exports take two routes, one numpy division a chunk for int64
numerators (those past 2^53 refixed by exact long division) and one
truediv a row; the deep-refine requests take the first, the user-masks
basis requests both.  The user-masks dynamics
requests run K = 300 on palindromic and asymmetric masks of widths 6-20,
a third of them with --norm 2.
The family-scan and user-masks analyze and dynamics hashes pin floats that
come from LAPACK (eigenvalues, eigenvectors and the modes), so those three
tests skip on another Python and numpy build.  The deep-refine and
user-masks basis outputs are integer arithmetic, IEEE division and
CPython's % formatting, so those two tests run on every build.  It only
reads perfbench/.
"""
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from subdiv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # as perfbench's own tests import it

import workloads  # noqa: E402
from run import digest  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())

# the tests whose hashed floats come from LAPACK
lapack_build = pytest.mark.skipif(
    (platform.python_version(), np.__version__) != (GOLDEN["python"], GOLDEN["numpy"]),
    reason="golden.json records LAPACK floats of Python %s and numpy %s"
    % (GOLDEN["python"], GOLDEN["numpy"]))


def changed_outputs(workload, requests):
    """Keys of the requests that fail or whose output hash is not the one
    recorded; every request must have a recorded hash."""
    recorded = GOLDEN["hashes"][workload]
    return [req.key for req in requests
            if cli.main(req.argv) != 0 or digest(req.outputs) != recorded[req.key]]


@lapack_build
def test_family_scan_pool(tmp_path):
    requests = workloads.pool("family-scan", tmp_path)
    assert len(requests) == len(GOLDEN["hashes"]["family-scan"]) == 292
    assert changed_outputs("family-scan", requests) == []


@lapack_build
def test_user_masks_analyze(tmp_path):
    requests = [r for r in workloads.pool("user-masks", tmp_path)
                if r.check["kind"] == "analyze"]
    assert len(requests) == 180
    assert changed_outputs("user-masks", requests) == []


def test_deep_refine_pool(tmp_path):
    requests = workloads.pool("deep-refine", tmp_path)
    assert len(requests) == len(GOLDEN["hashes"]["deep-refine"]) == 88
    assert changed_outputs("deep-refine", requests) == []


def test_user_masks_basis(tmp_path):
    requests = [r for r in workloads.pool("user-masks", tmp_path)
                if r.check["kind"] == "basis"]
    assert len(requests) == 180
    assert changed_outputs("user-masks", requests) == []


@lapack_build
def test_user_masks_dynamics(tmp_path):
    requests = [r for r in workloads.pool("user-masks", tmp_path)
                if r.check["kind"] == "dynamics"]
    assert len(requests) == 180
    assert sum("--norm" in r.argv for r in requests) == 60
    assert changed_outputs("user-masks", requests) == []
