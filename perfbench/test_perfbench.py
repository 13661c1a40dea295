"""Tests of the benchmark harness's own logic (no timing asserts).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, request=0):
    return [name, start, end, parent, request]


class TestSelfTime:
    def test_no_children(self):
        assert tracing.self_times([span("a", 0.0, 2.0)]) == [2.0]

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0.0, 10.0), span("c1", 1.0, 4.0, 0), span("c2", 3.0, 6.0, 0),
                 span("c3", 8.0, 9.0, 0)]
        # children cover [1, 6] and [8, 9]: 6 of the parent's 10 seconds
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_clipped_to_parent_and_grandchildren_ignored(self):
        spans = [span("p", 0.0, 10.0), span("c", 8.0, 12.0, 0), span("g", 9.0, 11.0, 1)]
        st = tracing.self_times(spans)
        assert st[0] == pytest.approx(8.0)
        assert st[1] == pytest.approx(2.0)

    def test_per_function_sums(self):
        spans = [span("f", 0.0, 1.0), span("g", 0.2, 0.5, 0), span("f", 2.0, 2.5)]
        agg = tracing.per_function(spans)
        assert agg["f"][0] == 2 and agg["f"][1] == pytest.approx(1.2)
        assert agg["g"] == (1, pytest.approx(0.3))

    def test_per_function_scaled_by_request_slowdown(self):
        spans = [span("f", 0.0, 1.0, request=0), span("f", 2.0, 3.0, request=1)]
        assert tracing.per_function(spans, [2.0, 1.0])["f"] == (2, pytest.approx(1.5))


class TestTailPercentile:
    @pytest.mark.parametrize("n, q", [(1000, 99), (200, 95), (100, 90), (44, 77), (20, 50)])
    def test_highest_with_ten_beyond(self, n, q):
        assert tracing.tail_percentile(n) == q
        rank = -(-q * n // 100)
        assert n - rank >= 10
        assert q == 99 or n - -(-(q + 1) * n // 100) < 10

    def test_too_few_samples(self):
        assert tracing.tail_percentile(19) is None

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        assert tracing.percentile(xs, 50) == 50
        assert tracing.percentile(xs, 90) == 90
        assert tracing.percentile([3.0], 99) == 3.0


class TestWindowMedian:
    def test_median_of_readings_inside(self):
        at, vals = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
        assert tracing.window_median(at, vals, 0.5, 2.5) == pytest.approx(3.0)
        assert tracing.window_median(at, vals, 0.0, 2.0) == 2.0

    def test_nearest_reading_when_none_inside(self):
        at, vals = [0.0, 10.0], [1.0, 5.0]
        assert tracing.window_median(at, vals, 7.0, 8.0) == 5.0
        assert tracing.window_median(at, vals, 1.0, 2.0) == 1.0


class TestGeneration:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload, tmp_path):
        a = workloads.build(workload, 7, 25, tmp_path / "a")
        b = workloads.build(workload, 7, 25, tmp_path / "b")
        assert [r.key for r in a.requests] == [r.key for r in b.requests]
        strip = lambda wl, root: [[s.replace(str(root), "") for s in r.argv] for r in wl.requests]
        assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert a.properties == b.properties

    def test_seeds_differ_in_choice_not_in_shape(self, tmp_path):
        a = workloads.build("user-masks", 1, 25, tmp_path / "a")
        b = workloads.build("user-masks", 2, 25, tmp_path / "b")
        assert [r.key for r in a.requests] != [r.key for r in b.requests]
        assert a.properties["mask_width_histogram"] == b.properties["mask_width_histogram"]

    def test_pool_covers_every_run(self, tmp_path):
        for workload in workloads.WORKLOADS:
            keys = {r.key for r in workloads.pool(workload, tmp_path / "pool")}
            for seed in range(3):
                run_keys = {r.key for r in workloads.build(workload, seed, 25, tmp_path / "run").requests}
                assert run_keys <= keys

    @pytest.mark.parametrize("width", [6, 7, 12, 13, 20])
    def test_generated_masks_meet_the_necessary_conditions(self, width):
        import random
        for make in (workloads.palindromic_run, workloads.asymmetric_run):
            smin, run = make(width, random.Random(width), workloads.USER_DENOMS)
            assert len(run) == width and run[0] != 0 and run[-1] != 0
            even = sum(c for i, c in enumerate(run) if (smin + i) % 2 == 0)
            odd = sum(c for i, c in enumerate(run) if (smin + i) % 2 != 0)
            assert even == odd == 1
        smin, run = workloads.palindromic_run(width, random.Random(0), workloads.USER_DENOMS)
        assert run == run[::-1]


class TestOracleMath:
    def test_family_run_matches_the_paper_width6_scheme(self):
        assert oracles.family_run(6, (F(-1, 10), F(3, 10))) == (
            -2, [F(-1, 10), F(3, 10), F(4, 5), F(4, 5), F(3, 10), F(-1, 10)])

    def test_discriminant_of_the_paper_scheme_is_negative(self):
        assert oracles.w6_discriminant(F(-1, 10), F(3, 10)) < 0

    def test_contractivity(self):
        assert oracles.contractive(*oracles.family_run(6, (F(-1, 10), F(3, 10))))
        assert oracles.contractive(-1, [F(1, 2), F(1), F(1, 2)])  # two-point: norm 1/2
        # difference mask (-1/2, 1, 0, 1, -1/2): odd parity sum 2
        assert not oracles.contractive(-2, [F(-1, 2), F(1, 2), F(1), F(1), F(1, 2), F(-1, 2)])
