"""subdiv benchmark: one closed-loop client driving ``subdiv.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 22 --trace 0

One process and one thread issue the requests of a seeded list back to
back; each starts when the previous one returns.  Every request writes its
output through ``--out``.  After the timed loop the outputs are hashed
against ``golden.json`` and checked by independent oracles.

Every time is scaled to reference host speed by the probe in
``hostprobe.py``, read between requests; the unscaled figures are printed
too.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
list untraced and then traced, and reports per-function calls and self time,
counters, and the tracing overhead.  The last line of standard output is
one JSON object; the lines before it repeat every figure by name and unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles
import workloads
from hostprobe import HostProbe
from tracing import TRACED, Tracer, per_function, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

SETUP_REPEATS = 11
# Measured time after which no further request is started; with the per-run
# set-up this keeps a run inside three minutes even if the program slows 5x.
MEASURE_CAP_S = 130.0
WORK_UNIT = {"family-scan": "cells", "deep-refine": "points", "user-masks": "schemes"}
SETUP_CODE = ("import time; t = time.perf_counter(); import subdiv.cli; "
              "print(repr(time.perf_counter() - t))")


@dataclass
class Outcome:
    latency: float
    cpu: float
    error: str = ""        # non-empty when the request failed
    work: int = 0
    digest: str = ""
    changed: bool = False
    recorded: bool = False
    slowdown: float = 1.0  # of the host around the request, see hostprobe

    @property
    def norm_latency(self) -> float:
        return self.latency / self.slowdown

    @property
    def norm_cpu(self) -> float:
        return self.cpu / self.slowdown


def pin_to_one_cpu() -> str:
    """Keep this process, and the set-up interpreters it starts, on one CPU,
    so that the host probe reads the core the requests run on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return "not pinned to a CPU: %s" % exc
    return "pinned to CPU %d" % cpu


def measure_setup() -> float:
    """Median time to import subdiv.cli in a fresh interpreter, each import
    scaled by the host probe read around it; one untimed import first, which
    also compiles the bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = HostProbe()
    probe.read()
    spans = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        t1 = time.perf_counter()
        probe.read()
        if i:
            spans.append((float(out.stdout.split()[-1]), t0, t1))
    return statistics.median(t / probe.slowdown(t0, t1) for t, t0, t1 in spans)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        data = Path(p).read_bytes()
        h.update(b"%d\n" % len(data))
        h.update(data)
    return h.hexdigest()[:16]


def run_pass(cli, requests, budget: float, tracer=None) -> list[Outcome]:
    """Issue every request back to back; time each one, and read the host
    probe between requests so each can be scaled to reference host speed."""
    outcomes = []
    intervals = []
    spent = 0.0
    probe = HostProbe()
    probe.read()
    for i, req in enumerate(requests):
        if spent > budget:
            outcomes.append(Outcome(0.0, 0.0, "not started: run budget spent"))
            continue
        if tracer is not None:
            tracer.request = i
        error = ""
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(req.argv)
            if rc != 0:
                error = "exit code %r" % rc
        except SystemExit as exc:
            error = "exit %r" % exc.code
        except Exception as exc:  # a crash must not end the run: record it
            traceback.print_exc(file=sys.stderr)
            error = "%s: %s" % (type(exc).__name__, exc)
        t1, c1 = time.perf_counter(), time.process_time()
        probe.read()
        spent += t1 - t0
        outcomes.append(Outcome(t1 - t0, c1 - c0, error))
        intervals.append((outcomes[-1], t0, t1))
    for oc, t0, t1 in intervals:
        oc.slowdown = probe.slowdown(t0, t1)
    return outcomes


def verify(requests, outcomes, golden: dict) -> None:
    """Hash and check outputs after the timed loop, then delete them."""
    for req, oc in zip(requests, outcomes):
        if not oc.error:
            missing = [p for p in req.outputs if not Path(p).is_file()]
            if missing:
                oc.error = "output not written: %s" % ", ".join(missing)
        if not oc.error:
            oc.digest = digest(req.outputs)
            oc.recorded = req.key in golden
            oc.changed = oc.recorded and golden[req.key] != oc.digest
            ok, oc.work, msg = oracles.check(req)
            if not ok:
                oc.error = "oracle: " + msg
        if oc.error:
            print("FAILED %s (%s): %s" % (req.key, " ".join(req.argv[:1]), oc.error),
                  file=sys.stderr)
        for p in req.outputs:
            Path(p).unlink(missing_ok=True)


def work_done(workload: str, requests, outcomes) -> int:
    if workload != "user-masks":
        return sum(oc.work for oc in outcomes)
    ok: dict[str, bool] = {}
    for req, oc in zip(requests, outcomes):
        ok[req.scheme] = ok.get(req.scheme, True) and not oc.error
    return sum(ok.values())


def end_to_end(workload, requests, outcomes, setup_s, peak_rss_mb):
    """The end-to-end metrics, and lines that say how the tail and the
    throughput were taken.  Times are scaled to reference host speed."""
    done = [oc for oc in outcomes if not oc.error.startswith("not started")]
    lat = [oc.norm_latency for oc in done]
    wall = sum(lat)
    q = tail_percentile(len(lat)) or 50
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(oc.norm_cpu for oc in done), "s"),
        "latency_p50_s": (percentile(lat, 50), "s"),
        "latency_tail_s": (percentile(lat, q), "s"),
        "work_per_s": (work_done(workload, requests, outcomes) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unit = WORK_UNIT[workload]
    raw_wall = sum(oc.latency for oc in done)
    notes = ["latency_tail_s is p%d over %d requests (%d beyond it)"
             % (q, len(lat), sum(1 for x in lat if x > metrics["latency_tail_s"][0])),
             "work_per_s counts %s: %s_per_s %.6g" % (unit, unit, metrics["work_per_s"][0]),
             "unscaled: wall_s %.6g s, cpu_s %.6g s; host slowdown %.4f (wall-weighted)"
             % (raw_wall, sum(oc.cpu for oc in done), raw_wall / wall)]
    return metrics, notes


def per_layer(tracer, traced, base_wall: float, traced_wall: float):
    """Per-function calls and self time, scaled like the end-to-end times,
    the counters, and the tracing overhead."""
    funcs = per_function(tracer.spans, [oc.slowdown for oc in traced])
    metrics = {}
    for mod, qual in TRACED:
        calls, self_s = funcs.get("%s.%s" % (mod, qual), (0, 0.0))
        metrics["%s.%s.calls" % (mod, qual)] = (calls, "count")
        metrics["%s.%s.self_s" % (mod, qual)] = (self_s, "s")
    for name, value in tracer.counters.items():
        metrics[name] = (value, "bits" if name.endswith("bits_max") else
                         "bytes" if name.endswith("bytes") else "count")
    metrics["trace.overhead_s"] = (traced_wall - base_wall, "s")
    return metrics


def wrap_checks(workload, requests, tracer) -> list[str]:
    """Confirm the wrappers see every call: eigensolves equal scanned cells on
    family-scan, and are two per dynamics request on user-masks."""
    calls = {}
    for name, _, _, _, req in tracer.spans:
        if name == "localmatrix.eigenvalues":
            calls[req] = calls.get(req, 0) + 1
    total = sum(calls.values())
    if workload == "family-scan":
        cells = tracer.counters["search.cells"]
        return ["localmatrix.eigenvalues.calls %d %s search.cells %d"
                % (total, "==" if total == cells else "!=", cells)]
    if workload == "user-masks":
        dyn = [calls.get(i, 0) for i, r in enumerate(requests) if r.check["kind"] == "dynamics"]
        return ["localmatrix.eigenvalues.calls per dynamics request: %s"
                % sorted(set(dyn))]
    return ["localmatrix.eigenvalues.calls %d" % total]


def report(workload, args, metrics, extra_lines, outcomes) -> None:
    print("workload %s  seed %d  seconds %d  trace %d" % (workload, args.seed, args.seconds, args.trace))
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit))
    n = len(outcomes)
    failed = sum(1 for oc in outcomes if oc.error)
    changed = sum(1 for oc in outcomes if oc.changed)
    recorded = sum(1 for oc in outcomes if oc.recorded)
    print("%-44s %d/%d = %.6g" % ("failed_ratio", failed, n, failed / n))
    print("%-44s %d (of %d requests with a recorded hash)" % ("outputs_changed", changed, recorded))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=22)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "subdiv" / "cli.py").is_file():
        print("error: the program is missing (%s)" % (SRC / "subdiv"), file=sys.stderr)
        return 2
    pinned = pin_to_one_cpu()
    try:
        setup_s = measure_setup()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: importing subdiv.cli failed: %s" % exc, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from subdiv import cli

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, args.seconds, work)
    golden = json.loads(GOLDEN.read_text())["hashes"].get(args.workload, {})
    print("inputs %s" % json.dumps(wl.properties, sort_keys=True))
    print(pinned)

    cli.main(["catalog", "--out", str(work / "warmup.json")])  # lazy imports, first-call costs
    passes = 2 if args.trace else 1
    outcomes = run_pass(cli, wl.requests, MEASURE_CAP_S / passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verify(wl.requests, outcomes, golden)
    metrics, extra = end_to_end(args.workload, wl.requests, outcomes, setup_s, peak_rss_mb)
    all_outcomes = list(outcomes)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, wl.requests, MEASURE_CAP_S / passes, tracer)
        finally:
            tracer.uninstall()
        verify(wl.requests, traced, golden)
        all_outcomes += traced
        tracer.write(work / "spans.tsv")
        traced_wall = sum(oc.norm_latency for oc in traced
                          if not oc.error.startswith("not started"))
        extra += ["untraced wall_s %.6g s, traced wall_s %.6g s" % (metrics["wall_s"][0], traced_wall)]
        extra += wrap_checks(args.workload, wl.requests, tracer)
        metrics = per_layer(tracer, traced, metrics["wall_s"][0], traced_wall)
    report(args.workload, args, metrics, extra, all_outcomes)
    failed = sum(1 for oc in all_outcomes if oc.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
