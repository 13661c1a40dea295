"""Record the output hash of every request the benchmark can issue.

    python3 perfbench/record.py [--workload NAME ...]

Runs each workload's whole pool once through ``subdiv.cli.main``, checks
every output with the oracles, and writes the hashes to
``perfbench/golden.json``, replacing the hashes of the workloads recorded.  Run it
only when the benchmark's inputs change; the hashes define unchanged output.
It also writes ``perfbench/inputs.json``: why each workload was chosen and
its input properties at seeds 1-10, with the Python and numpy versions.
"""
from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import numpy
    from subdiv import cli

    doc = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {"hashes": {}}
    hashes = doc["hashes"]
    failed = 0
    for name in args.workload or workloads.WORKLOADS:
        work = run.WORK / ("record-" + name)
        shutil.rmtree(work, ignore_errors=True)
        reqs = workloads.pool(name, work)
        outcomes = run.run_pass(cli, reqs, float("inf"))
        run.verify(reqs, outcomes, {})
        hashes[name] = {req.key: oc.digest for req, oc in zip(reqs, outcomes) if not oc.error}
        n_failed = sum(1 for oc in outcomes if oc.error)
        failed += n_failed
        print("%s: %d requests, %d failed, %.1f s"
              % (name, len(reqs), n_failed, sum(oc.latency for oc in outcomes)))
        shutil.rmtree(work, ignore_errors=True)
    doc["python"] = platform.python_version()
    doc["numpy"] = numpy.__version__
    run.GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    write_inputs(numpy.__version__)
    return 1 if failed else 0


def write_inputs(numpy_version: str) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {"python": platform.python_version(), "numpy": numpy_version,
           "run_seconds": seconds, "workloads": {}}
    for entry in bench["workloads"]:
        name = entry["name"]
        work = run.WORK / ("inputs-" + name)
        doc["workloads"][name] = {
            "why": entry["why"],
            "properties_by_seed": {seed: workloads.build(name, seed, seconds, work).properties
                                   for seed in range(1, 11)},
        }
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "inputs.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
