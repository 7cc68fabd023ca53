#!/usr/bin/env python3
"""Records the end-to-end serving benchmark as a metrics_diff baseline.

    python3 scripts/perfbench_record.py OUT.json

For every workload in BENCHMARK.json this runs perfbench/run.py
(--seconds 20) untraced on seeds 1, 2 and 3 and traced once on seed 1,
then writes the median of each end-to-end metric over the three
untraced runs and each per-layer metric of the traced run to OUT.json.
Every metric is an object {"value", "unit", "better"}; tools/metrics_diff
takes its direction from "better". BENCH_perfbench.json at the
repository root is this script's output; CI diffs a fresh run against it.

Exits 1 if any run is incorrect or has failed operations, and 2 on a
usage error or a run that produces no result; OUT.json is then not
written.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SECONDS = 20
SEEDS = (1, 2, 3)
TRACED_SEED = 1


def perfbench(workload, seed, trace):
    """One perfbench run; returns its result line, or exits on a bad run."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print("perfbench_record: " + " ".join(argv[1:]), file=sys.stderr,
          flush=True)
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        print("perfbench_record: %s seed %d trace %d exited %d without a "
              "result" % (workload, seed, trace, out.returncode),
              file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        print("perfbench_record: %s seed %d trace %d: correct=%s, %d of %d "
              "ops failed" % (workload, seed, trace, result["correct"],
                              result["failed"], result["attempted"]),
              file=sys.stderr)
        sys.exit(1)
    return result["metrics"]


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: perfbench_record.py OUT.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [perfbench(workload, seed, 0) for seed in SEEDS]
        traced = perfbench(workload, TRACED_SEED, 1)
        record = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            record[name] = {
                "value": statistics.median(run[name]["value"]
                                           for run in untraced),
                "unit": metric["unit"], "better": metric["better"]}
        for metric in spec["per_layer"]:
            name = metric["name"]
            record[name] = {"value": traced[name]["value"],
                            "unit": metric["unit"],
                            "better": metric["better"]}
        workloads[workload] = record

    with open(sys.argv[1], "w") as f:
        json.dump({"bench": "perfbench",
                   "command": "python3 scripts/perfbench_record.py OUT.json",
                   "runs": "--seconds %d; end-to-end: median of seeds %s "
                           "(--trace 0); per-layer: seed %d (--trace 1)"
                           % (SECONDS, ", ".join(map(str, SEEDS)),
                              TRACED_SEED),
                   "workloads": workloads}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
