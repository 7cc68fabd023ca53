#!/usr/bin/env python3
"""Records the end-to-end serving benchmark as a metrics_diff baseline.

    python3 scripts/perfbench_record.py OUT.json

For every workload in BENCHMARK.json this runs perfbench/run.py
(--seconds 20) untraced on seeds 1, 2 and 3 and traced once on seed 1,
then writes the median of each end-to-end metric over the three
untraced runs and each per-layer metric of the traced run to OUT.json.

The untraced runs go round by round, one seed per round, and each round
rotates the workload order, so with three workloads each one runs once
first, once second and once last: a host that drifts over the record
(warming up, or slowing as it goes) biases no workload's median more
than another's. The traced runs follow all rounds.
Every metric is an object {"value", "unit", "better"}; tools/metrics_diff
takes its direction from "better". BENCH_perfbench.json at the
repository root is this script's output; CI diffs a fresh run against it.

A run perfbench judges incorrect only because its load generator lagged
(generator lag p99 above perfbench's 10 ms bound, every fence answer
compared and equal to the replica's, no transport error, no failed op)
is host noise, not a slow or wrong program: that run is repeated once,
with the reason on stderr. Exits 1 if any other run is incorrect, a
repeat is invalid again, or any run has failed operations, and 2 on a
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
# Where perfbench/run.py keeps each run's full report.
REPORTS = os.path.join(ROOT, ".bench_build", "perfbench-run")
# perfbench/run.py's validity bound on the generator's p99 send lag.
MAX_GEN_LAG_MS = 10.0
SECONDS = 20
SEEDS = (1, 2, 3)
TRACED_SEED = 1


def report_paths(workload, seed, trace):
    """(path, metric prefix) of each report the run keeps."""
    kinds = [("untraced", "")] + ([("traced", "traced.")] if trace else [])
    return [(os.path.join(REPORTS, "%s-seed%d-%s.json" % (workload, seed, kind)),
             prefix) for kind, prefix in kinds]


def lag_only(workload, seed, trace, result):
    """The generator lag that alone made an incorrect run invalid, or None
    when anything else is wrong with it too."""
    if result["failed"] > 0:
        return None
    lags = []
    hits = []
    for path, prefix in report_paths(workload, seed, trace):
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError):
            return None

        def value(name):
            return report["metrics"].get(prefix + name, {}).get("value", 0.0)

        if (report.get("notes", {}).get(prefix + "error")
                or value("fence_mismatches") != 0
                or value("fence_compared") <= 0):
            return None
        lags.append(value("gen.lag_ms.p99"))
        hits.append(value("quality_hits"))
    if len(set(hits)) > 1 or max(lags) <= MAX_GEN_LAG_MS:
        return None
    return max(lags)


def perfbench(workload, seed, trace):
    """One perfbench run, repeated once if only generator lag made it
    invalid; returns its result line, or exits on a bad run."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    leg = "%s seed %d trace %d" % (workload, seed, trace)
    for attempt in (1, 2):
        print("perfbench_record: " + " ".join(argv[1:]), file=sys.stderr,
              flush=True)
        # A report left by an earlier run must not speak for this one.
        for path, _ in report_paths(workload, seed, trace):
            if os.path.exists(path):
                os.remove(path)
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if not lines:
            print("perfbench_record: %s exited %d without a result"
                  % (leg, out.returncode), file=sys.stderr)
            sys.exit(2)
        result = json.loads(lines[-1])
        if result["correct"] and result["failed"] == 0:
            return result["metrics"]
        lag = lag_only(workload, seed, trace, result) if attempt == 1 else None
        if lag is None:
            print("perfbench_record: %s: correct=%s, %d of %d ops failed%s"
                  % (leg, result["correct"], result["failed"],
                     result["attempted"],
                     " (on the repeat)" if attempt == 2 else ""),
                  file=sys.stderr)
            sys.exit(1)
        print("perfbench_record: %s: repeating once: its only problem is "
              "generator lag p99 %.2f ms (bound %g ms; every fence answer "
              "matched the replica, no op failed), which is host noise"
              % (leg, lag, MAX_GEN_LAG_MS), file=sys.stderr, flush=True)


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: perfbench_record.py OUT.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    names = [w["name"] for w in spec["workloads"]]
    untraced_runs = {name: [] for name in names}
    for round_index, seed in enumerate(SEEDS):
        shift = round_index % len(names)
        for workload in names[shift:] + names[:shift]:
            untraced_runs[workload].append(perfbench(workload, seed, 0))
    traced_runs = {name: perfbench(name, TRACED_SEED, 1) for name in names}

    workloads = {}
    for workload in names:
        untraced = untraced_runs[workload]
        traced = traced_runs[workload]
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
                           "(--trace 0, one round per seed, workload order "
                           "rotated each round); per-layer: seed %d "
                           "(--trace 1, after all rounds)"
                           % (SECONDS, ", ".join(map(str, SEEDS)),
                              TRACED_SEED),
                   "workloads": workloads}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
