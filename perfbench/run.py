#!/usr/bin/env python3
"""The repository benchmark: one command, real server processes.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Builds the program under test and the load generator from this checkout
(CMake, into .bench_build/perfbench), writes the benchmark dataset (fixed;
the seed drives the panel, requests and user mix), starts

    simgraph_served --data DIR --shards 2 --refresh-events 2000 \
        --replication-port 0
    simgraph_shard_server --connect R --data DIR --ttl -1

(the cache-off replica is the correctness oracle), drives them from one
separate load-generator process, checks the outputs at untimed fences and
prints one JSON result line last on stdout. A human-readable report goes
to stderr.

--trace 0 reports the end-to-end metrics (set-up is repeated SETUP_REPS
times and its median reported). --trace 1 runs the untraced deployment
once more, then the traced in-process host, and reports the per-layer
metrics next to the traced run's own end-to-end numbers.

Exits non-zero, without a result line, when the build or the deployment
fails; exits 1 after printing a result with "correct": false when an
output is wrong.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ("read_hot", "read_cold", "ingest_stream")
TARGETS = ("simgraph_served", "simgraph_shard_server", "perfbench_load")
SETUP_REPS = 3
# The deployment under test; identical for every workload.
SERVER_FLAGS = ["--shards", "2", "--refresh-events", "2000",
                "--replication-port", "0"]
REPLICA_FLAGS = ["--ttl", "-1"]
# A run whose generator sent later than this at p99 did not offer its
# load and is invalid.
MAX_GEN_LAG_MS = 10.0
STEP_TIMEOUT_S = 90

# Every end-to-end metric the report prints. BENCHMARK.json's end_to_end
# list names the ones the result line carries (those steady enough to
# gate); the tails and the saturate rates are printed but too noisy on a
# shared 4-vCPU box to gate (flat-out ingest is one builder thread at 100%
# of a core, so it follows the host's clock speed).
REPORTED = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("read_max_rps", "req/s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    ("ingest_max_eps", "events/s"),
    ("cpu_us_per_op", "us"),
    ("server_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
    ("quality_hits", "count"),
]


def benchmark_metrics():
    """(end_to_end names, per_layer names) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simgraph sources next to perfbench/ (expected "
                         + os.path.join(ROOT, "src") + ")")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target"] + list(TARGETS),
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def binary(name):
    for sub in ("", "simgraph_tools"):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    raise BenchError("missing build output " + name)


class Proc:
    """A child process parked on stdin, stopped by closing it."""

    def __init__(self, argv, log_path):
        self.log = open(log_path, "w")
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.log)
        self.pending = b""

    def wait_line(self, prefix, deadline):
        # Raw reads: a buffered readline would hide lines from select().
        while True:
            while b"\n" in self.pending:
                line, self.pending = self.pending.split(b"\n", 1)
                text = line.decode(errors="replace")
                if text.startswith(prefix):
                    return text[len(prefix):].split()[0]
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("timed out waiting for '%s'" % prefix)
            ready, _, _ = select.select([self.p.stdout], [], [], left)
            if not ready:
                continue
            chunk = os.read(self.p.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError("process exited before '%s' (see %s)"
                                 % (prefix, self.log.name))
            self.pending += chunk

    def stop(self):
        try:
            self.p.stdin.close()
        except OSError:
            pass
        try:
            self.p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()
        self.log.close()


class Deployment:
    def __init__(self, data_dir, tag):
        self.procs = []
        deadline = time.monotonic() + STEP_TIMEOUT_S
        t0 = time.perf_counter()
        try:
            server = Proc([binary("simgraph_served"), "--data", data_dir]
                          + SERVER_FLAGS,
                          os.path.join(WORK, tag + "-server.log"))
            self.procs.append(server)
            self.port = int(server.wait_line("listening on port ", deadline))
            repl_port = server.wait_line("replication on port ", deadline)
            replica = Proc([binary("simgraph_shard_server"), "--connect",
                            repl_port, "--data", data_dir] + REPLICA_FLAGS,
                           os.path.join(WORK, tag + "-replica.log"))
            self.procs.append(replica)
            replica.wait_line("replica ", deadline)
            self.replica_port = int(
                replica.wait_line("listening on port ", deadline))
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        self.pids = [p.p.pid for p in self.procs]

    def stop(self):
        # Replica first: the builder then sends its BYE to nobody.
        for proc in reversed(self.procs):
            proc.stop()
        self.procs = []


def run_json(argv):
    out = subprocess.run(argv, check=False, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=STEP_TIMEOUT_S)
    if out.returncode != 0 or not out.stdout.strip():
        raise BenchError("%s exited %d" % (os.path.basename(argv[0]),
                                           out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def make_dataset():
    data_dir = os.path.join(WORK, "dataset")
    if not os.path.isfile(os.path.join(data_dir, "retweets.txt")):
        os.makedirs(data_dir, exist_ok=True)
        subprocess.run([binary("perfbench_load"), "gen-data",
                        "--out", data_dir], check=True,
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=STEP_TIMEOUT_S)
    return data_dir


def untraced(args, data_dir, setup_reps):
    setups = []
    dep = None
    for rep in range(setup_reps):
        dep = Deployment(data_dir, "setup%d" % rep)
        setups.append(dep.setup_s)
        if rep + 1 < setup_reps:
            dep.stop()
    try:
        result = run_json([binary("perfbench_load"), "drive",
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--data", data_dir,
                           "--server-port", str(dep.port),
                           "--replica-port", str(dep.replica_port),
                           "--pids", ",".join(str(p) for p in dep.pids)])
    finally:
        dep.stop()
    result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                    "unit": "s"}
    result["setups"] = setups
    return result


def keep(result, name):
    """Writes a run's full report (every metric and count) next to the
    build, for inspection after the run."""
    with open(os.path.join(WORK, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def value(result, name, default=0.0):
    return result["metrics"].get(name, {}).get("value", default)


def checks(result, prefix=""):
    """Correctness and validity problems of one drive, as strings."""
    problems = []
    note = result.get("notes", {}).get(prefix + "error")
    if note:
        problems.append("transport: " + note)
    if value(result, prefix + "fence_mismatches") > 0:
        problems.append("%d fence answers differ from the replica"
                        % value(result, prefix + "fence_mismatches"))
    if value(result, prefix + "fence_compared") <= 0:
        problems.append("no fence answer was compared")
    if value(result, prefix + "gen.lag_ms.p99") > MAX_GEN_LAG_MS:
        problems.append("generator fell behind: lag p99 %.2f ms"
                        % value(result, prefix + "gen.lag_ms.p99"))
    return problems


def print_report(title, result, prefix=""):
    log("== %s" % title)
    for name, unit in REPORTED:
        metric = result["metrics"].get(prefix + name)
        if metric is not None:
            note = result.get("notes", {}).get(prefix + name, "")
            log("  %-16s %14.4f %-9s %s" % (name, metric["value"], unit, note))
    log("  samples: read %d, fresh %d; fail_ratio %.6f; generator lag p99 "
        "%.3f ms" % (value(result, prefix + "read_samples"),
                     value(result, prefix + "fresh_samples"),
                     value(result, prefix + "fail_ratio"),
                     value(result, prefix + "gen.lag_ms.p99")))
    counts = sorted(k for k in result["metrics"]
                    if k.startswith(prefix + "count.") and k.endswith(".sent"))
    for key in counts:
        base = key[:-len(".sent")]
        log("  %-34s sent %7d ok %7d failed %5d" % (
            base[len(prefix + "count."):], value(result, base + ".sent"),
            value(result, base + ".ok"), value(result, base + ".failed")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        end_to_end, per_layer = benchmark_metrics()
        build()
        os.makedirs(WORK, exist_ok=True)
        data_dir = make_dataset()
        base = untraced(args, data_dir, SETUP_REPS if args.trace == 0 else 1)
        keep(base, "%s-seed%d-untraced.json" % (args.workload, args.seed))
        print_report("%s seed %d (untraced)" % (args.workload, args.seed),
                     base)
        problems = checks(base)
        attempted = int(value(base, "attempted"))
        failed = int(value(base, "failed"))
        if args.trace == 0:
            metrics = {name: base["metrics"][name] for name in end_to_end}
        else:
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            traced = run_json([binary("perfbench_load"), "traced",
                               "--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--data", data_dir,
                               "--trace-out", os.path.join(
                                   trace_dir, "%s-seed%d.json"
                                   % (args.workload, args.seed))])
            keep(traced, "%s-seed%d-traced.json" % (args.workload, args.seed))
            print_report("%s seed %d (traced, in-process)"
                         % (args.workload, args.seed), traced, "traced.")
            problems += checks(traced, "traced.")
            if value(traced, "traced.quality_hits") != value(base,
                                                             "quality_hits"):
                problems.append("quality_hits differ: traced %d, untraced %d"
                                % (value(traced, "traced.quality_hits"),
                                   value(base, "quality_hits")))
            traced["metrics"]["gen.lag_ms.p99"] = base["metrics"][
                "gen.lag_ms.p99"]
            traced["metrics"]["trace.overhead_ratio"] = {
                "value": value(traced, "traced.read_p50_us")
                / max(1e-9, value(base, "read_p50_us")),
                "unit": "ratio"}
            attempted += int(value(traced, "traced.attempted"))
            failed += int(value(traced, "traced.failed"))
            metrics = {name: traced["metrics"][name] for name in per_layer}
            log("== per-layer (traced; trace.overhead_ratio includes "
                "in-process hosting)")
            for name in per_layer:
                log("  %-38s %14.4f %s" % (name, metrics[name]["value"],
                                           metrics[name]["unit"]))
            if value(traced, "trace.read_path_sum_ok") != 1:
                log("perfbench: WARNING: read-path layer self times miss the "
                    "client round trip by %.3f (tolerance 0.25)"
                    % value(traced, "trace.read_path_sum_error"))
            if traced.get("unsupported_p99"):
                log("  p99 unsupported (maximum shown): "
                    + traced["unsupported_p99"])
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: " + repr(e))
        return 2

    for p in problems:
        log("perfbench: INCORRECT: " + p)
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
