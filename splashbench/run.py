#!/usr/bin/env python3
"""Splash-Bench entry point: build the benchmark from source, then run it.

Run from the root of a checkout of the repository:

  python3 splashbench/run.py --workload sim-fig64 --seed 1 --trace 0
  python3 splashbench/run.py --self-test

The benchmark binary (splashbench/src) is compiled with the suite's
library into $CARGO_TARGET_DIR/splashbench (default
.bench_build/splashbench); scratch files (result stores, Chrome traces)
go to .bench_build/work.  The last line of standard output is the
binary's JSON result.  --self-test runs the smallest size of every
workload, untraced and traced, and checks the output contract, the
trace's span tree and its layer coverage.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-fig64", "native-suite4", "campaign")
LAYERS = ("sim", "native", "sync", "core", "executor", "wire", "store")
GOLDEN = os.path.join(HERE, "golden", "sim-fig64.tsv")
# The suite's own build type (the root CMakeLists.txt): the benchmark
# times the program as users build it.
BUILD_TYPE = "RelWithDebInfo"
# A run must finish within 180 s; a stuck run is ended before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("splashbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure (once) and build the binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the suite's sources (src/) are missing: run from the root "
             "of a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake is not installed")
    out = os.path.join(build_base(), "splashbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [line for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [[cmake, "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             [cmake, "--build", out, "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "splashbench")


def run_bench(binary, args, capture=False):
    """Run the binary in its own process group; end it on overrun."""
    work = os.path.join(build_base(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--work-dir", work, "--golden", GOLDEN] + args
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the benchmark overran %d s and was stopped" % RUN_TIMEOUT_S)
    finally:
        # Reap anything the binary left in its group (isolated jobs).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    return proc.returncode, (out.decode() if capture else "")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    """Smallest-size pass of each workload, untraced and traced."""
    spec = load_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    covered = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            code, out = run_bench(
                binary, ["--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace),
                         "--smoke"], capture=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (what, code))
                continue
            result = json.loads(lines[-1])
            labels = " ".join(lines[:-1])
            for key in ("seed=7", "scale=", "online_cpus=",
                        "loadavg_start=", "loadavg_end=", "steal=",
                        "build="):
                if key not in labels:
                    problems.append("%s: no %s label" % (what, key))
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: outputs failed their checks" % what)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) -
                                 set(got.items()))
                extra = sorted(set(got.items()) -
                               set(wanted[trace].items()))
                problems.append("%s: metrics missing %s, unexpected %s" %
                                (what, missing, extra))
            if trace:
                path = [l.split("trace=", 1)[1].split()[0] for l in lines
                        if l.startswith("splashbench: trace=")]
                if not path:
                    problems.append("%s: no trace file" % what)
                    continue
                problems += ["%s: %s" % (what, p)
                             for p in check_trace(path[0], covered)]
    for layer in LAYERS:
        if layer not in covered:
            problems.append("no traced run covers layer " + layer)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test: %s (%d workloads, layers covered: %s)" %
          ("FAIL" if problems else "ok", len(WORKLOADS),
           ", ".join(sorted(covered & set(LAYERS)))))
    return 1 if problems else 0


def check_trace(path, covered):
    """Every span's parent exists on its thread and encloses it."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    byid = {e["args"]["id"]: e for e in events}
    problems = []
    for e in events:
        covered.add(e["cat"])
        parent = e["args"]["parent"]
        if parent == -1:
            continue
        p = byid.get(parent)
        if p is None:
            problems.append("span %d has no parent %d" %
                            (e["args"]["id"], parent))
        elif (p["tid"] != e["tid"] or p["ts"] > e["ts"] + 1e-3 or
              p["ts"] + p["dur"] + 1e-3 < e["ts"] + e["dur"]):
            problems.append("span %d is not inside its parent %d" %
                            (e["args"]["id"], parent))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    code, _ = run_bench(binary, ["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
