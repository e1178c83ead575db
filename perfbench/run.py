#!/usr/bin/env python3
"""Build the simulator's benchmark binaries and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured by the untraced
binary. With --trace 1 they are the per-layer ones: the run gives half of
--seconds to the untraced binary and half to the traced one, and reports the
traced binary's layer times and counts per cycle plus its overhead.

HYPERTP_PARALLEL, HYPERTP_TRACE, HYPERTP_BENCH_DIR and compiler/linker flag
variables are removed from the environment of the build and of the binaries,
and the binaries run the simulator on one real thread, so no outside setting
changes a number.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("transplant_hugepage", "transplant_4k", "campaign_100k")
IGNORED_ENV = ("HYPERTP_PARALLEL", "HYPERTP_TRACE", "HYPERTP_BENCH_DIR",
               "CXXFLAGS", "CPPFLAGS", "LDFLAGS")
RUN_TIMEOUT_S = 170
# Cycles a run times at least, whatever --seconds says. The traced half-runs
# only feed per-cycle averages and may time fewer.
MIN_CYCLES = 40
MIN_CYCLES_TRACE = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_host_ms": "ms",
    "peak_rss_mb": "MiB",
    "sim_makespan_s": "s",
    "sim_vm_downtime_s": "VM-s",
    "sim_exposure_vm_s": "VM-s",
}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def clean_env():
    env = dict(os.environ)
    for key in IGNORED_ENV:
        env.pop(key, None)
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def drive(binary, args, env):
    """Runs one benchmark binary and returns its JSON result line."""
    command = [os.path.join(BUILD, binary)] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(binary + " timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with %d" % (binary, done.returncode))
    return json.loads(lines[-1])


def summary_lines(result, label):
    cycle = result.get("cycle_ms", {})
    yield "%s: %s" % (label, result["inputs"])
    if cycle:
        yield ("%s: %d timed cycles, cycle host ms p10 %.3f  p50 %.3f  p75 %.3f" %
               (label, result["cycles"], cycle["p10"], cycle["p50"], cycle["p75"]))
    for error in result["errors"]:
        yield "%s: CHECK FAILED: %s" % (label, error)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    env = clean_env()
    build(env)
    if args.selftest:
        code = 0
        for binary in ("perfbench", "perfbench_traced"):
            code |= subprocess.run([os.path.join(BUILD, binary), "--selftest"],
                                   env=env, timeout=RUN_TIMEOUT_S).returncode
        sys.exit(code)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        result = drive("perfbench", common + ["--seconds", str(args.seconds),
                                              "--min-cycles", str(MIN_CYCLES)], env)
        for line in summary_lines(result, "untraced"):
            print(line)
        sim = result["sim"]
        values = {
            "setup_s": result["setup_s"],
            "cycle_host_ms": result.get("cycle_ms", {}).get("p10", 0.0),
            "peak_rss_mb": result["peak_rss_mb"],
            "sim_makespan_s": sim["makespan_s"],
            "sim_vm_downtime_s": sim["vm_downtime_s"],
            "sim_exposure_vm_s": sim["exposure_vm_s"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        runs = [result]
    else:
        half = ["--seconds", str(args.seconds / 2), "--min-cycles", str(MIN_CYCLES_TRACE)]
        untraced = drive("perfbench", common + half, env)
        spans = os.path.join(BUILD, "spans_%s_%d.json" % (args.workload, args.seed))
        traced = drive("perfbench_traced", common + half + ["--spans", spans], env)
        for label, result in (("untraced", untraced), ("traced", traced)):
            for line in summary_lines(result, label):
                print(line)
        print("traced: spans written to " + os.path.relpath(spans, ROOT))
        metrics = {name: metric(value, layer_unit(name))
                   for name, value in traced.get("layers", {}).items()}
        traced_ms = traced.get("cycle_ms", {}).get("p10", 0.0)
        untraced_ms = untraced.get("cycle_ms", {}).get("p10", 0.0)
        metrics["trace.cycle_host_ms"] = metric(traced_ms, "ms")
        metrics["trace.overhead_ms"] = metric(traced_ms - untraced_ms, "ms")
        runs = [untraced, traced]

    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
