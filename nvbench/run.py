#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 nvbench/run.py --workload kv-update-heavy --seed 1 \\
        --seconds 10 --trace 0
    python3 nvbench/run.py --selftest

The driver (nvbench/, which compiles the library from src/) is built
with CMake into $CARGO_TARGET_DIR, default .bench_build, on first use.
Its report is echoed; the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from the driver's traced pass,
and the spans go to <build dir>/traces/. Exits non-zero without a
result line when the build or the run breaks or a listed metric is
missing, and non-zero after it when an op or a correctness check
failed.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-update-heavy", "kv-read-mostly", "alloc-large-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"nvbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure once, then build; returns the driver's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nvalloc", "nvalloc.h")):
        fail("library sources (src/) not found next to nvbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", out, "-j", "4"])
    return os.path.join(out, "nvbench_driver")


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def run_driver(args):
    """Run the driver, echoing its output; returns its exit code."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest(driver):
    """The driver's own self-tests, then a tiny traced run of every
    workload whose metric names must match BENCHMARK.json and
    layers.json exactly."""
    failures = 0 if run_driver([driver, "--selftest"]) == 0 else 1
    spec = load_spec()
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    mapped = [n for layer in layers["layers"] for n in layer["metrics"]]

    def check(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    check(sorted(mapped) == sorted(per_layer),
          "layers.json maps every per-layer metric to exactly one layer")
    check(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
              for n in e2e + per_layer),
          "BENCHMARK.json metric names are well formed")
    for w in WORKLOADS:
        out = os.path.join(build_dir(), "results", f"selftest-{w}.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        rc = run_driver([driver, "--workload", w, "--threads", "1",
                         "--records", "2000", "--ops", "2000",
                         "--churn-episodes", "2", "--churn-iterations", "300",
                         "--trace", "1",
                         "--json-out", out])
        with open(out) as f:
            report = json.load(f)
        check(rc == 0 and sorted(report["end_to_end"]) == sorted(e2e) and
              sorted(report["per_layer"]) == sorted(per_layer),
              f"{w}: driver emits exactly the listed metrics")
    print(f"{failures} run.py self-test failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    driver = build()
    if args.selftest:
        return selftest(driver)

    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(build_dir(), "results", tag + ".json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json-out", out]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".trace.json")]
    rc = run_driver(cmd)
    if rc not in (0, 1) or not os.path.isfile(out):
        fail(f"driver exited with {rc} and no report", 3)
    with open(out) as f:
        report = json.load(f)
    section = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"driver did not report {m['name']} in {m['unit']}", 3)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": report["correct"] and rc == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
