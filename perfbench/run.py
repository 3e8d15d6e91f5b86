#!/usr/bin/env python3
"""Builds and runs the libpds repo benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: global-packed, global-secure, token-local (see
perfbench/README.md). The first call configures and builds perfbench/ and
../src as a Release build in .bench_build/perfbench; later calls rebuild
incrementally. The benchmark's stdout is passed through; its last line is
the result object, with its metrics checked against BENCHMARK.json: with
--trace 0 every end_to_end metric must be present, with --trace 1 a
per_layer metric the workload has no layer for is reported as 0. With
--trace 1 a sample of the recorded spans is written to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace format).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pdsbench")
RUN_TIMEOUT_S = 170  # a call must end within 180 s, plus the build on first use


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("libpds sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pdsbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def check_metrics(result, trace):
    """Matches the result's metrics to BENCHMARK.json, the one list of
    metric names and units; fills in 0 for an absent per-layer metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric.get("unit"):
            fail("metric %s (%s) is not listed in BENCHMARK.json"
                 % (name, metric.get("unit")))
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}


def source_id():
    """The git commit when available, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return "git:" + proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["global-packed", "global-secure",
                                 "token-local"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines if l.startswith("#")))
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    check_metrics(result, args.trace)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
