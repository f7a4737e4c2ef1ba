#!/usr/bin/env python3
"""Build the perfbench binary from the repository's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload learn_itdk --seed 1 --seconds 15 --trace 0

The perfbench binary is built optimised (CMake Release) under .bench_build/ on
first use; later runs only re-check the build. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; the full
report and span files land in .bench_build/perfbench-out/. See NOTES.md for
the workloads and metrics.

The result carries every metric BENCHMARK.json lists for the mode: its
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.
An end-to-end metric the binary did not report is an error. A per-layer
metric of a layer the workload does not run reads 0.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("learn_itdk", "serve_lookup", "serve_geo_churn")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the perfbench target; exits 1 on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write("perfbench: build step failed: %s\n" % exc)
            sys.exit(1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def manifest_metrics(trace):
    """The (name, unit) pairs BENCHMARK.json lists for this mode; exits 1 if unreadable."""
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
        return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write("perfbench: cannot read %s: %s\n" % (MANIFEST, exc))
        sys.exit(1)


def complete(metrics, trace):
    """Checks the binary's metrics against the manifest and fills in the
    per-layer metrics of layers the workload does not run with 0."""
    out = {}
    for name, unit in manifest_metrics(trace):
        m = metrics.pop(name, None)
        if m is None and not trace:
            sys.stderr.write("perfbench: end-to-end metric %s missing\n" % name)
            sys.exit(1)
        if m is None:
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            sys.stderr.write("perfbench: %s has unit %s, manifest says %s\n" % (name, m["unit"], unit))
            sys.exit(1)
        out[name] = m
    if metrics:
        sys.stderr.write("perfbench: metrics not in the manifest: %s\n" % ", ".join(sorted(metrics)))
        sys.exit(1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    manifest_metrics(args.trace)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("perfbench: run failed: %s\n" % exc)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: binary exited with %d\n" % proc.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        sys.exit(1)
    result["metrics"] = complete(result["metrics"], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
