#!/usr/bin/env python3
"""Service benchmark: build the program from source, replay one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload drift-replan --seed 11 \
        --seconds 35 --trace 0

Builds perfbench/ (the program's src/ tree plus the benchmark binary,
perfbench/service_bench.cc) into .bench_build/perfbench, runs it
and prints, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"events_per_s": {"value": 313.8, "unit": "1/s"}, ...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, --trace 1
the per-layer ones. Besides the binary's own checks, the run gates each
episode's closed canonical audit journal with the lifecycle check of
tools/sqpr_inspect.py --require-complete. Exits non-zero, without a
result line, when the program cannot be built or the binary fails.
"""

import argparse
import glob
import importlib.util
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "service_bench")
# A whole run must end within 180 s.
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs cmd; on failure echoes its output to stderr and exits 1."""
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{cmd[0]} failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        die(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "planning_service.h")):
        die("program sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", "4"], BUILD_TIMEOUT_S)


def load_inspector():
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    spec = importlib.util.spec_from_file_location(
        "sqpr_inspect", os.path.join(ROOT, "tools", "sqpr_inspect.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def journal_complete(inspect, path):
    """The lifecycle gate of tools/sqpr_inspect.py --require-complete."""
    try:
        _, records = inspect.load_audit(path)
    except SystemExit:  # malformed journal; the inspector printed why
        return False
    life = inspect.Lifecycles()
    for rec in records:
        life.apply(rec)
    errors = life.completeness_errors()
    for e in errors:
        print(f"  {os.path.basename(path)}: lifecycle: {e}")
    return not errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(WORK_DIR, "audit.*.jsonl")):
        os.remove(stale)
    out = run_quiet(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", WORK_DIR],
        BINARY_TIMEOUT_S,
    )
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out[-20000:])
        die("service_bench printed no result line")
    for line in lines[:-1]:
        print(line)

    # Lifecycle completeness of every episode's closed journal, one
    # operation each.
    journals = sorted(glob.glob(os.path.join(WORK_DIR, "audit.*.jsonl")))
    inspect = load_inspector()
    incomplete = sum(not journal_complete(inspect, j) for j in journals)
    if not journals or incomplete:
        print(f"  check FAILED: {incomplete} of {len(journals)} audit "
              f"journals incomplete")
    attempted = result["attempted"] + max(1, len(journals))
    failed = result["failed"] + (incomplete if journals else 1)

    values = dict(result["per_layer" if args.trace else "end_to_end"])
    values["failed_share"] = failed / attempted
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"service_bench did not report metric {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
