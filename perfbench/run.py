#!/usr/bin/env python3
"""Build and run the real-prover benchmark (perfbench).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds
perfbench/ (with the repository's src/ underneath) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes a Chrome trace next to the binary.

--workload all runs every workload in turn and ends with one JSON line
whose metric names carry the workload as a prefix. --test builds and
runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["prove-table-n16", "prove-hdg-n16-1t", "serve-mixed-n12"]
# A run measures --seconds, plus set-up, warm-up and the last results.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: command failed: " + " ".join(cmd))


def build(target):
    """Configure once, then build @p target; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository's src/ is missing next to "
                 "perfbench/; run from a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check_call(cmd)
    check_call(["cmake", "--build", bdir, "--target", target,
                "-j", str(os.cpu_count() or 1)])
    return bdir


def run_one(binary, workload, args, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            os.path.dirname(binary),
            "trace-%s-seed%d.json" % (workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))


def run_all(binary, args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for workload in WORKLOADS:
        print("## " + workload, flush=True)
        result = run_one(binary, workload, args, capture=True)
        lines = result.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        ok &= result.returncode == 0
        try:
            one = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("perfbench: %s printed no result" % workload)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return 0 if ok else 1


def self_test():
    bdir = build("perfbench_tests")
    check_call(["ctest", "--test-dir", bdir, "--output-on-failure"])
    build("perfbench")
    check_call([sys.executable, "-m", "unittest", "discover", "-s",
                os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = os.path.join(build("perfbench"), "perfbench")
    if args.workload == "all":
        return run_all(binary, args)
    return run_one(binary, args.workload, args, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
