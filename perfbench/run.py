#!/usr/bin/env python3
"""Builds and runs the serve + scan benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]
    python3 perfbench/run.py --self-test

The benchmark is built from source (perfbench/CMakeLists.txt, which pulls in
../src) into .bench_build/ at the repository root, then one workload runs in
its own process. Its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every workload,
each in its own process, one after another. The exit code is non-zero when
the build fails or any output check fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["serve_keepalive", "serve_churn", "scan_clean", "scan_faulted"]
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds @target; returns the binary's path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(BUILD, target)


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(BUILD, "out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if args.self_test:
        binary = build("perfbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode

    binary = build("perfbench")
    if binary is None:
        return 1
    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        for line in lines:
            print(line)
        sys.stdout.flush()
        return 0 if code == 0 and lines else 1

    worst = 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args.seed, args.seconds,
                              args.trace)
        print("== %s (exit %d)" % (workload, code))
        for line in lines:
            print(line)
        sys.stdout.flush()
        worst = worst or code or (0 if lines else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
