#!/usr/bin/env python3
"""Full-stack middleware benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, runs the benchmark's self-test, then runs the
workload. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The line before it records the seed and the
host facts (nproc, build type, simulated or loopback link, multicast, and
the CPU the run was pinned to).
Exits nonzero, without a result line, if the build or self-test fails; exits
nonzero after printing the result if a correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step exited {done.returncode}: {' '.join(cmd)}")
            return False
    return True


def last_cpu():
    """The highest CPU this process may run on, or None where affinity is unsupported."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError, ValueError):
        return None


def run_binary(cmd, cpu=None):
    # The benchmark is single-threaded; pinning it to one CPU keeps the
    # scheduler from migrating it (and the loopback traffic it drives)
    # between cores mid-run, which otherwise dominates run-to-run spread of
    # udp_loopback's tail latencies.
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, preexec_fn=pin)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{os.path.basename(cmd[0])} failed: {e}")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}

    if not build():
        return 1
    selftest = run_binary([os.path.join(BUILD, "perfbench_selftest")])
    if selftest is None or selftest.returncode != 0:
        log("self-test failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-log", os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.csv")]
    cpu = last_cpu()
    done = run_binary(cmd, cpu)
    lines = done.stdout.strip().splitlines() if done is not None else []
    if not lines:
        log("benchmark printed no result")
        return 1
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        log(f"unparsable result line: {lines[-1][:200]}")
        return 1
    if set(raw["metrics"]) != set(units):
        log(f"metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(raw['metrics']))}, "
            f"extra {sorted(set(raw['metrics']) - set(units))}")
        return 1
    for violation in raw["violations"]:
        log(f"correctness check failed: {violation}")

    host = dict(raw["host"], pinned_cpu=cpu)
    print("perfbench host: " + json.dumps(host, sort_keys=True))
    result = {
        "correct": bool(raw["correct"]) and done.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": units[name]}
                    for name in (m["name"] for m in expected)},
    }
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": host, **result}, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
