#!/usr/bin/env python3
"""End-to-end allocation benchmark runner.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds perfbench/ (the allocator libraries from
src/ plus the perfbench_e2e binary, Release) into .bench_build/perfbench,
runs one workload in its own process, echoes the record it prints (settings,
designs, host facts, result digest) and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero, without a result line, when the build fails,
the binary fails, or a declared metric is missing or has another unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def parse_record(lines):
    """Splits the binary's lines into metrics {name: (value, unit)} and the
    result counts; every line is echoed so the record stays readable."""
    metrics, result = {}, None
    for line in lines:
        print(line)
        words = line.split()
        if words[:1] == ["metric"] and len(words) == 4:
            metrics[words[1]] = (float(words[2]), words[3])
        elif words[:1] == ["result"]:
            result = dict(w.split("=", 1) for w in words[1:])
    if result is None:
        raise RuntimeError("perfbench_e2e printed no result line")
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RuntimeError(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])

    print(f"info nproc {os.cpu_count()}")
    print(f"info git {git_describe()}")
    print("info loadavg_start %.2f %.2f %.2f" % os.getloadavg())
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_e2e exited with {proc.returncode}")
    metrics, result = parse_record(proc.stdout.splitlines())
    print("info loadavg_end %.2f %.2f %.2f" % os.getloadavg())

    out = {}
    for m in declared:
        if m["name"] not in metrics:
            raise RuntimeError(f"metric {m['name']} was not reported")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {unit}, "
                               f"declared {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"] == "1",
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
