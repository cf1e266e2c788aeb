#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload node|jobs|fleet --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout.  The first run configures and builds
(Release) under .bench_build/ at the checkout root; later runs reuse it.
Build output goes to stderr, so the last line of stdout is the result
object.  With --trace 0 it holds every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric: a per-layer metric
that the workload does not exercise (a fleet metric on `node`, say) is
reported as 0.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds only the benchmark and the libraries it
    links.  Returns the binary's path, or None when the build failed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return BUILD / "e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["node", "jobs", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(WORK)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"e2ebench: run failed with code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None and args.trace:
            metrics[spec["name"]] = {"value": 0, "unit": spec["unit"]}
        elif got is None or got["unit"] != spec["unit"]:
            print(f"e2ebench: metric {spec['name']} missing or in the wrong "
                  f"unit", file=sys.stderr)
            return 1
    extra = sorted(set(metrics) - {spec["name"] for spec in wanted})
    if extra:
        print(f"e2ebench: metrics outside BENCHMARK.json: {extra}",
              file=sys.stderr)
        return 1
    result["metrics"] = {spec["name"]: metrics[spec["name"]] for spec in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
