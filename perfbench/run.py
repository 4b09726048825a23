#!/usr/bin/env python3
"""Builds the program and the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload analyst_adhoc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root and is incremental, so only the first run of a checkout compiles. The last
line of stdout is the JSON result; build logs and per-layer tables go
to stderr. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "seabed_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every reference and property check rejects wrong answers")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    if args.selftest:
        return 0

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    want = expected_metrics(args.trace)
    if got != want:
        print(f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
