#!/usr/bin/env python3
"""Runs each workload repeatedly and prints every end-to-end metric's spread against its bound.

    python3 perfbench/steady.py                      # every workload, 10 runs, seeds 1..10
    python3 perfbench/steady.py --workloads analyst_adhoc --runs 5 --first-seed 101

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median. A metric
is steady when its spread stays under a third of its bound in BENCHMARK.json;
setup_s is reported but exempt, since each run times one cold set-up. The share
of failed operations must be identical in every run. Raw results go to
.bench_out/steady-<workload>.json. Exits non-zero when anything is unsteady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))

        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, "
                  f"correct {[r['correct'] for r in results]}")
        print(f"{'workload':<16} {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            if metric["name"] == "setup_s":
                verdict = "exempt"
            elif spread < metric["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "within bound" if spread <= metric["bound"] else "UNSTEADY"
                steady = False
            print(f"{workload:<16} {metric['name']:<16} {median:>12.4f} {spread:>8.2%} "
                  f"{metric['bound']:>6.0%}  {verdict}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
