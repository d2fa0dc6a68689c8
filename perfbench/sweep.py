"""Run a series of benchmark runs and report the spread of every metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/results-base.jsonl
    python3 perfbench/sweep.py --seeds 11-15 --workloads fit-mle --trace 1 --out perfbench/out/trace.jsonl

Runs are sequential, one process at a time, each with BENCHMARK.json's
run_seconds.  Every result is appended to --out (compare.py reads that
file).  At the end the command prints, per workload and metric, the median,
the quartiles and the spread (q3 - q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import BENCHMARK, load, quartiles

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="run a benchmark series")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="JSON-lines file the results are appended to")
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                   "--results", args.out]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            print(f"{workload} seed {seed}: exit {done.returncode} {done.stdout.strip()[-400:]}", flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, _), group in sorted(load(args.out).items()):
        share = group["failed"] / group["attempted"] if group["attempted"] else float("nan")
        print(f"{workload}: {group['runs']} runs, failed share {share:.6g}")
        for name, values in group["metrics"].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:.2f} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {name:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
