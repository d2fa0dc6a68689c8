"""Compare two benchmark result files, metric by metric and workload by workload.

    python3 perfbench/compare.py perfbench/out/results-base.jsonl perfbench/out/results-change.jsonl

A result file holds one JSON line per run, as `run.py --results` and
`sweep.py` write them.  For each workload and metric the command prints the
median and quartiles of both files and the change of the medians.  An
end-to-end metric whose second median is worse than the first by more than
its bound in BENCHMARK.json is marked WORSE; per-layer metrics carry no
bound.  No combined score is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} plus failure shares."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            group = runs.setdefault(key, {"metrics": {}, "attempted": 0, "failed": 0, "runs": 0})
            group["runs"] += 1
            group["attempted"] += rec["result"]["attempted"]
            group["failed"] += rec["result"]["failed"]
            for name, m in rec["result"]["metrics"].items():
                group["metrics"].setdefault(name, []).append(m["value"])
    return runs


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def _cell(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two benchmark result files")
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    specs = metric_specs()
    before, after = load(args.before), load(args.after)
    worse = 0
    print(f"{'workload':<12} {'metric [unit]':<36} {'before: median [q1, q3]':<36} "
          f"{'after: median [q1, q3]':<36} {'change':>8}  verdict")
    for key in sorted(set(before) & set(after)):
        workload = key[0]
        b, a = before[key], after[key]
        for name in sorted(set(b["metrics"]) & set(a["metrics"])):
            spec = specs.get(name, {})
            bq, aq = quartiles(b["metrics"][name]), quartiles(a["metrics"][name])
            change = (aq[1] - bq[1]) / bq[1] if bq[1] else float("inf")
            verdict = "-"
            if "bound" in spec:
                loss = change if spec["better"] == "lower" else -change
                verdict = "WORSE" if loss > spec["bound"] else f"ok (bound {spec['bound']:.0%})"
                worse += verdict == "WORSE"
            label = f"{name} [{spec.get('unit', '?')}]"
            print(f"{workload:<12} {label:<36} {_cell(bq):<36} {_cell(aq):<36} {change:>+8.1%}  {verdict}")
        for label, g in (("before", b), ("after", a)):
            share = f"failed/attempted ({label})"
            print(f"{workload:<12} {share:<36} {g['failed']}/{g['attempted']} over {g['runs']} runs")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
