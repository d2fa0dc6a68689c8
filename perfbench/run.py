"""Run one workload of the gts-tail benchmark and print its result.

    python3 perfbench/run.py --workload qq-tails --seed 1 --seconds 10 --trace 0

The benchmark runs gts_tail from the checkout's `src/` directory; it needs
no install.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run also
writes its spans to `perfbench/out/trace-<workload>-<seed>.json`.
`--results FILE` appends the result, tagged with its arguments, to FILE as
one JSON line (see sweep.py and compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5

# One worker thread per process: numpy's BLAS would otherwise size its pool
# to the machine, and the benchmark runs one process at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("qq-tails", "fit-mle", "cli-oneshot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="append the result as one JSON line to this file")
    return ap.parse_args(argv)


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Median wall time of fresh interpreters that import gts_tail and build the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup-{k}")
        os.makedirs(probe_dir)
        code = (
            f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
            f"import inputs; inputs.build({workload!r}, {seed}, {probe_dir!r})"
        )
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gts_tail", "__init__.py")):
        print(f"error: no gts_tail package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC]
    import gts_tail

    if os.path.dirname(os.path.abspath(gts_tail.__file__)) != os.path.join(SRC, "gts_tail"):
        print(f"error: imported gts_tail from {gts_tail.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    import layers
    import workloads
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, workdir)
        tr = Tracer(enabled=bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](
            args.seed, inputs.build(args.workload, args.seed, workdir), workdir
        )
        ledger = workloads.Ledger()
        round_s, last = workloads.run_rounds(workload, args.seconds, tr, ledger)
        if args.trace:
            probes = Tracer(enabled=True)
            metrics = layers.probe(args.seed, workdir, probes)
            tr.dump(
                os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "traced_round_s": round_s,
                    "reference": workload.reference(last),
                    "probe_summary": probes.summary(),
                },
            )
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "round_s": (round_s, "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.results:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
