"""Workload inputs, made from the workload seed.

This module imports nothing but gts_tail and numpy, so that building the
inputs in a fresh interpreter measures the set-up a user pays: process
start, `import gts_tail` and input construction.
"""

from __future__ import annotations

import os

import numpy as np

import gts_tail as gt
from gts_tail.core import PARAM_NAMES

ASSETS = (("btc", gt.BITCOIN_DAILY), ("eth", gt.ETHEREUM_DAILY))
TAIL_LEVELS = (1e-4, 1e-3, 1e-2, 0.05, 0.95, 0.99, 0.999, 0.9999)
QQ_DRAWS = 20_000
FIT_DRAWS = 3000
# fit_mle's evaluation count, and with it its time, swings by about 40 %
# from one sample to the next (4.2k-7.7k evaluations over six samples of
# 3000 draws), wider than any bound a fit time could carry.  The fit
# therefore always sees the same sample, drawn with this seed.
FIT_SAMPLE_SEED = 2025
CLI_DRAWS = 5000
CLI_LEVELS = (1e-4, 1e-3, 1e-2, 0.5, 0.99, 0.999, 0.9999)


def sub_seed(seed: int, *path: int) -> int:
    """A seed for one input of one round, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def write_params(path: str, params) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in zip(PARAM_NAMES, params.as_tuple()):
            fh.write(f"{key} = {value!r}\n")


def cli_script(workdir: str, seed: int) -> list:
    """(operation, argv, output file) for one pass of the CLI script."""

    def f(name):
        return os.path.join(workdir, name)

    btc, eth = f("btc.par"), f("eth.par")
    n = str(CLI_DRAWS)
    return [
        ("classify", ["classify", "--params", btc, "--out", f("classify.json")],
         f("classify.json")),
        ("pdf", ["pdf", "--params", btc, "--out", f("pdf.csv")], f("pdf.csv")),
        ("cdf", ["cdf", "--params", eth, "--out", f("cdf.csv")], f("cdf.csv")),
        ("quantile", ["quantile", "--params", btc, "--alpha", *map(repr, CLI_LEVELS),
                      "--out", f("q.csv")], f("q.csv")),
        ("sample_a", ["sample", "--params", eth, "-n", n, "--seed", str(seed),
                      "--out", f("a.csv")], f("a.csv")),
        ("sample_b", ["sample", "--params", eth, "-n", n, "--seed", str(seed),
                      "--out", f("b.csv")], f("b.csv")),
        ("qq_normal", ["qq", "--input", f("a.csv"), "--theoretical", "normal", "--format", "svg",
                       "--verdict", "--out", f("qq.svg")], f("qq.svg")),
        ("qq_gts", ["qq", "--input", f("a.csv"), "--theoretical", "gts", "--theoretical-params",
                    btc, "--verdict", "--out", f("qq.csv")], f("qq.csv")),
        ("gof", ["gof", "--input", f("a.csv"), "--params", eth, "--out", f("gof.json")],
         f("gof.json")),
    ]


def build(workload: str, seed: int, workdir: str) -> dict:
    """Everything a workload's rounds take as given."""
    if workload == "qq-tails":
        rng = np.random.default_rng(sub_seed(seed, 0))
        probes = {}
        for name, ref in ASSETS:
            k1 = gt.cumulant(ref.params, 1)
            sd = gt.cumulant(ref.params, 2) ** 0.5
            probes[name] = [k1] + sorted((k1 + sd * rng.uniform(-4.0, 4.0, 3)).tolist())
        return {"probes": probes}
    if workload == "fit-mle":
        p = gt.BITCOIN_DAILY.params
        cdf = gt.cdf_table(p, gt.build_grid(p))
        return {"sample": gt.sample(cdf, FIT_DRAWS, FIT_SAMPLE_SEED)}
    if workload == "cli-oneshot":
        for name, ref in ASSETS:
            write_params(os.path.join(workdir, f"{name}.par"), ref.params)
        return {}
    raise KeyError(f"unknown workload {workload!r}")
