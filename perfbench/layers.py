"""Per-layer probes for the traced run.

Each probe times the benchmark's own calls into one public function of a
gts_tail module, inside a span named after its metric, and reports the
median over a few repeats.  The probes run after the workload's rounds in
every traced run, whatever the workload, so each traced run reports every
per-layer metric.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np

import gts_tail as gt
from gts_tail import cli

from inputs import FIT_DRAWS, cli_script, sub_seed, write_params
from workloads import src_env

# Likelihood-grid settings of a default fit (FitOptions): 4096 points,
# cutoff at |cf| < 1e-8, at most 2**17 frequency nodes, and the automatic
# node count doubled when the fit freezes its grid.
FIT_GRID = gt.GridConfig(m=2**12, width_sds=20.0, freq_eps=1e-8, max_n_freq=2**17)
QUANTILE_LEVELS = 2000
SAMPLE_DRAWS = 10_000


def _repeat(tr, name: str, n: int, fn, *args):
    with tr.span(name + " probe"):
        for _ in range(n):
            with tr.span(name):
                out = fn(*args)
    return out


def fit_grid_config(p, data):
    """The grid a default fit evaluates its likelihood on, from public calls."""
    x = np.asarray(data.values)
    cover = float(np.max(np.abs(x - gt.cumulant(p, 1)))) + 4.0 * math.sqrt(gt.cumulant(p, 2))
    cfg = replace(FIT_GRID, min_half_width=cover)
    n_freq = min(2 * gt.build_grid(p, cfg).n_freq, FIT_GRID.max_n_freq)
    return replace(cfg, n_freq=n_freq)


def probe(seed: int, workdir: str, tr) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    btc, eth = gt.BITCOIN_DAILY.params, gt.ETHEREUM_DAILY.params
    btc_grid, eth_grid = gt.build_grid(btc), gt.build_grid(eth)
    btc_pdf, btc_cdf = gt.pdf_table(btc, btc_grid), gt.cdf_table(btc, btc_grid)
    eth_cdf = gt.cdf_table(eth, eth_grid)
    rng = np.random.default_rng(sub_seed(seed, 1000))
    m = {}

    def ms(name):
        return tr.median(name) * 1e3

    # core: psi on the positive half of BTC's default frequency grid.
    n = btc_grid.n_freq
    xi = -btc_grid.freq_cutoff + (2.0 * btc_grid.freq_cutoff / (n - 1)) * np.arange(n)
    _repeat(tr, "core.psi", 21, gt.characteristic_exponent, btc, xi[n // 2:])
    m["core.psi_ms"] = (ms("core.psi"), "ms")

    # spectral: the fit's per-evaluation grid, its transform, default tables.
    data = gt.sample(btc_cdf, FIT_DRAWS, sub_seed(seed, 1001))
    fit_cfg = fit_grid_config(btc, data)
    fit_grid = _repeat(tr, "spectral.build_grid", 21, gt.build_grid, btc, fit_cfg)
    seq = rng.standard_normal(fit_grid.n_freq) + 1j * rng.standard_normal(fit_grid.n_freq)
    delta = fit_grid.dx * 2.0 * fit_grid.freq_cutoff / (fit_grid.n_freq - 1) / (2.0 * math.pi)
    _repeat(tr, "spectral.frft", 21, gt.frft, seq, delta)
    _repeat(tr, "spectral.pdf_table", 11, gt.pdf_table, btc, btc_grid)
    _repeat(tr, "spectral.cdf_table", 11, gt.cdf_table, btc, btc_grid)
    m["spectral.build_grid_ms"] = (ms("spectral.build_grid"), "ms")
    m["spectral.frft_ms"] = (ms("spectral.frft"), "ms")
    m["spectral.pdf_table_ms"] = (ms("spectral.pdf_table"), "ms")
    m["spectral.cdf_table_ms"] = (ms("spectral.cdf_table"), "ms")
    m["spectral.n_freq_btc"] = (btc_grid.n_freq, "count")
    m["spectral.n_freq_eth"] = (eth_grid.n_freq, "count")
    m["spectral.n_freq_fit"] = (fit_grid.n_freq, "count")

    # quantiles: scalar quantile solves and inverse-CDF sampling.
    levels = rng.uniform(1e-3, 1.0 - 1e-3, QUANTILE_LEVELS)
    _repeat(tr, "quantiles.quantile x2000", 5, lambda: [gt.quantile(btc_cdf, a) for a in levels])
    m["quantiles.quantile_us"] = (tr.median("quantiles.quantile x2000") / QUANTILE_LEVELS * 1e6, "us")
    draws = _repeat(tr, "quantiles.sample", 3, gt.sample, btc_cdf, SAMPLE_DRAWS, sub_seed(seed, 1002))
    m["quantiles.sample_ms"] = (ms("quantiles.sample"), "ms")

    # estimation: one likelihood on the fit's grid, one observed information.
    _repeat(tr, "estimation.log_likelihood", 11, gt.log_likelihood, btc, data, fit_cfg)
    m["estimation.log_likelihood_ms"] = (ms("estimation.log_likelihood"), "ms")
    at_truth = gt.FitResult(
        params=btc, loglik=0.0, std_errors=None, z_pvalues=None, aic=0.0, bic=0.0,
        n_obs=data.n, converged=True, n_free=7,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _repeat(tr, "estimation.standard_errors", 1, gt.standard_errors, at_truth, data)
    m["estimation.standard_errors_s"] = (tr.median("estimation.standard_errors"), "s")

    # qq: Q-Q against the normal law and a GTS law, and the GOF statistics.
    mean, sd = gt.cumulant(btc, 1), math.sqrt(gt.cumulant(btc, 2))
    qq = _repeat(tr, "qq.qq_points_normal", 5, gt.qq_points, draws,
                 lambda a: gt.normal_quantile(mean, sd, a))
    _repeat(tr, "qq.qq_points_gts", 3, gt.qq_points, draws, lambda a: gt.quantile(eth_cdf, a))
    _repeat(tr, "qq.gof", 11, lambda: (gt.gof_ks(draws, btc_cdf), gt.gof_ad(draws, btc_cdf),
                                       gt.gof_chi2(draws, btc_cdf)))
    m["qq.qq_points_normal_ms"] = (ms("qq.qq_points_normal"), "ms")
    m["qq.qq_points_gts_ms"] = (ms("qq.qq_points_gts"), "ms")
    m["qq.gof_ms"] = (ms("qq.gof"), "ms")

    # File output and input.
    path = os.path.join(workdir, "probe.csv")
    _repeat(tr, "returns_io.write_returns_csv", 5, gt.write_returns_csv, draws, path)
    _repeat(tr, "returns_io.load_returns_csv", 5, gt.load_returns_csv, path)
    _repeat(tr, "spectral.write_table_csv", 5, gt.write_table_csv, btc_pdf, path)
    _repeat(tr, "qq.emit_svg", 5, gt.emit, qq, "svg", os.path.join(workdir, "probe.svg"))
    m["returns_io.write_returns_csv_ms"] = (ms("returns_io.write_returns_csv"), "ms")
    m["returns_io.load_returns_csv_ms"] = (ms("returns_io.load_returns_csv"), "ms")
    m["spectral.write_table_csv_ms"] = (ms("spectral.write_table_csv"), "ms")
    m["qq.emit_svg_ms"] = (ms("qq.emit_svg"), "ms")

    # cli: a fresh import, and the CLI script through cli.main in-process.
    code = "import time; t = time.perf_counter(); import gts_tail; print(time.perf_counter() - t)"
    imports = []
    for _ in range(3):
        with tr.span("cli.import probe"):
            done = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                                  capture_output=True, text=True)
        imports.append(float(done.stdout))
    m["cli.import_s"] = (float(np.median(imports)), "s")
    script_dir = os.path.join(workdir, "main-script")
    os.makedirs(script_dir, exist_ok=True)
    write_params(os.path.join(script_dir, "btc.par"), btc)
    write_params(os.path.join(script_dir, "eth.par"), eth)
    _repeat(tr, "cli.main_script", 2, _main_script, script_dir, sub_seed(seed, 1003))
    m["cli.main_script_ms"] = (ms("cli.main_script"), "ms")
    return m


def _main_script(workdir: str, seed: int) -> None:
    for op, argv, _ in cli_script(workdir, seed):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main {op} exited {code}: {err.getvalue().strip()}")
