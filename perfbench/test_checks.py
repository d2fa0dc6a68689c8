"""The benchmark's checks can fail: wrong outputs count as failed operations.

Each test hands one workload's checkers a deliberately wrong output and
asserts the ledger counts it as a failed, wrong operation; the matching
correct output must pass, so a check that fails everything is caught too.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gts_tail as gt  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import Outputs  # noqa: E402

SEED = 3


def settle(workload, out: Outputs, name: str) -> workloads.Ledger:
    ledger = workloads.Ledger()
    ledger.settle(out, {name: workload.checkers(out)[name]})
    return ledger


def assert_fails(workload, out, name):
    ledger = settle(workload, out, name)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 1), ledger.problems


def assert_passes(workload, out, name):
    ledger = settle(workload, out, name)
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.problems


# --------------------------------------------------------------------------
# qq-tails
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qq(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("qq"))
    w = workloads.QQTails(SEED, inputs.build("qq-tails", SEED, workdir), workdir)
    out = Outputs()
    for name, ref in inputs.ASSETS:
        p = ref.params
        grid = gt.build_grid(p)
        cdf = gt.cdf_table(p, grid)
        s = gt.sample(cdf, 2000, seed=5)
        mean, sd = gt.cumulant(p, 1), gt.cumulant(p, 2) ** 0.5
        q = gt.qq_points(s, lambda a: gt.normal_quantile(mean, sd, a))
        out[f"{name}.tables"] = (grid, gt.pdf_table(p, grid), cdf)
        out[f"{name}.quantiles"] = [gt.quantile(cdf, a) for a in inputs.TAIL_LEVELS]
        out[f"{name}.sample"] = s
        out[f"{name}.qq_normal"] = (q, gt.tail_verdict(q))
        out[f"{name}.gof"] = (gt.gof_ks(s, cdf)[0], gt.gof_ad(s, cdf), gt.gof_chi2(s, cdf))
    btc_cdf = out["btc.tables"][2]
    q = gt.qq_points(out["eth.sample"], lambda a: gt.quantile(btc_cdf, a))
    out["eth_vs_btc.qq"] = (q, gt.tail_verdict(q))
    return w, out


def test_qq_correct_outputs_pass(qq):
    w, out = qq
    ledger = workloads.Ledger()
    ledger.settle(out, w.checkers(out))
    assert (ledger.attempted, ledger.failed) == (11, 0), ledger.problems


def test_cdf_shifted_by_1e6_fails(qq):
    w, out = qq
    grid, pdf, cdf = out["btc.tables"]
    bad = Outputs(out)
    bad["btc.tables"] = (grid, pdf, dataclasses.replace(cdf, values=cdf.values + 1e-6))
    assert_fails(w, bad, "btc.tables")


def test_quantile_off_by_a_node_fails(qq):
    w, out = qq
    bad = Outputs(out)
    dx = out["eth.tables"][0].dx
    bad["eth.quantiles"] = [q + dx for q in out["eth.quantiles"]]
    assert_fails(w, bad, "eth.quantiles")


def test_draws_from_a_shifted_law_fail(qq):
    w, out = qq
    bad = Outputs(out)
    bad["btc.sample"] = gt.ReturnSeries(out["btc.sample"].values + 0.5)
    assert_fails(w, bad, "btc.sample")


def test_flipped_tail_verdict_fails(qq):
    w, out = qq
    q, verdict = out["btc.qq_normal"]
    bad = Outputs(out)
    bad["btc.qq_normal"] = (q, dataclasses.replace(verdict, upper=gt.qq.TailSide.LIGHTER))
    assert_fails(w, bad, "btc.qq_normal")


def test_chi2_pvalue_off_by_1e8_fails(qq):
    w, out = qq
    ks, ad, (stat, df, p) = out["eth.gof"]
    bad = Outputs(out)
    bad["eth.gof"] = (ks, ad, (stat, df, p + 1e-8))
    assert_fails(w, bad, "eth.gof")


def test_eth_inside_btc_tails_fails(qq):
    w, out = qq
    bad = Outputs(out)
    bad["eth.quantiles"], bad["btc.quantiles"] = out["btc.quantiles"], out["eth.quantiles"]
    assert_fails(w, bad, "eth_vs_btc.qq")


def test_raised_operation_counts_failed_not_wrong(qq):
    w, out = qq
    bad = Outputs(out)
    bad.step("btc.sample", lambda: gt.sample(out["btc.tables"][2], 0, seed=1))
    ledger = settle(w, bad, "btc.sample")
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 0)


# --------------------------------------------------------------------------
# fit-mle
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("fit"))
    w = workloads.FitMle(SEED, inputs.build("fit-mle", SEED, workdir), workdir)
    ll = gt.log_likelihood(w.params, w.data)
    # The generating parameters stand in for a fit: they meet every check
    # with equality on the likelihood.
    result = gt.FitResult(
        params=w.params, loglik=ll, std_errors=(0.1,) * 7, z_pvalues=None, aic=14.0 - 2.0 * ll,
        bic=0.0, n_obs=w.data.n, converged=True, n_free=7,
    )
    return w, Outputs({"fit": result})


def test_fit_at_truth_passes(fit):
    w, out = fit
    assert_passes(w, out, "fit")


def test_fit_loglik_below_truth_fails(fit):
    w, out = fit
    bad = Outputs(out)
    bad["fit"] = dataclasses.replace(out["fit"], loglik=out["fit"].loglik - 0.01)
    assert_fails(w, bad, "fit")


def test_unconverged_fit_fails(fit):
    w, out = fit
    bad = Outputs(out)
    bad["fit"] = dataclasses.replace(out["fit"], converged=False)
    assert_fails(w, bad, "fit")


def test_estimates_far_from_the_truth_fail(fit):
    w, out = fit
    bad = Outputs(out)
    p = out["fit"].params
    off = dataclasses.replace(p, beta_plus=p.beta_plus + 0.31, lambda_plus=p.lambda_plus + 0.31)
    bad["fit"] = dataclasses.replace(out["fit"], params=off)
    assert_fails(w, bad, "fit")


def test_nan_standard_error_fails(fit):
    w, out = fit
    bad = Outputs(out)
    bad["fit"] = dataclasses.replace(out["fit"], std_errors=(0.1,) * 6 + (float("nan"),))
    assert_fails(w, bad, "fit")


# --------------------------------------------------------------------------
# cli-oneshot
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One pass of the CLI script through cli.main, read back as the workload would."""
    import contextlib
    import io

    from gts_tail import cli

    workdir = str(tmp_path_factory.mktemp("cli"))
    w = workloads.CliOneshot(SEED, inputs.build("cli-oneshot", SEED, workdir), workdir)
    out = Outputs()
    for op, argv, path in inputs.cli_script(workdir, 11):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        with open(path, "rb") as fh:
            out[op] = (code, err.getvalue(), fh.read())
    return w, out


def test_cli_correct_outputs_pass(cli_run):
    w, out = cli_run
    ledger = workloads.Ledger()
    ledger.settle(out, w.checkers(out))
    assert (ledger.attempted, ledger.failed) == (9, 0), ledger.problems


def test_nonzero_exit_fails(cli_run):
    w, out = cli_run
    bad = Outputs(out)
    bad["pdf"] = (3, "numerical failure: grid misconfigured\n", b"")
    assert_fails(w, bad, "pdf")


def test_pdf_csv_with_extra_mass_fails(cli_run):
    w, out = cli_run
    code, err, body = out["pdf"]
    lines = body.decode().splitlines()
    x, v = lines[1].split(",")
    lines[1] = f"{x},{float(v) + 1e-3}"
    bad = Outputs(out)
    bad["pdf"] = (code, err, ("\n".join(lines) + "\n").encode())
    assert_fails(w, bad, "pdf")


def test_quantile_csv_off_the_oracle_fails(cli_run):
    w, out = cli_run
    code, err, body = out["quantile"]
    header, rows = workloads.checks.read_csv_columns(body.decode())
    rows[:, 1] += 1e-3
    text = "alpha,quantile\n" + "".join(f"{a!r},{q!r}\n" for a, q in rows)
    bad = Outputs(out)
    bad["quantile"] = (code, err, text.encode())
    assert_fails(w, bad, "quantile")


def test_different_sample_files_fail(cli_run):
    w, out = cli_run
    code, err, body = out["sample_b"]
    bad = Outputs(out)
    bad["sample_b"] = (code, err, body.replace(b"\n", b"\n\n", 1))
    assert_fails(w, bad, "sample_b")


def test_missing_verdict_line_fails(cli_run):
    w, out = cli_run
    code, _, body = out["qq_gts"]
    bad = Outputs(out)
    bad["qq_gts"] = (code, "tails: lower=heavier upper=comparable shape=s-shaped\n", body)
    assert_fails(w, bad, "qq_gts")


# --------------------------------------------------------------------------
# the command itself
# --------------------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    """In a tree with only the benchmark, run.py exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qq-tails", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_sub_seeds_differ_and_repeat():
    a = [inputs.sub_seed(1, r) for r in range(5)]
    assert a == [inputs.sub_seed(1, r) for r in range(5)]
    assert len(set(a + [inputs.sub_seed(2, r) for r in range(5)])) == 10
    assert np.all(np.asarray(a) >= 0)
