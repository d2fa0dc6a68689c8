import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gts_tail as gt
from gts_tail import cli

_CLI = [sys.executable, "-m", "gts_tail.cli"]


def run_cli(*args, env_extra=None, input_text=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*_CLI, *args],
        capture_output=True,
        text=True,
        input=input_text,
        env=env,
        timeout=600,
    )


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "btc.par"
    gt.write_params_file(gt.BITCOIN_DAILY.params, path)
    return str(path)


@pytest.fixture(scope="module")
def returns_file(tmp_path_factory):
    p = gt.BITCOIN_DAILY.params
    cdf = gt.cdf_table(p, gt.build_grid(p, gt.GridConfig(m=2**12)))
    series = gt.sample(cdf, 600, seed=5)
    path = tmp_path_factory.mktemp("cli") / "returns.csv"
    gt.write_returns_csv(series, path)
    return str(path)


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "gts-tail" in r.stdout


def test_eval_cf(params_file):
    r = run_cli("eval-cf", "--params", params_file, "--xi", "0", "1.0")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "xi,psi_re,psi_im,cf_re,cf_im"
    row0 = lines[1].split(",")
    assert float(row0[1]) == 0.0 and float(row0[2]) == 0.0
    assert float(row0[3]) == 1.0


def test_classify(params_file):
    r = run_cli("classify", "--params", params_file)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["activity"] == "infinite"
    assert payload["variation"] == "finite"
    assert payload["cumulants"]["2"] > 0


def test_pdf_table_output(params_file, tmp_path):
    out = tmp_path / "pdf.csv"
    r = run_cli("pdf", "--params", params_file, "--grid-m", "4096", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 4097


def test_quantile_command(params_file):
    r = run_cli("quantile", "--params", params_file, "--alpha", "0.5", "0.975", "--grid-m", "4096")
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert float(rows[0][1]) < float(rows[1][1])


def test_sample_deterministic(params_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--params", params_file, "-n", "50", "--seed", "9", "--grid-m", "4096"]
    assert run_cli(*argv, "--out", str(a)).returncode == 0
    assert run_cli(*argv, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 51


def test_qq_svg_and_verdict(params_file, returns_file, tmp_path):
    out = tmp_path / "qq.svg"
    r = run_cli(
        "qq",
        "--input",
        returns_file,
        "--theoretical",
        "normal",
        "--format",
        "svg",
        "--out",
        str(out),
        "--verdict",
    )
    assert r.returncode == 0
    text = out.read_text()
    assert text.count('class="refline"') == 1
    assert "tails:" in r.stderr


def test_qq_gts_reference(params_file, returns_file, tmp_path):
    out = tmp_path / "qq.csv"
    r = run_cli(
        "qq",
        "--input",
        returns_file,
        "--theoretical",
        "gts",
        "--theoretical-params",
        params_file,
        "--grid-m",
        "4096",
        "--levels",
        "101",
        "--out",
        str(out),
    )
    assert r.returncode == 0
    assert len(out.read_text().splitlines()) == 102


def test_gof_json(params_file, returns_file):
    r = run_cli(
        "gof",
        "--input",
        returns_file,
        "--params",
        params_file,
        "--bins",
        "20",
        "--grid-m",
        "8192",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["n"] == 600
    assert payload["chi2_df"] == 19
    assert 0.0 <= payload["chi2_pvalue"] <= 1.0


def test_fit_roundtrip(returns_file, tmp_path):
    out = tmp_path / "fit.json"
    r = run_cli(
        "fit",
        "--input",
        returns_file,
        "--model",
        "full",
        "--fit-grid-m",
        "1024",
        "--no-se",
        "--out",
        str(out),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["n_free"] == 7
    assert payload["n_obs"] == 600
    assert np.isfinite(payload["loglik"])


def test_fit_json_without_standard_errors(returns_file, tmp_path, monkeypatch):
    # A fit whose Hessian probes hit the likelihood penalty carries no SEs.
    from gts_tail import cli

    def fit_without_se(data, kind=None, options=None):
        return gt.FitResult(
            params=gt.BITCOIN_DAILY.params, loglik=-1.0, std_errors=None, z_pvalues=None,
            aic=16.0, bic=20.0, n_obs=data.n, converged=True, n_free=7, hessian_fallback=True,
        )

    monkeypatch.setattr(cli, "fit_mle", fit_without_se)
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--input", returns_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["std_errors"] is None and payload["z_pvalues"] is None
    assert payload["hessian_fallback"] is True and payload["converged"] is True


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.par"
    bad.write_text("mu = 0\n")
    r = run_cli("classify", "--params", str(bad))
    assert r.returncode == 2


def test_exit_code_numerical_error(params_file):
    # A grid too narrow to settle the CDF endpoints is a numerical failure.
    r = run_cli(
        "cdf", "--params", params_file, "--grid-m", "1024",
        "--grid-width-sds", "1.5", "--out", "-",
    )
    assert r.returncode == 3


def test_flag_defaults_are_the_dataclass_fields():
    from gts_tail.cli import build_parser

    parse = build_parser().parse_args
    args, cfg = parse(["cdf", "--params", "p", "--out", "-"]), gt.GridConfig()
    assert (args.grid_m, args.grid_width_sds, args.grid_min_half_width, args.freq_eps) == (
        cfg.m, cfg.width_sds, cfg.min_half_width, cfg.freq_eps
    )
    assert parse(["fit", "--input", "r"]).fit_grid_m == gt.FitOptions().grid_m


@pytest.mark.parametrize(
    "flags",
    [
        ("--freq-eps", "0"),
        ("--freq-eps", "-1"),
        ("--freq-eps", "1"),
        ("--freq-eps", "2"),
        ("--grid-min-half-width", "inf"),
        ("--grid-m", "0"),
        ("--grid-m", "-5"),
    ],
)
def test_grid_flags_outside_their_domain_exit_2(params_file, flags):
    r = run_cli("pdf", "--params", params_file, "--grid-m", "1024", "--out", "-", *flags)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_grid_m_over_the_ceiling_exit_2(params_file):
    # 1e11 points would ask for a 0.8 TB grid; the ceiling is 2**22.
    r = run_cli("pdf", "--params", params_file, "--grid-m", "100000000000", "--out", os.devnull)
    assert r.returncode == 2
    assert "ceiling" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("xi", ["nan", "inf"])
def test_eval_cf_non_finite_frequency_exit_2(params_file, tmp_path, xi):
    out = tmp_path / "cf.csv"
    r = run_cli("eval-cf", "--params", params_file, "--xi", "1.0", xi, "--out", str(out))
    assert r.returncode == 2
    assert "not finite" in r.stderr
    assert not out.exists()


def test_eval_cf_where_xi_over_lambda_overflows(params_file):
    # The exponent's z = log(1 + i xi/lambda) is taken without the
    # overflowing ratio, so the row is finite, not nan.
    r = run_cli("eval-cf", "--params", params_file, "--xi", "1e308", "1.7976931348623157e308",
                env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows for v in row)
    assert all(float(row[1]) < 0.0 for row in rows)


def test_eval_cf_takes_negative_frequencies_in_exponent_notation(params_file):
    r = run_cli("eval-cf", "--params", params_file, "--xi", "0.5", "-1e-3", "-1e308")
    assert r.returncode == 0, r.stderr
    rows = [[float(v) for v in line.split(",")] for line in r.stdout.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [0.5, -1e-3, -1e308]
    assert all(np.isfinite(v) for row in rows for v in row)


def test_eval_cf_parser_reads_its_negative_number_pattern(monkeypatch):
    # The eval-cf parser's pattern is set through an argparse internal.  With
    # a pattern that matches nothing, even "-1" must read as an option; if
    # argparse stops reading the attribute, this fails and the override can
    # go, provided the test above still passes without it.
    monkeypatch.setattr(cli, "_NEGATIVE_NUMBER", re.compile(r"(?!)"))
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["eval-cf", "--params", "p", "--xi", "-1"])


@pytest.mark.parametrize(("body", "n"), [("", 0), ("0.5\n", 1)])
def test_qq_on_too_few_points_prints_one_error_line(tmp_path, body, n):
    # The length is checked before the normal reference's mean and sd, which
    # warned on an empty or one-value sample.
    path = tmp_path / "short.csv"
    path.write_text("return\n" + body)
    r = run_cli("qq", "--input", str(path))
    assert r.returncode == 2
    assert r.stderr.splitlines() == [f"error: need >= 20 observations for a QQ plot, got {n}"]


def test_exit_code_io_error(params_file):
    r = run_cli("pdf", "--params", params_file, "--out", "/nonexistent-dir/x.csv")
    assert r.returncode == 4


def test_stdin_params(params_file):
    text = open(params_file).read()
    r = run_cli("classify", "--params", "-", input_text=text)
    assert r.returncode == 0
    assert json.loads(r.stdout)["activity"] == "infinite"


def test_thread_count_independence(params_file, tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    argv = ["pdf", "--params", params_file, "--grid-m", "2048"]
    r1 = run_cli(*argv, "--out", str(a), env_extra={"OMP_NUM_THREADS": "1"})
    r4 = run_cli(*argv, "--out", str(b), env_extra={"OMP_NUM_THREADS": "4"})
    assert r1.returncode == 0 and r4.returncode == 0
    assert a.read_bytes() == b.read_bytes()
