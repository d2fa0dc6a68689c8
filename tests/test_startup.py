"""Import cost: importing gts_tail loads numpy and no scipy module, so
cumulants, the characteristic function and path classification run without
scipy, and so do tables, quantiles and draws: they transform with
numpy.fft and take the normal CDF from a numpy port of scipy's.  Every
scipy module is imported by the functions that use it, on first use:
scipy.special by a normal Q-Q, GOF or fit, scipy.optimize and scipy.fft by
the first fit and scipy.integrate by the quadrature oracle.  Nothing
imports scipy.interpolate, so every CLI call that never fits does not pay
for it."""

import os
import subprocess
import sys
import textwrap

import gts_tail

# Never loaded by the CLI calls below; scipy.stats would pull in the others.
_LAZY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.stats")


def _run_fresh(script: str, tmp_path) -> subprocess.CompletedProcess:
    """``script`` in a new interpreter, in tmp_path, importing the same
    gts_tail as this test."""
    root = os.path.dirname(os.path.dirname(gts_tail.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )


def test_cli_calls_that_never_fit_load_no_optimize_integrate_or_interpolate(tmp_path):
    r = _run_fresh(
        f"""
        import contextlib, io, sys
        import gts_tail, gts_tail.cli as cli

        gts_tail.write_params_file(gts_tail.BITCOIN_DAILY.params, "btc.par")
        grid = ["--params", "btc.par", "--grid-m", "4096"]
        calls = [
            ["pdf", *grid, "--out", "pdf.csv"],
            ["quantile", *grid, "--alpha", "0.01", "0.99"],
            ["sample", *grid, "-n", "300", "--seed", "3", "--out", "returns.csv"],
            ["qq", "--input", "returns.csv", "--theoretical", "gts",
             "--theoretical-params", "btc.par", "--grid-m", "4096", "--verdict"],
            ["gof", "--input", "returns.csv", *grid, "--bins", "10"],
            ["classify", "--params", "btc.par"],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(",".join(m for m in {_LAZY!r} if m in sys.modules))
        """,
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def test_import_cumulants_classify_and_eval_cf_load_no_scipy(tmp_path):
    r = _run_fresh(
        """
        import contextlib, io, sys
        import gts_tail as gt, gts_tail.cli as cli

        for preset in (gt.BITCOIN_DAILY, gt.ETHEREUM_DAILY):
            assert all(gt.cumulant(preset.params, n) for n in (1, 2, 3, 4))
        gt.write_params_file(gt.BITCOIN_DAILY.params, "btc.par")
        for argv in (["classify", "--params", "btc.par"],
                     ["eval-cf", "--params", "btc.par", "--xi", "0.5", "2.0"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(",".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def test_tables_quantiles_and_draws_load_no_scipy(tmp_path):
    r = _run_fresh(
        """
        import contextlib, io, sys
        import gts_tail as gt, gts_tail.cli as cli

        p = gt.BITCOIN_DAILY.params
        grid = gt.build_grid(p)
        gt.pdf_table(p, grid)
        cdf = gt.cdf_table(p, grid)
        assert gt.quantile(cdf, 0.01) < 0.0 < gt.quantile(cdf, 0.99)
        assert len(gt.sample(cdf, 300, seed=3).values) == 300
        gt.write_params_file(p, "btc.par")
        law = ["--params", "btc.par"]
        calls = [
            ["pdf", *law, "--out", "pdf.csv"],
            ["cdf", *law, "--out", "cdf.csv"],
            ["quantile", *law, "--alpha", "0.01", "0.99"],
            ["sample", *law, "-n", "300", "--seed", "3", "--out", "returns.csv"],
            ["qq", "--input", "returns.csv", "--theoretical", "gts",
             "--theoretical-params", "btc.par", "--verdict"],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(",".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def test_fit_oracle_and_interpolator_import_scipy_on_first_use(tmp_path):
    r = _run_fresh(
        """
        import math, sys
        import gts_tail as gt

        p = gt.BITCOIN_DAILY.params
        pdf = gt.pdf_table(p, gt.build_grid(p, gt.GridConfig(m=4096)))
        want = pdf.interpolate(0.0)
        lazy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
        assert not any(m in sys.modules for m in lazy)

        # scipy.integrate and scipy.interpolate import scipy.optimize: the fit first.
        data = gt.sample(gt.cdf_table(p, pdf.grid), 300, seed=3)
        options = gt.FitOptions(grid_m=1024, maxfev=20, compute_se=False)
        fit = gt.fit_mle(data, options=options)
        assert math.isfinite(fit.loglik) and fit.n_obs == 300

        assert "scipy.integrate" not in sys.modules
        density, mass = gt.direct_quadrature_oracle(p, 0.0)
        assert abs(density - want) < 1e-6 and 0.0 < mass < 1.0

        assert "scipy.interpolate" not in sys.modules
        print("ok")
        """,
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "ok"
