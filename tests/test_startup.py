"""Import cost: the table, quantile, sample, Q-Q and GOF paths load only
scipy.special and scipy.fft.  scipy.optimize and scipy.integrate are
imported by the functions that use them, on first use, and nothing imports
scipy.interpolate, so every CLI call that never fits does not pay for
them."""

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
