"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The fitting criteria are
the slow part (several minutes); everything else completes in seconds.
"""

import json
import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as _gamma

import gts_tail as gt
from gts_tail.core import PARAM_NAMES
from gts_tail.estimation import (
    _HESSIAN_HEADROOM,
    FitOptions,
    _fit_plan,
    _score_hessian,
    _to_transformed,
)
from gts_tail.qq import hazen_levels
from gts_tail.quantiles import quartic_for_level

_FIXTURES = (("bitcoin", gt.BITCOIN_DAILY), ("ethereum", gt.ETHEREUM_DAILY))
_LEVELS_11 = (1e-4, 1e-3, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 0.9999)
_RECOVERY_SEEDS = (11, 23, 37, 41, 53)


def _report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS - {text}")


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name, ref in _FIXTURES:
        grid = gt.build_grid(ref.params)
        out[name] = (ref.params, gt.pdf_table(ref.params, grid), gt.cdf_table(ref.params, grid))
    return out


@pytest.fixture(scope="module")
def recovery_fits(tables):
    """The five full-model self-recovery fits shared by criteria 8 and 9."""
    t0 = time.time()
    _, _, cdf = tables["bitcoin"]
    fits = {}
    for seed in _RECOVERY_SEEDS:
        data = gt.sample(cdf, 5000, seed=seed)
        fits[seed] = (data, gt.fit_mle(data))
    return fits, time.time() - t0


# --------------------------------------------------------------------------
# 1. exponent identities
# --------------------------------------------------------------------------

def test_criterion_1_exponent_identities(tables):
    t0 = time.time()
    xi = np.linspace(-50.0, 50.0, 101)
    worst = 0.0
    for name, (p, _, _) in tables.items():
        assert gt.characteristic_exponent(p, 0.0) == 0
        psi = gt.characteristic_exponent(p, xi)
        worst = max(worst, float(np.max(np.abs(np.conj(psi) - psi[::-1]))))
    assert worst <= 1e-13
    el = time.time() - t0
    assert el < 1.0
    _report(1, f"psi(0)=0 exactly, Hermitian violation {worst:.2e} <= 1e-13 ({el:.2f}s)")


# --------------------------------------------------------------------------
# 2. inversion correctness
# --------------------------------------------------------------------------

def test_criterion_2_inversion(tables):
    t0 = time.time()
    lines = []
    for name, (p, pdf, cdf) in tables.items():
        mass_err = abs(pdf.trapezoid_mass() - 1.0)
        assert mass_err <= 1e-6
        assert cdf.values[0] <= 1e-6
        assert 1.0 - cdf.values[-1] <= 1e-6
        k1 = gt.cumulant(p, 1)
        sd = math.sqrt(gt.cumulant(p, 2))
        idx = np.unique(
            np.round((k1 + sd * np.linspace(-5, 5, 21) - cdf.grid.x_min) / cdf.grid.dx).astype(int)
        )
        worst = 0.0
        for i in idx:
            x = cdf.grid.x_min + i * cdf.grid.dx
            _, want = gt.direct_quadrature_oracle(p, float(x))
            worst = max(worst, abs(float(cdf.values[i]) - want))
        assert worst <= 1e-7
        lines.append(f"{name}: mass err {mass_err:.1e}, cdf-vs-oracle {worst:.1e}")
    el = time.time() - t0
    assert el < 30.0
    _report(2, "; ".join(lines) + f" ({el:.1f}s)")


# --------------------------------------------------------------------------
# 3. FRFT kernel
# --------------------------------------------------------------------------

def test_criterion_3_frft_kernel():
    t0 = time.time()
    worst = 0.0
    for n in (8, 16, 32, 64):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            delta = float(rng.uniform(-0.15, 0.15))
            j = np.arange(n)
            direct = np.array(
                [np.sum(a * np.exp(-2j * np.pi * j * k * delta)) for k in range(n)]
            )
            worst = max(worst, float(np.max(np.abs(gt.frft(a, delta) - direct))))
    assert worst <= 1e-10
    el = time.time() - t0
    assert el < 5.0
    _report(3, f"FRFT vs direct summation: max err {worst:.2e} <= 1e-10 ({el:.1f}s)")


# --------------------------------------------------------------------------
# 4. quantile round trip
# --------------------------------------------------------------------------

def test_criterion_4_quantile_round_trip(tables):
    t0 = time.time()
    worst_rt = 0.0
    worst_res = 0.0
    for name, (p, _, cdf) in tables.items():
        for a in _LEVELS_11:
            x = gt.quantile(cdf, a)
            _, back = gt.direct_quadrature_oracle(p, x)
            worst_rt = max(worst_rt, abs(back - a))
            i, coeffs = quartic_for_level(cdf, a)
            y = (x - (cdf.grid.x_min + i * cdf.grid.dx)) / cdf.grid.dx
            c = coeffs.as_array()
            res = abs(float(np.polyval(c[::-1], y)))
            worst_res = max(worst_res, res)
    assert worst_rt <= 1e-8
    assert worst_res <= 1e-12
    el = time.time() - t0
    assert el < 10.0
    _report(4, f"|F(Q(a))-a| max {worst_rt:.2e} <= 1e-8, quartic residual {worst_res:.2e} <= 1e-12 ({el:.1f}s)")


# --------------------------------------------------------------------------
# 5. cumulants vs finite differences
# --------------------------------------------------------------------------

def _psi_mp(p, xi):
    mu = mpmath.mpf(repr(p.mu))
    xi = mpmath.mpmathify(xi)
    out = 1j * mu * xi
    for alpha, beta, lam, sgn in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, -1),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, +1),
    ):
        alpha, beta, lam = (mpmath.mpf(repr(v)) for v in (alpha, beta, lam))
        out += alpha * mpmath.gamma(-beta) * ((lam + sgn * 1j * xi) ** beta - lam**beta)
    return out


def _fd_cumulant(p, n):
    with mpmath.workdps(60):
        f = lambda t: _psi_mp(p, t)  # noqa: E731

        def deriv(h):
            if n == 1:
                return (f(h) - f(-h)) / (2 * h)
            if n == 2:
                return (f(h) - 2 * f(0) + f(-h)) / h**2
            if n == 3:
                return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
            return (f(2 * h) - 4 * f(h) + 6 * f(0) - 4 * f(-h) + f(-2 * h)) / h**4

        h = mpmath.mpf("1e-4")
        d = (4 * deriv(h / 2) - deriv(h)) / 3
        return float((d / 1j**n).real)


def test_criterion_5_cumulants(tables):
    t0 = time.time()
    worst = 0.0
    for name, (p, _, _) in tables.items():
        for n in (1, 2, 3, 4):
            want = _fd_cumulant(p, n)
            got = gt.cumulant(p, n)
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
    assert worst <= 1e-6
    el = time.time() - t0
    assert el < 1.0
    _report(5, f"cumulants vs Richardson finite differences: max rel err {worst:.2e} <= 1e-6 ({el:.2f}s)")


# --------------------------------------------------------------------------
# 6. heavy tails vs the cumulant-matched normal
# --------------------------------------------------------------------------

def test_criterion_6_heavy_tails(tables):
    t0 = time.time()
    lines = []
    for name, (p, _, cdf) in tables.items():
        k1 = gt.cumulant(p, 1)
        sd = math.sqrt(gt.cumulant(p, 2))
        q_lo, q_hi = gt.quantile(cdf, 0.001), gt.quantile(cdf, 0.999)
        n_lo, n_hi = gt.normal_quantile(k1, sd, 0.001), gt.normal_quantile(k1, sd, 0.999)
        assert q_lo < n_lo
        assert q_hi > n_hi
        sample = gt.sample(cdf, 100_000, seed=2024)
        qq = gt.qq_points(sample, lambda q_: gt.normal_quantile(k1, sd, q_))
        v = gt.tail_verdict(qq)
        assert v.lower.value == "heavier"
        assert v.upper.value == "heavier"
        lines.append(f"{name}: Q(1e-3)={q_lo:.2f}<{n_lo:.2f}, Q(.999)={q_hi:.2f}>{n_hi:.2f}, verdict heavier/heavier")
    el = time.time() - t0
    assert el < 30.0
    _report(6, "; ".join(lines) + f" ({el:.1f}s)")


# --------------------------------------------------------------------------
# 7. cross-asset ordering
# --------------------------------------------------------------------------

def test_criterion_7_cross_asset(tables):
    t0 = time.time()
    _, _, btc = tables["bitcoin"]
    _, _, eth = tables["ethereum"]
    eth_lo, btc_lo = gt.quantile(eth, 0.001), gt.quantile(btc, 0.001)
    eth_hi, btc_hi = gt.quantile(eth, 0.999), gt.quantile(btc, 0.999)
    assert eth_lo < btc_lo
    assert eth_hi > btc_hi
    el = time.time() - t0
    assert el < 30.0
    _report(
        7,
        f"ETH Q(1e-3)={eth_lo:.2f} < BTC {btc_lo:.2f}; ETH Q(.999)={eth_hi:.2f} > BTC {btc_hi:.2f} ({el:.1f}s)",
    )


# --------------------------------------------------------------------------
# 8. self-recovery fitting
# --------------------------------------------------------------------------

def test_criterion_8_self_recovery(tables, recovery_fits):
    t0 = time.time()
    recovery_fits, fit_seconds = recovery_fits
    p_true, _, _ = tables["bitcoin"]
    truth = np.array(p_true.as_tuple())
    summary = []
    for seed, (data, fit) in recovery_fits.items():
        assert fit.converged, f"seed {seed} did not converge"
        est = np.array(fit.params.as_tuple())
        se = np.array(fit.std_errors)
        assert np.all(se > 0)
        within = int(np.sum(np.abs(est - truth) / se <= 3.0))
        assert within >= 6, f"seed {seed}: only {within}/7 within 3 SE"
        summary.append(f"seed {seed}: {within}/7")

    # Hessian symmetry at one optimum (identical code path for all).
    seed0 = _RECOVERY_SEEDS[0]
    data, fit = recovery_fits[seed0]
    obs = np.asarray(data.values)
    plan = _fit_plan(fit.params, obs, FitOptions(), _HESSIAN_HEADROOM)
    with_score = plan.objective(gt.RestrictedKind.FULL)

    def score(s):
        return with_score(s)[1]

    t = _to_transformed(PARAM_NAMES, list(fit.params.as_tuple()))
    # Each column differences the score along one coordinate, so neither the
    # symmetry nor the agreement of two steps is built in.
    H = _score_hessian(score, t, 1e-4)
    asym = float(np.max(np.abs(H - H.T)) / np.max(np.abs(H)))
    assert asym <= 1e-6
    H_half = _score_hessian(score, t, 5e-5)
    steps = float(np.max(np.abs(H - H_half)) / np.max(np.abs(H)))
    assert steps <= 1e-5
    el = time.time() - t0 + fit_seconds
    assert el < 900.0
    _report(
        8,
        "; ".join(summary) + f"; Hessian asymmetry {asym:.1e} <= 1e-6, "
        f"steps 1e-4/5e-5 differ by {steps:.1e} <= 1e-5 ({el:.0f}s incl. fits)",
    )


# --------------------------------------------------------------------------
# 9. model ordering
# --------------------------------------------------------------------------

def _lift_alpha(alpha, lam, beta_new):
    """Rescale an intensity so the variance contribution survives a beta lift."""
    return alpha * _gamma(2.0) * lam ** (-2.0) / (_gamma(2.0 - beta_new) * lam ** (beta_new - 2.0))


def test_criterion_9_model_ordering(recovery_fits):
    t0 = time.time()
    recovery_fits, _ = recovery_fits
    seed0 = _RECOVERY_SEEDS[0]
    data, full_fit = recovery_fits[seed0]

    # The restricted fits get token budgets: the bilateral-gamma family is
    # inferior on this data by hundreds of nats, and its slowly decaying
    # characteristic function makes each evaluation expensive.
    bg_opts = FitOptions(maxfev=1500, compute_se=False, max_n_freq=2**15, grid_m=2**11)
    kob_opts = FitOptions(maxfev=2500, compute_se=False, max_n_freq=2**15, grid_m=2**11)

    bg = gt.fit_mle(data, kind=gt.RestrictedKind.BILATERAL_GAMMA, options=bg_opts)
    beta0 = 0.35
    kob_init = gt.kobol_params(
        bg.params.mu,
        beta0,
        _lift_alpha(bg.params.alpha_plus, bg.params.lambda_plus, beta0),
        _lift_alpha(bg.params.alpha_minus, bg.params.lambda_minus, beta0),
        bg.params.lambda_plus,
        bg.params.lambda_minus,
    )
    kob = gt.fit_mle(data, init=kob_init, kind=gt.RestrictedKind.KOBOL, options=kob_opts)

    # The full-model optimum is at least the better of the cold fit and a
    # polish warm-started from the Kobol solution (nested subspace).
    warm_opts = FitOptions(maxfev=2000, compute_se=False)
    full_warm = gt.fit_mle(data, init=kob.params, options=warm_opts)
    full_ll = max(full_fit.loglik, full_warm.loglik)
    full_aic = min(full_fit.aic, full_warm.aic)

    assert bg.loglik <= kob.loglik + 1e-6
    assert kob.loglik <= full_ll + 1e-6

    nf = gt.fit_normal(data)
    assert full_aic < nf.aic
    el = time.time() - t0
    assert el < 1200.0
    _report(
        9,
        f"loglik BG {bg.loglik:.1f} <= Kobol {kob.loglik:.1f} <= full {full_ll:.1f}; "
        f"AIC GTS {full_aic:.1f} < normal {nf.aic:.1f} ({el:.0f}s)",
    )


# --------------------------------------------------------------------------
# 10. GOF self-consistency
# --------------------------------------------------------------------------

def test_criterion_10_gof_self_consistency(tables):
    t0 = time.time()
    _, _, cdf = tables["bitcoin"]
    ks_ok = 0
    for seed in range(10):
        s = gt.sample(cdf, 10_000, seed=seed)
        d, crit = gt.gof_ks(s, cdf)
        ks_ok += d < crit
        _, _, pval = gt.gof_chi2(s, cdf, bins=50)
        assert pval > 0.01, f"seed {seed}: chi2 p={pval}"
    assert ks_ok >= 9

    plugin = gt.ReturnSeries(values=[gt.quantile(cdf, q) for q in hazen_levels(100)])
    a2 = gt.gof_ad(plugin, cdf)
    assert a2 < 0.4
    el = time.time() - t0
    assert el < 120.0
    _report(10, f"KS below critical {ks_ok}/10, chi2 p>0.01 10/10, AD plug-in {a2:.3f} < 0.4 ({el:.0f}s)")


# --------------------------------------------------------------------------
# 11. determinism
# --------------------------------------------------------------------------

def _run_cli(args, threads):
    env = dict(os.environ, OMP_NUM_THREADS=threads)
    return subprocess.run(
        [sys.executable, "-m", "gts_tail.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_criterion_11_determinism(tmp_path, tables):
    t0 = time.time()
    par = tmp_path / "p.par"
    gt.write_params_file(gt.BITCOIN_DAILY.params, par)

    outputs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        pdf_out = tmp_path / f"pdf_{tag}.csv"
        r = _run_cli(["pdf", "--params", str(par), "--grid-m", "4096", "--out", str(pdf_out)], threads)
        assert r.returncode == 0
        sample_out = tmp_path / f"s_{tag}.csv"
        r = _run_cli(
            ["sample", "--params", str(par), "-n", "200", "--seed", "7", "--grid-m", "4096", "--out", str(sample_out)],
            threads,
        )
        assert r.returncode == 0
        outputs.append((pdf_out.read_bytes(), sample_out.read_bytes()))
    assert outputs[0] == outputs[1]

    # QQ SVG and GOF JSON byte-stability within the process.
    _, _, cdf = tables["bitcoin"]
    s = gt.sample(cdf, 500, seed=3)
    qq = gt.qq_points(s, lambda q_: gt.normal_quantile(0.0, 1.0, q_))
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    gt.emit(qq, "svg", svg_a)
    gt.emit(qq, "svg", svg_b)
    assert svg_a.read_bytes() == svg_b.read_bytes()

    ks, crit = gt.gof_ks(s, cdf)
    chi2, df, pval = gt.gof_chi2(s, cdf, bins=20)
    report = gt.GofReport(
        ks_stat=ks, ks_critical_5pct=crit, ad_stat=gt.gof_ad(s, cdf),
        chi2_stat=chi2, chi2_df=df, chi2_pvalue=pval, n=s.n,
    )
    j_a, j_b = tmp_path / "a.json", tmp_path / "b.json"
    gt.emit(report, "json", j_a)
    gt.emit(report, "json", j_b)
    assert j_a.read_bytes() == j_b.read_bytes()
    json.loads(j_a.read_text())

    # Fit determinism: two runs with identical seeds and settings.
    small = gt.sample(cdf, 300, seed=1)
    fast = FitOptions(maxfev=800, compute_se=False, grid_m=1024)
    fit_a = gt.fit_mle(small, options=fast)
    fit_b = gt.fit_mle(small, options=fast)
    assert fit_a.params == fit_b.params
    assert fit_a.loglik == fit_b.loglik
    el = time.time() - t0
    assert el < 60.0
    _report(11, f"byte-identical CSV/SVG/JSON across runs and thread counts; fit deterministic ({el:.0f}s)")
