import logging
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc

import gts_tail as gt
from gts_tail.core import PARAM_NAMES, _log_modulus
from gts_tail.errors import (
    DegenerateData,
    DomainError,
    OutOfGrid,
    PenaltyWall,
    SingularHessianWarning,
    TooShort,
)
from gts_tail.estimation import (
    _HEADROOM,
    _HESSIAN_HEADROOM,
    _HESSIAN_STEP,
    FitOptions,
    _auto_init,
    _from_transformed,
    _LikelihoodPlan,
    _to_transformed,
    _transformed_hessian,
    _with_standard_errors,
)
from gts_tail.spectral import GridConfig, _pdf_values, _tail_radius


# --------------------------------------------------------------------------
# log likelihood
# --------------------------------------------------------------------------

def test_single_observation_at_mode(symmetric_params, symmetric_tables):
    # Same grid config as the session table, so the exact interpolants agree.
    pdf, _ = symmetric_tables
    data = gt.ReturnSeries(values=[0.0])
    ll = gt.log_likelihood(symmetric_params, data, GridConfig())
    want = math.log(pdf.monotone_interpolator(0.0))
    assert ll == pytest.approx(want, abs=1e-12)


def test_additivity(btc_params):
    one = gt.log_likelihood(btc_params, gt.ReturnSeries(values=[1.3]))
    two = gt.log_likelihood(btc_params, gt.ReturnSeries(values=[1.3, 1.3]))
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_reordering_invariance(btc_params, btc_sample_5k):
    rng = np.random.default_rng(0)
    fwd = gt.log_likelihood(btc_params, btc_sample_5k)
    shuffled = gt.ReturnSeries(values=rng.permutation(btc_sample_5k.values))
    back = gt.log_likelihood(btc_params, shuffled)
    assert abs(fwd - back) <= 1e-6


def test_likelihood_ordering_at_truth(btc_params, btc_sample_5k):
    ll_true = gt.log_likelihood(btc_params, btc_sample_5k)
    worse = gt.validate_params(
        btc_params.mu,
        btc_params.beta_plus,
        btc_params.beta_minus,
        btc_params.alpha_plus,
        btc_params.alpha_minus,
        2.0 * btc_params.lambda_plus,
        2.0 * btc_params.lambda_minus,
    )
    assert ll_true > gt.log_likelihood(worse, btc_sample_5k)


@pytest.mark.parametrize("law", ["btc", "eth", "symmetric"])
def test_log_likelihood_is_the_pchip_reference(law, btc_params, eth_params, symmetric_params):
    # Bit for bit the sum over PchipInterpolator(..., extrapolate=False),
    # with observations on nodes and in both end intervals.
    p = {"btc": btc_params, "eth": eth_params, "symmetric": symmetric_params}[law]
    cfg = GridConfig(m=2**12)
    grid = gt.build_grid(p, cfg)
    x = grid.x()
    rng = np.random.default_rng(4)
    ends = [x[0], x[0] + 0.3 * grid.dx, x[1], x[-2], x[-1] - 0.7 * grid.dx, min(x[-1], grid.x_max)]
    obs = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 2000), x[::97], ends])
    dens = gt.pdf_table(p, grid).monotone_interpolator(obs)
    dens = np.where(np.isnan(dens), 0.0, np.maximum(dens, 0.0))
    want = float(np.sum(np.log(np.maximum(dens, 1e-300))))
    assert gt.log_likelihood(p, gt.ReturnSeries(values=obs), cfg) == want


def test_out_of_grid_lists_offenders(btc_params):
    cfg = GridConfig(m=1024, width_sds=6.0)
    data = gt.ReturnSeries(values=[0.0, 500.0])
    with pytest.raises(OutOfGrid) as exc:
        gt.log_likelihood(btc_params, data, cfg)
    assert 500.0 in exc.value.offenders


# --------------------------------------------------------------------------
# fitting preconditions and information criteria
# --------------------------------------------------------------------------

def test_fit_floor():
    data = gt.ReturnSeries(values=list(np.random.default_rng(0).normal(size=10)))
    with pytest.raises(TooShort):
        gt.fit_mle(data)


def test_degenerate_data():
    data = gt.ReturnSeries(values=[1.0] * 200)
    with pytest.raises(DegenerateData):
        gt.fit_mle(data)


@pytest.mark.parametrize("kind", ["kobl", None])
def test_unknown_kind_is_a_domain_error(kind):
    data = gt.ReturnSeries(values=list(np.random.default_rng(0).normal(size=200)))
    with pytest.raises(DomainError) as exc:
        gt.fit_mle(data, kind=kind)
    for k in gt.RestrictedKind:
        assert k.value in str(exc.value)


def test_fit_options_are_the_settings_callers_set():
    names = [f.name for f in fields(FitOptions)]
    assert names == ["grid_m", "max_n_freq", "probe_maxfev", "maxfev", "polish_rounds", "compute_se"]


def test_information_criteria_formula():
    fit = gt.FitResult(
        params=gt.BITCOIN_DAILY.params,
        loglik=0.0,
        std_errors=None,
        z_pvalues=None,
        aic=float("nan"),
        bic=float("nan"),
        n_obs=1,
        converged=True,
        n_free=7,
    )
    aic, bic = gt.information_criteria(fit)
    assert aic == 14.0
    assert bic == 0.0


def test_fewer_free_params_lower_aic():
    base = dict(
        params=gt.BITCOIN_DAILY.params,
        loglik=-100.0,
        std_errors=None,
        z_pvalues=None,
        aic=0.0,
        bic=0.0,
        n_obs=50,
        converged=True,
    )
    full = gt.FitResult(n_free=7, **base)
    small = gt.FitResult(n_free=5, **base)
    assert gt.information_criteria(small)[0] < gt.information_criteria(full)[0]


def test_normal_fit_closed_form():
    rng = np.random.default_rng(1)
    data = gt.ReturnSeries(values=rng.normal(2.0, 3.0, size=400))
    nf = gt.fit_normal(data)
    var = float(np.var(data.values))
    want = -0.5 * 400 * (math.log(2 * math.pi * var) + 1.0)
    assert nf.loglik == pytest.approx(want, rel=1e-12)
    assert nf.aic == pytest.approx(4.0 - 2.0 * want)


# --------------------------------------------------------------------------
# p-values reproduce the published columns
# --------------------------------------------------------------------------

def _two_sided_p(estimate, se):
    return float(erfc(abs(estimate / se) / math.sqrt(2.0)))


def test_pvalue_reproduces_reference_mu():
    est = gt.BITCOIN_DAILY
    p = _two_sided_p(est.params.mu, est.std_errors[0])
    assert p == pytest.approx(7.5e-01, abs=0.03)


def test_pvalue_reproduces_reference_beta_minus():
    est = gt.ETHEREUM_DAILY
    p = _two_sided_p(est.params.beta_minus, est.std_errors[2])
    assert p == pytest.approx(5.4e-02, abs=0.005)


# --------------------------------------------------------------------------
# auto-init sanity
# --------------------------------------------------------------------------

def test_auto_init_matches_sample_scale(btc_sample_5k):
    p0 = _auto_init(np.asarray(btc_sample_5k.values))
    k2 = gt.cumulant(p0, 2)
    s2 = float(np.var(btc_sample_5k.values))
    assert abs(k2 - s2) <= 0.05 * s2
    bg = _auto_init(np.asarray(btc_sample_5k.values), gt.RestrictedKind.BILATERAL_GAMMA)
    assert bg.beta_plus == 0.0
    assert abs(gt.cumulant(bg, 2) - s2) <= 0.05 * s2


@pytest.fixture(scope="module")
def benchmark_sample(btc_tables):
    """The fit-mle benchmark's sample: 3000 draws from the default BTC table."""
    _, cdf = btc_tables
    return gt.sample(cdf, 3000, seed=2025)


# --------------------------------------------------------------------------
# a small end-to-end fit (reduced budget; the acceptance suite runs the
# full-scale recoveries)
# --------------------------------------------------------------------------

def test_small_fit_recovers_scale(btc_params, btc_tables, caplog):
    _, cdf = btc_tables
    data = gt.sample(cdf, 1500, seed=3)
    options = FitOptions(probe_maxfev=300, maxfev=3000, polish_rounds=4, compute_se=True)
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(data, options=options)
    # One debug event per phase, with its counts and its frozen plan.
    events = [r for r in caplog.records if r.name == "gts_tail"]
    assert [r.fit_phase for r in events] == ["pilot", "polish", "hessian"]
    for r in events:
        assert set(r.penalties) == {"truncation", "aliasing", "error"}
        assert 0 <= sum(r.penalties.values()) <= r.evaluations
    pilot, polish, hessian = events
    assert all(r.seconds > 0.0 for r in events)
    # A simplex step may finish past the budget, by at most n + 1 = 8.
    assert 0 < pilot.evaluations <= options.probe_maxfev + 8 and pilot.plan is None
    # This sample's optimum sits near a bound of the polish plan: the
    # L-BFGS-B run touches it, so the simplex restarts finish the polish.
    assert polish.method == "L-BFGS-B, Nelder-Mead"
    assert 0 < polish.quasi_newton_evaluations < polish.evaluations
    assert hessian.evaluations == 99 and sum(hessian.penalties.values()) == 0
    for r in (polish, hessian):
        assert set(r.plan) == {"n_freq", "xi", "x_min", "dx"}
        assert r.plan["n_freq"] & (r.plan["n_freq"] - 1) == 0
    assert fit.converged
    assert fit.n_free == 7
    # Loose sanity: the optimum cannot be far below the truth's likelihood.
    ll_truth = gt.log_likelihood(btc_params, data)
    assert fit.loglik >= ll_truth - 5.0
    assert fit.std_errors is not None
    assert all(se > 0 for se in fit.std_errors)
    assert all(0.0 <= p <= 1.0 for p in fit.z_pvalues)
    k2_fit = gt.cumulant(fit.params, 2)
    s2 = float(np.var(data.values))
    assert abs(k2_fit - s2) <= 0.2 * s2


def test_benchmark_fit_polishes_by_lbfgsb_alone(benchmark_sample, caplog):
    # The simplex restarts needed 1921 polish evaluations on this sample.
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(benchmark_sample, options=FitOptions(compute_se=False))
    (polish,) = [r for r in caplog.records if getattr(r, "fit_phase", None) == "polish"]
    assert polish.method == "L-BFGS-B"
    assert polish.quasi_newton_evaluations == polish.evaluations <= 600
    assert sum(polish.penalties.values()) == 0
    assert fit.converged
    assert fit.loglik >= -7725.019383194039 - 1e-6


def test_hessian_symmetry(btc_params, btc_sample_5k):
    obs = np.asarray(btc_sample_5k.values)
    plan = _LikelihoodPlan(btc_params, obs, FitOptions(), _HESSIAN_HEADROOM)
    neg = plan.objective(gt.RestrictedKind.FULL)
    t = _to_transformed(PARAM_NAMES, list(btc_params.as_tuple()))
    H = _transformed_hessian(neg, t, _HESSIAN_STEP)
    asym = np.max(np.abs(H - H.T))
    assert asym <= 1e-6 * np.max(np.abs(H))


# The default fit's optimum on the benchmark sample.
_BENCHMARK_OPTIMUM = (
    -0.17621424400605676,
    0.2946565798221923,
    0.3817327513981933,
    0.7323311149474191,
    0.47660619151017447,
    0.25097710119443845,
    0.16516040579136107,
)


def test_hessian_steps_agree_at_the_benchmark_optimum(benchmark_sample):
    # Unlike the asymmetry above, this can fail: probes that cross a plan
    # bound, or a likelihood that is not smooth at the step scale, make the
    # two steps disagree (or give a zero Hessian, and a NaN ratio).
    p = gt.validate_params(*_BENCHMARK_OPTIMUM)
    obs = np.asarray(benchmark_sample.values)
    plan = _LikelihoodPlan(p, obs, FitOptions(), _HESSIAN_HEADROOM)
    neg = plan.objective(gt.RestrictedKind.FULL)
    t = _to_transformed(PARAM_NAMES, list(p.as_tuple()))
    H = _transformed_hessian(neg, t, 1e-4)
    H_half = _transformed_hessian(neg, t, 5e-5)
    assert np.max(np.abs(H - H_half)) / np.max(np.abs(H)) <= 1e-5


def _direct_neg_loglik(p, grid, obs):
    # The same frozen grid through the table path and scipy's PCHIP.
    f = np.maximum(_pdf_values(p, grid), 0.0)
    dens = PchipInterpolator(grid.x(), f, extrapolate=False)(obs)
    dens = np.where(np.isnan(dens), 0.0, np.maximum(dens, 0.0))
    return -float(np.sum(np.log(np.maximum(dens, 1e-300))))


def _scaled(p, mu_shift=0.0, alpha_scale=1.0):
    return gt.validate_params(
        p.mu + mu_shift, p.beta_plus, p.beta_minus, alpha_scale * p.alpha_plus,
        alpha_scale * p.alpha_minus, p.lambda_plus, p.lambda_minus,
    )


def test_plan_objective_matches_direct_inversion(btc_params, btc_sample_5k):
    obs = np.asarray(btc_sample_5k.values)
    plan = _LikelihoodPlan(btc_params, obs, FitOptions(), _HEADROOM)
    neg = plan.objective(gt.RestrictedKind.FULL)
    t0 = _to_transformed(PARAM_NAMES, list(btc_params.as_tuple()))
    rng = np.random.default_rng(9)
    for t in [t0] + [t0 + rng.normal(0.0, 0.05, t0.size) for _ in range(5)]:
        p = gt.RestrictedKind.FULL.expand(_from_transformed(PARAM_NAMES, t))
        assert plan.penalty_cause(p) is None
        want = _direct_neg_loglik(p, plan.grid, obs)
        assert neg(t) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert plan.evaluations == 6 and sum(plan.penalties.values()) == 0


def test_plan_penalizes_exactly_past_each_bound(btc_params, btc_sample_5k):
    plan = _LikelihoodPlan(btc_params, np.asarray(btc_sample_5k.values), FitOptions(), _HEADROOM)
    g = plan.grid
    neg = plan.objective(gt.RestrictedKind.FULL)

    def value(p):
        return neg(_to_transformed(PARAM_NAMES, list(p.as_tuple())))

    # Truncation: Re psi is linear in the intensities, so scaling both by c
    # puts |cf(Xi)| at exp(c Re psi(Xi)), which reaches 1e-8 at c*.
    c_star = math.log(1e-8) / _log_modulus(btc_params)(g.freq_cutoff)
    assert 0.1 < c_star < 1.0
    inside = _scaled(btc_params, alpha_scale=c_star * (1 + 1e-9))
    past = _scaled(btc_params, alpha_scale=c_star * (1 - 1e-9))
    assert plan.penalty_cause(inside) is None and value(inside) < 1e15
    assert plan.penalty_cause(past) == "truncation" and value(past) == 1e15

    # Aliasing: shifting mu by d moves kappa_1 by d and leaves the tail
    # radius alone, so the period is cleared up to d*.
    period = math.pi * (g.n_freq - 0.5) / g.freq_cutoff
    k1 = gt.cumulant(btc_params, 1)
    d_star = period - _tail_radius(btc_params, 1e-9) - (k1 - g.x_min)
    assert d_star > 0.0
    inside = _scaled(btc_params, mu_shift=d_star * (1 - 1e-9))
    past = _scaled(btc_params, mu_shift=d_star * (1 + 1e-9))
    assert plan.penalty_cause(inside) is None and value(inside) < 1e15
    assert plan.penalty_cause(past) == "aliasing" and value(past) == 1e15
    assert plan.penalties == {"truncation": 1, "aliasing": 1, "error": 0}


def test_transformed_hessian_closed_form_and_call_count():
    # f(t) = t.A.t/2 + sum_i c_i t_i**3 + sum_{i<j} B_ij t_i**2 t_j: every
    # pair has its own curvature, and central differences are exact on
    # cubics up to rounding.
    n = 7
    rng = np.random.default_rng(3)
    A = rng.uniform(-1.0, 1.0, (n, n))
    A = A + A.T + 2.0 * n * np.eye(n)
    c = rng.uniform(-1.0, 1.0, n)
    B = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    t0 = rng.uniform(-0.5, 0.5, n)
    calls = []

    def f(t):
        calls.append(1)
        return 0.5 * t @ A @ t + c @ t**3 + (t**2) @ B @ t

    want = A + np.diag(6.0 * c * t0) + np.diag(2.0 * B @ t0)
    want += 2.0 * (B * t0[:, None]) + 2.0 * (B * t0[:, None]).T
    H = _transformed_hessian(f, t0, 1e-4)
    assert np.max(np.abs(H - want)) <= 1e-6 * np.max(np.abs(want))
    assert len(calls) == 1 + 2 * n + 4 * (n * (n - 1) // 2) == 99


# A point that needs 8191.999996 of 8192 frequency nodes at its own cutoff
# on the benchmark sample (3000 BTC draws, seed 2025): the optimum of that
# sample under grids frozen by node count alone.
_NEEDS_8192_NODES = (
    -0.1745043971015856,
    0.29709569465662106,
    0.3846917411211814,
    0.7319725177252155,
    0.47710061177861296,
    0.2502956222225608,
    0.16463207991765935,
)


def test_standard_errors_refuse_probes_across_the_penalty(btc_tables):
    _, cdf = btc_tables
    data = gt.sample(cdf, 3000, seed=2025)
    fit = gt.FitResult(
        params=gt.validate_params(*_NEEDS_8192_NODES), loglik=-7725.0196522, std_errors=None,
        z_pvalues=None, aic=0.0, bic=0.0, n_obs=data.n, converged=True, n_free=7,
    )
    # A 2**13 budget leaves the Hessian's plan about 2e-10 of room from both of
    # its bounds, and the probes cross them into the penalty.
    walled = FitOptions(max_n_freq=2**13)
    with pytest.raises(PenaltyWall) as exc:
        gt.standard_errors(fit, data, walled)
    assert exc.value.coordinates and set(exc.value.coordinates) <= set(PARAM_NAMES)
    with pytest.warns(SingularHessianWarning, match="penalty"):
        omitted = _with_standard_errors(fit, data, walled)
    assert omitted.std_errors is None and omitted.z_pvalues is None
    assert omitted.hessian_fallback
    # The default budget gives the plan 2**14 nodes and room to spare.
    kept = _with_standard_errors(fit, data, FitOptions())
    assert not kept.hessian_fallback
    assert all(0.02 < se < 0.5 for se in kept.std_errors)


@pytest.mark.parametrize(
    "kind, params",
    [
        (gt.RestrictedKind.KOBOL, gt.kobol_params(-0.12, 0.36, 0.75, 0.54, 0.25, 0.17)),
        (gt.RestrictedKind.BILATERAL_GAMMA, gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6)),
    ],
)
def test_standard_errors_scatter_onto_restricted_fields(kind, params):
    # No fit: the Hessian at the generating parameters of a small sample.
    cdf = gt.cdf_table(params, gt.build_grid(params, GridConfig(m=2**12)))
    data = gt.sample(cdf, 400, seed=8)
    fit = gt.FitResult(
        params=params, loglik=0.0, std_errors=None, z_pvalues=None, aic=0.0, bic=0.0,
        n_obs=data.n, converged=True, n_free=kind.n_free, kind=kind,
    )
    # The Hessian at the generating point of a small sample need not be
    # definite; the pseudo-inverse fallback scatters the same way.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularHessianWarning)
        se, pv, _ = gt.standard_errors(fit, data)
    se, pv = dict(zip(PARAM_NAMES, se)), dict(zip(PARAM_NAMES, pv))
    tied = ("beta_plus", "beta_minus")
    if kind is gt.RestrictedKind.KOBOL:
        assert se["beta_plus"] == se["beta_minus"] > 0.0
        assert all(v > 0.0 for v in se.values())
    else:
        assert se["beta_plus"] == se["beta_minus"] == 0.0
        assert pv["beta_plus"] == pv["beta_minus"] == 1.0
        assert all(se[k] > 0.0 for k in PARAM_NAMES if k not in tied)
