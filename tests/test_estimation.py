import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.interpolate import BarycentricInterpolator
from scipy.special import erfc

import gts_tail as gt
from gts_tail.core import PARAM_NAMES, _log_modulus
from gts_tail.errors import (
    BoundaryEstimate,
    ConfigError,
    DegenerateData,
    DomainError,
    OutOfGrid,
    PenaltyWall,
    SingularHessianWarning,
    TooShort,
)
from gts_tail.estimation import (
    _BETA_MAX,
    _FIRST_HEADROOM,
    _FIRST_PERIOD,
    _HEADROOM,
    _HESSIAN_HEADROOM,
    _HESSIAN_STEP,
    _PLAN_PERIOD,
    _ROUND_GAIN,
    FitOptions,
    _auto_init,
    _fit_plan,
    _from_transformed,
    _likelihood_grid,
    _neg_log_density_sum_and_grad,
    _polish,
    _score_hessian,
    _to_transformed,
    _with_standard_errors,
)
from gts_tail.spectral import (
    GridConfig,
    _freq_cutoff,
    _pdf_values,
    _stencil_weights,
    _stencil_windows,
    _tail_radius,
)

# A divide or an invalid value (in 1/f on the score's path) fails the test
# instead of leaking NaN into a result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _transformed_hessian(neg, t, step_rel):
    """The reference Hessian: central differences of the likelihood itself,
    1 + 2n + 4 n(n-1)/2 calls (99 for seven coordinates)."""
    n = t.shape[0]
    h = step_rel * np.maximum(np.abs(t), 1.0)
    H = np.empty((n, n))
    f0 = neg(t)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (neg(t + ei) - 2.0 * f0 + neg(t - ei)) / h[i] ** 2
    # One 4-point stencil per pair, mirrored: (i,j) and (j,i) share it.
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h[i]
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                neg(t + ei + ej) - neg(t + ei - ej) - neg(t - ei + ej) + neg(t - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def _plan_score(plan, kind):
    with_score = plan.objective(kind, score=True)
    return lambda t: with_score(t)[1]


def _lagrange_reference(grid, values, obs):
    """An independent 5-node Lagrange fit on each observation's window
    (scipy's barycentric form through the window's nodes): the two nodes
    each side of its bracket, shifted inward at the grid ends."""
    x = grid.x()
    start = np.clip(np.searchsorted(x, obs, side="right") - 3, 0, x.size - 5)
    out = np.empty(obs.size)
    for s in np.unique(start):
        at = start == s
        out[at] = BarycentricInterpolator(x[s : s + 5], values[s : s + 5])(obs[at])
    return out


def _reference_loglik(grid, values, obs):
    dens = np.maximum(_lagrange_reference(grid, values, obs), 0.0)
    return float(np.sum(np.log(np.maximum(dens, 1e-300))))


# --------------------------------------------------------------------------
# log likelihood
# --------------------------------------------------------------------------

def test_single_observation_at_mode(symmetric_params, symmetric_tables):
    # Same grid config as the session table, so the interpolants agree.
    pdf, _ = symmetric_tables
    data = gt.ReturnSeries(values=[0.0])
    ll = gt.log_likelihood(symmetric_params, data, GridConfig())
    assert ll == math.log(pdf.interpolate(0.0))
    want = _reference_loglik(pdf.grid, pdf.values, np.array([0.0]))
    assert ll == pytest.approx(want, rel=1e-12, abs=0.0)


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
    # Bit for bit the sum over the table's interpolate, and within
    # rounding of a 5-node Lagrange fit on each window, with observations
    # on nodes and in both end intervals.  (Named for the PCHIP gather the
    # likelihood read before it moved to the tables' stencil.)
    p = {"btc": btc_params, "eth": eth_params, "symmetric": symmetric_params}[law]
    cfg = GridConfig(m=2**12)
    grid = gt.build_grid(p, cfg)
    x = grid.x()
    rng = np.random.default_rng(4)
    ends = [x[0], x[0] + 0.3 * grid.dx, x[1], x[-2], x[-1] - 0.7 * grid.dx, min(x[-1], grid.x_max)]
    obs = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 2000), x[::97], ends])
    pdf = gt.pdf_table(p, grid)
    ll = gt.log_likelihood(p, gt.ReturnSeries(values=obs), cfg)
    assert ll == float(np.sum(np.log(np.maximum(pdf.interpolate(obs), 1e-300))))
    assert ll == pytest.approx(_reference_loglik(grid, pdf.values, obs), rel=1e-12, abs=0.0)


def test_log_likelihood_converges_in_grid_m(btc_params, benchmark_sample):
    # The benchmark sample at the BTC law: the default read, on a default
    # fit's 4096-point plan, against a 2**16-point grid.  The monotone-cubic
    # gather was 2.3e-4 nats off; the stencil is 1.7e-5 off.
    obs = np.asarray(benchmark_sample.values)
    fine = gt.log_likelihood(
        btc_params, benchmark_sample, _likelihood_grid(btc_params, obs, GridConfig(m=2**16))
    )
    assert abs(gt.log_likelihood(btc_params, benchmark_sample) - fine) <= 5e-5


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
    assert names == ["grid_m", "max_n_freq", "maxfev", "compute_se"]
    for gone in ("polish_rounds", "probe_maxfev"):
        with pytest.raises(TypeError):
            FitOptions(**{gone: 1})


@pytest.mark.parametrize(
    "setting",
    [dict(grid_m=math.nan), dict(grid_m=0), dict(grid_m=2048.0), dict(max_n_freq=math.nan),
     dict(max_n_freq=True), dict(max_n_freq=4)],
)
def test_fit_grid_sizes_must_be_integers(setting):
    # Checked when the first plan is frozen, before any evaluation: a NaN
    # grid_m used to fit on 256 points, and a NaN budget lifted the node cap.
    data = gt.ReturnSeries(values=list(np.random.default_rng(0).normal(size=200)))
    with pytest.raises(ConfigError, match="must be an integer"):
        gt.fit_mle(data, options=FitOptions(**setting))


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


# (n_freq, n_fft) of the plans frozen on the benchmark sample at its moment
# start and at the BTC preset, with the room the fit gives its first
# round's plan, a later round's and the Hessian's.  None of them involves
# an optimizer, so they hold on every BLAS kernel.
_PLAN_ROOM = {
    "first": (_FIRST_HEADROOM, _FIRST_PERIOD),
    "round": (_HEADROOM, _PLAN_PERIOD),
    "hessian": (_HESSIAN_HEADROOM, _PLAN_PERIOD),
}
_PINNED_PLANS = {
    ("start", "first"): (12532, 9800),
    ("start", "round"): (2580, 5376),
    ("start", "hessian"): (2150, 5376),
    ("btc", "first"): (45434, 10584),
    ("btc", "round"): (9390, 5832),
    ("btc", "hessian"): (7826, 5832),
}


@pytest.mark.parametrize("law, room", list(_PINNED_PLANS))
def test_plan_sizes_on_the_benchmark_sample_are_pinned(law, room, benchmark_sample, btc_params):
    obs = np.asarray(benchmark_sample.values)
    p0 = _auto_init(obs) if law == "start" else btc_params
    grid = _fit_plan(p0, obs, FitOptions(), *_PLAN_ROOM[room]).grid
    assert (grid.m, grid.n_freq, grid.n_fft) == (2**12, *_PINNED_PLANS[law, room])


# --------------------------------------------------------------------------
# a small end-to-end fit (reduced budget; the acceptance suite runs the
# full-scale recoveries)
# --------------------------------------------------------------------------

def _assert_plan_sizing(plan, law, m, headroom, period):
    """A plan frozen at ``law``: its period is the shortest fast FFT length
    that clears ``period`` times the law's guard, and its node count the
    smallest even one whose top node reaches ``headroom`` times the law's
    cutoff."""
    n, dx = plan["n_freq"], plan["dx"]
    # An even node count on an FFT-aligned step: the period
    # pi (n_freq - 1)/xi is a whole number of grid steps.
    steps = math.pi * (n - 1) / (plan["xi"] * dx)
    assert n % 2 == 0 and abs(steps - round(steps)) <= 1e-9 * steps
    guard = 0.5 * dx * (m - 1) + _tail_radius(law, 1e-9)
    n_fft = round(steps)
    assert sp_fft.next_fast_len(n_fft) == n_fft and n_fft * dx >= period * guard
    shorter = next(k for k in range(n_fft - 1, 0, -1) if sp_fft.next_fast_len(k) == k)
    assert shorter * dx < period * guard
    dxi = 2.0 * math.pi / (n_fft * dx)
    cutoff = headroom * _freq_cutoff(law, 1e-8)
    assert (n / 2 - 0.5) * dxi >= cutoff > (n / 2 - 1.5) * dxi


def test_small_fit_recovers_scale(btc_params, btc_tables, caplog):
    _, cdf = btc_tables
    data = gt.sample(cdf, 1500, seed=3)
    options = FitOptions(maxfev=3000, compute_se=True)
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(data, options=options)
    # One debug event per polish round and one for the Hessian, each with
    # its counts and its frozen plan.
    events = [r for r in caplog.records if r.name == "gts_tail"]
    *rounds, hessian = events
    assert [r.fit_phase for r in events] == ["polish"] * len(rounds) + ["hessian"]
    for r in events:
        assert set(r.penalties) == {"truncation", "aliasing", "error"}
        assert 0 <= sum(r.penalties.values()) <= r.evaluations
        assert r.seconds > 0.0
        assert set(r.plan) == {"n_freq", "xi", "x_min", "dx"}
    # Every round is L-BFGS-B on the exact score, with its gain on its own
    # plan; the last says why the fit stopped.
    assert [r.round for r in rounds] == list(range(1, len(rounds) + 1))
    for r in rounds:
        assert r.method == "L-BFGS-B" and r.evaluations == r.score_evaluations
        assert r.gain >= 0.0
    assert all(r.stop is None for r in rounds[:-1]) and rounds[-1].stop == "converged"
    # The last run's stop message, which says why a round did not converge.
    assert "CONVERGENCE" in rounds[-1].status
    assert sum(rounds[-1].penalties.values()) == 0
    # Central differences of the score: two calls per coordinate.
    assert hessian.evaluations == hessian.score_evaluations == 14
    assert sum(hessian.penalties.values()) == 0
    # The first round's plan, frozen at the moment start with the most
    # room, and the Hessian's, frozen at the estimate.
    start = _auto_init(np.asarray(data.values))
    _assert_plan_sizing(rounds[0].plan, start, options.grid_m, _FIRST_HEADROOM, _FIRST_PERIOD)
    _assert_plan_sizing(hessian.plan, fit.params, options.grid_m, _HESSIAN_HEADROOM, _PLAN_PERIOD)
    # The reported log-likelihood is the value on that plan, to the bit.
    at_estimate = _fit_plan(fit.params, np.asarray(data.values), options, _HESSIAN_HEADROOM)
    assert fit.loglik == -at_estimate.neg_loglik(fit.params)
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
    # The simplex restarts needed 1921 polish evaluations on this sample,
    # and L-BFGS-B on forward differences 336 (42 gradients).  From the
    # moment start the first round's plan is frozen far from the optimum:
    # its round touches the truncation bound once on the way, and a
    # second round, re-frozen where the first stopped, converges.
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(benchmark_sample, options=FitOptions(compute_se=False))
    rounds = [r for r in caplog.records if getattr(r, "fit_phase", None) == "polish"]
    assert [r.round for r in rounds] == [1, 2]
    assert all(r.method == "L-BFGS-B" and r.evaluations == r.score_evaluations for r in rounds)
    assert rounds[0].penalties == {"truncation": 1, "aliasing": 0, "error": 0}
    assert rounds[0].stop is None
    assert rounds[1].stop == "converged" and sum(rounds[1].penalties.values()) == 0
    assert sum(r.evaluations for r in rounds) <= 80
    assert fit.converged
    # The monotone-cubic fit's estimate, re-scored by the public likelihood.
    assert fit.loglik >= -7725.020447595365 - 1e-6


def test_polish_first_step_stays_inside_the_plan(eth_tables, caplog):
    # From a nearly stationary start (the point of a pilot that once ran
    # ahead of the rounds), a unit first step along -g in the transformed
    # coordinates crossed this sample's plan truncation bound on the third
    # call and sent the fit to the simplex restarts.
    _, cdf = eth_tables
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(gt.sample(cdf, 3000, seed=2), options=FitOptions(compute_se=False))
    (polish,) = [r for r in caplog.records if getattr(r, "fit_phase", None) == "polish"]
    assert polish.method == "L-BFGS-B" and sum(polish.penalties.values()) == 0
    assert fit.converged


@pytest.fixture(scope="module")
def btc_seed_4_fit(btc_tables):
    """3000 BTC draws (seed 4), their default fit and the warnings it gave.
    The likelihood rises toward beta_plus = 0, and the polish holds it on
    that bound of its box, so the fit returns the limit law."""
    _, cdf = btc_tables
    data = gt.sample(cdf, 3000, seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        fit = gt.fit_mle(data)
    return data, fit, caught


# The same sample's estimate from a fit in the logit of the stability
# indices, which stopped short of the limit: beta_plus 1.014e-7.
_BTC_SEED_4_ABOVE_THE_GUARD = (
    0.26636670186966216,
    1.0142375010386466e-07,
    0.40415205404335697,
    0.7384267841587856,
    0.5545010109902513,
    0.32855557935786334,
    0.1757774046943756,
)


def test_standard_errors_omitted_at_the_stability_index_guard(btc_seed_4_fit):
    # beta_plus sits closer to 0 than the Hessian's step (1e-4), so a
    # central difference cannot straddle it: in the logit the delta method
    # gave it a Wald standard error below 1e-5.
    data, fit, caught = btc_seed_4_fit
    above = replace(fit, params=gt.validate_params(*_BTC_SEED_4_ABOVE_THE_GUARD))
    with pytest.warns(SingularHessianWarning, match="no Wald standard error along beta_plus:"):
        omitted = _with_standard_errors(above, data, FitOptions())
    assert omitted.std_errors is None and omitted.z_pvalues is None and omitted.hessian_fallback
    with pytest.raises(BoundaryEstimate) as exc:
        gt.standard_errors(above, data)
    assert exc.value.coordinates == ("beta_plus",)
    # The fit itself returns the limit, and omits its errors the same way.
    assert fit.converged and fit.params.beta_plus == 0.0
    assert fit.std_errors is None and fit.z_pvalues is None and fit.hessian_fallback
    (warned,) = [w for w in caught if w.category is SingularHessianWarning]
    assert "no Wald standard error along beta_plus:" in str(warned.message)
    # On the public likelihood the limit is no worse than the point above.
    assert gt.log_likelihood(fit.params, data) > gt.log_likelihood(above.params, data) - 1e-6


def test_wall_sample_fit_reaches_the_optimum_of_a_plan_frozen_there(btc_seed_4_fit):
    # With a polish plan frozen short of the optimum, this sample's fit
    # stopped 0.127 nats below it: a plan frozen at the fit's point, with
    # the same headroom, and one more polish found those nats.
    data, fit, _ = btc_seed_4_fit
    plan = _fit_plan(fit.params, np.asarray(data.values), FitOptions(), _HEADROOM)
    t = _to_transformed(PARAM_NAMES, list(fit.params.as_tuple()))
    start = plan.objective(gt.RestrictedKind.FULL)(t)
    again = _polish(plan, gt.RestrictedKind.FULL, t, FitOptions().maxfev)
    assert start - again.fun < 1e-4


def test_reported_loglik_is_the_value_on_a_plan_frozen_at_the_estimate(btc_seed_4_fit):
    # The last round's plan is frozen where that round starts: on this
    # sample its value at the estimate was 9.0e-4 nats off the public
    # likelihood, and a plan frozen at the estimate is 1.1e-6 off.
    data, fit, _ = btc_seed_4_fit
    obs = np.asarray(data.values)
    plan = _fit_plan(fit.params, obs, FitOptions(), _HESSIAN_HEADROOM)
    assert fit.loglik == -plan.neg_loglik(fit.params)
    assert abs(fit.loglik - gt.log_likelihood(fit.params, data)) <= 1e-5


@pytest.mark.parametrize("sample", ["benchmark", "roundtrip"])
def test_public_log_likelihood_is_the_default_fits_value(sample, benchmark_sample):
    # The public value reads the plan a default fit freezes at its estimate.
    # A table on its own grid was 4.4e-6 nats off on the benchmark sample,
    # and failed its mass check (0.99999831) at the estimate on the CLI fit
    # test's recipe, seed 5, where beta_plus ends on 0.
    data = benchmark_sample if sample == "benchmark" else _btc_600_draws(5)
    fit = gt.fit_mle(data, options=FitOptions(compute_se=False))
    assert fit.converged
    assert gt.log_likelihood(fit.params, data) == fit.loglik


def test_public_log_likelihood_reads_a_fits_options(benchmark_sample):
    # A fit at grid_m 1024 reports the value on its own plan, -7724.97021
    # here; the read on the default options' plan gave -7725.03138.
    options = FitOptions(grid_m=1024, compute_se=False)
    fit = gt.fit_mle(benchmark_sample, options=options)
    assert fit.converged
    assert gt.log_likelihood(fit.params, benchmark_sample, options) == fit.loglik
    assert gt.log_likelihood(fit.params, benchmark_sample) != fit.loglik


def test_fit_reports_the_last_round_where_no_plan_fits_at_the_estimate(benchmark_sample):
    # With a budget of 5000 nodes the first round stops on a law whose own
    # grid needs more, so no plan can be frozen there: the fit stops
    # unconverged and reports the value on its last round's plan.
    options = FitOptions(max_n_freq=5000)
    fit = gt.fit_mle(benchmark_sample, options=options)
    obs = np.asarray(benchmark_sample.values)
    with pytest.raises(ConfigError, match="over the budget"):
        _fit_plan(fit.params, obs, options, _HESSIAN_HEADROOM)
    assert fit.converged is False and fit.std_errors is None
    assert abs(fit.loglik - gt.log_likelihood(fit.params, benchmark_sample)) <= 1e-4
    # Had it converged, its standard errors would be omitted as a fallback.
    with pytest.warns(SingularHessianWarning, match="standard errors omitted: .*over the budget"):
        omitted = _with_standard_errors(fit, benchmark_sample, options)
    assert omitted.std_errors is None and omitted.hessian_fallback


# The estimate the since deleted Nelder-Mead restarts returned on the CLI
# fit test's sample.
_SIMPLEX_ESTIMATE = (
    0.49332791623814154,
    0.0,
    0.5898236583895793,
    0.547172655837462,
    0.4492222172236955,
    0.2689131157497614,
    0.08257928359250555,
)


def _btc_600_draws(seed):
    """600 draws from a 4096-point BTC table, the CLI fit test's recipe."""
    p = gt.BITCOIN_DAILY.params
    return gt.sample(gt.cdf_table(p, gt.build_grid(p, GridConfig(m=2**12))), 600, seed=seed)


def test_polish_rounds_refreeze_the_plan_past_a_plan_bound(caplog):
    # 600 BTC draws (seed 12) on a 1024-point grid: the optimum sits at
    # beta_plus = 0, and the first polish round reaches the truncation bound
    # of its plan on the way there.
    data = _btc_600_draws(12)
    caplog.set_level(logging.DEBUG, logger="gts_tail")
    fit = gt.fit_mle(data, options=FitOptions(grid_m=1024, compute_se=False))
    rounds = [r for r in caplog.records if getattr(r, "fit_phase", None) == "polish"]
    assert len(rounds) >= 2
    assert all(r.method == "L-BFGS-B" for r in rounds)
    assert [r.round for r in rounds] == list(range(1, len(rounds) + 1))
    assert rounds[0].penalties["truncation"] > 0
    assert rounds[-1].stop == "converged" and fit.converged
    assert all(r.stop is None for r in rounds[:-1])
    # The last round's point moves to the limit the rounds head for.
    assert fit.params.beta_plus == 0.0


def test_polish_rounds_beat_the_simplex_restarts():
    # The CLI fit test's sample (seed 5), whose rounds no longer touch a
    # plan bound.  On one plan, frozen at the new estimate, the rounds beat
    # the restarts: by 0.0031 nats (0.05 through the monotone-cubic gather,
    # on which the restarts had found their estimate).
    data = _btc_600_draws(5)
    options = FitOptions(grid_m=1024, compute_se=False)
    fit = gt.fit_mle(data, options=options)
    assert fit.converged
    plan = _fit_plan(
        fit.params, np.asarray(data.values), replace(options, max_n_freq=2**20), _HEADROOM
    )
    neg = plan.objective(gt.RestrictedKind.FULL)
    simplex = gt.validate_params(*_SIMPLEX_ESTIMATE)
    gain = neg(_to_transformed(PARAM_NAMES, list(simplex.as_tuple()))) - neg(
        _to_transformed(PARAM_NAMES, list(fit.params.as_tuple()))
    )
    assert gain >= 0.002


@pytest.fixture(scope="module")
def bilateral_gamma_budget_fit(btc_tables):
    """Criterion 9's bilateral-gamma fit (5000 BTC draws, seed 11, a
    2**15-node budget): the sample, the options, the fit and its polish
    events."""
    _, cdf = btc_tables
    data = gt.sample(cdf, 5000, seed=11)
    options = FitOptions(maxfev=1500, compute_se=False, max_n_freq=2**15, grid_m=2**11)
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("gts_tail")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        fit = gt.fit_mle(data, kind=gt.RestrictedKind.BILATERAL_GAMMA, options=options)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    rounds = [r for r in records if getattr(r, "fit_phase", None) == "polish"]
    return data, options, fit, rounds


def test_kobol_fit_lifted_from_the_bilateral_gamma_fit_converges(bilateral_gamma_budget_fit):
    # Criterion 9's KoBoL fit: from beta 0.35, with intensities lifted to
    # keep the bilateral-gamma fit's variance.  With beta at the other
    # coordinates' scale in the polish's u, its rounds walked beta down to
    # 0.06 with the intensities and stopped on the 2**15-node budget at
    # -12867.08; in the logit of the indices it converged to -12805.455.
    data, _, bg, _ = bilateral_gamma_budget_fit
    q, beta = bg.params, 0.35

    def lift(alpha, lam):
        return alpha * lam**-2.0 / (math.gamma(2.0 - beta) * lam ** (beta - 2.0))

    init = gt.kobol_params(
        q.mu, beta, lift(q.alpha_plus, q.lambda_plus), lift(q.alpha_minus, q.lambda_minus),
        q.lambda_plus, q.lambda_minus,
    )
    options = FitOptions(maxfev=2500, compute_se=False, max_n_freq=2**15, grid_m=2**11)
    kob = gt.fit_mle(data, init=init, kind=gt.RestrictedKind.KOBOL, options=options)
    assert kob.converged
    assert kob.loglik >= -12805.46
    assert 0.25 < kob.params.beta_plus < 0.4


def test_polish_rounds_stop_at_the_frequency_node_budget(bilateral_gamma_budget_fit):
    # Each round touches a bound of its plan, until a plan at the
    # 2**15-node budget cannot grow further.
    _, _, fit, rounds = bilateral_gamma_budget_fit
    assert fit.converged is False
    assert rounds[-1].stop == "max_n_freq"
    assert rounds[-1].plan["n_freq"] == 2**15


# The bilateral-gamma estimate of the same sample when an L-BFGS-B pilot
# on per-law automatic grids ran before the polish rounds, and the rounds
# stopped as soon as one touched a bound of a plan at the node budget.
_PILOT_BILATERAL_GAMMA_ESTIMATE = (
    0.08513728297355896,
    0.0,
    0.0,
    1.2806946906089913,
    1.2483281328971865,
    0.49096712105088985,
    0.4760453591083239,
)


def test_polish_rounds_refreeze_at_the_node_budget_while_they_gain(bilateral_gamma_budget_fit):
    # A round that touches a bound of a plan at the budget re-freezes it
    # around its point, with the same nodes, while it gains _ROUND_GAIN
    # nats or more: each at-budget round that another follows gained that
    # much on its own plan.  How far the rounds walk before one gains less
    # follows the last bits of the path, L-BFGS-B's own BLAS calls among
    # them (the rounds after the first gained 4.9 to 18.9 nats in total
    # across OpenBLAS kernels), so no larger total is asserted.  On one
    # plan, frozen at the new estimate, the fit ends above stopping at the
    # first such round.
    data, options, fit, rounds = bilateral_gamma_budget_fit
    at_budget = [r for r in rounds if r.plan["n_freq"] == 2**15]
    assert len(at_budget) >= 2 and all(sum(r.penalties.values()) > 0 for r in at_budget)
    assert all(r.gain >= _ROUND_GAIN for r in at_budget[:-1])
    common = _fit_plan(
        fit.params, np.asarray(data.values), replace(options, max_n_freq=2**20), _HEADROOM
    )
    before = gt.validate_params(*_PILOT_BILATERAL_GAMMA_ESTIMATE)
    assert common.penalty_cause(before) is None and common.penalty_cause(fit.params) is None
    assert common.neg_loglik(before) > common.neg_loglik(fit.params)


def test_hessian_symmetry(btc_params, btc_sample_5k):
    # Each column differences the score along one coordinate, so symmetry
    # is not built in: a wrong partial in the score breaks it.
    obs = np.asarray(btc_sample_5k.values)
    plan = _fit_plan(btc_params, obs, FitOptions(), _HESSIAN_HEADROOM)
    t = _to_transformed(PARAM_NAMES, list(btc_params.as_tuple()))
    H = _score_hessian(_plan_score(plan, gt.RestrictedKind.FULL), t, _HESSIAN_STEP)
    asym = np.max(np.abs(H - H.T))
    assert asym <= 1e-6 * np.max(np.abs(H))


def test_score_is_smooth_at_the_estimate_of_btc_seed_2(btc_tables):
    # 3000 BTC draws (seed 2), default fit.  With a monotone-cubic gather
    # the estimate sat 9e-5 in mu from a kink of the Hessian plan's
    # likelihood, where a slope rule switched at the density's mode: the
    # mu score jumped from -0.08 to +0.38 across it, and the score Hessian
    # was asymmetric by 0.49 of its largest entry.  The stencil gather is
    # linear in the node values, so no rule switches.
    _, cdf = btc_tables
    data = gt.sample(cdf, 3000, seed=2)
    fit = gt.fit_mle(data, options=FitOptions(compute_se=False))
    plan = _fit_plan(fit.params, np.asarray(data.values), FitOptions(), _HESSIAN_HEADROOM)
    score = _plan_score(plan, gt.RestrictedKind.FULL)
    t = _to_transformed(PARAM_NAMES, list(fit.params.as_tuple()))
    H = _score_hessian(score, t, _HESSIAN_STEP)
    assert np.max(np.abs(H - H.T)) <= 1e-6 * np.max(np.abs(H))
    mu_score = []
    for mu in t[0] + np.linspace(-3e-4, 3e-4, 25):
        mu_score.append(score(np.concatenate([[mu], t[1:]]))[0])
    d = np.abs(np.diff(mu_score))
    assert np.all(d[1:-1] <= 2.0 * np.minimum(d[:-2], d[2:]))
    assert sum(plan.penalties.values()) == 0


def test_restricted_hessian_is_definite_at_the_truth():
    # Bilateral gamma at its generating law, 2000 own draws.  Through the
    # monotone-cubic gather the score Hessian had a negative eigenvalue
    # that grew as the step shrank (-341, -989 and -12340 at steps 1e-4,
    # 5e-5 and 1e-5): kinks, not curvature.
    p = gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6)
    data = gt.sample(gt.cdf_table(p, gt.build_grid(p, GridConfig(m=2**12))), 2000, seed=8)
    kind = gt.RestrictedKind.BILATERAL_GAMMA
    plan = _fit_plan(p, np.asarray(data.values), FitOptions(), _HESSIAN_HEADROOM)
    score = _plan_score(plan, kind)
    t = _to_transformed(kind.free_names, kind.reduce(p))
    eig = []
    for step in (1e-4, 5e-5, 1e-5):
        H = _score_hessian(score, t, step)
        eig.append(np.linalg.eigvalsh(0.5 * (H + H.T)))
    for e in eig[1:]:
        np.testing.assert_allclose(e, eig[0], rtol=1e-2)
    assert eig[0].min() > 0.0
    assert sum(plan.penalties.values()) == 0


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
    # Probes that cross a plan bound, or a score that is not smooth at the
    # step scale, make the two steps disagree (or give a zero Hessian, and
    # a NaN ratio).  The likelihood's own differences are the reference.
    p = gt.validate_params(*_BENCHMARK_OPTIMUM)
    obs = np.asarray(benchmark_sample.values)
    plan = _fit_plan(p, obs, FitOptions(), _HESSIAN_HEADROOM)
    score = _plan_score(plan, gt.RestrictedKind.FULL)
    t = _to_transformed(PARAM_NAMES, list(p.as_tuple()))
    H = _score_hessian(score, t, 1e-4)
    H_half = _score_hessian(score, t, 5e-5)
    scale = np.max(np.abs(H))
    assert np.max(np.abs(H - H_half)) <= 1e-5 * scale
    reference = _transformed_hessian(plan.objective(gt.RestrictedKind.FULL), t, 1e-4)
    assert np.max(np.abs(H - reference)) <= 1e-6 * scale
    assert sum(plan.penalties.values()) == 0


# The optimum on 3000 BTC draws (seed 4) of a fit in the logit of the
# stability indices: beta_plus near 0.
_BTC_SEED_4_OPTIMUM = (
    0.33098398074725316,
    0.0005521293665741955,
    0.4486438788763536,
    0.7422050521910897,
    0.5552503388549381,
    0.3294539883764297,
    0.16582560914501052,
)


def test_score_hessian_resolves_a_stability_index_near_zero(btc_tables):
    # beta_plus = 5.5e-4, 5.5 Hessian steps above its limit 0.  In its
    # logit the curvature was about 1e-3, at the noise floor of second
    # differences of the likelihood, and the power form's cancellation left
    # rounding noise of about 3e-8 in the beta_plus score, so two steps
    # read that curvature 1-7 % apart.  In the natural coordinate it is
    # about 1025, and differences of the score agree with each other and
    # with the likelihood's own differences.
    _, cdf = btc_tables
    obs = np.asarray(gt.sample(cdf, 3000, seed=4).values)
    p = gt.validate_params(*_BTC_SEED_4_OPTIMUM)
    plan = _fit_plan(p, obs, FitOptions(), _HESSIAN_HEADROOM)
    score = _plan_score(plan, gt.RestrictedKind.FULL)
    t = _to_transformed(PARAM_NAMES, list(p.as_tuple()))
    assert t[1] == p.beta_plus
    H = _score_hessian(score, t, 1e-4)
    H_half = _score_hessian(score, t, 5e-5)
    assert np.max(np.abs(H - H_half)) <= 1e-5 * np.max(np.abs(H))
    assert 500.0 < H[1, 1] < 2000.0
    assert abs(H[1, 1] - H_half[1, 1]) <= 0.01 * H[1, 1]
    reference = _transformed_hessian(plan.objective(gt.RestrictedKind.FULL), t, 1e-4)
    assert abs(H[1, 1] - reference[1, 1]) <= 1e-5 * H[1, 1]
    assert sum(plan.penalties.values()) == 0


def _direct_neg_loglik(p, grid, obs):
    # The same frozen grid through the table path and a Lagrange fit on
    # each observation's window.
    return -_reference_loglik(grid, np.maximum(_pdf_values(p, grid), 0.0), obs)


def _scaled(p, mu_shift=0.0, alpha_scale=1.0):
    return gt.validate_params(
        p.mu + mu_shift, p.beta_plus, p.beta_minus, alpha_scale * p.alpha_plus,
        alpha_scale * p.alpha_minus, p.lambda_plus, p.lambda_minus,
    )


def test_plan_objective_matches_direct_inversion(btc_params, btc_sample_5k):
    obs = np.asarray(btc_sample_5k.values)
    plan = _fit_plan(btc_params, obs, FitOptions(), _HEADROOM)
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
    plan = _fit_plan(btc_params, np.asarray(btc_sample_5k.values), FitOptions(), _HEADROOM)
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
    # radius alone, so the period of N grid steps is cleared up to d*.
    period = g.n_fft * g.dx
    k1 = gt.cumulant(btc_params, 1)
    d_star = period - _tail_radius(btc_params, 1e-9) - (k1 - g.x_min)
    assert d_star > 0.0
    inside = _scaled(btc_params, mu_shift=d_star * (1 - 1e-9))
    past = _scaled(btc_params, mu_shift=d_star * (1 + 1e-9))
    assert plan.penalty_cause(inside) is None and value(inside) < 1e15
    assert plan.penalty_cause(past) == "aliasing" and value(past) == 1e15
    assert plan.penalties == {"truncation": 1, "aliasing": 1, "error": 0}


# Laws for the score check, each with the kind it is fitted as: the two
# bundled estimates, a bilateral-gamma law (both sides on the log form),
# an asymmetric law with far-apart indices, and a KoBoL and a CGMY point
# (tied coordinates, whose score sums over their fields).
_SCORE_LAWS = {
    "btc": (gt.RestrictedKind.FULL, gt.BITCOIN_DAILY.params),
    "eth": (gt.RestrictedKind.FULL, gt.ETHEREUM_DAILY.params),
    "bilateral-gamma": (
        gt.RestrictedKind.BILATERAL_GAMMA, gt.bilateral_gamma_params(0.1, 1.5, 1.2, 0.6, 0.5),
    ),
    "asymmetric": (
        gt.RestrictedKind.FULL, gt.validate_params(0.3, 0.8, 0.05, 0.2, 1.1, 0.4, 1.5),
    ),
    "kobol": (gt.RestrictedKind.KOBOL, gt.kobol_params(-0.12, 0.36, 0.75, 0.54, 0.25, 0.17)),
    "cgmy": (gt.RestrictedKind.CGMY, gt.cgmy_params(0.05, 0.55, 0.6, 0.4, 0.7)),
}


@pytest.mark.parametrize("law", list(_SCORE_LAWS))
def test_score_matches_central_differences(law):
    kind, p = _SCORE_LAWS[law]
    cdf = gt.cdf_table(p, gt.build_grid(p, GridConfig(m=2**12)))
    obs = np.asarray(gt.sample(cdf, 1000, seed=6).values)
    plan = _fit_plan(p, obs, FitOptions(), _HEADROOM)
    neg = plan.objective(kind)
    with_score = plan.objective(kind, score=True)
    # A point off the generating law, where the score is far from 0.
    t0 = _to_transformed(kind.free_names, kind.reduce(p))
    t = t0 + np.random.default_rng(2).normal(0.0, 0.03, t0.size)
    value, score = with_score(t)
    assert value == neg(t) < 1e15
    step = 1e-5
    fd = np.array([(neg(t + e) - neg(t - e)) / (2 * step) for e in step * np.eye(t.size)])
    assert np.max(np.abs(score - fd)) <= 1e-6 * np.max(np.abs(score))
    assert np.min(np.abs(score)) > 1e-3 * np.max(np.abs(score))
    assert sum(plan.penalties.values()) == 0
    assert plan.score_evaluations == 1 and plan.evaluations == 2 + 2 * t.size


_SCORE_SCRIPT = """
import numpy as np, gts_tail as gt
from gts_tail.core import PARAM_NAMES
from gts_tail.estimation import _HEADROOM, FitOptions, _fit_plan, _to_transformed
p = gt.BITCOIN_DAILY.params
cdf = gt.cdf_table(p, gt.build_grid(p, gt.GridConfig(m=2**12)))
obs = np.asarray(gt.sample(cdf, 600, seed=1).values)
plan = _fit_plan(p, obs, FitOptions(), _HEADROOM)
t = _to_transformed(PARAM_NAMES, list(p.as_tuple())) + 0.01
print([float(v).hex() for v in plan.objective(gt.RestrictedKind.FULL, score=True)(t)[1]])
"""


def test_score_is_independent_of_the_thread_count():
    # A BLAS dot splits its sum across threads; the score's sums must not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))
    out = []
    for threads in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", _SCORE_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        out.append(r.stdout)
    assert out[0] == out[1]


def test_penalized_score_is_zero(btc_params, btc_sample_5k):
    plan = _fit_plan(btc_params, np.asarray(btc_sample_5k.values), FitOptions(), _HEADROOM)
    with_score = plan.objective(gt.RestrictedKind.FULL, score=True)
    # Intensities a thousandth of the estimate's: |cf| stays above 1e-8 at the cutoff.
    p = _scaled(btc_params, alpha_scale=1e-3)
    value, score = with_score(_to_transformed(PARAM_NAMES, list(p.as_tuple())))
    assert value == 1e15 and np.array_equal(score, np.zeros(7))
    assert plan.penalties["truncation"] == 1 and plan.score_evaluations == 1


def test_plan_value_is_continuous_at_a_stability_index_of_zero():
    # The CLI fit test's sample on a plan frozen at an estimate with
    # beta_plus = 0.  The power form c*(b**beta - lam**beta), with c about
    # -alpha/beta, cancelled as beta -> 0: at beta_plus 1e-10, 1e-12 and
    # 1e-14 this plan's value was off the limit law's by 2.2e-4, 0.035 and
    # 679 nats.
    obs = np.asarray(_btc_600_draws(5).values)
    p0 = gt.validate_params(*_SIMPLEX_ESTIMATE)
    assert p0.beta_plus == 0.0
    plan = _fit_plan(p0, obs, FitOptions(grid_m=1024), _HEADROOM)
    at_zero = plan.neg_loglik(p0)
    for beta in (1e-10, 1e-12, 1e-14):
        near = replace(p0, beta_plus=beta)
        assert plan.penalty_cause(near) is None
        assert abs(plan.neg_loglik(near) - at_zero) <= 1e-6


def test_log_density_gradient_matches_central_differences():
    # A skewed bump minus an offset: both tails of the raw node values are
    # negative and clamped to 0.  Observations in the bulk, in the two
    # intervals from the last clamped node to the first positive one, in
    # the clamped tails, and off the grid.
    grid = gt.SpectralGrid(-6.0, 6.0, 241, 0.05, 8, 440)
    x = grid.x()
    raw = np.exp(-0.5 * x**2) * (1.0 + 0.4 * np.tanh(x)) / 2.5 - 1e-3
    rng = np.random.default_rng(3)
    positive = np.flatnonzero(raw > 0.0)
    edges = [x[positive[0] - 1] + 0.6 * grid.dx, x[positive[-1]] + 0.4 * grid.dx]
    obs = np.concatenate([rng.uniform(-2.5, -0.5, 60), rng.uniform(0.5, 2.5, 60), edges,
                          [-5.5, 5.2, -7.0, 8.0]])
    start, y = _stencil_windows(grid, obs)
    weights = _stencil_weights(y)
    value, grad = _neg_log_density_sum_and_grad(raw, start, weights)
    clamped = raw < 0.0
    assert clamped[:20].all() and clamped[-20:].all()
    assert np.all(grad[clamped] == 0.0) and np.count_nonzero(grad) > 40
    eps = 1e-9

    def neg(v):
        return _neg_log_density_sum_and_grad(v, start, weights)[0]

    fd = np.array([(neg(raw + e) - neg(raw - e)) / (2 * eps) for e in eps * np.eye(x.size)])
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


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

    def score(t):
        calls.append(1)
        return A @ t + 3.0 * c * t**2 + 2.0 * t * (B @ t) + B.T @ (t**2)

    calls.clear()
    H = _score_hessian(score, t0, 1e-4)
    assert np.max(np.abs(H - want)) <= 1e-6 * np.max(np.abs(want))
    assert len(calls) == 2 * n == 14


# A point that needs 8191.999996 of 8192 frequency nodes at its own cutoff
# on the benchmark sample (3000 BTC draws, seed 2025), on a period equal to
# its guard: the optimum of that sample under grids frozen by node count
# alone.  Its own grid, on the fast FFT length at or above its guard, takes
# 8200.
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
    # A budget of the point's own 8200 nodes leaves the Hessian's plan 5e-5
    # of room from its truncation bound, and the probes cross it into the
    # penalty.  One node pair less and its own grid is over the budget.
    with pytest.raises(ConfigError, match="over the budget"):
        gt.standard_errors(fit, data, FitOptions(max_n_freq=8198))
    walled = FitOptions(max_n_freq=8200)
    with pytest.raises(PenaltyWall) as exc:
        gt.standard_errors(fit, data, walled)
    assert exc.value.coordinates and set(exc.value.coordinates) <= set(PARAM_NAMES)
    with pytest.warns(SingularHessianWarning, match="penalty"):
        omitted = _with_standard_errors(fit, data, walled)
    assert omitted.std_errors is None and omitted.z_pvalues is None
    assert omitted.hessian_fallback
    # The default budget gives the plan room to spare.
    kept = _with_standard_errors(fit, data, FitOptions())
    assert not kept.hessian_fallback
    assert all(0.02 < se < 0.5 for se in kept.std_errors)


def test_standard_errors_omitted_at_a_stability_index_of_zero():
    # A full fit of bilateral-gamma draws that ends with both stability
    # indices on the limit 0 of their box, the generating law's value: no
    # central difference straddles them there, and in the logit the
    # information was singular along them, where a pseudo-inverse would
    # report their standard errors as 0 with a p-value of 1.
    p = gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6)
    data = gt.sample(gt.cdf_table(p, gt.build_grid(p, GridConfig(m=2**12))), 500, seed=1)
    with pytest.warns(SingularHessianWarning, match="no Wald standard error along beta_plus, beta_minus"):
        fit = gt.fit_mle(data)
    assert fit.converged and fit.params.beta_plus == fit.params.beta_minus == 0.0
    assert fit.std_errors is None and fit.z_pvalues is None
    assert fit.hessian_fallback
    with pytest.raises(BoundaryEstimate) as exc:
        gt.standard_errors(fit, data)
    assert exc.value.coordinates == ("beta_plus", "beta_minus")


def test_standard_errors_omitted_on_the_upper_bound_of_the_box(btc_seed_4_fit, btc_params):
    # An index held on 1 - 1e-3 is no interior optimum either: the score
    # along it need not vanish there, and the Hessian's probes, which
    # straddle it, would give it the curvature's Wald error.
    data, fit, _ = btc_seed_4_fit
    q = btc_params
    alpha = q.alpha_minus * math.gamma(2.0 - q.beta_minus) * q.lambda_minus ** (q.beta_minus - _BETA_MAX)
    alpha /= math.gamma(2.0 - _BETA_MAX)
    on_bound = replace(fit, params=replace(q, beta_minus=_BETA_MAX, alpha_minus=alpha))
    with pytest.warns(SingularHessianWarning, match="no Wald standard error along beta_minus:"):
        omitted = _with_standard_errors(on_bound, data, FitOptions())
    assert omitted.std_errors is None and omitted.z_pvalues is None and omitted.hessian_fallback
    with pytest.raises(BoundaryEstimate) as exc:
        gt.standard_errors(on_bound, data)
    assert exc.value.coordinates == ("beta_minus",)
    # Two Hessian steps inside it, the probes stay in the box.  (This law
    # is no optimum of the sample, so its information may be singular.)
    inside = replace(fit, params=replace(on_bound.params, beta_minus=_BETA_MAX - 2 * _HESSIAN_STEP))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularHessianWarning)
        se, _, _ = gt.standard_errors(inside, data)
    assert all(math.isfinite(v) for v in se)


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
