import math

import numpy as np
import pytest
from scipy.special import gammaincc

import gts_tail as gt
from gts_tail.errors import BinUnderflow, BoundaryObservation, TooShort
from gts_tail.qq import hazen_levels


def _plugin_sample(cdf, n):
    """Order statistics placed exactly at their Hazen positions."""
    return gt.ReturnSeries(values=[gt.quantile(cdf, p) for p in hazen_levels(n)])


# --------------------------------------------------------------------------
# Kolmogorov-Smirnov
# --------------------------------------------------------------------------

def test_ks_midpoint_plugin(btc_tables):
    _, cdf = btc_tables
    n = 100
    d, crit = gt.gof_ks(_plugin_sample(cdf, n), cdf)
    assert d == pytest.approx(0.5 / n, abs=1e-6)
    assert crit == pytest.approx(1.358 / math.sqrt(n))


def test_ks_degenerate_mass(btc_tables):
    _, cdf = btc_tables
    med = gt.quantile(cdf, 0.5)
    n = 50
    obs = gt.ReturnSeries(values=[med] * n)
    d, _ = gt.gof_ks(obs, cdf)
    assert d >= 0.5 - 1.0 / n


def test_ks_self_draws(btc_tables):
    _, cdf = btc_tables
    ok = 0
    for seed in range(10):
        s = gt.sample(cdf, 10_000, seed=seed)
        d, crit = gt.gof_ks(s, cdf)
        ok += d < crit
    assert ok >= 9


def test_ks_too_short(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(TooShort):
        gt.gof_ks(gt.ReturnSeries(values=[0.0] * 5), cdf)


# --------------------------------------------------------------------------
# chi-squared
# --------------------------------------------------------------------------

def test_chi2_perfect_fit(btc_tables):
    # Observations hitting every equiprobable bin equally: statistic 0, p=1.
    _, cdf = btc_tables
    bins = 10
    per = 8
    levels = [(j + (k + 0.5) / per) / bins for j in range(bins) for k in range(per)]
    obs = gt.ReturnSeries(values=[gt.quantile(cdf, p) for p in levels])
    stat, df, pval = gt.gof_chi2(obs, cdf, bins=bins)
    assert stat == 0.0
    assert df == bins - 1
    assert pval == 1.0


def test_chi2_fitted_params_reduce_df(btc_tables):
    _, cdf = btc_tables
    s = gt.sample(cdf, 1000, seed=0)
    _, df, _ = gt.gof_chi2(s, cdf, bins=20, n_fitted_params=7)
    assert df == 12


def test_chi2_bin_underflow(btc_tables):
    _, cdf = btc_tables
    s = gt.sample(cdf, 100, seed=0)
    with pytest.raises(BinUnderflow):
        gt.gof_chi2(s, cdf, bins=50)


def test_chi2_self_draws(btc_tables):
    _, cdf = btc_tables
    for seed in range(10):
        s = gt.sample(cdf, 10_000, seed=100 + seed)
        _, _, pval = gt.gof_chi2(s, cdf, bins=50)
        assert pval > 0.01


# --------------------------------------------------------------------------
# chi-squared survival function
# --------------------------------------------------------------------------

def test_chi2_sf_exponential_special_case():
    # df=2 is exponential with rate 1/2: Q(x) = exp(-x/2).
    assert gt.chi2_sf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("df", [1, 2, 3, 7, 20, 49, 120])
def test_chi2_sf_matches_scipy(df):
    for x in (0.0, 0.3, 1.0, float(df), 2.0 * df, 5.0 * df):
        want = float(gammaincc(df / 2.0, x / 2.0))
        got = gt.chi2_sf(x, df)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_chi2_sf_rejects_bad_args():
    from gts_tail.errors import DomainError

    with pytest.raises(DomainError):
        gt.chi2_sf(-1.0, 3)
    with pytest.raises(DomainError):
        gt.chi2_sf(1.0, 0)


def test_chi2_sf_rejects_nan():
    from gts_tail.errors import NonFinite

    with pytest.raises(NonFinite):
        gt.chi2_sf(math.nan, 3)
    with pytest.raises(NonFinite):
        gt.chi2_sf(3.0, math.nan)


# --------------------------------------------------------------------------
# Anderson-Darling
# --------------------------------------------------------------------------

def test_ad_plugin_small(btc_tables):
    _, cdf = btc_tables
    a2 = gt.gof_ad(_plugin_sample(cdf, 100), cdf)
    assert 0.0 < a2 < 0.4


def test_ad_gross_shift_blows_up(btc_tables):
    _, cdf = btc_tables
    base = _plugin_sample(cdf, 100)
    a2 = gt.gof_ad(base, cdf)
    sd = float(np.std(base.values))
    shifted = gt.ReturnSeries(values=base.values + 10.0 * sd)
    a2s = gt.gof_ad(shifted, cdf)
    assert a2s >= 100.0 * a2


def test_ad_boundary_rejected(btc_tables):
    _, cdf = btc_tables
    vals = list(_plugin_sample(cdf, 30).values)
    vals[0] = cdf.grid.x_min - 50.0
    with pytest.raises(BoundaryObservation):
        gt.gof_ad(gt.ReturnSeries(values=vals), cdf)


def test_ad_too_short(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(TooShort):
        gt.gof_ad(gt.ReturnSeries(values=[0.0] * 10), cdf)
