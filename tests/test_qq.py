import math

import numpy as np
import pytest
from scipy.special import erfc, ndtr, ndtri

import gts_tail as gt
from gts_tail.errors import DomainError, NonFinite, TooShort
from gts_tail.qq import ShapeNote, TailSide, hazen_levels


def _phi(x):
    return 0.5 * erfc(-x / np.sqrt(2.0))


def _phi_inv_bisect(p, lo=-10.0, hi=10.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# qq_points
# --------------------------------------------------------------------------

def test_exact_reference_lands_on_line():
    n = 200
    p = hazen_levels(n)
    ref = lambda q: gt.normal_quantile(0.0, 1.0, q)  # noqa: E731
    obs = gt.ReturnSeries(values=[ref(q) for q in p])
    qq = gt.qq_points(obs, ref)
    assert np.max(np.abs(qq.observed - qq.theoretical)) < 1e-9
    assert np.all(np.diff(qq.theoretical) >= 0)
    assert np.all(np.diff(qq.observed) >= 0)


def test_too_short_rejected():
    obs = gt.ReturnSeries(values=[0.0, 1.0, 2.0])
    with pytest.raises(TooShort):
        gt.qq_points(obs, lambda q: q)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=300)
    ref = lambda q: gt.normal_quantile(0.0, 1.0, q)  # noqa: E731
    a = gt.qq_points(gt.ReturnSeries(values=vals), ref)
    b = gt.qq_points(gt.ReturnSeries(values=rng.permutation(vals)), ref)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.theoretical, b.theoretical)


def test_reference_of_wrong_shape_rejected():
    obs = gt.ReturnSeries(values=np.linspace(-1.0, 1.0, 50))
    with pytest.raises(DomainError):
        gt.qq_points(obs, lambda q: gt.normal_quantile(0.0, 1.0, q)[:-1])
    with pytest.raises(DomainError):
        gt.qq_points(obs, lambda q: 0.0)
    with pytest.raises(DomainError):
        gt.qq_points(obs, lambda q: gt.normal_quantile(0.0, 1.0, q)[:, None])


def test_reference_called_once_on_all_levels():
    calls = []

    def ref(q):
        calls.append(np.shape(q))
        return gt.normal_quantile(0.0, 1.0, q)

    obs = gt.ReturnSeries(values=np.linspace(-1.0, 1.0, 300))
    gt.qq_points(obs, ref, levels=120)
    assert calls == [(120,)]


def test_levels_subsampling():
    rng = np.random.default_rng(6)
    obs = gt.ReturnSeries(values=rng.normal(size=5000))
    qq = gt.qq_points(obs, lambda q: gt.normal_quantile(0, 1, q), levels=101)
    assert qq.n == 101


@pytest.mark.parametrize("levels", [math.nan, math.inf, 25.9, 100.0])
def test_levels_must_be_an_integer(levels):
    # Sample's rule: a float is refused, not truncated.
    obs = gt.ReturnSeries(values=np.linspace(-1.0, 1.0, 300))
    with pytest.raises(TypeError):
        gt.qq_points(obs, lambda q: gt.normal_quantile(0.0, 1.0, q), levels=levels)
    assert gt.qq_points(obs, lambda q: q, levels=np.int64(25)).n == 25
    with pytest.raises(TooShort):
        gt.qq_points(obs, lambda q: q, levels=19)


# --------------------------------------------------------------------------
# normal_quantile
# --------------------------------------------------------------------------

def test_median_is_mean():
    assert gt.normal_quantile(3.25, 2.0, 0.5) == pytest.approx(3.25, abs=1e-12)


def test_value_against_bisection_oracle():
    want = _phi_inv_bisect(0.975)
    assert gt.normal_quantile(0.0, 1.0, 0.975) == pytest.approx(want, abs=1e-9)
    assert gt.normal_quantile(0.0, 1.0, 0.975) == pytest.approx(1.959964, abs=1e-6)


def test_quantile_symmetry():
    for p in (0.01, 0.2, 0.45):
        s = gt.normal_quantile(1.5, 2.0, p) + gt.normal_quantile(1.5, 2.0, 1.0 - p)
        assert abs(s - 3.0) <= 1e-9


def test_domain_errors():
    with pytest.raises(DomainError):
        gt.normal_quantile(0, 1, 0.0)
    with pytest.raises(DomainError):
        gt.normal_quantile(0, -1, 0.5)
    with pytest.raises(DomainError):
        gt.normal_quantile(0, 1, np.array([0.2, 1.0, 0.7]))
    with pytest.raises(DomainError):
        gt.normal_quantile(0, 1, np.array([0.2, np.nan]))


@pytest.mark.parametrize("mean, sd", [(math.nan, 1.0), (0.0, math.inf)])
def test_non_finite_mean_or_sd_raises(mean, sd):
    with pytest.raises(NonFinite):
        gt.normal_quantile(mean, sd, 0.5)


def _normal_quantile_loop(mean, sd, p):
    """Reference: the one-level formula with scalar math."""
    z = float(ndtri(p))
    dens = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if dens > 0.0:
        z -= (float(ndtr(z)) - p) / dens
    return mean + sd * z


def test_array_normal_quantile_equals_loop():
    p = np.concatenate([hazen_levels(20000), np.logspace(-15, -1, 200), 1 - np.logspace(-15, -1, 200)])
    got = gt.normal_quantile(0.3, 1.7, p)
    want = np.array([_normal_quantile_loop(0.3, 1.7, float(q)) for q in p])
    assert np.array_equal(got, want)
    assert type(gt.normal_quantile(0.3, 1.7, 0.25)) is float


# --------------------------------------------------------------------------
# tail_verdict
# --------------------------------------------------------------------------

def _qq_from_arrays(levels, theo, obs):
    return gt.QQData(levels=levels, theoretical=theo, observed=obs)


def test_tau_must_be_finite_and_non_negative():
    p = hazen_levels(500)
    t = np.array([gt.normal_quantile(0, 1, q) for q in p])
    q = _qq_from_arrays(p, t, t.copy())
    for tau in (math.nan, math.inf, -1e-3):
        with pytest.raises(DomainError, match="tau"):
            gt.tail_verdict(q, tau=tau)
    assert gt.tail_verdict(q, tau=0.0).shape is ShapeNote.LINEAR


def test_on_line_is_linear():
    p = hazen_levels(500)
    t = np.array([gt.normal_quantile(0, 1, q) for q in p])
    v = gt.tail_verdict(_qq_from_arrays(p, t, t.copy()))
    assert (v.lower, v.upper, v.shape) == (
        TailSide.COMPARABLE,
        TailSide.COMPARABLE,
        ShapeNote.LINEAR,
    )


def test_gts_samples_vs_normal_long_tailed(btc_params, btc_sample_100k):
    k1 = gt.cumulant(btc_params, 1)
    sd = np.sqrt(gt.cumulant(btc_params, 2))
    qq = gt.qq_points(btc_sample_100k, lambda q: gt.normal_quantile(k1, sd, q))
    # Extreme order statistics straddle the reference line: lowest below,
    # highest above.
    assert qq.observed[0] < qq.theoretical[0]
    assert qq.observed[-1] > qq.theoretical[-1]
    v = gt.tail_verdict(qq)
    assert v.lower is TailSide.HEAVIER
    assert v.upper is TailSide.HEAVIER
    assert v.shape is ShapeNote.LONG_TAILED


def test_eth_samples_vs_btc_reference_heavier(eth_tables, btc_tables):
    # Cross-asset comparison: the wider-tailed law sampled against the
    # narrower one as theoretical reference reads heavier on both ends.
    _, eth_cdf = eth_tables
    _, btc_cdf = btc_tables
    s = gt.sample(eth_cdf, 100_000, seed=99)
    qq = gt.qq_points(s, lambda q: gt.quantile(btc_cdf, q), levels=2001)
    v = gt.tail_verdict(qq)
    assert v.lower is TailSide.HEAVIER
    assert v.upper is TailSide.HEAVIER


def test_short_tailed_pattern():
    # Uniform observations against a normal reference: both tails lighter.
    n = 2000
    p = hazen_levels(n)
    theo = np.array([gt.normal_quantile(0.0, 1.0, q) for q in p])
    obs = np.sort(np.random.default_rng(9).uniform(-1.5, 1.5, size=n))
    v = gt.tail_verdict(_qq_from_arrays(p, theo, obs))
    assert v.lower is TailSide.LIGHTER
    assert v.upper is TailSide.LIGHTER
    assert v.shape is ShapeNote.SHORT_TAILED


def test_affine_equivariance(btc_sample_100k, btc_params):
    k1 = gt.cumulant(btc_params, 1)
    sd = np.sqrt(gt.cumulant(btc_params, 2))
    qq = gt.qq_points(btc_sample_100k, lambda q: gt.normal_quantile(k1, sd, q))
    a, b = 2.5, -1.0
    mapped = gt.ReturnSeries(values=a * btc_sample_100k.values + b)
    qq2 = gt.qq_points(mapped, lambda q: a * gt.normal_quantile(k1, sd, q) + b)
    v1, v2 = gt.tail_verdict(qq), gt.tail_verdict(qq2)
    assert (v1.lower, v1.upper, v1.shape) == (v2.lower, v2.upper, v2.shape)


def test_decile_floor():
    p = np.linspace(0.4, 0.6, 30)
    with pytest.raises(TooShort):
        gt.tail_verdict(_qq_from_arrays(p, p, p))


# --------------------------------------------------------------------------
# emit
# --------------------------------------------------------------------------

def test_csv_shape_and_determinism(tmp_path):
    q = _qq_from_arrays(
        np.array([0.25, 0.5, 0.75]), np.array([-1.0, 0.0, 1.0]), np.array([-1.1, 0.0, 1.2])
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    gt.emit(q, "csv", a)
    gt.emit(q, "csv", b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "level,theoretical,observed"


def test_svg_structure(tmp_path):
    n = 37
    p = hazen_levels(n)
    q = _qq_from_arrays(p, np.sort(np.random.default_rng(1).normal(size=n)), np.sort(np.random.default_rng(2).normal(size=n)))
    path = tmp_path / "q.svg"
    gt.emit(q, "svg", path)
    text = path.read_text()
    assert text.count('class="refline"') == 1
    assert text.count('class="pt"') == n
    gt.emit(q, "svg", tmp_path / "q2.svg")
    assert (tmp_path / "q2.svg").read_bytes() == path.read_bytes()


def test_gof_report_json(tmp_path):
    r = gt.GofReport(
        ks_stat=0.01,
        ks_critical_5pct=0.02,
        ad_stat=0.3,
        chi2_stat=45.0,
        chi2_df=49,
        chi2_pvalue=0.63,
        n=1000,
    )
    path = tmp_path / "r.json"
    gt.emit(r, "json", path)
    import json

    back = json.loads(path.read_text())
    assert back["chi2_df"] == 49
    assert back["n"] == 1000


def test_gof_report_csv(tmp_path):
    r = gt.GofReport(
        ks_stat=0.01,
        ks_critical_5pct=0.02,
        ad_stat=0.3,
        chi2_stat=45.0,
        chi2_df=49,
        chi2_pvalue=0.63,
        n=1000,
    )
    path = tmp_path / "r.csv"
    gt.emit(r, "csv", path)
    assert path.read_text() == (
        "statistic,value\nks_stat,0.01\nks_critical_5pct,0.02\nad_stat,0.29999999999999999\n"
        "chi2_stat,45\nchi2_df,49\nchi2_pvalue,0.63\nn,1000\n"
    )


def test_emit_rejects_unknown_format(tmp_path):
    q = _qq_from_arrays(np.array([0.5]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        gt.emit(q, "png", tmp_path / "x.png")


@pytest.mark.parametrize("fmt", [None, 3])
def test_emit_rejects_a_format_that_is_not_a_string(tmp_path, fmt):
    q = _qq_from_arrays(np.array([0.5]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(DomainError, match="must be a string"):
        gt.emit(q, fmt, tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()
