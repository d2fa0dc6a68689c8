from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

import gts_tail as gt
from gts_tail.errors import ConfigError, NumericalFailure
from gts_tail.spectral import (
    GridConfig,
    _brackets,
    _cdf_values,
    _monotone_cubic,
    _monotone_cubic_pullback,
    _pchip_edge,
    _pchip_slopes,
    _pdf_values,
    _tail_radius,
    newton_cotes_weights,
)


# --------------------------------------------------------------------------
# grid construction
# --------------------------------------------------------------------------

def test_grid_defaults(btc_params):
    grid = gt.build_grid(btc_params)
    k1 = gt.cumulant(btc_params, 1)
    assert grid.x_min < k1 < grid.x_max
    assert grid.m == 2**14
    assert abs(gt.characteristic_function(btc_params, grid.freq_cutoff)) < 1e-12


def test_grid_m_rounds_up(btc_params):
    grid = gt.build_grid(btc_params, GridConfig(m=1000))
    assert grid.m == 1024
    grid = gt.build_grid(btc_params, GridConfig(m=100))
    assert grid.m == 256


def test_grid_symmetric_for_symmetric_params(symmetric_params):
    grid = gt.build_grid(symmetric_params)
    assert grid.x_min == -grid.x_max


def test_grid_cutoff_is_always_bisected():
    assert "freq_cutoff" not in {f.name for f in fields(GridConfig)}


def test_grid_honors_min_half_width(btc_params):
    grid = gt.build_grid(btc_params, GridConfig(min_half_width=200.0))
    assert grid.x_max - grid.x_min >= 400.0 - 1e-9


@pytest.mark.parametrize("asset, n_freq", [("btc", 2**14), ("eth", 2**13)])
def test_grid_takes_the_smallest_full_period_clearing_the_guard(asset, n_freq):
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    # Half-width plus the 1e-9 tail radius: what one period must clear.
    guard = 0.5 * (grid.x_max - grid.x_min) + _tail_radius(p, 1e-9)
    n, cutoff = grid.n_freq, grid.freq_cutoff
    assert n == n_freq
    # The period of n nodes clears the guard; half of them fall short even
    # with the bound's half-node slack.
    assert np.pi * (n - 1) / cutoff >= guard
    assert np.pi * (n // 2 - 0.5) / cutoff < guard


@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_half_the_chosen_nodes_alias_onto_the_density(asset):
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    with pytest.raises(NumericalFailure, match="excursion"):
        gt.pdf_table(p, replace(grid, n_freq=grid.n_freq // 2))


@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_doubling_the_chosen_nodes_moves_no_table(asset, btc_tables, eth_tables):
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    pdf, cdf = btc_tables if asset == "btc" else eth_tables
    doubled = replace(pdf.grid, n_freq=2 * pdf.grid.n_freq)
    assert np.max(np.abs(gt.pdf_table(p, doubled).values - pdf.values)) <= 1e-12
    assert np.max(np.abs(gt.cdf_table(p, doubled).values - cdf.values)) <= 1e-12


def test_explicit_n_freq_below_m_needs_only_the_aliasing_bound(eth_params):
    # ETH needs 8192 nodes; the default m is 16384.
    grid = gt.build_grid(eth_params, GridConfig(n_freq=2**13))
    assert grid.n_freq == 2**13 < grid.m
    with pytest.raises(ConfigError, match="aliasing bound"):
        gt.build_grid(eth_params, GridConfig(n_freq=2**12))
    with pytest.raises(ConfigError, match="power of two"):
        gt.build_grid(eth_params, GridConfig(n_freq=12288))


def test_newton_cotes_weights_integrate_polynomials():
    # The end-corrected trapezoid rule is exact through degree 3.
    for n in (64, 257):
        w = newton_cotes_weights(n)
        t = np.linspace(0.0, 1.0, n)
        dt = t[1] - t[0]
        for k in (0, 1, 2, 3):
            got = float(np.sum(w * t**k)) * dt
            assert abs(got - 1.0 / (k + 1)) < 1e-12
        assert np.allclose(w, w[::-1])


@pytest.mark.parametrize("n", [8, 16, 1024, 2**14])
def test_newton_cotes_weights_are_end_corrected_trapezoid(n):
    # Bit for bit: interior weights 1, and the four at each end the averages
    # of Simpson and 3/8 weights (not the literals 17/48 etc., which differ
    # in the last bit and would move every table).
    ends = [
        0.5 * (1 / 3 + 3 / 8),
        0.5 * (4 / 3 + 9 / 8),
        0.5 * (2 / 3 + 9 / 8),
        0.5 * (4 / 3 + (1 / 3 + 3 / 8)),
    ]
    want = np.ones(n)
    want[:4] = ends
    want[-4:] = ends[::-1]
    assert np.array_equal(newton_cotes_weights(n), want)


# --------------------------------------------------------------------------
# density table
# --------------------------------------------------------------------------

def test_pdf_normalization(btc_tables, eth_tables):
    for pdf, _ in (btc_tables, eth_tables):
        assert abs(pdf.trapezoid_mass() - 1.0) <= 1e-6
        assert pdf.values.min() >= 0.0


def test_pdf_symmetry(symmetric_tables):
    pdf, _ = symmetric_tables
    assert np.max(np.abs(pdf.values - pdf.values[::-1])) <= 1e-10


def test_pdf_matches_oracle_at_zero(btc_params, btc_tables):
    pdf, _ = btc_tables
    want, _ = gt.direct_quadrature_oracle(btc_params, 0.0)
    assert abs(pdf.interpolate(0.0) - want) <= 1e-8


# --------------------------------------------------------------------------
# CDF table
# --------------------------------------------------------------------------

def test_cdf_midpoint_symmetric(symmetric_tables):
    _, cdf = symmetric_tables
    assert abs(cdf.evaluate(0.0) - 0.5) <= 1e-8


def test_cdf_strictly_increasing(btc_tables):
    _, cdf = btc_tables
    assert np.diff(cdf.values).min() > 0.0


def test_cdf_endpoints(btc_tables, eth_tables):
    for _, cdf in (btc_tables, eth_tables):
        assert cdf.values[0] < 1e-6
        assert 1.0 - cdf.values[-1] < 1e-6


def test_cdf_deep_tail_matches_oracle(eth_params, eth_tables):
    # Near-unit mass ten standard deviations out; the tabulated tail must
    # match the direct quadrature, and the residual mass is genuinely small
    # (order 1e-5 for this heavy-tailed fixture).
    _, cdf = eth_tables
    k1 = gt.cumulant(eth_params, 1)
    x = k1 + 10.0 * np.sqrt(gt.cumulant(eth_params, 2))
    _, want = gt.direct_quadrature_oracle(eth_params, x)
    got = cdf.evaluate(x)
    assert abs(got - want) <= 1e-8
    assert 1.0 - got < 1e-5


def test_cdf_pdf_consistency(btc_tables):
    pdf, cdf = btc_tables
    dx = pdf.grid.dx
    dF = np.diff(cdf.values)
    panel = 0.5 * dx * (pdf.values[1:] + pdf.values[:-1])
    assert np.max(np.abs(dF - panel)) <= 1e-6


def test_cdf_probes_match_oracle(btc_params, btc_tables):
    _, cdf = btc_tables
    k1 = gt.cumulant(btc_params, 1)
    sd = np.sqrt(gt.cumulant(btc_params, 2))
    x = cdf.grid.x()
    idx = np.unique(((k1 + sd * np.linspace(-5, 5, 7) - cdf.grid.x_min) / cdf.grid.dx).astype(int))
    for i in idx:
        _, want = gt.direct_quadrature_oracle(btc_params, float(x[i]))
        assert abs(cdf.values[i] - want) <= 1e-7


def test_oracle_tail_probes(btc_params):
    k1 = gt.cumulant(btc_params, 1)
    sd = np.sqrt(gt.cumulant(btc_params, 2))
    _, lo = gt.direct_quadrature_oracle(btc_params, k1 - 15 * sd)
    _, hi = gt.direct_quadrature_oracle(btc_params, k1 + 15 * sd)
    assert lo < 1e-6
    assert 1.0 - hi < 1e-6


def test_oracle_symmetric_median(symmetric_params):
    _, cdf_at_zero = gt.direct_quadrature_oracle(symmetric_params, 0.0)
    assert abs(cdf_at_zero - 0.5) <= 1e-9


def test_grid_convergence(btc_params):
    # Doubling the spatial resolution moves the CDF by <= 1e-8 at 21 probes.
    k1 = gt.cumulant(btc_params, 1)
    sd = np.sqrt(gt.cumulant(btc_params, 2))
    probes = k1 + sd * np.linspace(-5, 5, 21)
    cdf_a = gt.cdf_table(btc_params, gt.build_grid(btc_params, GridConfig(m=2**14)))
    cdf_b = gt.cdf_table(btc_params, gt.build_grid(btc_params, GridConfig(m=2**15)))
    assert np.max(np.abs(cdf_a.evaluate(probes) - cdf_b.evaluate(probes))) <= 1e-8


def test_narrow_grid_raises(btc_params):
    with pytest.raises((NumericalFailure, ConfigError)):
        grid = gt.build_grid(btc_params, GridConfig(m=1024, width_sds=1.5))
        gt.cdf_table(btc_params, grid)


@pytest.mark.parametrize(
    "setting",
    [
        dict(freq_eps=0.0),
        dict(freq_eps=-1.0),
        dict(freq_eps=1.0),
        dict(freq_eps=2.0),
        dict(freq_eps=float("nan")),
        dict(width_sds=float("inf")),
        dict(width_sds=float("nan")),
        dict(min_half_width=float("inf")),
        dict(min_half_width=float("nan")),
    ],
)
def test_grid_settings_outside_their_domain_raise_config_error(btc_params, setting):
    with pytest.raises(ConfigError):
        gt.build_grid(btc_params, GridConfig(**setting))


# --------------------------------------------------------------------------
# half-spectrum inversion against the full symmetric sum
# --------------------------------------------------------------------------

# Asymmetric law with a bilateral-gamma (beta+ = 0) upper side; light enough
# that 256 spatial points pass the table invariants at 256 and 1024 nodes.
_ASYM = (0.1, 0.0, 0.9, 1.0, 1.0, 5.0, 5.0)


def _direct_sums(p, grid):
    """(pdf, cdf) as the O(m*n) Newton-Cotes sums over the whole frequency grid.

    pdf(x_j) = (1/2pi) sum_l w_l cf(xi_l) exp(-i x_j xi_l) on the n_freq
    nodes -Xi + l*dxi, and the CDF with the normal-reference subtraction.
    """
    n = grid.n_freq
    dxi = 2.0 * grid.freq_cutoff / (n - 1)
    xi = -grid.freq_cutoff + dxi * np.arange(n)
    w = newton_cotes_weights(n) * dxi
    k1, k2 = gt.cumulant(p, 1), gt.cumulant(p, 2)
    cf = gt.characteristic_function(p, xi)
    ref = np.exp(1j * k1 * xi - 0.5 * k2 * xi * xi)
    kernel = np.exp(-1j * np.outer(grid.x(), xi))
    pdf = (kernel @ (w * cf)).real / (2.0 * np.pi)
    corr = (kernel @ (w * (cf - ref) / (1j * xi))).real / (2.0 * np.pi)
    return pdf, ndtr((grid.x() - k1) / np.sqrt(k2)) - corr


@pytest.mark.parametrize("n_freq", [256, 1024])
@pytest.mark.parametrize("law", ["btc", "asym"])
def test_half_spectrum_matches_direct_sum(law, n_freq):
    # These grids alias for BTC (its raw values fail the table invariants),
    # so the raw inversions are compared; the sums themselves must agree.
    p = gt.BITCOIN_DAILY.params if law == "btc" else gt.validate_params(*_ASYM)
    grid = replace(gt.build_grid(p, GridConfig(m=256)), n_freq=n_freq)
    pdf, cdf = _direct_sums(p, grid)
    assert np.max(np.abs(_pdf_values(p, grid) - pdf)) <= 1e-12
    assert np.max(np.abs(_cdf_values(p, grid) - cdf)) <= 1e-12


@pytest.mark.parametrize("n_freq", [256, 1024])
def test_tables_match_direct_sum(n_freq):
    p = gt.validate_params(*_ASYM)
    grid = replace(gt.build_grid(p, GridConfig(m=256)), n_freq=n_freq)
    pdf, cdf = _direct_sums(p, grid)
    assert np.max(np.abs(gt.pdf_table(p, grid).values - np.maximum(pdf, 0.0))) <= 1e-12
    assert np.max(np.abs(gt.cdf_table(p, grid).values - np.clip(cdf, 0.0, 1.0))) <= 1e-12


# --------------------------------------------------------------------------
# the likelihood's gather: brackets and the monotone cubic's adjoint
# --------------------------------------------------------------------------

@pytest.mark.parametrize("law", ["btc", "eth"])
def test_brackets_match_searchsorted(law):
    p = gt.BITCOIN_DAILY.params if law == "btc" else gt.ETHEREUM_DAILY.params
    x = gt.build_grid(p, GridConfig(m=2**12)).x()
    rng = np.random.default_rng(12)
    q = np.concatenate([
        rng.uniform(x[0], x[-1], 20000),
        x,
        np.nextafter(x, -np.inf),
        np.nextafter(x, np.inf),
        [x[0], x[-1], x[0] - 1e-12, x[-1] + 1e-12, x[0] - 50.0, x[-1] + 50.0, -1e300, 1e300],
    ])
    i, s, outside = _brackets(x, q)
    want = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
    np.testing.assert_array_equal(i, want)
    assert np.array_equal(s, q - x[want])
    assert np.array_equal(outside, (q < x[0]) | (q > x[-1]))


@pytest.mark.parametrize("mirrored", [False, True])
def test_monotone_cubic_pullback_matches_central_differences(mirrored):
    # Node values on a non-uniform grid, with secants that change sign
    # (zero node slopes) but none near 0, one end on the 3*m0 branch of the
    # end rule and the other on its three-point branch (the mirror image
    # swaps them): no small move of y switches a slope rule, so central
    # differences apply.
    rng = np.random.default_rng(21)
    m = 60
    x = np.cumsum(rng.uniform(0.5, 1.5, m))
    y = np.sin(x / 3.0) + 0.05 * rng.uniform(-1.0, 1.0, m)
    y[:3] = (0.0, 0.1 * (x[1] - x[0]), -(x[2] - x[1]))
    if mirrored:
        x, y = -x[::-1], y[::-1]
    h = np.diff(x)
    mk, d = _pchip_slopes(y, h)[:2]
    assert np.min(np.abs(mk)) > 1e-3
    assert np.count_nonzero(d[1:-1] == 0.0) >= 3
    ends = [_pchip_edge(h[0], h[1], mk[0], mk[1]), _pchip_edge(h[-1], h[-2], mk[-1], mk[-2])]
    three_m0, three_point = ends[::-1] if mirrored else ends
    assert three_m0[1:] == (3.0, 0.0) and three_point[0] != 0.0 and three_point[2] != 0.0
    q = np.concatenate([rng.uniform(x[0], x[-1], 400), [x[0], x[0] + 0.2 * h[0], x[-1]]])
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, m - 2)
    brackets = (i, q - x[i], np.zeros(q.size, dtype=bool))
    g = rng.uniform(0.5, 2.0, q.size)
    grad = _monotone_cubic_pullback(_pchip_slopes(y, h), h, brackets, g)

    def weighted(v):
        return g @ _monotone_cubic(v, h, brackets)

    eps = 1e-6
    fd = np.array([(weighted(y + e) - weighted(y - e)) / (2 * eps) for e in eps * np.eye(m)])
    assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))
    assert np.all(grad != 0.0)


# --------------------------------------------------------------------------
# bilateral-gamma cross-check (independent of Fourier machinery)
# --------------------------------------------------------------------------

def test_bilateral_gamma_against_gamma_convolution():
    # With both stability indices at zero, Y - mu is the difference of two
    # gamma variables; the CDF then follows by conditioning on the negative
    # part.  This exercises the whole spectral stack against scipy's gamma
    # distribution with no shared code.  Intensities are kept comfortably
    # above 1 per side: the beta = 0 characteristic function decays only
    # like |xi| to the -(a+ + a-), and small intensities would need more
    # frequency nodes than the table budget allows.
    p = gt.validate_params(0.5, 0.0, 0.0, 2.5, 2.2, 0.5, 0.45)
    gp = gamma_dist(a=p.alpha_plus, scale=1.0 / p.lambda_plus)
    gm = gamma_dist(a=p.alpha_minus, scale=1.0 / p.lambda_minus)

    def cdf_conv(x):
        val, err = quad(
            lambda s: gm.pdf(s) * gp.cdf(x - p.mu + s), 0.0, np.inf, limit=400
        )
        assert err < 5e-8
        return val

    table = gt.cdf_table(p, gt.build_grid(p))
    for x in (-3.0, 0.0, 0.5, 2.0, 8.0):
        assert abs(table.evaluate(x) - cdf_conv(x)) <= 1e-7


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def test_table_csv_roundtrip_and_determinism(tmp_path, btc_tables):
    pdf, _ = btc_tables
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    gt.write_table_csv(pdf, a)
    gt.write_table_csv(pdf, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == pdf.grid.m + 1
    x_back = np.array([float(line.split(",")[0]) for line in lines[1:]])
    v_back = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(v_back, pdf.values)
    assert np.array_equal(x_back, pdf.grid.x())
