import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

import gts_tail as gt
from gts_tail import spectral
from gts_tail.core import PARAM_NAMES
from gts_tail.errors import ConfigError, NonFinite, NumericalFailure
from gts_tail.estimation import _LikelihoodPlan, _to_transformed
from gts_tail.spectral import (
    _BLOCK,
    GridConfig,
    _cdf_values,
    _fast_len_at_most,
    _freq_cutoff,
    _next_fast_len,
    _nodes_reaching,
    _stencil_pullback,
    _stencil_values,
    _stencil_weights,
    _stencil_windows,
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
    # Any integer type: numpy counts are counts too.
    cfg = GridConfig(m=np.int64(1000), max_n_freq=np.int32(2**22))
    assert gt.build_grid(btc_params, cfg).m == 1024


def test_grid_symmetric_for_symmetric_params(symmetric_params):
    grid = gt.build_grid(symmetric_params)
    assert grid.x_min == -grid.x_max


def test_grid_cutoff_is_always_bisected():
    assert "freq_cutoff" not in {f.name for f in fields(GridConfig)}


def test_grid_honors_min_half_width(btc_params):
    grid = gt.build_grid(btc_params, GridConfig(min_half_width=200.0))
    assert grid.x_max - grid.x_min >= 400.0 - 1e-9


def _fast_length_below(n):
    return next(k for k in range(n - 1, 0, -1) if sp_fft.next_fast_len(k) == k)


def test_grid_m_above_its_ceiling_raises_before_allocating(btc_params):
    # 1e11 points would need a 0.8 TB x-grid; 2**22 is the ceiling.  (At
    # the ceiling BTC's period needs 5.4 million transform points, over the
    # default budget.)
    assert gt.build_grid(btc_params, GridConfig(m=2**22, max_n_freq=2**23)).m == 2**22
    with pytest.raises(ConfigError, match="ceiling"):
        gt.build_grid(btc_params, GridConfig(m=2**22 + 1))
    with pytest.raises(ConfigError, match="ceiling"):
        gt.build_grid(btc_params, GridConfig(m=100_000_000_000))


# pow2: the node count the sizing by powers of two took for each preset.
@pytest.mark.parametrize("asset, pow2", [("btc", 2**14), ("eth", 2**13)])
def test_grid_takes_the_smallest_full_period_clearing_the_guard(asset, pow2):
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    # Half-width plus the 1e-9 tail radius: what one period must clear.
    guard = 0.5 * (grid.x_max - grid.x_min) + _tail_radius(p, 1e-9)
    n, N, dx = grid.n_freq, grid.n_fft, grid.dx
    # The period of N steps clears the guard; the next shorter fast FFT
    # length falls short.
    assert N * dx >= guard
    assert sp_fft.next_fast_len(N) == N
    assert _fast_length_below(N) * dx < guard
    # n is the smallest even count whose top node reaches the bisected
    # cutoff at the aligned step, and the grid's cutoff is that top node.
    dxi = 2.0 * np.pi / (N * dx)
    cutoff = _freq_cutoff(p, 1e-12)
    assert n % 2 == 0
    assert (n / 2 - 0.5) * dxi >= cutoff > (n / 2 - 1.5) * dxi
    assert grid.freq_cutoff == pytest.approx((n / 2 - 0.5) * dxi, rel=1e-14)
    # Fewer nodes than the power of two, and the transform need not reach m.
    assert n < pow2 and N != grid.m


# (n_freq, n_fft, freq_cutoff.hex()) of each preset's default grid: the
# tables, quantiles and draws of the paper's report are computed on these.
_DEFAULT_GRIDS = {
    "btc": (15378, 21168, "0x1.e2c07d3100ed9p+7"),
    "eth": (6258, 18480, "0x1.4d6bea326579bp+6"),
}


@pytest.mark.parametrize("asset", list(_DEFAULT_GRIDS))
def test_default_grid_sizes_are_pinned(asset):
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    assert (grid.n_freq, grid.n_fft, grid.freq_cutoff.hex()) == _DEFAULT_GRIDS[asset]
    assert grid.m == 2**14 and grid.dx == (grid.x_max - grid.x_min) / (grid.m - 1)


def test_fast_lengths_are_scipys():
    # The 11-smooth search picks scipy.fft.next_fast_len's length at every
    # n, and the longest fast length at most n is the last of those lengths.
    n = np.arange(1, 200_001)
    want = np.array([sp_fft.next_fast_len(int(k)) for k in n])
    assert np.array_equal([_next_fast_len(int(k)) for k in n], want)
    fast = want[want == n]
    below = fast[np.searchsorted(fast, n, side="right") - 1]
    assert np.array_equal([_fast_len_at_most(int(k)) for k in n], below)


@pytest.mark.parametrize("asset", list(_DEFAULT_GRIDS))
def test_explicit_node_count_keeps_the_default_period(asset):
    # An explicit n_freq takes the longest fast period whose nodes reach
    # the cutoff: the default grid's own, pinned above.
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    assert gt.build_grid(p, GridConfig(n_freq=grid.n_freq)) == grid


def test_grid_cutoff_is_the_top_node_of_its_aligned_step(btc_params):
    # The grid stores N; its cutoff is read off n_freq, N and dx, so any
    # field replaced keeps the step aligned.
    grid = gt.build_grid(btc_params, GridConfig(m=1024))
    moved = replace(grid, n_freq=2 * grid.n_freq)
    dxi = 2.0 * math.pi / (grid.n_fft * grid.dx)
    assert moved.freq_cutoff == (moved.n_freq / 2 - 0.5) * dxi
    assert np.array_equal(moved._inversion.xi, dxi * (0.5 + np.arange(grid.n_freq)))


def test_tables_and_a_plan_on_one_grid_share_its_inversion(btc_params, monkeypatch):
    # The grid builds its inversion once; a density table, a CDF table and a
    # likelihood plan on it all run that one object.
    built, ran = [], []
    init, call = spectral._Inversion.__init__, spectral._Inversion.__call__

    def counted_init(self, grid):
        built.append(self)
        init(self, grid)

    def counted_call(self, a):
        ran.append(self)
        return call(self, a)

    monkeypatch.setattr(spectral._Inversion, "__init__", counted_init)
    monkeypatch.setattr(spectral._Inversion, "__call__", counted_call)
    k1 = gt.cumulant(btc_params, 1)
    plan = _LikelihoodPlan(btc_params, np.array([k1 - 2.0, k1, k1 + 3.0]), GridConfig(m=2**12))
    g = plan.grid
    gt.pdf_table(btc_params, g)
    gt.cdf_table(btc_params, g)
    plan.neg_loglik(btc_params)
    plan.objective(gt.RestrictedKind.FULL)(_to_transformed(PARAM_NAMES, btc_params.as_tuple()))
    assert len(built) == 1 and built[0] is g._inversion
    assert len(ran) == 4 and all(inv is g._inversion for inv in ran)
    inv = g._inversion
    assert not any(a.flags.writeable for a in (inv.xi, inv.weights, inv.phase))


def test_grid_equality_and_hash_ignore_its_inversion(btc_params):
    # Two grids built apart for one law are equal, and hash equal, before
    # and after either builds its inversion, which each keeps for itself.
    a, b = gt.build_grid(btc_params), gt.build_grid(btc_params)
    assert a is not b and a == b and hash(a) == hash(b)
    inv = a._inversion
    assert a == b and hash(a) == hash(b)
    assert b._inversion is not inv and a._inversion is inv
    assert a == b and hash(a) == hash(b)
    assert np.array_equal(inv.phase, b._inversion.phase)


def _with_period(grid, n_fft):
    """``grid`` with its frequency step set by n_fft, and the fewest nodes
    that still reach its cutoff."""
    return replace(grid, n_fft=n_fft, n_freq=_nodes_reaching(grid.freq_cutoff, n_fft, grid.dx))


@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_half_the_chosen_nodes_alias_onto_the_density(asset):
    # Half the period at the same cutoff: half the nodes.
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p)
    halved = _with_period(grid, grid.n_fft // 2)
    assert halved.n_freq <= grid.n_freq // 2 + 2
    with pytest.raises(NumericalFailure, match="excursion"):
        gt.pdf_table(p, halved)


@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_doubling_the_chosen_nodes_moves_no_table(asset, btc_tables, eth_tables):
    # Twice the period at the same cutoff: twice the nodes.
    p = gt.BITCOIN_DAILY.params if asset == "btc" else gt.ETHEREUM_DAILY.params
    pdf, cdf = btc_tables if asset == "btc" else eth_tables
    doubled = _with_period(pdf.grid, 2 * pdf.grid.n_fft)
    assert doubled.n_freq >= 2 * pdf.grid.n_freq - 2
    assert np.max(np.abs(gt.pdf_table(p, doubled).values - pdf.values)) <= 1e-12
    # BTC's period clears its guard by only 0.05 %, and the aliases left
    # move its CDF by up to 2.9e-12 at the far end.
    assert np.max(np.abs(gt.cdf_table(p, doubled).values - cdf.values)) <= 5e-12


def test_explicit_n_freq_below_m_needs_only_the_aliasing_bound(eth_params):
    # ETH's automatic count is below the default m = 16384.  An explicit
    # count keeps the cutoff and takes the longest fast period at which its
    # nodes reach it: the automatic count clears the aliasing bound, and
    # the next smaller even count does not.
    n = gt.build_grid(eth_params).n_freq
    grid = gt.build_grid(eth_params, GridConfig(n_freq=n))
    guard = 0.5 * (grid.x_max - grid.x_min) + _tail_radius(eth_params, 1e-9)
    assert grid.n_freq == n < grid.m
    assert grid.n_fft * grid.dx >= guard
    assert grid.freq_cutoff >= _freq_cutoff(eth_params, 1e-12)
    with pytest.raises(ConfigError, match="aliasing bound"):
        gt.build_grid(eth_params, GridConfig(n_freq=n - 2))
    with pytest.raises(ConfigError, match="even count"):
        gt.build_grid(eth_params, GridConfig(n_freq=n + 1))
    # Twice the nodes at the same cutoff: about twice the period.
    doubled = gt.build_grid(eth_params, GridConfig(n_freq=2 * n))
    assert doubled.n_freq == 2 * n and doubled.n_fft >= 2 * grid.n_fft - 64


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


def test_cdf_evaluate_rejects_nan_and_clamps_infinities(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(NonFinite):
        cdf.evaluate(math.nan)
    with pytest.raises(NonFinite):
        cdf.evaluate(np.array([0.0, math.nan]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = cdf.evaluate(np.array([-math.inf, math.inf]))
    assert ends.tolist() == [cdf.values[0], cdf.values[-1]]


def test_interpolate_rejects_nan_and_is_zero_off_the_grid(btc_tables):
    # One read serves both tables: NaN raises, and infinite and far finite
    # points index the grid without a cast warning; off the grid the
    # density is 0 and the CDF takes its end values.
    pdf, cdf = btc_tables
    with pytest.raises(NonFinite):
        pdf.interpolate(math.nan)
    with pytest.raises(NonFinite):
        pdf.interpolate(np.array([0.0, math.nan]))
    far = np.array([-math.inf, -1e300, 1e300, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pdf.interpolate(far).tolist() == [0.0] * 4
        assert pdf.interpolate(math.inf) == 0.0
        ends = cdf.evaluate(far)
    assert ends.tolist() == [cdf.values[0]] * 2 + [cdf.values[-1]] * 2


def test_reads_across_blocks_equal_one_point_reads(btc_tables):
    # Three blocks and 17 points: infinities, far points, the grid ends and
    # exact nodes on both sides of every block edge, among points drawn
    # over the grid and past its ends.  No block may warn of a cast overflow.
    pdf, cdf = btc_tables
    grid = cdf.grid
    rng = np.random.default_rng(6)
    x = rng.uniform(grid.x_min - 1.0, grid.x_max + 1.0, 3 * _BLOCK + 17)
    x[::89] = grid.x()[rng.integers(0, grid.m, x[::89].size)]
    special = [-math.inf, math.inf, -1e300, 1e300, grid.x_min, grid.x_max, grid.x()[777]]
    for edge in range(_BLOCK, x.size, _BLOCK):
        x[edge - 3 : edge + 4] = rng.permutation(special)
    x[:2], x[-2:] = special[:2], special[2:4]
    bad = x.copy()
    bad[-5] = math.nan
    for read in (pdf.interpolate, cdf.evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(read(x), [read(float(v)) for v in x])
        with pytest.raises(NonFinite):
            read(bad)


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
        dict(m=float("nan")),
        dict(m=-5),
        dict(m=0),
        dict(m=True),
        dict(m=1000.5),
        dict(m=1024.0),
        dict(max_n_freq=float("nan")),
        dict(max_n_freq=float("inf")),
        dict(max_n_freq=4),
        dict(max_n_freq=False),
        dict(max_n_freq=2.0**17),
        dict(n_freq=float("nan")),
        dict(n_freq=6),
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
    nodes -Xi + l*dxi, and cdf(x_j) = 1/2 - (1/2pi) sum_l w_l cf(xi_l)
    exp(-i x_j xi_l)/(i xi_l), the Gil-Pelaez sum on nodes that skip 0.
    """
    n = grid.n_freq
    dxi = 2.0 * grid.freq_cutoff / (n - 1)
    xi = -grid.freq_cutoff + dxi * np.arange(n)
    w = newton_cotes_weights(n) * dxi
    cf = gt.characteristic_function(p, xi)
    kernel = np.exp(-1j * np.outer(grid.x(), xi))
    pdf = (kernel @ (w * cf)).real / (2.0 * np.pi)
    cdf = 0.5 - (kernel @ (w * cf / (1j * xi))).real / (2.0 * np.pi)
    return pdf, cdf


def _with_nodes(grid, n_freq):
    """``grid`` with n_freq nodes, its top node nearest its cutoff."""
    n_fft = round(math.pi * (n_freq - 1) / (grid.freq_cutoff * grid.dx))
    return replace(grid, n_fft=n_fft, n_freq=n_freq)


@pytest.mark.parametrize("n_freq", [256, 1024])
@pytest.mark.parametrize("law", ["btc", "asym"])
def test_half_spectrum_matches_direct_sum(law, n_freq):
    # These grids alias for BTC (its raw values fail the table invariants),
    # so the raw inversions are compared; the sums themselves must agree.
    # BTC's periods are 5 and 22 steps, so its inputs fold mod N.
    p = gt.BITCOIN_DAILY.params if law == "btc" else gt.validate_params(*_ASYM)
    grid = _with_nodes(gt.build_grid(p, GridConfig(m=256)), n_freq)
    pdf, cdf = _direct_sums(p, grid)
    assert np.max(np.abs(grid._inversion.pdf(p) - pdf)) <= 1e-12
    assert np.max(np.abs(_cdf_values(p, grid) - cdf)) <= 1e-12


@pytest.mark.parametrize("n_freq", [256, 1024])
def test_tables_match_direct_sum(n_freq):
    p = gt.validate_params(*_ASYM)
    grid = _with_nodes(gt.build_grid(p, GridConfig(m=256)), n_freq)
    pdf, cdf = _direct_sums(p, grid)
    assert np.max(np.abs(gt.pdf_table(p, grid).values - np.maximum(pdf, 0.0))) <= 1e-12
    assert np.max(np.abs(gt.cdf_table(p, grid).values - np.clip(cdf, 0.0, 1.0))) <= 1e-12


def _normal_reference_cdf(p, grid):
    """The CDF sum with the pole removed by the moment-matched normal law
    instead: Phi((x - k1)/sqrt(k2)) minus the inversion of (cf - cf_ref)/(i xi)."""
    inv = grid._inversion
    xi = inv.xi
    k1, k2 = gt.cumulant(p, 1), gt.cumulant(p, 2)
    ref = np.exp(-0.5 * k2 * xi * xi + 1j * (k1 - grid.x_min) * xi)
    h = (gt.characteristic_function(p, xi) * np.exp(-1j * grid.x_min * xi) - ref) / (1j * xi)
    return ndtr((grid.x() - k1) / math.sqrt(k2)) - inv(inv.weights * h)


_LAWS = {
    "btc": gt.BITCOIN_DAILY.params,
    "eth": gt.ETHEREUM_DAILY.params,
    "bilateral-gamma": gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6),
    "kobol": gt.kobol_params(0.0, 0.6, 0.8, 0.6, 0.5, 0.4),
    "asym": gt.validate_params(*_ASYM),
}


@pytest.mark.parametrize("cfg", [GridConfig(), GridConfig(m=256), GridConfig(m=1024, freq_eps=1e-6)])
@pytest.mark.parametrize("law", list(_LAWS))
def test_cdf_sum_on_half_nodes_needs_no_normal_reference(law, cfg):
    # No node sits on the pole, so the plain Gil-Pelaez sum needs no
    # reference law: it matches the normal-reference form to roundoff.
    p = _LAWS[law]
    grid = gt.build_grid(p, cfg)
    assert grid.n_freq >= 16
    assert np.max(np.abs(_cdf_values(p, grid) - _normal_reference_cdf(p, grid))) <= 5e-15


@pytest.mark.parametrize("freq_eps", [0.5, 1e-3])
@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_coarse_cutoff_cdf_tables_still_raise(asset, freq_eps):
    p = _LAWS[asset]
    with pytest.raises(NumericalFailure, match="not monotone"):
        gt.cdf_table(p, gt.build_grid(p, GridConfig(freq_eps=freq_eps)))


# (n_fft, n_freq) on the 256-point grid of _ASYM, whose cutoff is 32.3: a
# transform longer than the grid, one that the outputs wrap around twice
# (with the half-node sign flip), and one that the inputs fold onto (256 inputs
# on 64 points).
_REGIMES = {"n_fft>=m": (512, None), "n_fft<m": (100, None), "folded": (64, 512)}


def _regime_grid(regime):
    p = gt.validate_params(*_ASYM)
    grid = gt.build_grid(p, GridConfig(m=256))
    n_fft, n_freq = _REGIMES[regime]
    if n_freq is None:
        return p, _with_period(grid, n_fft)
    return p, replace(grid, n_fft=n_fft, n_freq=n_freq)


@pytest.mark.parametrize("regime", list(_REGIMES))
def test_aligned_inversion_matches_direct_sum(regime):
    p, grid = _regime_grid(regime)
    n_fft, m, half = grid.n_fft, grid.m, grid.n_freq // 2
    assert {"n_fft>=m": n_fft >= m, "n_fft<m": n_fft < m, "folded": half > n_fft}[regime]
    pdf, cdf = _direct_sums(p, grid)
    assert np.max(np.abs(grid._inversion.pdf(p) - pdf)) <= 1e-12
    assert np.max(np.abs(_cdf_values(p, grid) - cdf)) <= 1e-12


@pytest.mark.parametrize("regime", list(_REGIMES))
def test_inversion_transpose_is_its_adjoint(regime):
    # <A a, g> = <a, A^T g> for complex inputs a and real outputs g, with
    # <a, u> = Re sum(a * u) on the input side.
    _, grid = _regime_grid(regime)
    inv = grid._inversion
    rng = np.random.default_rng(17)
    for _ in range(3):
        a = rng.normal(size=inv.xi.size) + 1j * rng.normal(size=inv.xi.size)
        g = rng.normal(size=grid.m)
        lhs = float(np.sum(g * inv(a)))
        rhs = float(np.sum(inv.transpose(g) * a).real)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(g)) * np.sum(np.abs(a))


@pytest.mark.parametrize("regime", list(_REGIMES))
def test_inversion_pullback_matches_central_differences(regime):
    # The gradient of sum(g * pdf) in each natural field against central
    # differences of the values at relative steps of 1e-6, with _ASYM's
    # upper stability index moved off its limit 0.
    p, grid = _regime_grid(regime)
    p = replace(p, beta_plus=0.3)
    inv = grid._inversion
    g = np.random.default_rng(5).normal(size=grid.m)
    values, pullback = inv.pdf_evaluator()(p)
    assert np.array_equal(values, inv.pdf(p))
    got = pullback(g)
    for k, name in enumerate(PARAM_NAMES):
        h = 1e-6 * max(abs(getattr(p, name)), 1.0)
        up = inv.pdf(replace(p, **{name: getattr(p, name) + h}))
        down = inv.pdf(replace(p, **{name: getattr(p, name) - h}))
        want = float(np.sum(g * (up - down))) / (2.0 * h)
        assert got[k] == pytest.approx(want, rel=1e-6, abs=1e-8), name


# --------------------------------------------------------------------------
# the likelihood's gather: the degree-4 stencil and its adjoint
# --------------------------------------------------------------------------

@pytest.mark.parametrize("law", ["btc", "eth"])
def test_stencil_pullback_is_the_adjoint(law):
    # sum(g * S(v)) = sum(v * S^T(g)) for random node values v and point
    # weights g, with points in the bulk, on nodes, next to both grid ends
    # and off the grid (where the end stencils extrapolate).
    p = gt.BITCOIN_DAILY.params if law == "btc" else gt.ETHEREUM_DAILY.params
    grid = gt.build_grid(p, GridConfig(m=2**12))
    x = grid.x()
    rng = np.random.default_rng(12)
    q = np.concatenate([
        rng.uniform(x[0], x[-1], 3000),
        x[::37],
        x[:3] + 0.4 * grid.dx,
        x[-3:] - 0.4 * grid.dx,
        [x[0], x[-1], x[0] - 0.3 * grid.dx, x[-1] + 2.5 * grid.dx, x[0] - 50.0, x[-1] + 50.0],
    ])
    start, y = _stencil_windows(grid, q)
    index = start + np.arange(5)[:, None]
    assert index.min() == 0 and index.max() == grid.m - 1
    values = rng.normal(size=grid.m)
    g = rng.normal(size=q.size)
    weights = _stencil_weights(y)
    read = _stencil_values(values, start, weights)
    assert np.allclose((values[index] * weights).sum(axis=0), read,
                       rtol=1e-12, atol=1e-12 * np.abs(weights).sum(axis=0).max())
    grad = _stencil_pullback(index, weights * g, grid.m)
    assert grad.shape == (grid.m,)
    assert values @ grad == pytest.approx(g @ read, rel=1e-12)
    # Each unit vector: the pullback's column is the stencil's row.
    for j in (0, 1, 2, grid.m // 2, grid.m - 2, grid.m - 1):
        e = np.zeros(grid.m)
        e[j] = 1.0
        column = _stencil_values(e, start, weights)
        assert grad[j] == pytest.approx(g @ column, rel=1e-12, abs=1e-12)


def _exact_read(values, start, y) -> Fraction:
    """The degree-4 Lagrange interpolant through values[start:start + 5]
    at local position y, in exact rational arithmetic."""
    y = Fraction(y)
    total = Fraction(0)
    for j in range(5):
        term = Fraction(values[start + j])
        for k in range(5):
            if k != j:
                term *= (y - k) / (j - k)
        total += term
    return total


@pytest.mark.parametrize("law", ["btc", "eth"])
def test_reads_are_within_4_ulps_of_the_exact_interpolant(law, btc_tables, eth_tables):
    # Through monomial coefficients from an inverted Vandermonde matrix the
    # reads at these points were 49 to 71 ulps off; the product-form
    # weights keep them to a few rounding errors.  Points spread over the grid and drawn from
    # the law, read through both public methods.
    pdf, cdf = btc_tables if law == "btc" else eth_tables
    grid = cdf.grid
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 300), gt.sample(cdf, 300, 4).values])
    start, y = _stencil_windows(grid, x)
    for table, read in ((cdf, cdf.evaluate(x)), (pdf, pdf.interpolate(x))):
        for k in range(x.size):
            want = _exact_read(table.values, start[k], y[k])
            assert abs(Fraction(read[k]) - want) <= 4 * math.ulp(float(want)), (law, x[k])


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
