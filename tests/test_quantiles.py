import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gts_tail as gt
from gts_tail.errors import BracketFailure, MultipleRootsWarning, NoBracket, OutOfRange
from gts_tail.quantiles import (
    _MONOMIAL_ROWS,
    QuarticCoeffs,
    _derivative_sign_changes,
    _flagged,
    _monotone,
    quartic_for_level,
    solve_quartic_unit,
)
from gts_tail.spectral import _BLOCK, CdfTable, SpectralGrid


def _exact_lagrange_rows(o: int) -> list:
    """inv(V) for the Vandermonde matrix V[i][k] = (o + i)**k, by
    Gauss-Jordan elimination in exact rational arithmetic: row r holds the
    y**r coefficients of the Lagrange basis on the nodes o..o+4."""
    n = 5
    a = [[Fraction(o + i) ** k for k in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


@pytest.mark.parametrize("offset", [0, -1, -2, -3])
def test_stencil_rows_are_the_exact_lagrange_coefficients(offset):
    # Each coefficient is the exact rational rounded once: no inverted
    # matrix, whose last bits followed the BLAS kernel.
    want = tuple(tuple(float(v) for v in row) for row in _exact_lagrange_rows(offset))
    assert _MONOMIAL_ROWS[offset] == want


# --------------------------------------------------------------------------
# quartic solver
# --------------------------------------------------------------------------

def _poly(c, y):
    return (((c[4] * y + c[3]) * y + c[2]) * y + c[1]) * y + c[0]


def _bisect_oracle(c, steps=2000):
    lo, hi = 0.0, 1.0
    flo = _poly(c, lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = _poly(c, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_linear_case():
    assert abs(solve_quartic_unit(QuarticCoeffs(-0.25, 0.5, 0, 0, 0)) - 0.5) < 1e-12


def test_pure_quartic_case():
    assert abs(solve_quartic_unit(QuarticCoeffs(-0.0625, 0, 0, 0, 1)) - 0.5) < 1e-12


def test_no_bracket_raises():
    with pytest.raises(NoBracket):
        solve_quartic_unit(QuarticCoeffs(1.0, 0.5, 0, 0, 0))


def test_several_roots_warn_and_pick_nearest_to_seed():
    # (y - 0.2)(y - 0.5)(y - 0.8): three crossings; the linear seed is 0.5.
    c = QuarticCoeffs(-0.08, 0.66, -1.5, 1.0, 0.0)
    with pytest.warns(MultipleRootsWarning):
        y = solve_quartic_unit(c)
    assert abs(y - 0.5) <= 1e-12


def test_several_roots_polish_inside_the_chosen_root_bracket():
    # 0.01*(y - 0.2)(y - 0.5)(y - 0.8) - 1e-16*y**4: the tiny b4 puts a root
    # near 1e14 and costs np.roots 5e-9 on the others, so the seed needs a
    # polish; across all of [0, 1] bisection would walk to 0.8.
    c = QuarticCoeffs(-0.0008, 0.0066, -0.015, 0.01, -1e-16)
    with pytest.warns(MultipleRootsWarning):
        y = solve_quartic_unit(c)
    assert abs(y - 0.5) <= 1e-9


def test_random_monotone_brackets_match_bisection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # CDF-bracket-like quartic: increasing cubic-ish with a crossing.
        c = np.array(
            [
                -rng.uniform(0.1, 0.9),
                rng.uniform(0.5, 2.0),
                rng.normal(0, 0.2),
                rng.normal(0, 0.1),
                rng.normal(0, 0.05),
            ]
        )
        if (_poly(c, 0.0) > 0) == (_poly(c, 1.0) > 0):
            continue
        got = solve_quartic_unit(QuarticCoeffs(*c))
        want = _bisect_oracle(c)
        assert abs(got - want) <= 1e-12
        assert abs(_poly(c, got)) <= 1e-12


# --------------------------------------------------------------------------
# the monotone screen ahead of the wiggle sniff
# --------------------------------------------------------------------------

_COEF = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _quartics_near_the_screen(draw):
    """(b0, .., b4) with b1 free, or within 4 ulps of |b1| = S or of the
    screen's edge |b1| = (1 + 1e-12) S, where S = 2|b2| + 3|b3| + 4|b4|."""
    b0, b2, b3, b4 = (draw(_COEF) for _ in range(4))
    edge = draw(st.sampled_from([None, 1.0, 1.0 + 1e-12]))
    if edge is None:
        b1 = draw(_COEF)
    else:
        b1 = edge * (2.0 * abs(b2) + 3.0 * abs(b3) + 4.0 * abs(b4))
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            b1 = float(np.nextafter(b1, np.copysign(np.inf, ulps)))
        b1 *= draw(st.sampled_from([1.0, -1.0]))
    return (b0, b1, b2, b3, b4)


@settings(max_examples=1000, deadline=None)
@given(_quartics_near_the_screen())
@example((-0.08, 0.66, -1.5, 1.0, 0.0))
@example((0.0, 7.0, -1.0, -1.0, -1.0))
def test_monotone_screen_passes_no_quartic_with_a_derivative_sign_change(b):
    # The screen's margin keeps every sniffed derivative value at the sign of
    # b1, on Python floats (one level) and on arrays (a batch) alike.
    if _monotone(b):
        assert _derivative_sign_changes(b) == 0
        assert _derivative_sign_changes(np.array(b)[:, None])[0] == 0
    if _derivative_sign_changes(b) >= 2:
        assert not _monotone(b)


@settings(max_examples=300, deadline=None)
@given(st.lists(_quartics_near_the_screen(), min_size=1, max_size=30))
@example([(-0.08, 0.66, -1.5, 1.0, 0.0), (-0.25, 0.5, 0.0, 0.0, 0.0)])
def test_screened_routing_equals_sniff_only_routing(bs):
    c = np.array(bs).T
    assert np.array_equal(_flagged(c), np.flatnonzero(_derivative_sign_changes(c) >= 2))


# --------------------------------------------------------------------------
# quantile extraction
# --------------------------------------------------------------------------

def test_symmetric_median_is_zero(symmetric_tables):
    _, cdf = symmetric_tables
    assert abs(gt.quantile(cdf, 0.5)) <= 1e-8


def test_node_coincidence(btc_tables):
    _, cdf = btc_tables
    j = cdf.grid.m // 2
    alpha = float(cdf.values[j])
    assert gt.quantile(cdf, alpha) == pytest.approx(cdf.grid.x()[j], abs=1e-12)


def test_out_of_range(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(OutOfRange):
        gt.quantile(cdf, 1e-12)
    with pytest.raises(OutOfRange):
        gt.quantile(cdf, 1.0 - 1e-12)


def test_monotone_in_alpha(btc_tables):
    _, cdf = btc_tables
    levels = np.linspace(0.001, 0.999, 97)
    q = [gt.quantile(cdf, a) for a in levels]
    assert np.all(np.diff(q) > 0)


_LEVELS_11 = (1e-4, 1e-3, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 0.9999)


def test_round_trip_against_oracle(btc_params, btc_tables):
    _, cdf = btc_tables
    for a in (1e-3, 0.05, 0.5, 0.95, 0.999):
        x = gt.quantile(cdf, a)
        _, back = gt.direct_quadrature_oracle(btc_params, x)
        assert abs(back - a) <= 1e-8


def test_quartic_residuals(btc_tables):
    _, cdf = btc_tables
    for a in _LEVELS_11:
        x = gt.quantile(cdf, a)
        i, coeffs = quartic_for_level(cdf, a)
        y = (x - (cdf.grid.x_min + i * cdf.grid.dx)) / cdf.grid.dx
        assert abs(_poly(coeffs.as_array(), y)) <= 1e-12


def test_quartic_beats_linear_interpolation(btc_params, btc_tables):
    # Round-trip error through the true CDF: the degree-4 solve must stay
    # within one grid step of linear interpolation and beat it on at least
    # 95% of probe levels.
    _, cdf = btc_tables
    F = cdf.values
    x = cdf.grid.x()
    levels = np.linspace(0.002, 0.998, 21)
    wins = 0
    for a in levels:
        xq = gt.quantile(cdf, a)
        xl = float(np.interp(a, F, x))
        assert abs(xq - xl) <= cdf.grid.dx
        _, back_q = gt.direct_quadrature_oracle(btc_params, xq)
        _, back_l = gt.direct_quadrature_oracle(btc_params, xl)
        if abs(back_q - a) < abs(back_l - a):
            wins += 1
    assert wins >= int(0.95 * len(levels))


# --------------------------------------------------------------------------
# array levels against the one-level loop
# --------------------------------------------------------------------------

def _loop_quantile(cdf, a):
    """Reference: one level at a time through the public scalar solver."""
    i, coeffs = quartic_for_level(cdf, a)
    F = cdf.values
    if F[i] == a:
        y = 0.0
    elif F[i + 1] == a:
        y = 1.0
    else:
        y = solve_quartic_unit(coeffs)
    return cdf.grid.x_min + (i + y) * cdf.grid.dx


def _window(cdf, j, m):
    """The CDF table restricted to nodes j..j+m-1, so its edges carry mass."""
    g = cdf.grid
    x_min = g.x_min + j * g.dx
    grid = replace(g, x_min=x_min, x_max=x_min + (m - 1) * g.dx, m=m)
    return CdfTable(grid=grid, values=cdf.values[j : j + m].copy())


def _probe_levels(cdf, n_random, seed):
    """Random levels, exact node hits, and levels in the first/last 3 brackets."""
    F = cdf.values
    lo, hi = F[0] + 1e-9, F[-1] - 1e-9
    rng = np.random.default_rng(seed)
    inner = np.flatnonzero((F > lo) & (F < hi))
    edges = np.concatenate([(F[:3] + F[1:4]) / 2, (F[-4:-1] + F[-3:]) / 2])
    levels = np.concatenate(
        [
            rng.uniform(lo, hi, n_random),
            F[rng.choice(inner, 40, replace=False)],
            np.linspace(lo, F[inner[0]], 20)[1:],
            np.linspace(F[inner[-1]], hi, 20)[:-1],
            edges,
        ]
    )
    return levels[(levels > lo) & (levels < hi)]


@pytest.mark.parametrize("asset", ["btc", "eth"])
def test_array_quantile_equals_loop_reference(asset, btc_tables, eth_tables):
    _, cdf = btc_tables if asset == "btc" else eth_tables
    # The default tables' end brackets lie inside the level margin, so the
    # edge stencils (offsets 0, -1, -3) are probed on interior windows.
    F = cdf.values
    j = int(np.searchsorted(F, 0.02))
    k = int(np.searchsorted(F, 0.98))
    tables = [cdf, _window(cdf, j, 64), _window(cdf, k - 63, 64)]
    cases = [(t, _probe_levels(t, n, seed=17)) for t, n in zip(tables, (2000, 40, 40))]
    # More than two blocks of levels, shuffled, so the pass sorts them into
    # blocks and scatters the quantiles back across the block edges.
    many = np.random.default_rng(19).permutation(_probe_levels(cdf, 2 * _BLOCK + 300, seed=18))
    assert many.size > 2 * _BLOCK
    for table, levels in [*cases, (cdf, many)]:
        got = gt.quantile(table, levels)
        want = np.array([_loop_quantile(table, float(a)) for a in levels])
        assert got.shape == levels.shape
        assert np.array_equal(got, want)
        assert np.any(np.isin(levels, table.values))
        if table is not cdf:
            i = set((np.searchsorted(table.values, levels, side="right") - 1).tolist())
            m = table.grid.m
            assert {0, 1, 2, m - 4, m - 3, m - 2} <= i


def test_scalar_level_equals_array_path(btc_tables):
    # One level takes the one-level solve; it must give the array pass's bits
    # on interior brackets, node hits and the edge stencils alike.
    _, cdf = btc_tables
    j = int(np.searchsorted(cdf.values, 0.02))
    for table, n_random in ((cdf, 200), (_window(cdf, j, 64), 40)):
        levels = _probe_levels(table, n_random, seed=5)
        got = [gt.quantile(table, float(a)) for a in levels]
        assert got == gt.quantile(table, levels).tolist()
        assert np.any(np.isin(levels, table.values))


def test_scalar_level_returns_float_and_keeps_shape(btc_tables):
    _, cdf = btc_tables
    x = gt.quantile(cdf, 0.25)
    assert type(x) is float
    assert x == gt.quantile(cdf, np.array([0.25]))[0]
    grid = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert gt.quantile(cdf, grid).shape == (2, 2)
    assert gt.quantile(cdf, np.array([])).shape == (0,)


def test_array_with_one_level_out_of_range_raises(btc_tables):
    _, cdf = btc_tables
    levels = np.array([0.1, 0.5, 1e-12, 0.9])
    with pytest.raises(OutOfRange, match="1e-12"):
        gt.quantile(cdf, levels)
    with pytest.raises(OutOfRange):
        gt.quantile(cdf, np.array([0.5, np.nan]))


def _unit_table(F):
    """A CdfTable holding F on the nodes 0, 1, .., len(F) - 1."""
    m = len(F)
    grid = SpectralGrid(x_min=0.0, x_max=m - 1.0, m=m, dx=1.0, n_freq=16, n_fft=16)
    return CdfTable(grid=grid, values=np.asarray(F, dtype=float))


def test_array_with_one_broken_bracket_raises():
    # Level 0.45 lands on bracket 3, whose upper value is NaN, so the strict
    # bracket check F_i < alpha < F_i+1 fails there.
    table = _unit_table([0.1, 0.2, 0.3, 0.4, np.nan, 0.6, 0.7, 0.8, 0.9])
    with pytest.raises(BracketFailure, match="bracket 3"):
        gt.quantile(table, np.array([0.25, 0.45, 0.75]))
    # Two broken brackets whose levels fall in different blocks: the lower
    # one is named, as a one-block pass over all the levels names it.
    # Sorted, bracket 9's levels (from F_9 up past the NaN at node 10) lie in
    # the first block, and bracket 49's in the second.
    F = np.linspace(0.01, 0.99, 64)
    F[[10, 50]] = np.nan
    levels = np.linspace(0.02, 0.98, 2 * _BLOCK + 17)
    assert F[11] < levels[_BLOCK - 1] and levels[_BLOCK] < F[49]
    with pytest.raises(BracketFailure, match="bracket 9:"):
        gt.quantile(_unit_table(F), np.random.default_rng(3).permutation(levels))


def test_array_quantile_routes_wiggly_bracket_through_warning():
    # Five nodes of 0.5 + s*(y - 0.6)(y - 0.75)(y - 0.9) at y = -2..2: the
    # table is increasing but its degree-4 interpolant crosses 0.5 three
    # times on the bracket [0, 1] (nodes 4 and 5); the linear seed (0.976)
    # is nearest the crossing at 0.9.
    cubic = np.array([-20.735, -5.32, -0.405, 0.01, 1.925])
    table = _unit_table(np.concatenate([[0.1, 0.2], 0.5 + 0.01 * cubic, [0.7, 0.9]]))
    levels = np.array([0.15, 0.5, 0.6])
    with pytest.warns(MultipleRootsWarning):
        got = gt.quantile(table, levels)
    assert abs(got[1] - 4.9) <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleRootsWarning)
        want = [_loop_quantile(table, float(a)) for a in levels]
    assert np.array_equal(got, want)


def test_multiple_roots_polish_stays_at_the_chosen_crossing():
    # Five nodes of 0.5 + 0.02*(y - 0.2)(y - 0.5)(y - 0.8) at y = -2..2: on
    # the bracket [4, 5] the interpolant crosses 0.5 at 4.2, 4.5 and 4.8,
    # and the linear seed is nearest 4.5.  Its b4 is a rounding residue:
    # nonzero, but below the rounding of the other terms on [0, 1].
    y = np.arange(-2.0, 3.0)
    table = _unit_table(np.concatenate([[0.1, 0.2], 0.5 + 0.02 * (y - 0.2) * (y - 0.5) * (y - 0.8), [0.7, 0.9]]))
    i, coeffs = quartic_for_level(table, 0.5)
    c = coeffs.as_array()
    assert i == 4 and 0.0 < abs(c[4]) <= np.finfo(float).eps * np.sum(np.abs(c[:4]))
    with pytest.warns(MultipleRootsWarning):
        got = gt.quantile(table, 0.5)
    assert abs(got - 4.5) <= 1e-9
    with pytest.warns(MultipleRootsWarning):
        assert gt.quantile(table, np.array([0.15, 0.5]))[1] == got


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sample_equals_per_draw_loop(btc_tables):
    _, cdf = btc_tables
    n, seed = 2000, 2025
    u = np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
    u = np.clip(u, cdf.values[0] + 2e-9, cdf.values[-1] - 2e-9)
    want = np.array([_loop_quantile(cdf, float(a)) for a in u])
    assert gt.sample(cdf, n, seed).values.tobytes() == want.tobytes()


def test_sampling_deterministic(btc_tables):
    _, cdf = btc_tables
    a = gt.sample(cdf, 200, seed=11)
    b = gt.sample(cdf, 200, seed=11)
    assert np.array_equal(a.values, b.values)
    c = gt.sample(cdf, 200, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_sample_mean_clt_bound(btc_params, btc_sample_100k):
    k1 = gt.cumulant(btc_params, 1)
    k2 = gt.cumulant(btc_params, 2)
    n = btc_sample_100k.n
    assert abs(btc_sample_100k.values.mean() - k1) <= 4.0 * np.sqrt(k2 / n)


def test_sample_passes_ks_against_generating_table(btc_tables):
    # 1% critical value 1.628/sqrt(n); all ten fixed seeds must clear it.
    _, cdf = btc_tables
    n = 100_000
    crit_1pct = 1.628 / np.sqrt(n)
    for seed in range(10):
        s = gt.sample(cdf, n, seed=seed)
        d, _ = gt.gof_ks(s, cdf)
        assert d < crit_1pct


def test_sample_requires_positive_n(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(OutOfRange):
        gt.sample(cdf, 0, seed=1)


def test_sample_rejects_a_negative_seed(btc_tables):
    _, cdf = btc_tables
    with pytest.raises(OutOfRange, match="seed"):
        gt.sample(cdf, 3, seed=-1)


def test_sample_takes_integer_n_and_seed(btc_tables):
    # A float is not truncated: it raises, as range(2.5) does.
    _, cdf = btc_tables
    with pytest.raises(TypeError):
        gt.sample(cdf, 2.5, seed=1)
    with pytest.raises(TypeError):
        gt.sample(cdf, 3, seed=1.7)
    want = gt.sample(cdf, 3, seed=1).values
    assert np.array_equal(gt.sample(cdf, np.int64(3), seed=np.uint32(1)).values, want)


def _sample_digest(env_extra: dict) -> str:
    """sha256 of sample(BTC default table, 20000, seed 7) and of the
    tables' reads at those draws (``evaluate``, ``interpolate`` and
    ``log_likelihood``), in a new interpreter with env_extra added to its
    environment."""
    root = os.path.dirname(os.path.dirname(gt.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    script = (
        "import hashlib, gts_tail as gt\n"
        "p = gt.BITCOIN_DAILY.params\n"
        "grid = gt.build_grid(p)\n"
        "cdf, pdf = gt.cdf_table(p, grid), gt.pdf_table(p, grid)\n"
        "data = gt.sample(cdf, 20000, 7)\n"
        "h = hashlib.sha256(data.values.tobytes())\n"
        "h.update(cdf.evaluate(data.values).tobytes())\n"
        "h.update(pdf.interpolate(data.values).tobytes())\n"
        "h.update(gt.log_likelihood(p, data).hex().encode())\n"
        "print(h.hexdigest())\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env_extra},
        timeout=600,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def test_sample_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel from the CPU unless OPENBLAS_CORETYPE names
    # one; the quartic coefficients and the table reads are fixed-order
    # sums, so neither the draws nor the reads may follow it.  Under
    # another BLAS the variable is ignored.
    assert _sample_digest({}) == _sample_digest({"OPENBLAS_CORETYPE": "Prescott"})
