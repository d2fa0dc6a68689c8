"""Density and CDF tables by Fourier inversion of the characteristic function.

The density on a uniform x-grid comes from the truncated inversion integral

    f(x) = (1/2pi) * integral_{-Xi..Xi} cf(xi) exp(-i x xi) dxi

with the frequency samples weighted by a closed Newton-Cotes rule of order 4
(the trapezoid rule with corrected weights on the four nodes at each end,
which is composite Simpson with a 3/8 patch averaged end for end) and the
oscillatory sum over all grid points evaluated in one shot by an FFT.  The
CDF is the same sum on the Gil-Pelaez integrand

    F(x) = 1/2 - (1/2pi) * PV integral cf(xi)/(i xi) exp(-i x xi) dxi.

No node sits on its pole at 0: the nodes are the half-nodes (k + 1/2) dxi,
and by Poisson summation the unit-weight sum over that whole lattice is

    F(x) - sum_{j >= 1} (-1)^j [(1 - F(x + j P)) - F(x - j P)],   P = 2pi/dxi,

the CDF plus tail masses a period and more away, which the density's
aliasing guard already bounds.

Both integrands are Hermitian, the frequency grid is symmetric with an even
node count n, and the Newton-Cotes weights are palindromic, so each weighted
sum equals (1/pi) * Re of its positive half alone: n/2 nodes starting at
xi = dxi/2.  Only that half is sampled.  The step is aligned with the
x-grid, dxi = 2*pi/(N*dx) for a fast FFT length N, so the half sum at every
grid point is a phase times one plain length-N DFT of the samples (folded
mod N when n/2 > N, read cyclically when m > N).  N dx is the spatial period
that keeps the density's aliases off the grid, and n is the fewest even
nodes whose top one reaches the cutoff; neither need reach m.  One rule,
`_sized_grid`, sizes the tables' grids and a fit's likelihood plans.  The
samples cf(xi) exp(-i x_min xi) come from a real-arithmetic kernel that
folds the grid phase into the characteristic function's own cos/sin pair;
the public complex exponent stays the reference it is tested against.
Tables and the likelihood share one inversion (`_Inversion`, on
numpy.fft, so neither loads scipy) and read values between nodes with one
local degree-4 stencil, Lagrange weights in product form with no BLAS
call; a grid that stays fixed while the law changes (a likelihood plan)
builds both once, and carries a gradient back through them by their
transposes.  The inversion's output phase belongs to the grid: built on
the first inversion and kept with it, so a density and a CDF table on one
grid share it.  Table reads take their points in blocks of `_BLOCK`, so a
long array of points allocates no temporary longer than a block.  `frft`, the
fractional FFT at any spacing, is public and tested but no table needs it.

A slow adaptive-quadrature oracle (`direct_quadrature_oracle`) evaluates the
one-sided forms of the same inversion integrals at a single point for
verification; it shares no code with the tables' DFT inversion.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._textio import text_stream
from .core import (
    GTSParams,
    _log_modulus,
    _mgf_exponent_values,
    _shifted_cf,
    _shifted_cf_pullback,
    characteristic_function,
    cumulant,
)
from .errors import ConfigError, ConvergenceFailure, NonFinite, NumericalFailure, SizeError

__all__ = [
    "GridConfig",
    "SpectralGrid",
    "DensityTable",
    "CdfTable",
    "frft",
    "newton_cotes_weights",
    "build_grid",
    "pdf_table",
    "cdf_table",
    "direct_quadrature_oracle",
    "write_table_csv",
]

# Negative density excursions beyond this bound indicate a bad grid rather
# than roundoff; anything milder is clamped to zero.
_NEG_DENSITY_HARD = 1e-9
_NORMALIZATION_TOL = 1e-6
_MONOTONE_SLACK = 1e-10
_ENDPOINT_TOL = 1e-6
# Tail mass past the Chernoff radius that a grid's aliasing bound clears.
_ALIAS_MASS = 1e-9
# Ceiling on GridConfig.m: a table of 2**22 points is 32 MiB, and its
# inversion holds a few complex arrays of about that length.
_MAX_M = 2**22
# Points per block of a table read or a quantile batch: each temporary of a
# block is 32 KiB, small enough for the allocator to reuse instead of mapping
# fresh pages for every array of a 20 000-point call.
_BLOCK = 4096


# --------------------------------------------------------------------------
# fractional FFT
# --------------------------------------------------------------------------

def frft(seq, delta: float) -> np.ndarray:
    """G(k) = sum_j seq[j] * exp(-2 pi i j k delta) for k = 0..n-1.

    Evaluates the sum for arbitrary real spacing ``delta`` and any length
    n >= 1 in O(n log n) by Bluestein's identity 2jk = j**2 + k**2 - (k-j)**2:
    G is the output chirp times the linear convolution of the chirped inputs
    with a conjugate-chirp kernel, on a fast FFT length at or above 2n - 1.
    The tables do not need it: their frequency step is aligned with the
    x-grid, which makes their sums plain DFTs.

    Raises SizeError for an empty or non-1-D sequence, and NonFinite for a
    NaN or infinite entry or ``delta``.
    """
    a = np.asarray(seq, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise SizeError(f"frft needs a nonempty 1-D sequence, got shape {a.shape}")
    if not (math.isfinite(delta) and np.isfinite(a).all()):
        raise NonFinite(f"frft needs a finite sequence and spacing, got delta={delta!r}")
    n = a.shape[0]
    size = _next_fast_len(2 * n - 1)
    t = np.arange(n, dtype=float)
    chirp = np.exp(-1j * np.pi * delta * (t * t))
    # Kernel conj(chirp) at lags -(n-1)..n-1, negative lags wrapped to the end.
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = np.conj(chirp)
    kernel[size - n + 1 :] = np.conj(chirp[1:][::-1])
    return chirp * np.fft.ifft(np.fft.fft(a * chirp, size) * np.fft.fft(kernel))[:n]


# End weights of the order-4 rule, written as the Simpson and 3/8 averages
# they come from: three of them round one ulp below the literals 17/48,
# 59/48 and 43/48, and every table is computed with these bits.
_NC_ENDS = (
    0.5 * (1.0 / 3.0 + 3.0 / 8.0),
    0.5 * (4.0 / 3.0 + 9.0 / 8.0),
    0.5 * (2.0 / 3.0 + 9.0 / 8.0),
    0.5 * (4.0 / 3.0 + (1.0 / 3.0 + 3.0 / 8.0)),
)


@lru_cache(maxsize=32)
def _newton_cotes_cached(n: int) -> tuple:
    if n < 8:
        raise SizeError(f"need at least 8 quadrature nodes, got {n}")
    w = np.ones(n)
    w[:4] = _NC_ENDS
    w[-4:] = _NC_ENDS[::-1]
    w.setflags(write=False)
    return (w,)


def newton_cotes_weights(n: int) -> np.ndarray:
    """Closed Newton-Cotes weights of order 4 on n >= 8 nodes, palindromic.

    Weights are for unit spacing; multiply by the actual step.  Every
    interior weight is 1 and the four at each end are 17/48, 59/48, 43/48
    and 49/48 (to the ulp, see ``_NC_ENDS``).  This is composite Simpson
    closed by a 3/8 patch and averaged with its mirror image, bit for bit
    on every even n (all frequency node counts are even); odd n gets the
    same end-corrected trapezoid rule.  Cubics integrate exactly.
    """
    return _newton_cotes_cached(int(n))[0]


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    """User-tunable knobs for table construction.

    m:              number of spatial points, an integer from 1 to 2**22
                    (rounded up to a power of two, minimum 256)
    width_sds:      half-width of the x-range in standard deviations
    min_half_width: absolute floor for the half-width (percent)
    freq_eps:       |cf| threshold defining the frequency cutoff
    n_freq:         frequency node count override (even, at least 8, any
                    size whose nodes reach the cutoff with a period that
                    clears the aliasing bound, also below m); None selects
                    the fewest nodes that reach the cutoff on the shortest
                    fast period above that bound
    max_n_freq:     budget on frequency nodes and on the transform length,
                    an integer of at least 8; slowly decaying characteristic
                    functions (stability indices near zero) can demand more
                    nodes than any sane budget, which raises ConfigError
    """

    m: int = 2**14
    width_sds: float = 20.0
    min_half_width: float = 0.0
    freq_eps: float = 1e-12
    n_freq: int | None = None
    max_n_freq: int = 2**22


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform evaluation grid plus the frequency discretization behind it.

    The frequency step is dxi = 2 pi/(n_fft dx): the spatial period is
    n_fft grid steps, and each inversion one length-n_fft FFT.  The n_freq
    frequency nodes are -Xi + l*dxi, symmetric about 0, with
    Xi = freq_cutoff = (n_freq/2 - 1/2) dxi.
    """

    x_min: float
    x_max: float
    m: int
    dx: float
    n_freq: int
    n_fft: int

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.m)

    @property
    def freq_cutoff(self) -> float:
        """The top frequency node Xi."""
        return (0.5 * self.n_freq - 0.5) * (2.0 * math.pi / (self.n_fft * self.dx))

    @cached_property
    def _phase(self) -> np.ndarray:
        """exp(-i pi j/n_fft)/pi at the m grid points j, the output phase of
        every inversion on this grid (see `_Inversion`): built on first use,
        read-only, and freed with the grid.  Not a field, so it takes no part
        in equality or hashing."""
        phase = np.exp((-1j * np.pi / self.n_fft) * np.arange(self.m)) / np.pi
        phase.flags.writeable = False
        return phase


def _next_pow2(n: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, n))))


def _nodes_reaching(cutoff: float, n_fft: int, dx: float) -> int:
    """The smallest even node count, at least 8, whose top node
    (n/2 - 1/2) dxi reaches ``cutoff`` at dxi = 2 pi/(n_fft dx)."""
    return 2 * max(4, math.ceil(cutoff * n_fft * dx / (2.0 * math.pi) + 0.5))


@lru_cache(maxsize=None)
def _fast_lengths(bits: int) -> tuple:
    """The 11-smooth numbers up to 2**bits, ascending: the lengths that
    pocketfft, behind numpy.fft and scipy.fft alike, transforms fastest."""
    lengths = [1]
    for prime in (2, 3, 5, 7, 11):
        grown = []
        for k in lengths:
            while k <= 1 << bits:
                grown.append(k)
                k *= prime
        lengths = grown
    return tuple(sorted(lengths))


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer at least n (n >= 1): the length
    scipy.fft.next_fast_len picks for a complex transform."""
    lengths = _fast_lengths((n - 1).bit_length())
    return lengths[bisect_left(lengths, n)]


def _fast_len_at_most(n: int) -> int:
    """The largest fast FFT length at most n (n >= 1)."""
    lengths = _fast_lengths((n - 1).bit_length())
    return lengths[bisect_right(lengths, n) - 1]


def _freq_cutoff(p: GTSParams, eps: float) -> float:
    """Smallest Xi with |cf(Xi)| < eps, found by doubling plus bisection.

    |cf| = exp(Re psi) is strictly decreasing in |xi| on the admissible
    domain, so bisection is valid.
    """
    target = math.log(eps)
    logcf = _log_modulus(p)
    hi = 1.0
    for _ in range(64):
        if logcf(hi) < target:
            break
        hi *= 2.0
    else:
        raise ConfigError(
            "characteristic function decays too slowly to reach freq_eps"
        )
    # Resolve the cutoff to machine precision: downstream quantities must be
    # smooth functions of the parameters (finite-difference Hessians of the
    # likelihood difference them at relative steps of 1e-4).
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if logcf(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


# Chernoff thetas as fractions of each side's tempering rate, and the tail
# (+1 upper, -1 lower) each of _tail_radius's 2 x 40 thetas bounds.
_RADIUS_STRIP = np.linspace(0.30, 0.995, 40)
_RADIUS_SIGNS = np.repeat((1.0, -1.0), _RADIUS_STRIP.size)


def _tail_radius(p: GTSParams, eps: float) -> float:
    """Distance t from kappa_1 with P(|Y - kappa_1| > t) < eps (Chernoff).

    Minimizes the exponential-moment bound exp(mgf(theta) - theta*a) over a
    theta grid inside the tempering strip, separately per tail.
    """
    k1 = cumulant(p, 1)
    n = _RADIUS_STRIP.shape[0]
    # Both tails in one call, the upper on the first n thetas:
    # P(sign*(Y-k1) > t) <= exp(mgf(sign*th) - th*(sign*k1) - th*t)
    thetas = np.concatenate((p.lambda_plus * _RADIUS_STRIP, p.lambda_minus * _RADIUS_STRIP))
    m = _mgf_exponent_values(p, _RADIUS_SIGNS * thetas)
    t = (m - thetas * _RADIUS_SIGNS * k1 - math.log(eps)) / thetas
    return max(float(t[:n].min()), float(t[n:].min()), 0.0)


def _grid_count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, else ConfigError (a float, NaN or bool too)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < least:
        raise ConfigError(f"grid {name} must be an integer of at least {least}, got {value!r}")
    return operator.index(value)


def _sized_grid(
    p: GTSParams, cfg: GridConfig, headroom: float = 1.0, period: float = 1.0
) -> SpectralGrid:
    """build_grid(p, cfg), or a likelihood plan's grid with automatic node
    counts that reach ``headroom`` times the cutoff on ``period`` times the
    guard.  Over the budget the plan takes the budget's nodes with the
    period P and top node Xi at which P/guard = Xi/cutoff, so p keeps equal
    room from both bounds of ``_bound_crossed``; p's own grid must fit."""
    if not 0.0 < cfg.freq_eps < 1.0:
        raise ConfigError(f"freq_eps must lie in (0, 1), got {cfg.freq_eps}")
    if not (math.isfinite(cfg.width_sds) and math.isfinite(cfg.min_half_width)):
        raise ConfigError("grid width_sds and min_half_width must be finite")
    m = _grid_count("m", cfg.m, 1)
    if m > _MAX_M:
        raise ConfigError(f"grid m={m} is over the ceiling of {_MAX_M} spatial points")
    max_n_freq = _grid_count("max_n_freq", cfg.max_n_freq, 8)
    m = max(256, _next_pow2(m))
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    half_width = max(cfg.width_sds * math.sqrt(k2), cfg.min_half_width)
    if not half_width > 0.0:
        raise ConfigError("grid half-width must be positive")
    x_min = k1 - half_width
    x_max = k1 + half_width
    dx = (x_max - x_min) / (m - 1)

    cutoff = _freq_cutoff(p, cfg.freq_eps)

    # Aliasing bound: the copies of the density one period N dx away from
    # kappa_1 must clear the grid.  The weights are 1 on every interior node
    # (the end corrections touch four nodes a side), so they add no copies
    # at half the period.
    guard = half_width + _tail_radius(p, _ALIAS_MASS)
    if cfg.n_freq is None:
        n_fft = _next_fast_len(math.ceil(guard / dx))
        n_freq = _nodes_reaching(cutoff, n_fft, dx)
    else:
        n_freq = _grid_count("n_freq", cfg.n_freq, 8)
        if n_freq % 2:
            raise ConfigError(f"n_freq must be an even count of at least 8, got {n_freq}")
        n_fft = _fast_len_at_most(max(1, math.floor(math.pi * (n_freq - 1) / (cutoff * dx))))
        if n_fft * dx < guard:
            raise ConfigError(
                f"n_freq={n_freq} below the aliasing bound for this parameter set: its "
                f"period of {n_fft} steps falls short of the {guard / dx:.1f} steps to clear; "
                "results would fold back onto the grid"
            )
    if max(n_freq, n_fft) > max_n_freq:
        raise ConfigError(
            f"frequency grid needs {n_freq} nodes and a {n_fft}-point transform, over the "
            f"budget {max_n_freq}; the characteristic function decays too slowly for "
            "this inversion"
        )
    if (headroom, period) != (1.0, 1.0):
        n_fft = _next_fast_len(math.ceil(period * guard / dx))
        n_freq = _nodes_reaching(headroom * cutoff, n_fft, dx)
        budget = max_n_freq - max_n_freq % 2
        if n_freq > budget:
            # The budget's nodes span P Xi = pi (budget - 1).
            balanced = math.sqrt(math.pi * (budget - 1) * guard / cutoff)
            n_freq, n_fft = budget, _next_fast_len(math.ceil(balanced / dx))
    return SpectralGrid(x_min, x_max, m, dx, n_freq, n_fft)


def _bound_crossed(grid: SpectralGrid, p: GTSParams, freq_eps: float) -> str | None:
    """None where ``grid`` holds the law p, else the bound p is past:
    "truncation" (|cf| above freq_eps at the top node) or "aliasing" (one
    period short of the farther grid end from kappa_1 plus its tail radius)."""
    if not _log_modulus(p)(grid.freq_cutoff) <= math.log(freq_eps):
        return "truncation"
    k1 = cumulant(p, 1)
    reach = max(grid.x_max - k1, k1 - grid.x_min) + _tail_radius(p, _ALIAS_MASS)
    return None if grid.n_fft * grid.dx >= reach else "aliasing"


def build_grid(p: GTSParams, cfg: GridConfig = GridConfig()) -> SpectralGrid:
    """Size the spatial and frequency grids for a parameter set.

    The x-range is centered on the mean kappa_1 with half-width
    max(width_sds * sqrt(kappa_2), min_half_width).  The frequency cutoff Xi
    is the bisection solution of |cf(Xi)| = freq_eps.  The frequency step is
    dxi = 2 pi/(N dx), which makes each inversion one plain length-N FFT.
    The sampled transform repeats with spatial period 2 pi/dxi = N dx, so N
    is the fast FFT length at or above guard/dx, where the guard is the grid
    half-width plus a Chernoff tail radius: the density's aliases one period
    away then clear the grid.  The node count n_freq is the smallest even
    count whose top node (n_freq/2 - 1/2) dxi reaches Xi, and the grid's
    freq_cutoff is that top node.  It may be below m, and N may be below m
    or below n_freq/2.  An explicit n_freq keeps Xi: N is the longest fast
    length at which its nodes still reach Xi, and its period must clear the
    guard.

    Raises ConfigError when freq_eps is not in (0, 1), a width setting is
    not finite, m is not an integer from 1 to 2**22, max_n_freq is not an
    integer of at least 8, an explicit n_freq is not an even integer of at
    least 8 or is below the aliasing bound, or the grid needs more than
    max_n_freq nodes or transform points.
    """
    return _sized_grid(p, cfg)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _stencil_start(i, m: int):
    """First stencil node of brackets i on m nodes: two below, shifted inward at the ends."""
    return np.clip(i - 2, 0, m - 5)


def _stencil_windows(grid: SpectralGrid, xq: np.ndarray):
    """(start, y): each point's stencil start and its position in the
    stencil's local coordinates, where the nodes sit at 0, 1, .., 4.
    Points off the grid extrapolate the end stencil."""
    pos = (xq - grid.x_min) / grid.dx
    start = _stencil_start(np.floor(pos).astype(int), grid.m)
    return start, pos - start


def _stencil_weights(y: np.ndarray) -> np.ndarray:
    """The (5, n) Lagrange weights prod_{k != j} (y - k)/(j - k) of nodes
    j = 0..4 at local positions y, in product form: backward stable, with
    no BLAS call, so the same few rounding errors on every machine."""
    d1, d2, d3, d4 = y - 1.0, y - 2.0, y - 3.0, y - 4.0
    y01, d34 = y * d1, d3 * d4
    y012, d234 = y01 * d2, d2 * d34
    w = np.empty((5, *y.shape))
    for row, a, b, den in ((0, d1, d234, 24.0), (1, y, d234, -6.0), (2, y01, d34, 4.0),
                           (3, y012, d4, -6.0), (4, y012, d3, 24.0)):
        np.multiply(a, b, out=w[row])
        w[row] /= den
    return w


def _stencil_values(values: np.ndarray, start: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The stencil read of ``values``: the left-to-right sum
    w0 v[start] + w1 v[start + 1] + .. + w4 v[start + 4]."""
    out = weights[0] * values[start]
    for j in range(1, 5):
        out += weights[j] * values[j:][start]
    return out


def _stencil_pullback(start: np.ndarray, weights: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
    """The gradient in the m node values of sum(g * _stencil_values(values,
    start, weights)): the read is linear in the values, so its adjoint adds
    each point's weights, times g, onto its window."""
    return np.bincount((start + np.arange(5)[:, None]).ravel(), (weights * g).ravel(), m)


def _stencil_read(table, x):
    """(scalar, points, reads): ``x`` as an array of at least one dimension
    and the table's read at each point clipped into the grid, where each
    table sets its own values off the grid.  The points are read in blocks
    of ``_BLOCK``, so a long array allocates no temporary longer than a
    block.  NaN raises NonFinite."""
    x = np.asarray(x, dtype=float)
    xq = np.atleast_1d(x)
    if np.isnan(xq).any():
        raise NonFinite("table argument is NaN")
    g = table.grid
    points = xq.reshape(-1)
    out = np.empty(xq.shape)
    reads = out.reshape(-1)
    for s in range(0, points.shape[0], _BLOCK):
        # Clipped so infinite and far points index the grid without overflow.
        start, y = _stencil_windows(g, np.clip(points[s : s + _BLOCK], g.x_min, g.x_max))
        reads[s : s + _BLOCK] = _stencil_values(table.values, start, _stencil_weights(y))
    return x.ndim == 0, xq, out


@dataclass(frozen=True)
class DensityTable:
    """Tabulated density values on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def interpolate(self, x):
        """Locally degree-4 interpolated density; zero outside the grid, NonFinite on NaN."""
        scalar, xq, out = _stencil_read(self, x)
        np.maximum(out, 0.0, out=out)
        out[(xq < self.grid.x_min) | (xq > self.grid.x_max)] = 0.0
        return float(out[0]) if scalar else out

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.dx))


@dataclass(frozen=True)
class CdfTable:
    """Tabulated distribution function values on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def evaluate(self, x):
        """Locally degree-4 interpolated CDF, clamped to the table ends.

        Infinite arguments take the end values; NaN raises NonFinite."""
        scalar, xq, out = _stencil_read(self, x)
        out[xq <= self.grid.x_min] = self.values[0]
        out[xq >= self.grid.x_max] = self.values[-1]
        np.clip(out, 0.0, 1.0, out=out)
        return float(out[0]) if scalar else out


def _dft(a: np.ndarray, n: int) -> np.ndarray:
    """sum_k a_k exp(-2 pi i r k/n) for r = 0..n-1: one length-n FFT of
    ``a`` zero-padded to n, or folded mod n when longer."""
    if a.shape[0] > n:
        a = np.pad(a, (0, -a.shape[0] % n)).reshape(-1, n).sum(axis=0)
    return np.fft.fft(a, n)


class _Inversion:
    """The half-spectrum inversion on one grid, and its transpose.

    ``xi`` holds the positive half of the symmetric frequency grid, the
    n_freq/2 nodes (k + 1/2) dxi, and ``weights`` their quadrature weights
    (the upper half of the palindromic Newton-Cotes vector, times dxi).
    Calling the inversion on an integrand's weighted samples a_k, already
    multiplied by exp(-i x_min xi_k), gives

        (1/pi) Re sum_k a_k exp(-i (x_j - x_min) xi_k)      for j < m,

    which for a Hermitian integrand is (1/2pi) times the full-spectrum sum.
    The grid's step dxi = 2 pi/(N dx) makes the phase of term (j, k)
    exp(-i pi j/N) exp(-2 pi i j k/N): the sum is exp(-i pi j/N) times a
    length-N DFT of the inputs folded mod N, read at j mod N.  The
    half-node factor flips sign each time j passes a multiple of N.  So
    every inversion is one numpy.fft.fft, and its transpose another.
    """

    def __init__(self, grid: SpectralGrid):
        n = grid.n_fft
        half = grid.n_freq // 2
        dxi = 2.0 * np.pi / (n * grid.dx)
        self.xi = dxi * (0.5 + np.arange(half))
        self.weights = newton_cotes_weights(grid.n_freq)[half:] * dxi
        self.x_min = grid.x_min
        self._n = n
        self._phase = grid._phase

    def __call__(self, a: np.ndarray) -> np.ndarray:
        # np.resize repeats the DFT with period N out to the m grid points.
        return (self._phase * np.resize(_dft(a, self._n), self._phase.shape[0])).real

    def transpose(self, g: np.ndarray) -> np.ndarray:
        """u with sum(g * self(a)) = Re sum_k u_k a_k for every a, g real:
        the outputs folded mod N, one FFT (the DFT matrix is symmetric), and
        the result read at k mod N."""
        return np.resize(_dft(g * self._phase, self._n), self.xi.shape[0])

    def pdf(self, p: GTSParams) -> np.ndarray:
        """_pdf_values(p, grid): one _shifted_cf and one FFT."""
        return self(_shifted_cf(p, self.xi, self.x_min) * self.weights)

    def pdf_with_pullback(self, p: GTSParams):
        """(values, pullback): pdf(p) to the bit, and the map from g to the
        gradient of sum(g * values) in the seven natural fields.

        The values are the inversion of a = cf * weights, so the gradient
        is Re sum_k (transpose(g))_k a_k dpsi_k: one more FFT, whatever the
        number of fields.
        """
        cf, cf_pullback = _shifted_cf_pullback(p, self.xi, self.x_min)
        weighted = cf * self.weights

        def pullback(g: np.ndarray) -> np.ndarray:
            return cf_pullback(self.transpose(g) * weighted)

        return self(weighted), pullback


def _pdf_values(p: GTSParams, grid: SpectralGrid) -> np.ndarray:
    """Raw inverted density values, unclamped and unchecked."""
    return _Inversion(grid).pdf(p)


def pdf_table(p: GTSParams, grid: SpectralGrid) -> DensityTable:
    """Invert the characteristic function to density values on the grid.

    Raises NumericalFailure when the result violates its invariants
    (pre-clamp negative excursion beyond 1e-9, or trapezoid mass off 1 by
    more than 1e-6), both symptoms of a misconfigured grid.
    """
    f = _pdf_values(p, grid)

    worst = f.min()
    if worst < -_NEG_DENSITY_HARD:
        raise NumericalFailure(
            f"density excursion {worst:.3e} below -1e-9; grid misconfigured"
        )
    f = np.maximum(f, 0.0)
    table = DensityTable(grid=grid, values=f)
    mass = table.trapezoid_mass()
    if abs(mass - 1.0) > _NORMALIZATION_TOL:
        raise NumericalFailure(
            f"density mass {mass!r} deviates from 1 beyond 1e-6; grid misconfigured"
        )
    return table


def _cdf_values(p: GTSParams, grid: SpectralGrid) -> np.ndarray:
    """Raw inverted distribution-function values, unclipped and unchecked."""
    inv = _Inversion(grid)
    return 0.5 - inv(inv.weights * (_shifted_cf(p, inv.xi, grid.x_min) / (1j * inv.xi)))


def cdf_table(p: GTSParams, grid: SpectralGrid) -> CdfTable:
    """Invert to distribution-function values on the grid.

    The values are the module notes' Gil-Pelaez sum on the positive
    half-nodes (k + 1/2) dxi, which straddle the pole at 0.  It differs from
    F by the tail masses a period N dx and more away, alternating in sign,
    which the aliasing guard puts past the Chernoff radius of 1e-9 mass a
    side.  The identity needs unit weights on the half-nodes next to 0; the
    order-4 rule corrects only the four nodes nearest each end, so it holds
    for n_freq >= 16.  The bundled laws and those of the tests get fewer
    nodes only at a freq_eps of 0.5 or more, where their tables fail the
    checks below anyway.  Raises NumericalFailure when a step between
    grid points is below -1e-10, or F(x_min) or 1 - F(x_max) is 1e-6 or more.
    """
    F = _cdf_values(p, grid)

    steps = np.diff(F)
    if steps.min() < -_MONOTONE_SLACK:
        raise NumericalFailure(
            f"CDF not monotone (min step {steps.min():.3e}); grid misconfigured"
        )
    if F[0] >= _ENDPOINT_TOL or 1.0 - F[-1] >= _ENDPOINT_TOL:
        raise NumericalFailure(
            f"CDF endpoints not settled: F(x_min)={F[0]:.3e}, 1-F(x_max)={1 - F[-1]:.3e}"
        )
    return CdfTable(grid=grid, values=np.clip(F, 0.0, 1.0))


# --------------------------------------------------------------------------
# slow direct-quadrature oracle
# --------------------------------------------------------------------------

def direct_quadrature_oracle(p: GTSParams, x: float, abs_tol: float = 1e-10):
    """(pdf, cdf) at a single point by adaptive quadrature.  Slow; test use.

    Uses the one-sided inversion forms

        f(x) = (1/pi) * int_0^Xi Re[cf(y) exp(-i x y)] dy
        F(x) = 1/2 - (1/pi) * int_0^Xi Im[cf(y) exp(-i x y)] / y dy

    with QUADPACK oscillatory-weight integration on the trigonometric
    factors.  Raises ConvergenceFailure when the reported error estimate
    exceeds ``abs_tol``.  scipy.integrate is imported on first use.
    """
    from scipy.integrate import quad

    x = float(x)
    cutoff = _freq_cutoff(p, 1e-16)

    def cf_re(y):
        return float(np.real(characteristic_function(p, complex(y))))

    def cf_im(y):
        return float(np.imag(characteristic_function(p, complex(y))))

    opts = dict(limit=600, epsabs=1e-12, epsrel=1e-12)
    with np.errstate(over="ignore"):
        p1, e1 = quad(cf_re, 0.0, cutoff, weight="cos", wvar=x, **opts)[:2]
        p2, e2 = quad(cf_im, 0.0, cutoff, weight="sin", wvar=x, **opts)[:2]

        # CDF integrand has a removable singularity at 0; integrate the full
        # complex form on (0, 1] where QUADPACK never touches the endpoint,
        # then oscillatory-weighted pieces on [1, Xi].
        def near(y):
            return float(
                np.imag(characteristic_function(p, complex(y)) * np.exp(-1j * x * y)) / y
            )

        c0, e3 = quad(near, 0.0, 1.0, **opts)[:2]
        c1, e4 = quad(lambda y: cf_im(y) / y, 1.0, cutoff, weight="cos", wvar=x, **opts)[:2]
        c2, e5 = quad(lambda y: cf_re(y) / y, 1.0, cutoff, weight="sin", wvar=x, **opts)[:2]

    err = e1 + e2 + e3 + e4 + e5
    if not math.isfinite(err) or err > abs_tol:
        raise ConvergenceFailure(
            f"oracle error estimate {err:.2e} exceeds tolerance {abs_tol:.2e}"
        )
    pdf = (p1 + p2) / math.pi
    cdf = 0.5 - (c0 + c1 - c2) / math.pi
    return pdf, cdf


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def write_table_csv(table, path) -> None:
    """Two-column CSV (x, value) with 17-significant-digit decimals."""
    x = table.grid.x()
    with text_stream(path, "w") as fh:
        fh.write("x,value\n")
        for xi_, v in zip(x, table.values):
            fh.write(f"{xi_:.17g},{v:.17g}\n")
