"""Density and CDF tables by Fourier inversion of the characteristic function.

The density on a uniform x-grid comes from the truncated inversion integral

    f(x) = (1/2pi) * integral_{-Xi..Xi} cf(xi) exp(-i x xi) dxi

with the frequency samples weighted by a closed Newton-Cotes rule of order 4
(the trapezoid rule with corrected weights on the four nodes at each end,
which is composite Simpson with a 3/8 patch averaged end for end) and the
oscillatory sum over all grid points evaluated in one shot by a fractional
FFT.  The CDF uses the same machinery on the integrand

    (cf(xi) - cf_ref(xi)) / (i xi)

where cf_ref is the characteristic function of the moment-matched normal
law N(kappa_1, kappa_2).  Subtracting the reference removes the simple pole
at xi = 0 (both CFs share the first moment) and restores fast decay at the
truncation boundary, and its own inversion is known in closed form:

    F(x) = Phi((x - kappa_1)/sqrt(kappa_2))
         - (1/2pi) * integral (cf - cf_ref)(xi)/(i xi) exp(-i x xi) dxi

Both integrands are Hermitian, the frequency grid is symmetric with an even
node count n, and the Newton-Cotes weights are palindromic, so each weighted
sum equals (1/pi) * Re of its positive half alone: n/2 nodes starting at
xi = dxi/2.  Only that half is sampled, and one Bluestein transform returns
just the m grid values, on a linear convolution of length n/2 + m - 1
(rounded up to a fast FFT size).  So n need not reach m: it is the smallest
power of two whose spatial period 2*pi/dxi keeps the density's aliases off
the grid (see `build_grid`).  The samples cf(xi) exp(-i x_min xi) come
from a real-arithmetic kernel that folds the grid phase into the
characteristic function's own cos/sin pair; the public complex exponent
stays the reference it is tested against.  A grid that stays fixed while
the law changes (a fit's likelihood plan) precomputes everything but the
characteristic function once (`_frozen_pdf`).

A slow adaptive-quadrature oracle (`direct_quadrature_oracle`) evaluates the
one-sided forms of the same inversion integrals at a single point for
verification; it shares no code with the FRFT path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as sp_fft
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr

from ._textio import text_stream
from .core import (
    GTSParams,
    _log_modulus,
    _mgf_exponent_values,
    _polar,
    _shifted_cf,
    characteristic_function,
    cumulant,
)
from .errors import ConfigError, ConvergenceFailure, NumericalFailure, SizeError

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


# --------------------------------------------------------------------------
# fractional FFT
# --------------------------------------------------------------------------

def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bluestein_setup(n: int, delta: float, m: int):
    """(head, kernel, tail) of the n-input, m-output transform at spacing delta.

    The Bluestein identity 2jk = j**2 + k**2 - (k-j)**2 turns
    G(k) = sum_j seq[j] * exp(-2 pi i j k delta) into tail * (linear
    convolution of seq * head with a chirp kernel), where head and tail are
    the chirp on the inputs and on the outputs.  The kernel comes back as
    its FFT on the fast length at or above n + m - 1; it and the chirps
    depend only on (n, delta, m), so a fixed grid computes them once.
    """
    size = sp_fft.next_fast_len(n + m - 1)
    t = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-1j * np.pi * delta * (t * t))
    # Kernel conj(chirp) at lags -(n-1)..m-1, negative lags wrapped to the end.
    v = np.zeros(size, dtype=complex)
    v[:m] = np.conj(chirp[:m])
    v[size - n + 1 :] = np.conj(chirp[1:n][::-1])
    return chirp[:n], sp_fft.fft(v), chirp[:m]


def _bluestein_convolve(chirped: np.ndarray, kernel: np.ndarray, m: int) -> np.ndarray:
    """First m values of the chirped inputs convolved with the kernel (two FFTs)."""
    return sp_fft.ifft(sp_fft.fft(chirped, kernel.shape[0]) * kernel)[:m]


def _bluestein(seq: np.ndarray, delta: float, m: int) -> np.ndarray:
    """G(k) = sum_j seq[j] * exp(-2 pi i j k delta) for k = 0..m-1.

    Any input length n and output count m, by the Bluestein split above
    (three FFTs with the kernel's).
    """
    head, kernel, tail = _bluestein_setup(seq.shape[0], delta, m)
    return tail * _bluestein_convolve(seq * head, kernel, m)


def frft(seq, delta: float) -> np.ndarray:
    """G(k) = sum_j seq[j] * exp(-2 pi i j k delta) for k = 0..n-1.

    Evaluates the sum for arbitrary real spacing ``delta`` in O(n log n)
    with the same Bluestein core the tables use, here with as many outputs
    as inputs (a linear convolution of length 2n - 1).

    ``len(seq)`` must be a power of two.
    """
    a = np.asarray(seq, dtype=complex)
    n = a.shape[0]
    if not _is_pow2(n):
        raise SizeError(f"frft length must be a power of two, got {n}")
    return _bluestein(a, delta, n)


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
    on every even n (all frequency node counts are powers of two); odd n
    gets the same end-corrected trapezoid rule.  Cubics integrate exactly.
    """
    return _newton_cotes_cached(int(n))[0]


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    """User-tunable knobs for table construction.

    m:              number of spatial points (rounded up to a power of two,
                    minimum 256)
    width_sds:      half-width of the x-range in standard deviations
    min_half_width: absolute floor for the half-width (percent)
    freq_eps:       |cf| threshold defining the frequency cutoff
    n_freq:         frequency node count override (power of two, any size
                    at or above the aliasing bound, also below m); None
                    selects the smallest power of two above that bound
    max_n_freq:     budget on frequency nodes; slowly decaying characteristic
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
    """Uniform evaluation grid plus the frequency discretization behind it."""

    x_min: float
    x_max: float
    m: int
    dx: float
    n_freq: int
    freq_cutoff: float

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.m)


def _next_pow2(n: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, n))))


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


def build_grid(p: GTSParams, cfg: GridConfig = GridConfig()) -> SpectralGrid:
    """Size the spatial and frequency grids for a parameter set.

    The x-range is centered on the mean kappa_1 with half-width
    max(width_sds * sqrt(kappa_2), min_half_width).  The frequency cutoff Xi
    is the bisection solution of |cf(Xi)| = freq_eps.  The frequency node
    count n is the smallest power of two whose spatial period
    2*pi*(n-1)/(2*Xi) = pi*(n-1)/Xi, give or take half a node, clears the
    grid half-width plus a Chernoff tail radius, which keeps the density's
    aliases off the grid.  It may be below m: the half-spectrum transform
    returns m values from any n/2 inputs.
    """
    m = max(256, _next_pow2(cfg.m))
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    half_width = max(cfg.width_sds * math.sqrt(k2), cfg.min_half_width)
    if not half_width > 0.0:
        raise ConfigError("grid half-width must be positive")

    cutoff = _freq_cutoff(p, cfg.freq_eps)

    # Aliasing bound: the sampled transform repeats with spatial period
    # 2*pi/dxi = pi*(n-1)/Xi, so the copies of the density one period away
    # from kappa_1 must clear the grid.  The weights are 1 on every interior
    # node (the end corrections touch four nodes a side), so they add no
    # copies at half the period.  The bound has half a node of slack,
    # pi*(n-1/2)/Xi >= guard: a copy's edge may reach pi/(2*Xi) into the
    # tail radius, which raises its 1e-9 mass bound by a factor of about
    # exp(lambda*pi/(2*Xi)), under 1.004 on the BTC and ETH grids.  Without
    # the slack the wall of a frozen likelihood grid sits half a node
    # further in, and fits whose optimum lies on that wall lose likelihood
    # (1.3e-3 nats on 1500 BTC draws).
    guard = half_width + _tail_radius(p, _ALIAS_MASS)
    needed = cutoff * guard / math.pi + 0.5
    if cfg.n_freq is not None:
        n_freq = int(cfg.n_freq)
        if not _is_pow2(n_freq):
            raise ConfigError("n_freq must be a power of two")
        if n_freq < needed:
            raise ConfigError(
                f"n_freq={n_freq} below the aliasing bound {int(needed)} for this "
                "parameter set; results would fold back onto the grid"
            )
    else:
        n_freq = _next_pow2(needed)
    if n_freq > cfg.max_n_freq:
        raise ConfigError(
            f"frequency grid needs {n_freq} nodes, over the budget {cfg.max_n_freq}; "
            "the characteristic function decays too slowly for this inversion"
        )

    x_min = k1 - half_width
    x_max = k1 + half_width
    return SpectralGrid(
        x_min=x_min,
        x_max=x_max,
        m=m,
        dx=(x_max - x_min) / (m - 1),
        n_freq=n_freq,
        freq_cutoff=cutoff,
    )


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

# Inverse Vandermonde matrices mapping 5 stencil values to monomial
# coefficients of the local degree-4 interpolant, one per stencil offset.
# Offset o puts the stencil nodes at local coordinates o, o+1, .., o+4, so
# o = -2 is centered on the bracket [0, 1] and o in {0, -1, -3} covers grid
# edges.  Interpolation uses o = 0; quantiles use all four.
_STENCILS = {
    o: np.linalg.inv(np.vander(np.arange(o, o + 5, dtype=float), 5, increasing=True))
    for o in (0, -1, -2, -3)
}


def _lagrange5_eval(x0: float, dx: float, values: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Degree-4 local Lagrange interpolation on a uniform grid (vectorized)."""
    m = values.shape[0]
    pos = (xq - x0) / dx
    start = np.clip(np.floor(pos).astype(int) - 2, 0, m - 5)
    y = pos - start
    win = values[start[:, None] + np.arange(5)[None, :]]
    coeff = win @ _STENCILS[0].T
    out = coeff[:, 4]
    for k in (3, 2, 1, 0):
        out = out * y + coeff[:, k]
    return out


def _brackets(x: np.ndarray, q: np.ndarray):
    """(index, offset, outside): the bracket x[i] <= q < x[i+1] of each
    query point (the last bracket closed on the right, as PchipInterpolator
    finds them), q - x[i], and whether q lies outside [x[0], x[-1]]."""
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.shape[0] - 2)
    return i, q - x[i], ~((x[0] <= q) & (q <= x[-1]))


def _pchip_edge(h0, h1, m0, m1):
    # One-sided three-point slope, kept shape-preserving.
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _monotone_cubic(y: np.ndarray, h: np.ndarray, brackets) -> np.ndarray:
    """PchipInterpolator(x, y, extrapolate=False) at the bracketed points.

    ``h`` is np.diff(x) and ``brackets`` is _brackets(x, points).  Bit for
    bit what scipy returns (NaN outside the grid): its node slopes
    (weighted harmonic means, zero at sign changes, the shape-preserving
    end rule), its Hermite coefficients, and its power-sum evaluation
    c3 + c2 s + c1 s**2 + c0 (s**2 s), computed only on the brackets the
    points fall in.
    """
    mk = (y[1:] - y[:-1]) / h
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)))
    d[0] = _pchip_edge(h[0], h[1], mk[0], mk[1])
    d[-1] = _pchip_edge(h[-1], h[-2], mk[-1], mk[-2])

    i, s, outside = brackets
    dx, slope, d0 = h[i], mk[i], d[i]
    t = (d0 + d[i + 1] - 2 * slope) / dx
    s2 = s * s
    out = y[i] + d0 * s + ((slope - d0) / dx - t) * s2 + (t / dx) * (s2 * s)
    out[outside] = np.nan
    return out


@dataclass(frozen=True)
class DensityTable:
    """Tabulated density values on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def interpolate(self, x):
        """Locally degree-4 interpolated density; zero outside the grid."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xq = np.atleast_1d(x)
        out = _lagrange5_eval(self.grid.x_min, self.grid.dx, self.values, xq)
        out = np.maximum(out, 0.0)
        out[(xq < self.grid.x_min) | (xq > self.grid.x_max)] = 0.0
        return float(out[0]) if scalar else out

    @cached_property
    def monotone_interpolator(self) -> PchipInterpolator:
        """Shape-preserving cubic through the table (scipy's PCHIP, which the
        likelihood's own gather reproduces bit for bit)."""
        return PchipInterpolator(self.grid.x(), self.values, extrapolate=False)

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.dx))


@dataclass(frozen=True)
class CdfTable:
    """Tabulated distribution function values on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def evaluate(self, x):
        """Locally degree-4 interpolated CDF, clamped to the table ends."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xq = np.atleast_1d(x)
        out = _lagrange5_eval(self.grid.x_min, self.grid.dx, self.values, xq)
        out[xq <= self.grid.x_min] = self.values[0]
        out[xq >= self.grid.x_max] = self.values[-1]
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out


def _half_spectrum(grid: SpectralGrid):
    """Positive half of the symmetric frequency grid and its weights.

    The n_freq nodes -Xi + l*dxi (dxi = 2 Xi/(n_freq - 1)) are symmetric
    about 0 with an even count, so the upper half begins at dxi/2; its
    quadrature weights (times dxi) are the upper half of the palindromic
    Newton-Cotes vector.
    """
    n = grid.n_freq
    half = n // 2
    dxi = 2.0 * grid.freq_cutoff / (n - 1)
    xi = dxi * (0.5 + np.arange(half))
    w = newton_cotes_weights(n)[half:] * dxi
    return xi, w, dxi


def _output_phase(grid: SpectralGrid, dxi: float):
    """(delta, phase): the transform spacing dx dxi/(2 pi) and exp(-i j dx dxi/2)."""
    delta = grid.dx * dxi / (2.0 * np.pi)
    return delta, np.exp(-1j * np.pi * delta * np.arange(grid.m))


def _invert(weighted: np.ndarray, grid: SpectralGrid, dxi: float) -> np.ndarray:
    """(1/pi) Re sum_k weighted[k] exp(-i (x_j - x_min) xi_k) for all j.

    ``weighted`` holds a Hermitian integrand's positive half, already
    weighted and multiplied by exp(-i x_min xi_k); with xi_k = (k + 1/2) dxi
    the sum is exp(-i j dx dxi/2) times a fractional transform at spacing
    delta = dx dxi/(2 pi), of which only the m grid outputs are computed.
    Twice the real part of the half sum is the full symmetric sum, so this
    is (1/2pi) times the full-spectrum inversion.
    """
    delta, phase = _output_phase(grid, dxi)
    return (phase * _bluestein(weighted, delta, grid.m)).real / np.pi


def _frozen_pdf(grid: SpectralGrid):
    """p -> _pdf_values(p, grid) on one fixed grid, with its setup done once.

    The half-spectrum nodes, the quadrature weights folded into the input
    chirp, the kernel's FFT, and the output chirp times the grid phase and
    1/pi depend on the grid alone.  A call is then one _shifted_cf, two
    FFTs and a product; it agrees with _pdf_values to rounding (the same
    factors, multiplied in another order).
    """
    xi, w, dxi = _half_spectrum(grid)
    delta, phase = _output_phase(grid, dxi)
    head, kernel, tail = _bluestein_setup(xi.shape[0], delta, grid.m)
    head = w * head
    tail = phase * tail / np.pi

    def pdf_values(p: GTSParams) -> np.ndarray:
        cf = _shifted_cf(p, xi, grid.x_min)
        return (tail * _bluestein_convolve(cf * head, kernel, grid.m)).real

    return pdf_values


def _pdf_values(p: GTSParams, grid: SpectralGrid) -> np.ndarray:
    """Raw inverted density values, unclamped and unchecked."""
    xi, w, dxi = _half_spectrum(grid)
    return _invert(w * _shifted_cf(p, xi, grid.x_min), grid, dxi)


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
    xi, w, dxi = _half_spectrum(grid)
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    # cf and cf_ref, both times exp(-i x_min xi).
    ref = _polar(-0.5 * k2 * xi * xi, k1 * xi - grid.x_min * xi)
    h = (_shifted_cf(p, xi, grid.x_min) - ref) / (1j * xi)
    corr = _invert(w * h, grid, dxi)
    return ndtr((grid.x() - k1) / math.sqrt(k2)) - corr


def cdf_table(p: GTSParams, grid: SpectralGrid) -> CdfTable:
    """Invert to distribution-function values on the grid.

    The pole of cf(xi)/(i xi) at 0 is removed by subtracting the
    characteristic function of N(kappa_1, kappa_2); its closed-form CDF
    supplies the subtracted mass, including the constant split carried by
    the Dirac term of the distributional Fourier pair.
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

def _oracle_cutoff(p: GTSParams) -> float:
    return _freq_cutoff(p, 1e-16)


def direct_quadrature_oracle(p: GTSParams, x: float, abs_tol: float = 1e-10):
    """(pdf, cdf) at a single point by adaptive quadrature.  Slow; test use.

    Uses the one-sided inversion forms

        f(x) = (1/pi) * int_0^Xi Re[cf(y) exp(-i x y)] dy
        F(x) = 1/2 - (1/pi) * int_0^Xi Im[cf(y) exp(-i x y)] / y dy

    with QUADPACK oscillatory-weight integration on the trigonometric
    factors.  Raises ConvergenceFailure when the reported error estimate
    exceeds ``abs_tol``.
    """
    x = float(x)
    cutoff = _oracle_cutoff(p)

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
