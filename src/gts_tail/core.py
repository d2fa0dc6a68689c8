"""Generalized tempered stable (GTS) parameter domain and exact math.

A GTS law is a Levy process observed at unit time whose Levy measure is a
two-sided stable measure damped by exponential tempering:

    nu(dx) = alpha_plus  * exp(-lambda_plus * x) / x**(1 + beta_plus)   dx   (x > 0)
           + alpha_minus * exp(-lambda_minus*|x|) / |x|**(1 + beta_minus) dx  (x < 0)

plus a deterministic drift ``mu``.  Everything downstream (Fourier inversion,
quantiles, fitting) consumes the characteristic exponent

    psi(xi) = i*mu*xi
            + alpha_plus  * Gamma(-beta_plus)  * ((lambda_plus  - i*xi)**beta_plus  - lambda_plus**beta_plus)
            + alpha_minus * Gamma(-beta_minus) * ((lambda_minus + i*xi)**beta_minus - lambda_minus**beta_minus)

with the principal branch of the complex power; lambda > 0 keeps the base off
the negative real axis, so the branch is unambiguous.

Units: all quantities are expressed in PERCENT log-return units (a daily move
of -3.2% is the value -3.2).  The tempering rates are inverse percent.  This
convention is fixed package-wide; see README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._textio import text_stream
from .errors import DomainError, NonFinite, OutOfDomain, ParseError

__all__ = [
    "GTSParams",
    "PathClassification",
    "RestrictedKind",
    "validate_params",
    "characteristic_exponent",
    "characteristic_function",
    "mgf_exponent",
    "levy_density",
    "path_classification",
    "cumulant",
    "restricted_model",
    "kobol_params",
    "cgmy_params",
    "bilateral_gamma_params",
    "read_params_file",
    "write_params_file",
    "PARAM_NAMES",
]

PARAM_NAMES = (
    "mu",
    "beta_plus",
    "beta_minus",
    "alpha_plus",
    "alpha_minus",
    "lambda_plus",
    "lambda_minus",
)


@dataclass(frozen=True)
class GTSParams:
    """The seven parameters (mu, beta+, beta-, alpha+, alpha-, lambda+, lambda-).

    Domain: 0 <= beta < 1 on each side (beta = 1 makes Gamma(-beta) singular
    and is rejected; beta = 0 is handled by the analytic bilateral-gamma
    limit), alpha > 0, lambda > 0, mu any finite real.
    """

    mu: float
    beta_plus: float
    beta_minus: float
    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self):
        vals = self.as_tuple()
        for name, v in zip(PARAM_NAMES, vals):
            if not math.isfinite(v):
                raise NonFinite(f"{name} is not finite: {v!r}")
        for name in ("beta_plus", "beta_minus"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise OutOfDomain(name, f"{name} must lie in [0, 1), got {b}")
        for name in ("alpha_plus", "alpha_minus", "lambda_plus", "lambda_minus"):
            v = getattr(self, name)
            if not v > 0.0:
                raise OutOfDomain(name, f"{name} must be positive, got {v}")

    def as_tuple(self) -> tuple:
        return (
            self.mu,
            self.beta_plus,
            self.beta_minus,
            self.alpha_plus,
            self.alpha_minus,
            self.lambda_plus,
            self.lambda_minus,
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())


def validate_params(
    mu, beta_plus, beta_minus, alpha_plus, alpha_minus, lambda_plus, lambda_minus
) -> GTSParams:
    """Validate seven raw reals and return a GTSParams.

    Raises NonFinite for NaN/inf inputs and OutOfDomain naming the first
    violated field otherwise.
    """
    return GTSParams(
        float(mu),
        float(beta_plus),
        float(beta_minus),
        float(alpha_plus),
        float(alpha_minus),
        float(lambda_plus),
        float(lambda_minus),
    )


# --------------------------------------------------------------------------
# characteristic exponent and friends
# --------------------------------------------------------------------------

def characteristic_exponent(p: GTSParams, xi):
    """psi(xi) = log E[exp(i xi Y)].  Accepts scalars or arrays.

    psi(0) = 0 exactly and conj(psi(xi)) = psi(-xi).  Raises NonFinite
    for a NaN or infinite xi.
    """
    xi = np.asarray(xi, dtype=complex)
    finite = np.isfinite(xi)
    if not finite.all():
        raise NonFinite(f"xi is not finite: {complex(xi[~finite][0])}")
    out = 1j * p.mu * xi
    for _, beta, lam, sign, k in _tempered_sides(p):
        z = np.log1p((sign * 1j / lam) * xi)
        series = beta * float(np.max(np.abs(z), initial=0.0)) < _SERIES_BZ
        er, ei = _expm1_ratio(beta, z.real, z.imag, series)
        out = out + k * (er + 1j * ei)
    return out if out.ndim else complex(out)


def characteristic_function(p: GTSParams, xi):
    """exp(psi(xi)); |cf| <= 1 with equality only at xi = 0.  Raises
    NonFinite for a NaN or infinite xi."""
    out = np.exp(characteristic_exponent(p, xi))
    return out if isinstance(out, np.ndarray) and out.ndim else complex(out)


def _tempered_sides(p: GTSParams):
    """Per side of psi: (alpha, beta, lam, sign, k), with psi_side = k*E.

    E = expm1(beta*z)/beta at z = log(b/lam), b = lam + sign*i*xi, and
    k = -alpha*Gamma(1 - beta)*exp(beta*log(lam)): the power form
    alpha*Gamma(-beta)*(b**beta - lam**beta) without its cancellation as
    beta -> 0, where psi_side -> -alpha*z, the bilateral-gamma form.
    """
    for alpha, beta, lam, sign in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, -1.0),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, 1.0),
    ):
        yield alpha, beta, lam, sign, -alpha * math.gamma(1.0 - beta) * math.exp(beta * math.log(lam))


# E = expm1(beta*z)/beta and its beta partial E' are read from 5 terms of
# their Taylor series in beta*z wherever beta*|z| < _SERIES_BZ (truncation
# under 2e-18, relative; E = z and E' = z**2/2 exactly at beta = 0), where
# the closed forms are 0/0 or, for E', cancel to about eps/(beta*|z|).
_SERIES_BZ = 1e-3
_RATIO_SERIES = tuple(1.0 / math.factorial(j + 1) for j in range(5))  # E/z
_PARTIAL_SERIES = tuple((j + 1) / math.factorial(j + 2) for j in range(5))  # E'/z**2


def _z_times_series(coeffs, beta: float, zr, zi):
    """(Re, Im) of z*sum_j coeffs[j]*(beta*z)**j at z = zr + i*zi, by Horner
    in real arithmetic."""
    pr, pi = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        pr, pi = beta * (pr * zr - pi * zi) + c, beta * (pr * zi + pi * zr)
    return pr * zr - pi * zi, pr * zi + pi * zr


def _expm1_ratio(beta: float, zr, zi, series: bool, lib=np):
    """(Re, Im) of E = expm1(beta*z)/beta at z = zr + i*zi, |zi| < pi/2,
    from its series where ``series`` (beta*|z| < _SERIES_BZ at every z) or
    else its closed form: with x = beta*zr and y = beta*zi,
    beta*E = expm1(x)*cos(y) - sin(y)**2/(1 + cos(y)) + i*exp(x)*sin(y),
    where no term cancels.  ``lib`` is numpy for arrays, math for the
    scalar bisections."""
    if series:
        return _z_times_series(_RATIO_SERIES, beta, zr, zi)
    y = beta * zi
    em1, cos, sin = lib.expm1(beta * zr), lib.cos(y), lib.sin(y)
    return (em1 * cos - sin * sin / (1.0 + cos)) / beta, (em1 + 1.0) * sin / beta


def _expm1_ratio_partial(beta: float, zr, zi, er, ei, series: bool, wr, wi, sign: float, by_e: float):
    """sum_k Re(w_k dE/dbeta) at z = zr + i*sign*zi, w = wr + i*wi, given
    E = er + i*sign*ei and by_e = sum_k Re(w_k E_k): dot products of (z - E)/beta
    + z*E, or, where ``series``, of its series z**2*(1/2 + beta*z/3 + ...)."""
    if series:
        sr, si = _z_times_series(_PARTIAL_SERIES, beta, zr, zi)
        return _dot(zr * sr - zi * si, wr) - sign * _dot(zr * si + zi * sr, wi)
    by_z = _dot(zr, wr) - sign * _dot(zi, wi)
    by_ze = _dot3(zr, er, wr) - _dot3(zi, ei, wr) - sign * (_dot3(zr, ei, wi) + _dot3(zi, er, wi))
    return (by_z - by_e) / beta + by_ze


def _shifted_cf(p: GTSParams, xi: np.ndarray, shift: float) -> np.ndarray:
    """exp(psi(xi) - i*shift*xi) at real xi, in real arithmetic.

    It agrees with exp(characteristic_exponent(p, xi) - 1j*shift*xi) to
    rounding; _shifted_cf_pullback computes it.
    """
    return _shifted_cf_pullback(p, xi, shift)[0]


def _shifted_cf_pullback(p: GTSParams, xi: np.ndarray, shift: float):
    """(cf, pullback): _shifted_cf(p, xi, shift), and the map from complex
    weights w to Re sum_k w_k dpsi(xi_k)/d field for each field of
    PARAM_NAMES.

    Each side is psi_side = k*E (_tempered_sides), with z = log(b/lam) =
    0.5*log1p(r**2) + sign*i*atan(r) at r = xi/lam, so psi costs real
    log1p/atan/expm1/cos/sin instead of complex powers, for every beta,
    0 included.  The result is one real exp of Re psi times the unit
    phasor of Im psi - shift*xi.

    The partials come from the kernel's own pieces.  Per side, with
    k = -alpha*Gamma(1 - beta)*lam**beta and exp(beta*z) = 1 + beta*E:

        d/d alpha = psi_side/alpha = k*E/alpha
        d/d lam   = k*(exp(beta*z)/b - 1/lam)
        d/d beta  = k*(log(lam) - digamma(1 - beta))*E + k*dE/dbeta

    since d/d beta log Gamma(1 - beta) = -digamma(1 - beta); and
    d/d mu = i*xi.  With 1/b = (lam - sign*i*xi)/(lam**2 + xi**2), each
    weighted sum is a few real dot products over the pieces the kernel
    keeps.  At beta = 0, dE/dbeta = z**2/2 and the beta partial is
    -alpha*(log(b)**2/2 - log(lam)**2/2 + euler_gamma*(log(b) - log(lam))).
    """
    re = np.zeros_like(xi)
    im = p.mu * xi
    sides = []
    for alpha, beta, lam, sign, k in _tempered_sides(p):
        # zr + i*zi is z for sign = +1; the side's z is zr + i*sign*zi, and
        # E and its partial carry the same sign on their imaginary parts.
        r = xi / lam
        zr, zi = 0.5 * np.log1p(r * r), np.arctan(r)
        series = beta * (float(np.max(zr)) + 0.5 * math.pi) < _SERIES_BZ
        er, ei = _expm1_ratio(beta, zr, zi, series)
        re += k * er
        im += (sign * k) * ei
        sides.append((alpha, beta, lam, sign, k, zr, zi, er, ei, series))
    cf = _polar(re, im - shift * xi)

    def pullback(w: np.ndarray) -> np.ndarray:
        # Imported on the first score, so that importing gts_tail loads no scipy.
        from scipy.special import digamma

        wr, wi = w.real, w.imag
        total = wr.sum()
        out = np.zeros(len(PARAM_NAMES))
        out[0] = -_dot(xi, wi)
        for j, (alpha, beta, lam, sign, k, zr, zi, er, ei, series) in enumerate(sides):
            by_e = _dot(er, wr) - sign * _dot(ei, wi)
            # Re(w/b) = (lam wr + sign xi wi)/|b|**2, Im(w/b) = (lam wi - sign xi wr)/|b|**2,
            # and Re(w exp(beta z)/b) = Re(w/b) + beta Re(w E/b).
            square = lam * lam + xi * xi
            over_re = (lam * wr + sign * (xi * wi)) / square
            over_im = (lam * wi - sign * (xi * wr)) / square
            over = over_re.sum() + beta * (_dot(er, over_re) - sign * _dot(ei, over_im))
            out[3 + j] = k * by_e / alpha
            out[5 + j] = k * (over - total / lam)
            out[1 + j] = k * (
                (math.log(lam) - float(digamma(1.0 - beta))) * by_e
                + _expm1_ratio_partial(beta, zr, zi, er, ei, series, wr, wi, sign, by_e)
            )
        return out

    return cf, pullback


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's own loop: a BLAS dot splits the sum across
    threads, so its rounding would follow the thread count."""
    return float(np.einsum("i,i->", a, b))


def _dot3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """sum(a * b * c) in one pass, by numpy's own loop like _dot."""
    return float(np.einsum("i,i,i->", a, b, c))


def _polar(log_modulus: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(log_modulus + i*phase) from one real exp and one cos/sin pair."""
    modulus = np.exp(log_modulus)
    out = np.empty(phase.shape, dtype=complex)
    out.real = modulus * np.cos(phase)
    out.imag = modulus * np.sin(phase)
    return out


def _log_modulus(p: GTSParams):
    """The scalar function x -> Re psi(x) = log|cf(x)| at real x, via math.

    Each side is Re k*E (_tempered_sides, _expm1_ratio) at numpy's complex
    log1p of i*x/lam, in math's real steps, so it agrees with
    Re characteristic_exponent(p, x) to rounding.  Per-side constants are
    bound once.
    """
    sides = tuple((beta, 1.0 / lam, k) for _, beta, lam, _, k in _tempered_sides(p))

    def re_psi(x: float) -> float:
        total = 0.0
        for beta, inv_lam, k in sides:
            r = x * inv_lam
            zr, zi = math.log(math.hypot(1.0, r)), math.atan2(r, 1.0)
            series = beta * math.hypot(zr, zi) < _SERIES_BZ
            total += k * _expm1_ratio(beta, zr, zi, series, math)[0]
        return total

    return re_psi


def mgf_exponent(p: GTSParams, theta) -> float:
    """log E[exp(theta Y)] for real theta in (-lambda_minus, lambda_plus).

    Exponential moments exist up to the tempering rates; used for
    Chernoff-type tail bounds when sizing evaluation grids.
    """
    theta = float(theta)
    if not -p.lambda_minus < theta < p.lambda_plus:
        raise DomainError(
            f"theta must lie in ({-p.lambda_minus}, {p.lambda_plus}), got {theta}"
        )
    return float(_mgf_exponent_values(p, theta))


def _mgf_exponent_values(p: GTSParams, theta):
    """mgf_exponent elementwise over real theta, without the domain check.

    Every theta must lie strictly inside (-lambda_minus, lambda_plus), so
    each base lam -/+ theta is positive and psi(-i*theta) is real: each
    side is k*E (_tempered_sides) at the real z = log1p(-/+theta/lam).
    """
    val = p.mu * theta
    for _, beta, lam, sign, k in _tempered_sides(p):
        z = np.log1p(sign * theta / lam)
        series = beta * float(np.max(np.abs(z))) < _SERIES_BZ
        val = val + k * _expm1_ratio(beta, z, 0.0, series)[0]
    return val


def levy_density(p: GTSParams, x):
    """Density of the Levy measure at x != 0 (jumps per unit size); NaN
    raises NonFinite."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise NonFinite("Levy density argument is NaN")
    if np.any(x == 0.0):
        raise DomainError("Levy density diverges at x = 0")
    pos = x > 0
    out = np.empty_like(x)
    ax = np.abs(x)
    out[pos] = p.alpha_plus * np.exp(-p.lambda_plus * ax[pos]) / ax[pos] ** (1.0 + p.beta_plus)
    out[~pos] = p.alpha_minus * np.exp(-p.lambda_minus * ax[~pos]) / ax[~pos] ** (1.0 + p.beta_minus)
    return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# path classification
# --------------------------------------------------------------------------

class Activity(str, Enum):
    FINITE = "finite"
    INFINITE = "infinite"


class Variation(str, Enum):
    FINITE = "finite"
    INFINITE = "infinite"


@dataclass(frozen=True)
class PathClassification:
    activity: Activity
    variation: Variation


def path_classification(p: GTSParams) -> PathClassification:
    """Classify total jump activity and path variation from the beta indices.

    The small-jump integral of x**(-1-beta) diverges at 0 whenever beta >= 0,
    so activity is infinite everywhere on the admissible domain; |x| times the
    density integrates finitely near 0 whenever beta < 1 on both sides, so
    variation is finite.  Spelled out as comparisons so the logic is testable
    rather than hard-coded.
    """
    infinite_activity = max(p.beta_plus, p.beta_minus) >= 0.0
    finite_variation = p.beta_plus < 1.0 and p.beta_minus < 1.0
    return PathClassification(
        activity=Activity.INFINITE if infinite_activity else Activity.FINITE,
        variation=Variation.FINITE if finite_variation else Variation.INFINITE,
    )


# --------------------------------------------------------------------------
# cumulants
# --------------------------------------------------------------------------

def cumulant(p: GTSParams, n: int) -> float:
    """n-th cumulant of Y, n in 1..4 (valid for any n >= 1).

    kappa_1 = mu + alpha+ Gamma(1-beta+) lambda+**(beta+-1)
                 - alpha- Gamma(1-beta-) lambda-**(beta--1)
    kappa_n = alpha+ Gamma(n-beta+) lambda+**(beta+-n)
            + (-1)**n alpha- Gamma(n-beta-) lambda-**(beta--n)   (n >= 2)

    Raises DomainError for an order that is not an integer >= 1 (a bool
    included) and NonFinite when the cumulant overflows.
    """
    try:
        order = int(n)
        integral = order == n and not isinstance(n, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or order < 1:
        raise DomainError(f"cumulant order must be an integer >= 1, got {n!r}")
    n = order
    try:
        plus = p.alpha_plus * math.gamma(n - p.beta_plus) * p.lambda_plus ** (p.beta_plus - n)
        minus = p.alpha_minus * math.gamma(n - p.beta_minus) * p.lambda_minus ** (p.beta_minus - n)
        out = p.mu + plus - minus if n == 1 else plus + (-1) ** n * minus
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise NonFinite(f"cumulant of order {n} is not finite")
    return out


# --------------------------------------------------------------------------
# nested restrictions
# --------------------------------------------------------------------------

class RestrictedKind(Enum):
    """The full model and the nested sub-families obtained by tying parameters.

    FULL frees all seven fields; KOBOL ties the two stability indices; CGMY
    additionally ties the two tempering rates; BILATERAL_GAMMA pins both
    stability indices to zero.  Each kind is described by one table,
    ``fields``: the natural fields each free coordinate fills.  Fields no
    coordinate fills are pinned to 0.
    """

    FULL = "full"
    KOBOL = "kobol"
    CGMY = "cgmy"
    BILATERAL_GAMMA = "bilateral-gamma"

    @property
    def fields(self) -> tuple:
        """(free name, natural fields it fills) per free coordinate, in order."""
        return _FREE_FIELDS[self]

    @property
    def free_names(self) -> tuple:
        return tuple(name for name, _ in self.fields)

    @property
    def n_free(self) -> int:
        return len(self.fields)

    def expand(self, free) -> GTSParams:
        """Map a free-parameter vector (ordered as free_names) to GTSParams."""
        free = [float(v) for v in free]
        if len(free) != self.n_free:
            raise DomainError(
                f"{self.value} expects {self.n_free} free parameters, got {len(free)}"
            )
        natural = dict.fromkeys(PARAM_NAMES, 0.0)
        for (_, fields), v in zip(self.fields, free):
            for name in fields:
                natural[name] = v
        return validate_params(*(natural[name] for name in PARAM_NAMES))

    def reduce(self, p: GTSParams) -> list:
        """Project a full parameter set onto this kind's free coordinates.

        A tied coordinate takes the mean of its fields; (a + b) / 2 rounds
        exactly as 0.5 * (a + b), and a lone field is taken as it is.
        """
        out = []
        for _, fields in self.fields:
            vals = [getattr(p, name) for name in fields]
            out.append(sum(vals[1:], vals[0]) / len(vals))
        return out


def _own_fields(*names) -> tuple:
    return tuple((name, (name,)) for name in names)


_FREE_FIELDS = {
    RestrictedKind.FULL: _own_fields(*PARAM_NAMES),
    RestrictedKind.KOBOL: (
        ("mu", ("mu",)),
        ("beta", ("beta_plus", "beta_minus")),
        *_own_fields("alpha_plus", "alpha_minus", "lambda_plus", "lambda_minus"),
    ),
    RestrictedKind.CGMY: (
        ("mu", ("mu",)),
        ("beta", ("beta_plus", "beta_minus")),
        *_own_fields("alpha_plus", "alpha_minus"),
        ("lambda_", ("lambda_plus", "lambda_minus")),
    ),
    RestrictedKind.BILATERAL_GAMMA: _own_fields(
        "mu", "alpha_plus", "alpha_minus", "lambda_plus", "lambda_minus"
    ),
}


def restricted_model(kind: RestrictedKind, free) -> GTSParams:
    """Build a full GTSParams from a kind's free parameters."""
    return kind.expand(free)


def kobol_params(mu, beta, alpha_plus, alpha_minus, lambda_plus, lambda_minus) -> GTSParams:
    return RestrictedKind.KOBOL.expand([mu, beta, alpha_plus, alpha_minus, lambda_plus, lambda_minus])


def cgmy_params(mu, beta, alpha_plus, alpha_minus, lambda_) -> GTSParams:
    return RestrictedKind.CGMY.expand([mu, beta, alpha_plus, alpha_minus, lambda_])


def bilateral_gamma_params(mu, alpha_plus, alpha_minus, lambda_plus, lambda_minus) -> GTSParams:
    return RestrictedKind.BILATERAL_GAMMA.expand([mu, alpha_plus, alpha_minus, lambda_plus, lambda_minus])


# --------------------------------------------------------------------------
# parameter files
# --------------------------------------------------------------------------

def read_params_file(source) -> GTSParams:
    """Parse a key=value parameter file.

    Blank lines and lines starting with '#' are ignored.  Required keys are
    the seven canonical names (mu, beta_plus, ..., lambda_minus); unknown or
    repeated keys are rejected.  ``source`` is a path or an open text stream.
    """
    with text_stream(source) as fh:
        lines = fh.read().splitlines()
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in PARAM_NAMES:
            raise ParseError(lineno, f"line {lineno}: unknown parameter {key!r}")
        if key in seen:
            raise ParseError(lineno, f"line {lineno}: duplicate parameter {key!r}")
        try:
            seen[key] = float(val.strip())
        except ValueError:
            raise ParseError(lineno, f"line {lineno}: bad number {val.strip()!r}") from None
    missing = [k for k in PARAM_NAMES if k not in seen]
    if missing:
        raise ParseError(0, f"missing parameters: {', '.join(missing)}")
    return validate_params(*(seen[k] for k in PARAM_NAMES))


def write_params_file(p: GTSParams, path) -> None:
    """Write ``p`` for read_params_file to a path or an open text stream."""
    with text_stream(path, "w") as fh:
        for name, v in zip(PARAM_NAMES, p.as_tuple()):
            fh.write(f"{name} = {v:.17g}\n")
