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
from scipy.special import gamma as _gamma

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

def _one_sided_exponent(alpha, beta, lam, z):
    """alpha * Gamma(-beta) * ((lam + z)**beta - lam**beta) with beta -> 0 limit.

    ``z`` is -i*xi for the positive side and +i*xi for the negative side.
    At beta = 0 the product Gamma(-beta)*((lam+z)**beta - lam**beta) tends to
    -log((lam + z)/lam), the bilateral-gamma form.  The constant term uses
    the complex power path so psi(0) cancels to exactly zero.
    """
    if beta == 0.0:
        return -alpha * np.log((lam + z) / lam)
    return alpha * _gamma(-beta) * ((lam + z) ** beta - np.complex128(lam) ** beta)


def characteristic_exponent(p: GTSParams, xi):
    """psi(xi) = log E[exp(i xi Y)].  Accepts scalars or arrays.

    psi(0) = 0 exactly and conj(psi(xi)) = psi(-xi).
    """
    xi = np.asarray(xi, dtype=complex)
    out = (
        1j * p.mu * xi
        + _one_sided_exponent(p.alpha_plus, p.beta_plus, p.lambda_plus, -1j * xi)
        + _one_sided_exponent(p.alpha_minus, p.beta_minus, p.lambda_minus, 1j * xi)
    )
    return out if out.ndim else complex(out)


def characteristic_function(p: GTSParams, xi):
    """exp(psi(xi)); |cf| <= 1 with equality only at xi = 0."""
    out = np.exp(characteristic_exponent(p, xi))
    return out if isinstance(out, np.ndarray) and out.ndim else complex(out)


def _tempered_sides(p: GTSParams):
    """Per side of psi: (alpha, beta, lam, sign, c, lam**beta).

    The base is lam + sign*i*xi; c = alpha*Gamma(-beta) is None at beta = 0,
    where the log form applies.  lam**beta is taken as exp(beta*log(lam)),
    the way the complex power evaluates it.
    """
    for alpha, beta, lam, sign in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, -1.0),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, 1.0),
    ):
        c = None if beta == 0.0 else alpha * float(_gamma(-beta))
        yield alpha, beta, lam, sign, c, math.exp(beta * math.log(lam))


def _shifted_cf(p: GTSParams, xi: np.ndarray, shift: float) -> np.ndarray:
    """exp(psi(xi) - i*shift*xi) at real xi, in real arithmetic.

    Each base lam + sign*i*xi enters through its log-modulus
    0.5*log(lam**2 + xi**2) and its argument sign*atan(xi/lam) (the
    log1p/atan form of -alpha*log(base/lam) at beta = 0), so psi costs real
    log/atan/exp/cos/sin instead of complex powers.  The result is one real
    exp of Re psi times the unit phasor of Im psi - shift*xi; it agrees with
    exp(characteristic_exponent(p, xi) - 1j*shift*xi) to rounding.
    """
    re = np.zeros_like(xi)
    im = p.mu * xi
    for alpha, beta, lam, sign, c, lam_beta in _tempered_sides(p):
        r = xi / lam
        arg = np.arctan(r)
        if c is None:
            re -= 0.5 * alpha * np.log1p(r * r)
            im -= sign * alpha * arg
        else:
            mod = np.exp((0.5 * beta) * np.log(lam * lam + xi * xi))
            re += c * (mod * np.cos(beta * arg) - lam_beta)
            im += (sign * c) * mod * np.sin(beta * arg)
    return _polar(re, im - shift * xi)


def _polar(log_modulus: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(log_modulus + i*phase) from one real exp and one cos/sin pair."""
    modulus = np.exp(log_modulus)
    out = np.empty(phase.shape, dtype=complex)
    out.real = modulus * np.cos(phase)
    out.imag = modulus * np.sin(phase)
    return out


def _log_modulus(p: GTSParams):
    """The scalar function x -> Re psi(x) = log|cf(x)| at real x, via math.

    It takes the real steps of the complex reference path: the log of the
    base's hypot, its atan2, exp and cos, and at beta = 0 the division of
    the base by lam before the log.  So it returns
    Re characteristic_exponent(p, x) to the bit away from small |x|, and the
    cutoff bisection lands on the same float or within a few ulps of it.
    Per-side constants are bound once.
    """
    sides = tuple(_tempered_sides(p))

    def re_psi(x: float) -> float:
        total = 0.0
        for alpha, beta, lam, _, c, lam_beta in sides:
            if c is None:
                inv = 1.0 / lam
                total -= alpha * math.log(math.hypot(lam * inv, x * inv))
            else:
                power = math.exp(beta * math.log(math.hypot(lam, x)))
                total += c * (power * math.cos(beta * math.atan2(x, lam)) - lam_beta)
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
    each base lam -/+ theta is positive and psi(-i*theta) is real: the
    powers are exp(beta*log(base)), and at beta = 0 the log form is
    -alpha*log1p(-/+theta/lam).
    """
    val = p.mu * theta
    for alpha, beta, lam, sign, c, lam_beta in _tempered_sides(p):
        if c is None:
            val = val - alpha * np.log1p(sign * theta / lam)
        else:
            val = val + c * (np.exp(beta * np.log(lam + sign * theta)) - lam_beta)
    return val


def levy_density(p: GTSParams, x):
    """Density of the Levy measure at x != 0 (jumps per unit size)."""
    x = np.asarray(x, dtype=float)
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
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"cumulant order must be >= 1, got {n}")
    plus = p.alpha_plus * _gamma(n - p.beta_plus) * p.lambda_plus ** (p.beta_plus - n)
    minus = p.alpha_minus * _gamma(n - p.beta_minus) * p.lambda_minus ** (p.beta_minus - n)
    if n == 1:
        return p.mu + plus - minus
    return plus + (-1) ** n * minus


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
    with open(path, "w", encoding="utf-8") as fh:
        for name, v in zip(PARAM_NAMES, p.as_tuple()):
            fh.write(f"{name} = {v:.17g}\n")
