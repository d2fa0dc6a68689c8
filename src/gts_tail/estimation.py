"""Maximum-likelihood fitting of full and restricted GTS models.

The likelihood of a return sample is evaluated through the Fourier-inverted
density (monotone cubic interpolation between grid nodes, floored at 1e-300
before the log).  The surface is maximized in a transformed space (logit
for the stability indices, log for intensities and tempering rates,
identity for the drift).  One search path: a short Nelder-Mead pilot run
from the moment-matched start (or the caller's) under per-evaluation grids,
then an L-BFGS-B polish with forward-difference gradients on one likelihood
plan frozen at the pilot's point.  When that polish fails, or any of its
evaluations hits a plan bound (its line search stalls on the penalty),
repeated simplex restarts on the same plan take over until a restart stops
improving.  The full model and the restricted families share it; a
RestrictedKind says which natural fields each free coordinate fills.

A plan freezes the whole grid (x-range, node counts, cutoff, with headroom
on the cutoff) and precomputes its inversion, so an evaluation costs one
characteristic-function kernel, two FFTs and a gather.  It evaluates a law
only inside the two bounds its grid is valid for (truncation and
aliasing), and returns a penalty outside them.  Each phase's evaluation
and penalty counts and wall time go to the "gts_tail" logger as one debug
event.

Standard errors come from the observed information: the Hessian of the
negative log-likelihood at the optimum by central finite differences in the
transformed coordinates, on a plan frozen at the estimate, inverted and
mapped back to natural parameters by the delta method.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfc

from .core import PARAM_NAMES, GTSParams, RestrictedKind, _log_modulus, cumulant, validate_params
from .errors import (
    DegenerateData,
    DomainError,
    GtsError,
    OutOfGrid,
    PenaltyWall,
    SingularHessianWarning,
    TooShort,
)
from .returns_io import ReturnSeries
from .spectral import (
    _ALIAS_MASS,
    GridConfig,
    SpectralGrid,
    _brackets,
    _frozen_pdf,
    _monotone_cubic,
    _next_pow2,
    _pdf_values,
    _tail_radius,
    build_grid,
    pdf_table,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "NormalFit",
    "log_likelihood",
    "fit_mle",
    "standard_errors",
    "information_criteria",
    "fit_normal",
]

_MIN_OBS = 100
_DENSITY_FLOOR = 1e-300
_PENALTY = 1e15

# Likelihood grid: 20 standard deviations each side, cutoff at |cf| < 1e-8.
_FIT_WIDTH_SDS = 20.0
_FIT_FREQ_EPS = 1e-8
_LOG_FREQ_EPS = math.log(_FIT_FREQ_EPS)
# A frozen likelihood plan's cutoff, in multiples of the cutoff of the law
# it is frozen at.  The polish plan is frozen at the pilot point: from there
# to the optimum of 3000 BTC draws the cutoff grows 2.8x.  The Hessian's
# plan is frozen at the estimate, and its probes move 1e-4 from it; at 4x
# it would need 65536 nodes on that sample instead of 16384.
_HEADROOM = 4.0
_HESSIAN_HEADROOM = 1.25
# Simplex tolerances (the pilot keeps scipy's default xatol) and the relative
# finite-difference step of the standard errors' Hessian.
_FATOL = 1e-8
_XATOL = 1e-6
_HESSIAN_STEP = 1e-4
# L-BFGS-B polish: the absolute forward-difference step in transformed
# coordinates, and the relative-decrease and projected-gradient stopping
# tolerances.  On 3000 BTC draws it reaches the simplex optimum to 3e-10
# nats in 336 evaluations (the simplex restarts take 1921).
_QN_EPS = 1e-7
_QN_FTOL = 1e-15
_QN_GTOL = 1e-8

_log = logging.getLogger("gts_tail")


@dataclass(frozen=True)
class FitOptions:
    """Optimizer and likelihood-grid settings.

    The likelihood grid has ``grid_m`` spatial points and is deliberately
    lighter than the default table resolution (20 standard deviations each
    side, cutoff at |cf| < 1e-8).  The pilot sizes a grid per evaluation.
    The polish then freezes one plan at the pilot's point: its x-range, a
    cutoff four times the pilot's, and the frequency node count the
    aliasing bound asks for at that cutoff, at most ``max_n_freq`` (a
    power of two).  The likelihood is then a smooth function of the
    parameters.  Laws the frozen grid cannot resolve (a characteristic
    function still above 1e-8 at the cutoff, or density aliases reaching
    the grid), such as stability indices near zero with small intensities,
    are treated as infeasible by the optimizer.

    The search is one pilot simplex run of at most ``probe_maxfev``
    likelihood evaluations, then one L-BFGS-B polish of at most ``maxfev``
    evaluations plus one forward-difference gradient (step 1e-7).  If it
    fails, or any of its evaluations hits a bound of the frozen plan, up
    to ``polish_rounds`` simplex restarts of at most ``maxfev`` evaluations
    each follow from the better of its point and the pilot's, stopping once
    a restart improves the negative log-likelihood by less than 1e-6.
    ``compute_se`` adds standard errors to a converged fit (Hessian step
    1e-4, relative, on a plan frozen at the estimate with a cutoff 1.25
    times its own).
    """

    grid_m: int = 2**12
    max_n_freq: int = 2**17
    probe_maxfev: int = 400
    maxfev: int = 4000
    polish_rounds: int = 6
    compute_se: bool = True


@dataclass(frozen=True)
class FitResult:
    params: GTSParams
    loglik: float
    std_errors: tuple | None
    z_pvalues: tuple | None
    aic: float
    bic: float
    n_obs: int
    converged: bool
    n_free: int
    kind: RestrictedKind = RestrictedKind.FULL
    hessian_fallback: bool = False


@dataclass(frozen=True)
class NormalFit:
    """Two-parameter Gaussian benchmark fitted by closed-form MLE."""

    mean: float
    sd: float
    loglik: float
    aic: float
    bic: float
    n_obs: int


# --------------------------------------------------------------------------
# parameter-space transforms
# --------------------------------------------------------------------------

def _to_transformed(names, free):
    out = []
    for name, v in zip(names, free):
        if name.startswith("beta"):
            b = min(max(float(v), 1e-9), 1.0 - 1e-9)
            out.append(math.log(b / (1.0 - b)))
        elif name == "mu":
            out.append(float(v))
        else:
            out.append(math.log(float(v)))
    return np.array(out)


def _from_transformed(names, t):
    out = []
    for name, v in zip(names, t):
        if name.startswith("beta"):
            out.append(1.0 / (1.0 + math.exp(-float(v))))
        elif name == "mu":
            out.append(float(v))
        else:
            out.append(math.exp(float(v)))
    return out


def _jacobian_diag(names, free):
    """d(natural)/d(transformed) for the coordinate-wise transforms."""
    out = []
    for name, v in zip(names, free):
        if name.startswith("beta"):
            out.append(float(v) * (1.0 - float(v)))
        elif name == "mu":
            out.append(1.0)
        else:
            out.append(float(v))
    return np.array(out)


# --------------------------------------------------------------------------
# likelihood
# --------------------------------------------------------------------------

def _likelihood_grid(p: GTSParams, data: np.ndarray, cfg: GridConfig) -> GridConfig:
    """Widen the grid so every observation sits inside it."""
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    cover = float(np.max(np.abs(data - k1))) + 4.0 * math.sqrt(k2)
    return replace(cfg, min_half_width=max(cfg.min_half_width, cover))


def _base_grid_config(options: FitOptions) -> GridConfig:
    """The likelihood grid's settings, with its node count left automatic."""
    return GridConfig(
        m=options.grid_m,
        width_sds=_FIT_WIDTH_SDS,
        freq_eps=_FIT_FREQ_EPS,
        max_n_freq=options.max_n_freq,
    )


def _log_density_sum(values: np.ndarray, h: np.ndarray, brackets) -> float:
    """Sum of log monotone-cubic density over bracketed observations.

    Off-grid points count as density 0; every density is floored at 1e-300.
    """
    dens = _monotone_cubic(values, h, brackets)
    dens = np.where(np.isnan(dens), 0.0, np.maximum(dens, 0.0))
    return float(np.sum(np.log(np.maximum(dens, _DENSITY_FLOOR))))


def _grid_log_density_sum(values: np.ndarray, grid: SpectralGrid, obs: np.ndarray) -> float:
    x = grid.x()
    return _log_density_sum(values, np.diff(x), _brackets(x, obs))


def log_likelihood(p: GTSParams, data: ReturnSeries, grid_cfg: GridConfig | None = None) -> float:
    """Sum of log density over the observations.

    With ``grid_cfg=None`` the evaluation grid is auto-sized to cover the
    sample; an explicit config is honored as-is and observations that fall
    off its grid raise OutOfGrid listing the offenders.
    """
    obs = np.asarray(data.values, dtype=float)
    if obs.size == 0:
        raise TooShort("empty return series")
    cfg = grid_cfg
    if cfg is None:
        cfg = _likelihood_grid(p, obs, GridConfig(m=2**12))
    grid = build_grid(p, cfg)
    outside = obs[(obs < grid.x_min) | (obs > grid.x_max)]
    if outside.size:
        raise OutOfGrid(outside)
    return _grid_log_density_sum(pdf_table(p, grid).values, grid, obs)


class _Likelihood:
    """One fit phase's likelihood, and how its evaluations went.

    ``objective(kind)`` is the negative log-likelihood in a kind's
    transformed coordinates.  It returns the 1e15 penalty for a law the
    phase cannot evaluate: one that ``penalty_cause`` names (a bound of a
    frozen grid), or one whose evaluation raises.  The inverted density is
    clamped at 0 instead of held to the public table invariants, so mild
    truncation ripple (slowly decaying characteristic functions near the
    restricted families) degrades the likelihood smoothly.  Evaluations
    and penalties by cause are counted, and ``log`` reports them, with the
    wall time since the phase's likelihood was built, as one debug event on
    the "gts_tail" logger.
    """

    grid: SpectralGrid | None = None

    def __init__(self):
        self._started = time.perf_counter()
        self.evaluations = 0
        self.penalties = dict.fromkeys(("truncation", "aliasing", "error"), 0)

    def penalty_cause(self, p: GTSParams) -> str | None:
        return None

    def neg_loglik(self, p: GTSParams) -> float:
        raise NotImplementedError

    def objective(self, kind: RestrictedKind):
        names = kind.free_names

        def neg(t):
            self.evaluations += 1
            try:
                p = kind.expand(_from_transformed(names, t))
                cause = self.penalty_cause(p)
                if cause is None:
                    return self.neg_loglik(p)
            except (GtsError, FloatingPointError, OverflowError, ValueError):
                cause = "error"
            self.penalties[cause] += 1
            return _PENALTY

        return neg

    def log(self, phase: str, **details) -> None:
        """One debug event for the phase; ``details`` become extra record
        attributes after the common ones."""
        seconds = time.perf_counter() - self._started
        g = self.grid
        plan = None if g is None else dict(
            n_freq=g.n_freq, xi=g.freq_cutoff, x_min=float(g.x_min), dx=float(g.dx)
        )
        _log.debug(
            "fit phase %s: %d evaluations in %.3f s, penalties %s, plan %s%s",
            phase, self.evaluations, seconds, self.penalties, plan,
            "".join(f", {k} {v}" for k, v in details.items()),
            extra=dict(fit_phase=phase, evaluations=self.evaluations,
                       penalties=dict(self.penalties), plan=plan, seconds=seconds,
                       **details),
        )


class _AutoGrids(_Likelihood):
    """The pilot's likelihood: a fresh automatic grid for every law."""

    def __init__(self, obs: np.ndarray, options: FitOptions):
        super().__init__()
        self._obs = obs
        self._cfg = _base_grid_config(options)

    def neg_loglik(self, p: GTSParams) -> float:
        grid = build_grid(p, _likelihood_grid(p, self._obs, self._cfg))
        return -_grid_log_density_sum(np.maximum(_pdf_values(p, grid), 0.0), grid, self._obs)


class _LikelihoodPlan(_Likelihood):
    """The likelihood on one frozen grid, its inversion precomputed.

    Frozen at a law p0: the x-range of p0's likelihood grid (x_min, dx, m),
    a cutoff Xi of ``headroom`` times p0's own, and the smallest power of
    two n_freq whose period pi (n_freq - 1/2)/Xi clears p0's half-width
    plus its 1e-9 tail radius (build_grid's aliasing bound), at most
    ``max_n_freq``.  When that budget binds, Xi is the geometric mean of
    p0's cutoff and the largest cutoff the budget's period clears, so p0
    keeps the same room from both bounds.  A p0 whose own grid needs more
    than the budget raises ConfigError, as build_grid does.

    A law is evaluated only where the frozen grid is valid for it, by the
    two bounds build_grid sizes grids with: |cf(Xi)| <= 1e-8 (truncation)
    and a period that clears its farther grid end from kappa_1 plus its
    tail radius (aliasing).  Anything else is penalized.  An evaluation is
    then one characteristic-function kernel, two FFTs, the clamp at 0 and
    a monotone-cubic gather at the observations' precomputed brackets.
    """

    def __init__(self, p0: GTSParams, obs: np.ndarray, options: FitOptions, headroom: float):
        super().__init__()
        g0 = build_grid(p0, _likelihood_grid(p0, obs, _base_grid_config(options)))
        cutoff = g0.freq_cutoff
        guard = 0.5 * (g0.x_max - g0.x_min) + _tail_radius(p0, _ALIAS_MASS)
        xi = headroom * cutoff
        n_freq = _next_pow2(xi * guard / math.pi + 0.5)
        if n_freq > options.max_n_freq:
            n_freq = 1 << (options.max_n_freq.bit_length() - 1)
            xi = math.sqrt(cutoff * math.pi * (n_freq - 0.5) / guard)
        self.grid = replace(g0, n_freq=n_freq, freq_cutoff=xi)
        self._pdf = _frozen_pdf(self.grid)
        x = self.grid.x()
        self._h = np.diff(x)
        self._brackets = _brackets(x, obs)
        self._period = math.pi * (n_freq - 0.5) / xi

    def penalty_cause(self, p: GTSParams) -> str | None:
        g = self.grid
        if not _log_modulus(p)(g.freq_cutoff) <= _LOG_FREQ_EPS:
            return "truncation"
        k1 = cumulant(p, 1)
        if not self._period >= max(g.x_max - k1, k1 - g.x_min) + _tail_radius(p, _ALIAS_MASS):
            return "aliasing"
        return None

    def neg_loglik(self, p: GTSParams) -> float:
        return -_log_density_sum(np.maximum(self._pdf(p), 0.0), self._h, self._brackets)


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------

def _auto_init(data: np.ndarray, kind: RestrictedKind = RestrictedKind.FULL) -> GTSParams:
    """Moment-flavored starting point.

    Median for the drift, 0.5 for both stability indices, tempering rates
    from the 1%/99% quantile magnitudes (an exponential tail of rate lambda
    puts its percentile scale near a few multiples of 1/lambda), and a
    common intensity calibrated so the implied variance matches the sample.

    The bilateral-gamma family begins instead from a fixed intensity of 1.5
    per side with variance-matched rates: its preferred small intensities
    make the characteristic function decay too slowly to invert, so the
    start must sit inside the invertible region.
    """
    med = float(np.median(data))
    s2 = float(np.var(data))
    if kind is RestrictedKind.BILATERAL_GAMMA:
        alpha0 = 1.5
        lam = math.sqrt(2.0 * alpha0 / s2)
        return validate_params(med, 0.0, 0.0, alpha0, alpha0, lam, lam)
    q01, q99 = np.quantile(data, [0.01, 0.99])
    lam_p = 2.5 / max(abs(float(q99)), 1e-3)
    lam_m = 2.5 / max(abs(float(q01)), 1e-3)
    gamma_15 = math.gamma(1.5)
    alpha0 = s2 / (gamma_15 * (lam_p**-1.5 + lam_m**-1.5))
    alpha0 = max(alpha0, 1e-6)
    return validate_params(med, 0.5, 0.5, alpha0, alpha0, lam_p, lam_m)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def fit_mle(
    data: ReturnSeries,
    init: GTSParams | None = None,
    kind: RestrictedKind = RestrictedKind.FULL,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Fit by maximum likelihood: a pilot simplex run, then an L-BFGS-B
    polish, with simplex restarts when it fails or touches a plan bound.

    Non-convergence is reported through ``converged=False`` on the result
    rather than raised.  Requires at least 100 observations and non-zero
    sample variance; a ``kind`` that names no RestrictedKind raises
    DomainError.
    """
    obs = np.asarray(data.values, dtype=float)
    if obs.size < _MIN_OBS:
        raise TooShort(f"need >= {_MIN_OBS} observations to fit, got {obs.size}")
    if float(np.var(obs)) == 0.0:
        raise DegenerateData("sample variance is zero")

    try:
        kind = RestrictedKind(kind)
    except ValueError:
        valid = ", ".join(k.value for k in RestrictedKind)
        raise DomainError(f"unknown model kind {kind!r}; expected one of: {valid}") from None
    names = kind.free_names
    init_params = init if init is not None else _auto_init(obs, kind)
    t0 = _to_transformed(names, kind.reduce(init_params))

    # Pilot pass under per-evaluation automatic grids: cheap, tolerant of
    # the discrete node-count switches, and it lands near the data's true
    # decay scale.  The polish grid is then frozen from that point, so the
    # polished likelihood is smooth, with headroom for the optimum.
    auto = _AutoGrids(obs, options)
    pilot = minimize(
        auto.objective(kind),
        t0,
        method="Nelder-Mead",
        options=dict(maxfev=options.probe_maxfev, fatol=_FATOL, adaptive=True),
    )
    auto.log("pilot")
    t_start = pilot.x if pilot.fun < _PENALTY else t0
    pilot_params = kind.expand(_from_transformed(names, t_start))
    plan = _LikelihoodPlan(pilot_params, obs, options, _HEADROOM)
    neg = plan.objective(kind)

    # Quasi-Newton polish on the smooth frozen plan.  Its line search stalls
    # on the penalty wall, so its optimum stands only if no evaluation was
    # penalized.
    best = minimize(
        neg,
        t_start,
        method="L-BFGS-B",
        options=dict(maxfun=options.maxfev, eps=_QN_EPS, ftol=_QN_FTOL, gtol=_QN_GTOL),
    )
    quasi_newton_evaluations = plan.evaluations
    converged = bool(best.success) and sum(plan.penalties.values()) == 0
    method = "L-BFGS-B"
    if not converged:
        # Repeated simplex runs from the better of the two points, each
        # restarted (and so re-inflated) from the previous vertex;
        # ill-conditioned valleys stall a single run long before the
        # stationary point.
        method = "L-BFGS-B, Nelder-Mead"
        x0 = best.x if best.fun < neg(t_start) else t_start
        best = None
        prev = math.inf
        for _ in range(max(options.polish_rounds, 1)):
            r = minimize(
                neg,
                x0,
                method="Nelder-Mead",
                options=dict(maxfev=options.maxfev, fatol=_FATOL, xatol=_XATOL, adaptive=True),
            )
            if best is None or r.fun <= best.fun:
                best = r
            x0 = r.x
            if prev - r.fun < 1e-6:
                converged = bool(r.success)
                break
            prev = r.fun
    plan.log("polish", method=method, quasi_newton_evaluations=quasi_newton_evaluations)

    params = kind.expand(_from_transformed(names, best.x))
    loglik = -float(best.fun)
    aic, bic = _aic_bic(kind.n_free, obs.size, loglik)
    result = FitResult(
        params=params,
        loglik=loglik,
        std_errors=None,
        z_pvalues=None,
        aic=aic,
        bic=bic,
        n_obs=int(obs.size),
        converged=converged,
        n_free=kind.n_free,
        kind=kind,
    )
    if options.compute_se and converged:
        result = _with_standard_errors(result, data, options)
    return result


def _with_standard_errors(result: FitResult, data: ReturnSeries, options: FitOptions) -> FitResult:
    """The fit with its standard errors, or without them (and flagged as a
    fallback, with SingularHessianWarning) when the Hessian's probes hit the
    likelihood penalty."""
    try:
        se, pv, fallback = standard_errors(result, data, options)
    except PenaltyWall as exc:
        warnings.warn(f"standard errors omitted: {exc}", SingularHessianWarning, stacklevel=3)
        return replace(result, hessian_fallback=True)
    return replace(result, std_errors=se, z_pvalues=pv, hessian_fallback=fallback)


def _transformed_hessian(neg, t, step_rel):
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


def standard_errors(fit: FitResult, data: ReturnSeries, options: FitOptions = FitOptions()):
    """(std_errors, z_pvalues, used_fallback) for the seven natural parameters.

    The observed information is computed in the transformed space and mapped
    back through the diagonal Jacobian of the coordinate-wise transforms.
    A singular Hessian falls back to the Moore-Penrose pseudo-inverse and
    emits SingularHessianWarning.  A Hessian probe that hits the likelihood
    penalty (an infeasible point, or one past a bound of the plan frozen at
    the estimate) raises PenaltyWall naming the coordinates probed.  Structurally
    pinned parameters of a restricted fit report a standard error of 0 and
    a p-value of 1.
    """
    kind = fit.kind
    names = kind.free_names
    free = kind.reduce(fit.params)
    t = _to_transformed(names, free)

    obs = np.asarray(data.values, dtype=float)
    plan = _LikelihoodPlan(fit.params, obs, options, _HESSIAN_HEADROOM)
    neg = plan.objective(kind)
    walled = set()

    def probe(s):
        # A probe at the estimate itself implicates every coordinate.
        v = neg(s)
        if v >= _PENALTY:
            moved = np.flatnonzero(s != t)
            walled.update(moved.tolist() if moved.size else range(len(names)))
        return v

    H = _transformed_hessian(probe, t, _HESSIAN_STEP)
    plan.log("hessian")
    if walled:
        raise PenaltyWall(names[i] for i in sorted(walled))
    H = 0.5 * (H + H.T)
    fallback = False
    try:
        cov_t = np.linalg.inv(H)
        if np.any(np.diag(cov_t) <= 0.0) or not np.all(np.isfinite(cov_t)):
            raise np.linalg.LinAlgError("non-positive covariance diagonal")
    except np.linalg.LinAlgError:
        warnings.warn(
            "observed information singular; using pseudo-inverse",
            SingularHessianWarning,
            stacklevel=2,
        )
        fallback = True
        cov_t = np.linalg.pinv(H)

    jac = _jacobian_diag(names, free)
    var_nat = np.abs(np.diag(cov_t)) * jac**2
    se_free = np.sqrt(var_nat)

    # Scatter free-coordinate errors onto the natural fields they fill.
    se = dict.fromkeys(PARAM_NAMES, 0.0)
    for (_, fields), s in zip(kind.fields, se_free):
        for name in fields:
            se[name] = float(s)

    est = dict(zip(se.keys(), fit.params.as_tuple()))
    pvals = {}
    for name in se:
        if se[name] == 0.0:
            pvals[name] = 1.0
        else:
            z = est[name] / se[name]
            pvals[name] = float(erfc(abs(z) / math.sqrt(2.0)))
    return tuple(se[k] for k in PARAM_NAMES), tuple(pvals[k] for k in PARAM_NAMES), fallback


def _aic_bic(k: int, n: int, loglik: float):
    """(aic, bic) = (2k - 2 loglik, k ln n - 2 loglik) for k free parameters, n observations."""
    return 2.0 * k - 2.0 * loglik, k * math.log(n) - 2.0 * loglik


def information_criteria(fit: FitResult):
    """(aic, bic) of a fit, from its free-parameter count and sample size."""
    return _aic_bic(fit.n_free, fit.n_obs, fit.loglik)


def fit_normal(data: ReturnSeries) -> NormalFit:
    """Gaussian MLE benchmark (closed form)."""
    obs = np.asarray(data.values, dtype=float)
    if obs.size < 2:
        raise TooShort("need >= 2 observations")
    var = float(np.var(obs))
    if var == 0.0:
        raise DegenerateData("sample variance is zero")
    n = obs.size
    loglik = -0.5 * n * (math.log(2.0 * math.pi * var) + 1.0)
    aic, bic = _aic_bic(2, n, loglik)
    return NormalFit(
        mean=float(np.mean(obs)),
        sd=math.sqrt(var),
        loglik=loglik,
        aic=aic,
        bic=bic,
        n_obs=n,
    )
