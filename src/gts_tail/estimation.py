"""Maximum-likelihood fitting of full and restricted GTS models.

The likelihood of a return sample is evaluated through the Fourier-inverted
density (the tables' local degree-4 stencil between grid nodes, floored at
1e-300 before the log).  The surface is maximized in a transformed space:
log for intensities and tempering rates, identity for the drift and for
the stability indices, which L-BFGS-B holds in the box [0, 1 - 1e-3]
(0 is the bilateral-gamma limit).  One search path: L-BFGS-B rounds with the
exact score, each on a likelihood plan frozen where it starts, its first
steps short, from the moment-matched start (or the caller's); a round that
fails or touches a plan bound hands its point to the next, on a plan
re-frozen there.  The full model and the restricted families share it; a
RestrictedKind says which natural fields each free coordinate fills.

A plan freezes the whole grid (x-range, node counts, cutoff, with headroom
on the cutoff and on the period) and precomputes its inversion, so an
evaluation costs one characteristic-function kernel, one FFT and a
stencil gather.  The gather is linear in the node values, so the
likelihood is as smooth in the parameters as the inversion.  Its score, in
reverse mode, adds the gather's adjoint (one bincount), one more FFT and
the kernel's closed-form partials, whatever the number of free
coordinates.
It evaluates a law only inside the two bounds its grid is valid for
(truncation and aliasing), and returns a penalty outside them.  Each
phase's score-evaluation and penalty counts and wall time go to the
"gts_tail" logger as one debug event.

The reported log-likelihood is the value on a plan frozen at the estimate.
Standard errors come from the observed information: the Hessian of the
negative log-likelihood at the optimum by central differences of the score
in the transformed coordinates, on that same plan, symmetrized, inverted
and mapped back to natural parameters by the delta method.  Where a free
stability index is closer to a bound of its box than one Hessian step, the
fit reports no standard errors.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import PARAM_NAMES, GTSParams, RestrictedKind, cumulant, validate_params
from .errors import (
    BoundaryEstimate,
    ConfigError,
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
    GridConfig,
    _bound_crossed,
    _sized_grid,
    _stencil_pullback,
    _stencil_values,
    _stencil_weights,
    _stencil_windows,
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

# A fit's likelihood grid: GridConfig's x-range, cutoff at |cf| < 1e-8.
_FIT_FREQ_EPS = 1e-8
# A frozen likelihood plan's cutoff, in multiples of the cutoff of the law
# it is frozen at, and its period, in multiples of the guard (grid
# half-width plus 1e-9 tail radius) of that law: the room its laws have
# before the truncation and aliasing bounds.  The first round's plan is
# frozen at the start, far from the optimum, and gets the most room.  On
# the benchmark sample (3000 BTC draws, seed 2025) 4 and 2 there took 2
# rounds and 0.15 s, 1.5 and 1.1 took 6 rounds and 0.22 s, and 2 and 1.3
# on every plan took 3 rounds and 0.23 s.  Later rounds start closer and
# keep 1.5 and 1.1: with the period's bare guard (only rounded up to a
# fast FFT length) a round started from a nearly stationary point touched
# the aliasing bound on 4 of 14 checked samples, from 1.03 on none did.
# The node count grows with the cutoff, and each 1 % of period costs about
# 1 % more nodes and FFT length.  The Hessian's plan, frozen at the
# estimate (which also gives the reported log-likelihood), only needs room
# for probes 1e-4 away.
_FIRST_HEADROOM = 4.0
_FIRST_PERIOD = 2.0
_HEADROOM = 1.5
_PLAN_PERIOD = 1.1
_HESSIAN_HEADROOM = 1.25
# A polish round that gains under this many nats on its own plan ends the
# fit; plans frozen at nearby points differ by up to 0.11 nats at grid_m 1024.
_ROUND_GAIN = 1e-6
_HESSIAN_STEP = 1e-4  # relative step of the Hessian's score differences
# The stability indices are fitted as they are in the L-BFGS-B box
# [0, _BETA_MAX]: 0 is the bilateral-gamma limit, which the kernel holds
# without cancellation, and Gamma(1 - beta) diverges at 1; 1e-3 below 1 keeps
# it under 1000.  A fit stopped on either bound returns it, without Wald
# standard errors (BoundaryEstimate).
_BETA_MAX = 1.0 - 1e-3
# L-BFGS-B polish on the exact score: the relative-decrease and
# projected-gradient stopping tolerances.  On 14 checked samples ftol 1e-15
# took 1-16 more score calls on seven, for at most 6e-9 nats, and needed
# a second round on one.
_QN_FTOL = 1e-14
_QN_GTOL = 1e-8
# The polish runs in u = (t - t_start)/_POLISH_SCALE, _BETA_SCALE times
# that for the stability indices.  L-BFGS-B's first trial step has unit
# length along -g: run in t from a nearly stationary point, the polish
# crossed a plan bound within 3-38 calls on 7 of 14 checked samples.
_POLISH_SCALE = 0.018
# At one common scale the first steps went almost all into the stability
# indices, along which the likelihood is far steeper: criterion 9's KoBoL
# fit walked beta from 0.35 to 0.06 and stopped on the node budget 61.6 nats
# short of its optimum.  0.25-0.5 converge it; 0.35 took 62 score calls on
# the benchmark sample, 0.25 took 77.  Fits move by up to 2e-5 nats between
# neighbouring scales: both were chosen on 14 samples, checked on 14 others.
_BETA_SCALE = 0.35

_log = logging.getLogger("gts_tail")


@dataclass(frozen=True)
class FitOptions:
    """Optimizer and likelihood-grid settings.

    The likelihood grid has ``grid_m`` spatial points and is deliberately
    lighter than the default table resolution (20 standard deviations each
    side, cutoff at |cf| < 1e-8).  Each polish round freezes one plan where
    it starts, sized by ``spectral._sized_grid`` with 1.5 times that law's
    cutoff and 1.1 times its aliasing guard, at most ``max_n_freq`` nodes;
    the first round's plan, frozen at the start, takes 4 times the cutoff
    and 2 times the guard.  ``grid_m`` and ``max_n_freq`` are checked as
    GridConfig's ``m`` and ``max_n_freq`` are.  The likelihood, read at each
    observation by ``DensityTable.interpolate``'s degree-4 stencil, is then
    a smooth function of the parameters.
    Laws the frozen grid cannot resolve (a characteristic function still
    above 1e-8 at the cutoff, or density aliases reaching the grid), such
    as stability indices near zero with small intensities, are treated as
    infeasible by the optimizer.  The stability indices are searched as
    they are, in the box [0, 1 - 1e-3]; a fit may return an index of
    exactly 0, the bilateral-gamma limit, or exactly 1 - 1e-3.

    The search is L-BFGS-B polish rounds of ``maxfev`` score calls in
    total, on the exact score, from the moment-matched start (or the
    caller's ``init``).  A round that succeeds without touching a bound of
    its plan converges the fit, unless on a plan re-frozen where it stopped
    a Newton step by its inverse Hessian would gain 1e-6 nats or more (one
    score call).  Otherwise the plan is re-frozen where the
    round stopped, unless the round gained under 1e-6 nats on its own plan
    (converged if it succeeded, but not if it touched a bound of a plan at
    the ``max_n_freq`` budget), the budget is spent, or the law where it
    stopped needs more than ``max_n_freq`` nodes on its own grid.  A plan
    at the node budget is re-frozen too: it keeps the budget's nodes and
    shares the room between its two bounds around the new point.
    ``compute_se`` adds standard errors to a converged fit: central
    differences of the score at steps of 1e-4, relative, on the plan frozen
    at the estimate with a cutoff 1.25 times its own, which also gives the
    reported log-likelihood; a fit with a free stability index within 1e-4
    of either bound of its box omits them, as a fallback.
    """

    grid_m: int = 2**12
    max_n_freq: int = 2**17
    maxfev: int = 4000
    compute_se: bool = True


@dataclass(frozen=True)
class FitResult:
    """A fit's estimate, its log-likelihood and its inference.

    ``loglik`` is the value at ``params`` on a plan frozen there, the one
    the standard errors' Hessian uses (a cutoff 1.25 times that of
    ``params``, a period 1.1 times its aliasing guard) and the public
    ``log_likelihood`` reads given the fit's FitOptions.  Where
    ``params`` needs more than ``max_n_freq`` frequency nodes on its own
    grid, so that no plan can be frozen there, ``loglik`` is the value on
    the plan of the fit's last polish round instead, and a converged fit
    omits its standard errors as a fallback.
    """

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

def _is_logged(name: str) -> bool:
    """Intensities and tempering rates are fitted in log; the drift and
    the stability indices as they are."""
    return not (name == "mu" or name.startswith("beta"))


def _to_transformed(names, free):
    return np.array([math.log(float(v)) if _is_logged(n) else float(v) for n, v in zip(names, free)])


def _from_transformed(names, t):
    return [math.exp(float(v)) if _is_logged(n) else float(v) for n, v in zip(names, t)]


def _jacobian_diag(names, free):
    """d(natural)/d(transformed) for the coordinate-wise transforms."""
    return np.array([float(v) if _is_logged(n) else 1.0 for n, v in zip(names, free)])


# --------------------------------------------------------------------------
# likelihood
# --------------------------------------------------------------------------

def _likelihood_grid(p: GTSParams, data: np.ndarray, cfg: GridConfig) -> GridConfig:
    """Widen the grid so every observation sits inside it."""
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    cover = float(np.max(np.abs(data - k1))) + 4.0 * math.sqrt(k2)
    return replace(cfg, min_half_width=max(cfg.min_half_width, cover))


def _densities(values: np.ndarray, start: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The stencil density at the observations' windows and weights,
    clamped at 0: what ``DensityTable.interpolate`` reads on the grid."""
    return np.maximum(_stencil_values(values, start, weights), 0.0)


def _log_sum(dens: np.ndarray) -> float:
    """Sum of log densities, each floored at 1e-300."""
    return float(np.sum(np.log(np.maximum(dens, _DENSITY_FLOOR))))


def _neg_log_density_sum_and_grad(raw: np.ndarray, index: np.ndarray, weights: np.ndarray,
                                  block: np.ndarray):
    """(-_log_sum(_densities(max(raw, 0), start, weights)), and its gradient
    in the raw node values), given each point's window index = start +
    arange(5), one row per node; ``block``, shaped like the weights, is
    overwritten.

    The gradient passes the clamps at 0 where a node or a density is
    positive, and the floor where a density is above it; elsewhere it is 0.
    """
    dens = _densities(np.maximum(raw, 0.0), index[0], weights)
    kept = dens > _DENSITY_FLOOR
    g = np.divide(-1.0, dens, out=np.zeros_like(dens), where=kept)
    grad = _stencil_pullback(index, np.multiply(weights, g, out=block), raw.shape[0])
    return -_log_sum(dens), np.where(raw > 0.0, grad, 0.0)


def log_likelihood(
    p: GTSParams, data: ReturnSeries, grid_cfg: GridConfig | FitOptions | None = None
) -> float:
    """Sum of log density over the observations, each floored at 1e-300,
    read on a likelihood plan frozen at p (``DensityTable.interpolate`` to
    the bit on its grid).

    ``grid_cfg`` is a fit's FitOptions (None for the default ones) or a
    GridConfig.  With FitOptions the plan is the one a fit with those
    options freezes at its estimate, so ``log_likelihood(fit.params, data,
    options) == fit.loglik``; a p needing more than their ``max_n_freq``
    nodes raises ConfigError.  A GridConfig is honored as-is, on
    ``build_grid(p, grid_cfg)``, and observations off its grid raise OutOfGrid
    listing the offenders.  ``pdf_table``'s mass and negativity checks are
    not run: they measure how far the grid covers the tails, while the plan
    holds p inside its truncation and aliasing bounds and every observation
    on its grid.
    """
    obs = np.asarray(data.values, dtype=float)
    if obs.size == 0:
        raise TooShort("empty return series")
    if isinstance(grid_cfg, GridConfig):
        plan = _LikelihoodPlan(p, obs, grid_cfg)
    else:
        plan = _fit_plan(p, obs, FitOptions() if grid_cfg is None else grid_cfg)
    return -plan.neg_loglik(p)


def _free_score(kind: RestrictedKind, by_field: np.ndarray) -> np.ndarray:
    """The chain rule of ``kind.expand``: each free coordinate's derivative
    is the sum over the natural fields it fills."""
    index = {name: k for k, name in enumerate(PARAM_NAMES)}
    return np.array([sum(by_field[index[f]] for f in fields) for _, fields in kind.fields])


class _LikelihoodPlan:
    """The likelihood on one frozen grid, its inversion precomputed, and how
    its evaluations went.

    Frozen at a law p0: the grid ``spectral._sized_grid`` sizes for p0 and
    ``cfg`` with ``headroom`` on the cutoff and ``period`` on the aliasing
    guard (build_grid(p0, cfg) at 1 and 1).  A p0 whose own grid needs more
    than ``cfg.max_n_freq`` nodes raises ConfigError, as build_grid does,
    and observations off the grid raise OutOfGrid.

    A law is evaluated only where the frozen grid holds it, by the two
    bounds ``spectral._bound_crossed`` checks (truncation and aliasing).
    Anything else is penalized.  An evaluation is
    then one characteristic-function kernel, one FFT, the clamp at 0 and a
    degree-4 stencil gather at the observations' precomputed 5-node
    windows and weights (``DensityTable.interpolate`` to the bit).  Its
    score is exact, in reverse mode: the gather's adjoint, one bincount of
    those same weights, gives the gradient in the node values, one more
    FFT carries it back through the inversion, and the kernel's partials
    in closed form finish it.

    ``objective(kind)`` maps a kind's transformed coordinates to the
    negative log-likelihood and its exact gradient (``neg_loglik`` is the
    value alone), or to the 1e15 penalty and a zero score for a law past a
    bound or one whose evaluation raises.  The inverted density is clamped
    at 0 instead of held to the public table invariants, so mild truncation
    ripple (slowly decaying characteristic functions near the restricted
    families) degrades the likelihood smoothly.  Each objective evaluates
    into arrays it allocates once (its ``pdf_evaluator``'s and a (5, n_obs)
    block for the stencil's adjoint), which two objectives of one plan
    never share.  Objective calls and
    penalties by cause are counted, and ``log`` reports them, with the wall
    time since the plan was built, as one debug event on the "gts_tail" logger.
    """

    def __init__(
        self, p0: GTSParams, obs: np.ndarray, cfg: GridConfig, headroom: float = 1.0,
        period: float = 1.0,
    ):
        self._started = time.perf_counter()
        self.evaluations = 0
        self.penalties = dict.fromkeys(("truncation", "aliasing", "error"), 0)
        self.grid = _sized_grid(p0, cfg, headroom, period)
        outside = obs[(obs < self.grid.x_min) | (obs > self.grid.x_max)]
        if outside.size:
            raise OutOfGrid(outside)
        self._freq_eps = cfg.freq_eps
        start, y = _stencil_windows(self.grid, obs)
        self._index = start + np.arange(5)[:, None]
        self._weights = _stencil_weights(y)

    def penalty_cause(self, p: GTSParams) -> str | None:
        return _bound_crossed(self.grid, p, self._freq_eps)

    def neg_loglik(self, p: GTSParams) -> float:
        raw = self.grid._inversion.pdf(p)
        return -_log_sum(_densities(np.maximum(raw, 0.0), self._index[0], self._weights))

    def objective(self, kind: RestrictedKind):
        names = kind.free_names
        evaluate = self.grid._inversion.pdf_evaluator()
        block = np.empty_like(self._weights)

        def neg(t):
            self.evaluations += 1
            try:
                free = _from_transformed(names, t)
                p = kind.expand(free)
                cause = self.penalty_cause(p)
                if cause is None:
                    raw, pullback = evaluate(p)
                    value, grad = _neg_log_density_sum_and_grad(raw, self._index, self._weights, block)
                    return value, _free_score(kind, pullback(grad)) * _jacobian_diag(names, free)
            except (GtsError, FloatingPointError, OverflowError, ValueError):
                cause = "error"
            self.penalties[cause] += 1
            return _PENALTY, np.zeros(len(names))

        return neg

    def log(self, phase: str, **details) -> None:
        """One debug event for the phase; ``details`` become extra record
        attributes after the common ones."""
        seconds = time.perf_counter() - self._started
        g = self.grid
        plan = dict(n_freq=g.n_freq, xi=g.freq_cutoff, x_min=float(g.x_min), dx=float(g.dx))
        _log.debug(
            "fit phase %s: %d score evaluations in %.3f s, penalties %s, plan %s%s",
            phase, self.evaluations, seconds, self.penalties, plan,
            "".join(f", {k} {v}" for k, v in details.items()),
            extra=dict(fit_phase=phase, evaluations=self.evaluations,
                       penalties=dict(self.penalties), plan=plan, seconds=seconds, **details),
        )


def _fit_plan(
    p0: GTSParams, obs: np.ndarray, options: FitOptions, headroom: float = _HESSIAN_HEADROOM,
    period: float = _PLAN_PERIOD,
) -> _LikelihoodPlan:
    """The plan a fit freezes at p0 on its ``options``' likelihood grid,
    widened to hold every observation; by default the one at an estimate,
    which gives the reported log-likelihood and the Hessian."""
    cfg = GridConfig(m=options.grid_m, freq_eps=_FIT_FREQ_EPS, max_n_freq=options.max_n_freq)
    return _LikelihoodPlan(p0, obs, _likelihood_grid(p0, obs, cfg), headroom, period)


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
    """Fit by maximum likelihood: L-BFGS-B polish rounds on the exact score,
    each on a plan frozen where it starts, from the moment-matched start or
    ``init`` (FitOptions says when the rounds stop).

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
    t = _to_transformed(names, kind.reduce(init_params))

    # Quasi-Newton polish rounds, each on a plan frozen where it starts, on
    # which the likelihood is smooth.  A round's line search stalls on the
    # plan's penalty wall, so its optimum stands only if no evaluation was
    # penalized; otherwise the next round re-freezes the plan where it
    # stopped, at the node budget too while the rounds still gain.
    def freeze(t, headroom=_HEADROOM, period=_PLAN_PERIOD):
        return _fit_plan(kind.expand(_from_transformed(names, t)), obs, options, headroom, period)

    plan, budget, stop = freeze(t, _FIRST_HEADROOM, _FIRST_PERIOD), options.maxfev, None
    for round_ in itertools.count(1):
        best = _polish(plan, kind, t, budget)
        budget -= plan.evaluations
        touched = sum(plan.penalties.values()) > 0
        if best.success and not touched:
            # The round's plan was frozen where it started; the optimum of
            # one frozen where it stopped may lie further along a flat ridge.
            stop = "converged"
            if best.gain >= _ROUND_GAIN and budget > 0:
                with contextlib.suppress(ConfigError):
                    refrozen = freeze(best.x)
                    if _predicted_gain(refrozen, kind, best) >= _ROUND_GAIN:
                        stop = None
        elif best.gain < _ROUND_GAIN:
            if touched and plan.grid.n_freq + 2 > options.max_n_freq:
                stop = "max_n_freq"
            else:
                stop = "converged" if best.success else "stalled"
        elif budget <= 0:
            stop = "maxfev"
        else:
            try:
                refrozen = freeze(best.x)
            except ConfigError:
                stop = "max_n_freq"
        plan.log("polish", method="L-BFGS-B", round=round_, status=best.message,
                 gain=best.gain, stop=stop)
        if stop is not None:
            break
        plan, t = refrozen, best.x
    converged = stop == "converged"

    # The value on a plan frozen at the estimate, which the Hessian reuses.
    params = kind.expand(_from_transformed(names, best.x))
    try:
        plan = _fit_plan(params, obs, options)
        loglik = -plan.neg_loglik(params)
    except ConfigError:
        plan, loglik = None, -float(best.fun)
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
        result = _with_standard_errors(result, data, options, plan)
    return result


def _polish(plan: _LikelihoodPlan, kind: RestrictedKind, t_start: np.ndarray, maxfev: int):
    """L-BFGS-B on the plan's exact score from t_start, the stability indices
    in the box [0, _BETA_MAX], in u = (t - t_start)/scale (_POLISH_SCALE, times
    _BETA_SCALE for the indices) so that its first trial step is short; a u on
    a bound maps to that bound exactly.  The result's x is in t, its ``gain``
    the drop in value from t_start, and it keeps its scale and box."""
    score = plan.objective(kind)
    beta = np.array([n.startswith("beta") for n in kind.free_names])
    scale = np.where(beta, _BETA_SCALE * _POLISH_SCALE, _POLISH_SCALE)
    lower, upper = np.where(beta, 0.0, -np.inf), np.where(beta, _BETA_MAX, np.inf)
    bounds = np.column_stack(((lower - t_start) / scale, (upper - t_start) / scale))
    values = []

    def to_t(u):
        t = t_start + scale * u
        return np.where(u <= bounds[:, 0], lower, np.where(u >= bounds[:, 1], upper, t))

    def scaled(u):
        value, grad = score(to_t(u))
        values.append(value)
        return value, scale * grad

    r = _lbfgsb(scaled, np.zeros_like(t_start), bounds, maxfev, _QN_FTOL, _QN_GTOL * _POLISH_SCALE)
    r.x, r.gain, r.scale, r.box = to_t(r.x), values[0] - r.fun, scale, (lower, upper)
    return r


def _predicted_gain(plan: _LikelihoodPlan, kind: RestrictedKind, r) -> float:
    """The gain in nats, by one score call, of a Newton step from r.x on ``plan``
    with the inverse Hessian of the L-BFGS-B run r, off the box's bounds."""
    value, grad = plan.objective(kind)(r.x)
    if value >= _PENALTY:
        return math.inf
    g, (lower, upper) = r.scale * grad, r.box
    g[((r.x <= lower) & (g > 0.0)) | ((r.x >= upper) & (g < 0.0))] = 0.0
    return 0.5 * float(g @ r.hess_inv.matvec(g))


def _lbfgsb(fun, x0: np.ndarray, bounds, maxfun: int, ftol: float, gtol: float):
    """scipy's L-BFGS-B on ``fun``, which returns (value, gradient), inside
    ``bounds`` (one (lower, upper) row per coordinate, infinite for none).
    scipy.optimize is imported here, on the first fit, so that importing
    gts_tail does not load it."""
    from scipy.optimize import minimize

    return minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
        options=dict(maxfun=maxfun, ftol=ftol, gtol=gtol),
    )


def _with_standard_errors(
    result: FitResult, data: ReturnSeries, options: FitOptions, plan: _LikelihoodPlan | None = None
) -> FitResult:
    """The fit with its standard errors, on ``plan`` (frozen at the
    estimate; one is frozen here if it is None), or without them (and
    flagged as a fallback, with SingularHessianWarning) when no plan can be
    frozen at the estimate, the Hessian's probes hit the likelihood penalty
    or a free stability index sits on a bound of its box."""
    obs = np.asarray(data.values, dtype=float)
    try:
        if plan is None:
            plan = _fit_plan(result.params, obs, options)
        se, pv, fallback = _standard_errors(result, plan)
    except (ConfigError, PenaltyWall, BoundaryEstimate) as exc:
        warnings.warn(f"standard errors omitted: {exc}", SingularHessianWarning, stacklevel=3)
        return replace(result, hessian_fallback=True)
    return replace(result, std_errors=se, z_pvalues=pv, hessian_fallback=fallback)


def _score_hessian(score, t, step_rel):
    """Central differences of the score at t, column i from steps
    +-step_rel*max(|t_i|, 1) in coordinate i: 2n score calls.  Not
    symmetrized."""
    h = step_rel * np.maximum(np.abs(t), 1.0)
    cols = []
    for i, step in enumerate(h):
        e = np.zeros_like(t)
        e[i] = step
        cols.append((score(t + e) - score(t - e)) / (2.0 * step))
    return np.column_stack(cols)


def standard_errors(fit: FitResult, data: ReturnSeries, options: FitOptions = FitOptions()):
    """(std_errors, z_pvalues, used_fallback) for the seven natural parameters.

    The observed information is computed in the transformed space, from
    central differences of the exact score (two score calls per free
    coordinate), and mapped back through the diagonal Jacobian of the
    coordinate-wise transforms.
    The Hessian's plan is frozen at the estimate, and an estimate whose own
    grid needs more than ``options.max_n_freq`` frequency nodes raises
    ConfigError.
    A singular Hessian falls back to the Moore-Penrose pseudo-inverse and
    emits SingularHessianWarning.  A Hessian probe that hits the likelihood
    penalty (an infeasible point, or one past a bound of the plan frozen at
    the estimate) raises PenaltyWall naming the coordinates probed.  A free
    stability index closer than one Hessian step (1e-4) to a bound of the
    fit's box [0, 1 - 1e-3] raises BoundaryEstimate: an estimate on a bound
    is not an interior optimum, for which alone a Wald error holds, and next
    to 0 a central difference cannot straddle the estimate without leaving
    the domain.
    Structurally pinned parameters of a restricted fit report a standard
    error of 0 and a p-value of 1.
    """
    obs = np.asarray(data.values, dtype=float)
    return _standard_errors(fit, _fit_plan(fit.params, obs, options))


def _standard_errors(fit: FitResult, plan: _LikelihoodPlan):
    """standard_errors on ``plan``, frozen at the estimate."""
    kind = fit.kind
    names = kind.free_names
    free = kind.reduce(fit.params)
    t = _to_transformed(names, free)
    # A stability index is below 1, so its Hessian step is _HESSIAN_STEP.
    box = (_HESSIAN_STEP, _BETA_MAX - _HESSIAN_STEP)
    on_bound = [n for n, v in zip(names, t) if n.startswith("beta") and not box[0] <= v <= box[1]]
    if on_bound:
        raise BoundaryEstimate(on_bound)

    with_score = plan.objective(kind)
    walled = set()

    def score(s):
        value, grad = with_score(s)
        if value >= _PENALTY:
            walled.update(np.flatnonzero(s != t).tolist())
        return grad

    H = _score_hessian(score, t, _HESSIAN_STEP)
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
            stacklevel=3,
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
            pvals[name] = math.erfc(abs(z) / math.sqrt(2.0))
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
