"""Quantile-quantile analysis and goodness-of-fit statistics.

Observed quantiles are order statistics placed at Hazen plotting positions
p_k = (k - 0.5)/n and paired with reference quantiles at the same levels.
Points hugging the X = Y line mean the laws agree; a lower tail dipping
below the line with an upper tail rising above it is the long-tail
signature, the opposite pattern is short-tailed, and a one-sided mismatch
shows up as an S shape.

Statistics: Kolmogorov-Smirnov sup-distance (with its 5% critical value
1.358/sqrt(n)), the Anderson-Darling A^2 statistic (no p-value), and
Pearson's chi-squared on equiprobable bins with its survival-function
p-value from scipy's regularized incomplete gamma.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from ._textio import text_stream
from .errors import (
    BinUnderflow,
    BoundaryObservation,
    DomainError,
    NonFinite,
    TooShort,
)
from .returns_io import ReturnSeries
from .spectral import CdfTable

__all__ = [
    "QQData",
    "GofReport",
    "TailSide",
    "ShapeNote",
    "TailVerdict",
    "qq_points",
    "normal_quantile",
    "tail_verdict",
    "gof_ks",
    "gof_chi2",
    "gof_ad",
    "chi2_sf",
    "emit",
]

_MIN_POINTS = 20


def _require_points(n: int) -> None:
    if n < _MIN_POINTS:
        raise TooShort(f"need >= {_MIN_POINTS} observations for a QQ plot, got {n}")


# --------------------------------------------------------------------------
# data containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QQData:
    """Paired (theoretical, observed) quantiles at common probability levels."""

    levels: np.ndarray
    theoretical: np.ndarray
    observed: np.ndarray
    reference: str = ""

    def __post_init__(self):
        for name in ("levels", "theoretical", "observed"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.levels.shape[0]
        if self.theoretical.shape[0] != n or self.observed.shape[0] != n:
            raise DomainError("QQ coordinate lengths differ")
        if n and (self.levels.min() <= 0.0 or self.levels.max() >= 1.0):
            raise DomainError("plotting positions must lie strictly inside (0,1)")

    @property
    def n(self) -> int:
        return int(self.levels.shape[0])


@dataclass(frozen=True)
class GofReport:
    ks_stat: float
    ks_critical_5pct: float
    ad_stat: float
    chi2_stat: float
    chi2_df: int
    chi2_pvalue: float
    n: int


class TailSide(str, Enum):
    HEAVIER = "heavier"
    LIGHTER = "lighter"
    COMPARABLE = "comparable"


class ShapeNote(str, Enum):
    S_SHAPED = "S-shaped"
    LONG_TAILED = "long-tailed"
    SHORT_TAILED = "short-tailed"
    LINEAR = "linear"


@dataclass(frozen=True)
class TailVerdict:
    lower: TailSide
    upper: TailSide
    shape: ShapeNote
    tau: float


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def hazen_levels(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) - 0.5) / n


def qq_points(observed: ReturnSeries, ref_quantile, levels=None, reference: str = "") -> QQData:
    """Build QQ pairs against a reference quantile function.

    ``ref_quantile`` maps an array of probability levels to the array of
    reference quantiles at those levels (array in, array out); it is called
    once, on every level together, and a result of another shape raises
    DomainError.  With ``levels=None`` every order statistic is used at its
    Hazen position; an integer subsamples to that many Hazen levels, with
    observed quantiles interpolated between order statistics (a float
    raises TypeError, fewer than 20 levels TooShort).
    """
    x = np.sort(np.asarray(observed.values, dtype=float))
    n = x.shape[0]
    _require_points(n)
    if levels is None:
        p = hazen_levels(n)
        obs_q = x
    else:
        k = operator.index(levels)
        if k < _MIN_POINTS:
            raise TooShort(f"need >= {_MIN_POINTS} levels, got {k}")
        p = hazen_levels(k)
        obs_q = np.interp(p, hazen_levels(n), x)
    theo = np.asarray(ref_quantile(p), dtype=float)
    if theo.shape != p.shape:
        raise DomainError(
            f"reference quantile function returned shape {theo.shape} for {p.shape[0]} levels"
        )
    return QQData(levels=p, theoretical=theo, observed=obs_q, reference=reference)


def normal_quantile(mean: float, sd: float, p):
    """mean + sd * Phi^{-1}(p), with one Newton polish step on Phi.

    ``p`` is a level or an array of levels (float in, float out; array in,
    array out), each strictly inside (0,1).  The base inverse is a
    high-accuracy rational approximation; the polish step divides the CDF
    residual by the density, which is a no-op at the achieved accuracy but
    pins the round trip Phi(q) = p to first order.
    """
    q = np.asarray(p, dtype=float)
    outside = ~((0.0 < q) & (q < 1.0))
    if outside.any():
        raise DomainError(f"p must lie in (0,1), got {q[outside].ravel()[:5].tolist()}")
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise NonFinite(f"mean and sd must be finite, got mean={mean}, sd={sd}")
    if not sd > 0.0:
        raise DomainError(f"sd must be positive, got {sd}")
    from scipy.special import ndtr, ndtri

    z = ndtri(q)
    dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dens > 0.0, z - (ndtr(z) - q) / dens, z)
    out = mean + sd * z
    return float(out) if q.ndim == 0 else out


# --------------------------------------------------------------------------
# tail verdict
# --------------------------------------------------------------------------

def _side(mean_dev: float, tau: float) -> TailSide:
    if mean_dev < -tau:
        return TailSide.HEAVIER
    if mean_dev > tau:
        return TailSide.LIGHTER
    return TailSide.COMPARABLE


def tail_verdict(q: QQData, tau: float | None = None) -> TailVerdict:
    """Classify the tails from mean signed deviations in the extreme 1%.

    The default threshold tau = 0.5 * sd(observed) * n**(-1/4) is a
    scale-aware heuristic that tightens with sample size; override it for
    stricter or looser calls.  Requires at least 5 points per decile of
    levels.  An explicit tau must be finite and >= 0 (else DomainError).
    """
    n = q.n
    counts = np.histogram(q.levels, bins=np.linspace(0.0, 1.0, 11))[0]
    if counts.min() < 5:
        raise TooShort("need >= 5 QQ points in each decile of levels")
    if tau is None:
        tau = 0.5 * float(np.std(q.observed)) * n ** (-0.25)
    elif not (math.isfinite(tau) and tau >= 0.0):
        raise DomainError(f"tau must be finite and >= 0, got {tau}")

    k = max(1, int(math.floor(0.01 * n)))
    order = np.argsort(q.levels)
    dev = q.observed[order] - q.theoretical[order]
    low = float(np.mean(dev[:k]))
    high = float(np.mean(dev[-k:]))

    # Heavier lower tail: observed extremes sit below the line (more
    # negative); heavier upper tail: observed extremes sit above it.
    lower = _side(low, tau)
    upper = _side(-high, tau)

    if lower is TailSide.HEAVIER and upper is TailSide.HEAVIER:
        shape = ShapeNote.LONG_TAILED
    elif lower is TailSide.LIGHTER and upper is TailSide.LIGHTER:
        shape = ShapeNote.SHORT_TAILED
    elif lower is TailSide.COMPARABLE and upper is TailSide.COMPARABLE:
        shape = ShapeNote.LINEAR
    else:
        shape = ShapeNote.S_SHAPED
    return TailVerdict(lower=lower, upper=upper, shape=shape, tau=float(tau))


# --------------------------------------------------------------------------
# goodness of fit
# --------------------------------------------------------------------------

def _check_n(x, floor=_MIN_POINTS):
    if x.shape[0] < floor:
        raise TooShort(f"need >= {floor} observations, got {x.shape[0]}")


def gof_ks(observed: ReturnSeries, table: CdfTable):
    """(D_n, 5% critical value 1.358/sqrt(n))."""
    x = np.sort(np.asarray(observed.values, dtype=float))
    _check_n(x)
    n = x.shape[0]
    u = table.evaluate(x)
    k = np.arange(1, n + 1)
    d = np.maximum(np.abs(u - k / n), np.abs(u - (k - 1) / n)).max()
    return float(d), 1.358 / math.sqrt(n)


def gof_ad(observed: ReturnSeries, table: CdfTable) -> float:
    """Anderson-Darling A^2 against the tabulated law (statistic only)."""
    x = np.sort(np.asarray(observed.values, dtype=float))
    _check_n(x)
    n = x.shape[0]
    if x[0] < table.grid.x_min or x[-1] > table.grid.x_max:
        raise BoundaryObservation(
            "observation outside the tabulated range; its tail mass is unresolved"
        )
    u = table.evaluate(x)
    eps = 1e-12
    if u.min() < eps or u.max() > 1.0 - eps:
        raise BoundaryObservation(
            "observation maps to CDF value at the boundary; law cannot explain it"
        )
    k = np.arange(1, n + 1)
    s = np.sum((2 * k - 1) * (np.log(u) + np.log1p(-u[::-1])))
    return float(-n - s / n)


def gof_chi2(observed: ReturnSeries, table: CdfTable, bins: int = 50, n_fitted_params: int = 0):
    """(statistic, df, p-value) for Pearson's test on equiprobable bins.

    ``n_fitted_params`` reduces the degrees of freedom when the reference
    law was fitted on this same sample.  Both counts are integers (a float
    raises TypeError); fewer than 2 bins or a negative ``n_fitted_params``
    raise DomainError, and expected counts below 5 raise BinUnderflow.
    """
    x = np.asarray(observed.values, dtype=float)
    _check_n(x)
    bins = operator.index(bins)
    n_fitted_params = operator.index(n_fitted_params)
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    if n_fitted_params < 0:
        raise DomainError(f"n_fitted_params must be >= 0, got {n_fitted_params}")
    n = x.shape[0]
    expected = n / bins
    if expected < 5.0:
        raise BinUnderflow(f"expected count {expected:.2f} < 5; reduce bins")
    u = np.clip(table.evaluate(x), 0.0, np.nextafter(1.0, 0.0))
    idx = np.minimum((u * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    df = bins - 1 - n_fitted_params
    if df < 1:
        raise DomainError("degrees of freedom fell below 1")
    return stat, df, chi2_sf(stat, df)


# --------------------------------------------------------------------------
# chi-squared survival function
# --------------------------------------------------------------------------

def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-squared law: Q(df/2, x/2).

    The regularized upper incomplete gamma comes from scipy.special.chdtrc.
    Raises NonFinite for a NaN statistic or df, DomainError for df < 1 or
    a negative statistic.
    """
    from scipy.special import chdtrc

    x = float(x)
    if math.isnan(x) or math.isnan(df):
        raise NonFinite(f"chi-squared statistic and df must not be NaN, got x={x}, df={df}")
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if x < 0.0:
        raise DomainError(f"chi-squared statistic must be >= 0, got {x}")
    return float(chdtrc(df, x))


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def _qq_csv(q: QQData) -> str:
    lines = ["level,theoretical,observed"]
    for p, t, o in zip(q.levels, q.theoretical, q.observed):
        lines.append(f"{p:.17g},{t:.17g},{o:.17g}")
    return "\n".join(lines) + "\n"


def _qq_svg(q: QQData) -> str:
    width, height, pad = 640.0, 480.0, 56.0
    lo = min(q.theoretical.min(), q.observed.min())
    hi = max(q.theoretical.max(), q.observed.max())
    span = hi - lo if hi > lo else 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def sx(v):
        return pad + (v - lo) / (hi - lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<title>Q-Q plot vs {q.reference}</title>" if q.reference else "<title>Q-Q plot</title>",
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line class="axis" x1="{pad:.3f}" y1="{height - pad:.3f}" x2="{width - pad:.3f}" '
        f'y2="{height - pad:.3f}" stroke="black" stroke-width="1"/>',
        f'<line class="axis" x1="{pad:.3f}" y1="{pad:.3f}" x2="{pad:.3f}" '
        f'y2="{height - pad:.3f}" stroke="black" stroke-width="1"/>',
        f'<line class="refline" x1="{sx(lo):.3f}" y1="{sy(lo):.3f}" x2="{sx(hi):.3f}" '
        f'y2="{sy(hi):.3f}" stroke="red" stroke-width="1.5"/>',
    ]
    for t, o in zip(q.theoretical, q.observed):
        out.append(f'<circle class="pt" cx="{sx(t):.3f}" cy="{sy(o):.3f}" r="2" fill="steelblue"/>')
    out.append(
        f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">theoretical quantile (%)</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {height / 2:.0f})">observed quantile (%)</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _report_json(r: GofReport) -> str:
    return json.dumps(asdict(r), indent=2, sort_keys=True) + "\n"


def _report_csv(r: GofReport) -> str:
    # Field types are annotation strings here (postponed annotations): int
    # fields print as integers, float fields with 17 significant digits.
    rows = []
    for f in fields(r):
        v = getattr(r, f.name)
        rows.append(f"{f.name},{v}" if f.type == "int" else f"{f.name},{v:.17g}")
    return "statistic,value\n" + "\n".join(rows) + "\n"


def emit(data, fmt: str, path) -> None:
    """Render QQData (csv, svg) or a GofReport (csv, json) to a file.

    Output bytes are a pure function of the input values, so identical
    inputs produce identical files.  A non-string format raises DomainError.
    """
    if not isinstance(fmt, str):
        raise DomainError(f"output format must be a string, got {fmt!r}")
    fmt = fmt.lower()
    if isinstance(data, QQData):
        if fmt == "csv":
            text = _qq_csv(data)
        elif fmt == "svg":
            text = _qq_svg(data)
        else:
            raise DomainError(f"QQ data renders to csv or svg, not {fmt!r}")
    elif isinstance(data, GofReport):
        if fmt == "json":
            text = _report_json(data)
        elif fmt == "csv":
            text = _report_csv(data)
        else:
            raise DomainError(f"GOF report renders to json or csv, not {fmt!r}")
    else:
        raise DomainError(f"cannot emit {type(data).__name__}")
    with text_stream(path, "w") as fh:
        fh.write(text)
