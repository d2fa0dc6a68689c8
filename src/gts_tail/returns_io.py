"""Price ingestion and log-return computation in percent units.

Returns are r_k = 100 * ln(price_{k+1} / price_k); the factor of 100 is the
single authoritative unit constant for the whole package (tempering rates
and all tabulated values are in matching inverse-percent units).  Returns
are computed over consecutive available rows; missing calendar days are not
filled, only counted and surfaced as a warning.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._textio import text_stream
from .errors import DuplicateDate, NonPositivePrice, ParseError, TooShort

__all__ = [
    "PERCENT_SCALE",
    "PriceSeries",
    "ReturnSeries",
    "SummaryStats",
    "load_price_csv",
    "log_returns",
    "summary_stats",
    "write_returns_csv",
    "load_returns_csv",
]

PERCENT_SCALE = 100.0


@dataclass(frozen=True)
class PriceSeries:
    """Date-sorted positive close prices with an optional currency tag."""

    dates: tuple
    prices: np.ndarray
    currency: str = ""
    calendar_gaps: int = 0

    def __len__(self):
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    """Percent log returns."""

    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ParseError(0, "return series must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ParseError(0, "return series contains non-finite values")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    skewness: float
    excess_kurtosis: float
    min: float
    max: float
    n: int


def load_price_csv(source, currency: str = "") -> PriceSeries:
    """Parse a `date,price` CSV into a date-sorted PriceSeries.

    The header row must start with `date,price`; an optional third column
    carries a currency tag.  Rows may arrive unsorted (stable sort applied);
    duplicate dates and non-positive prices are rejected with the offending
    line number.
    """
    with text_stream(source) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(0, "empty price file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:2] != ["date", "price"]:
        raise ParseError(1, f"expected header 'date,price', got {rows[0]!r}")

    parsed = []
    tag = currency
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError(lineno, f"line {lineno}: expected date,price")
        try:
            day = _dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(lineno, f"line {lineno}: bad date {row[0]!r}") from None
        try:
            price = float(row[1])
        except ValueError:
            raise ParseError(lineno, f"line {lineno}: bad price {row[1]!r}") from None
        if not math.isfinite(price):
            raise ParseError(lineno, f"line {lineno}: non-finite price")
        if price <= 0.0:
            raise NonPositivePrice(lineno)
        if len(row) >= 3 and row[2].strip():
            tag = tag or row[2].strip()
        parsed.append((day, price, lineno))

    parsed.sort(key=lambda t: t[0])
    for (d1, _, _), (d2, _, line2) in zip(parsed, parsed[1:]):
        if d1 == d2:
            raise DuplicateDate(line2)

    gaps = sum(1 for (d1, _, _), (d2, _, _) in zip(parsed, parsed[1:]) if (d2 - d1).days > 1)
    if gaps:
        warnings.warn(f"{gaps} calendar gaps in price series", stacklevel=2)
    return PriceSeries(
        dates=tuple(d for d, _, _ in parsed),
        prices=np.array([p for _, p, _ in parsed]),
        currency=tag,
        calendar_gaps=gaps,
    )


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Consecutive-row percent log returns; needs at least two prices."""
    if len(series) < 2:
        raise TooShort(f"need >= 2 prices, got {len(series)}")
    r = PERCENT_SCALE * np.diff(np.log(series.prices))
    label = f"log-returns({series.currency})" if series.currency else "log-returns"
    return ReturnSeries(values=r, source=label)


def summary_stats(r: ReturnSeries) -> SummaryStats:
    """Sample moments: sd uses the n-1 divisor; skew and excess kurtosis use
    the population (biased) definitions and are NaN for constant series."""
    if r.n < 2:
        raise TooShort(f"need >= 2 returns, got {r.n}")
    v = r.values
    mean = float(v.mean())
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        skew = kurt = float("nan")
    else:
        d = v - mean
        m2 = float(np.mean(d**2))
        skew = float(np.mean(d**3) / m2**1.5)
        kurt = float(np.mean(d**4) / m2**2 - 3.0)
    return SummaryStats(
        mean=mean,
        sd=sd,
        skewness=skew,
        excess_kurtosis=kurt,
        min=float(v.min()),
        max=float(v.max()),
        n=r.n,
    )


def write_returns_csv(r: ReturnSeries, path) -> None:
    """Single-column CSV with a `return` header, 17-significant-digit text."""
    with text_stream(path, "w") as fh:
        fh.write("return\n")
        for v in r.values:
            fh.write(f"{v:.17g}\n")


def load_returns_csv(source, label: str = "") -> ReturnSeries:
    """Read a single-column `return` CSV written by write_returns_csv."""
    with text_stream(source) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip().lower() != "return":
        raise ParseError(1, "expected header 'return'")
    vals = []
    for lineno, line in enumerate(lines[1:], start=2):
        s = line.strip()
        if not s:
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ParseError(lineno, f"line {lineno}: bad number {s!r}") from None
    return ReturnSeries(values=np.array(vals), source=label or "returns-csv")
