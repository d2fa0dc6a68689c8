"""Quantiles from a tabulated CDF via a local degree-4 polynomial equation.

For a level alpha bracketed by table nodes x_i < x_alpha < x_{i+1}, the CDF
restricted to the five nearest nodes is represented exactly by its Lagrange
interpolant of degree 4 in the normalized coordinate y = (x - x_i)/dx.  The
quantile is the root in (0,1) of

    b0 + b1*y + b2*y**2 + b3*y**3 + b4*y**4 = 0

with b the interpolant's coefficients shifted by alpha, and

    x_alpha = x_i + y * (x_{i+1} - x_i).

Each b is a fixed-order sum over the node values of the table reads'
window (`_stencil_start`), weighted by the exact Lagrange coefficients
rounded once (no BLAS call), and an array of levels is solved in
vectorized passes of the same safeguarded Newton-bisection, one block of
levels at a time, element for element the arithmetic of the one-level
solve: both give the same bits.
Inverse-CDF sampling runs that pass on seeded uniforms.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    MultipleRootsWarning,
    NoBracket,
    OutOfRange,
)
from .returns_io import ReturnSeries
from .spectral import _BLOCK, CdfTable, _stencil_start

__all__ = ["QuarticCoeffs", "solve_quartic_unit", "quantile", "sample"]

_LEVEL_MARGIN = 1e-9
_RESIDUAL_TOL = 1e-12
_MAX_ITER = 200
_STALL_TOL = 1e-10
_SNIFF_POINTS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
_SCREEN_MARGIN = 1.0 + 1e-12


def _lagrange_rows(o: int) -> tuple:
    """Row r: the y**r coefficients of the Lagrange basis on nodes o..o+4,
    each an integer over prod_{k != j} (j - k), which int / rounds once."""
    cols = []
    for j in range(5):
        poly, den = [1], 1
        for k in set(range(5)) - {j}:
            poly = [a - (o + k) * b for a, b in zip([0, *poly], [*poly, 0])]
            den *= j - k
        cols.append([c / den for c in poly])
    return tuple(zip(*cols))


# Offset o = start - i puts the nodes at o..o+4 in the bracket's y: -2 is
# centred on the bracket [0, 1], and 0, -1 and -3 serve the table ends.
# -2 comes first, so a batch of interior brackets tests one offset.
_MONOMIAL_ROWS = {o: _lagrange_rows(o) for o in (-2, 0, -1, -3)}


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients b0..b4 of b0 + b1 y + ... + b4 y**4."""

    b0: float
    b1: float
    b2: float
    b3: float
    b4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.b0, self.b1, self.b2, self.b3, self.b4])


def _stencil_rows(rows, w):
    """Coefficients b0..b4 of the stencil ``rows`` on the node values w0..w4.

    Each is the left-to-right sum ((m0*w0 + m1*w1) + ...) + m4*w4, on Python
    floats for one level or on arrays for a batch, to the same bits.  A
    gemv, gemm or einsum sums in the order of the BLAS kernel, so its bits
    change from machine to machine.
    """
    w0, w1, w2, w3, w4 = w
    return [(((m0 * w0 + m1 * w1) + m2 * w2) + m3 * w3) + m4 * w4 for m0, m1, m2, m3, m4 in rows]


def _poly_val(c, y):
    # Horner on the rows b0..b4 of c: five floats, or five arrays holding
    # one quartic per column.
    acc = c[4]
    for v in c[3::-1]:
        acc = acc * y + v
    return acc


def _deriv_val(c, y):
    return ((4.0 * c[4] * y + 3.0 * c[3]) * y + 2.0 * c[2]) * y + c[1]


def _monotone(c):
    """True where |b1| > (1 + 1e-12) (2|b2| + 3|b3| + 4|b4|), per quartic.

    On [0, 1] the terms 2 b2 y + 3 b3 y**2 + 4 b4 y**3 of p'(y) add up to at
    most S = 2|b2| + 3|b3| + 4|b4| in size, so |b1| > S keeps p' at the
    sign of b1.  The sniff's Horner value of p' at a point lies within
    about 8u (|b1| + S) of p', u = 2**-53, and the relative margin 1e-12 is
    hundreds of times that: every sniffed value is nonzero with the sign of
    b1, so the sniff never flags a quartic this screen passes.
    """
    return abs(c[1]) > _SCREEN_MARGIN * (2.0 * abs(c[2]) + 3.0 * abs(c[3]) + 4.0 * abs(c[4]))


def _derivative_sign_changes(c):
    """Derivative sign changes across the 9-point scan of [0,1], per quartic.

    The points are evaluated one at a time so a batch of quartics needs
    temporaries of one batch length, not nine.
    """
    prev = _deriv_val(c, _SNIFF_POINTS[0])
    changes = 0
    for t in _SNIFF_POINTS[1:]:
        d = _deriv_val(c, t)
        changes = changes + ((prev != 0.0) & (d != 0.0) & ((prev > 0) != (d > 0)))
        prev = d
    return changes


def _columns(c, k):
    """The quartics c, five coefficient rows, at the columns k."""
    return [row[k] for row in c]


def _flagged(c) -> np.ndarray:
    """Columns of c the wiggle sniff flags (at least two derivative sign
    changes); only those the monotone screen fails are sniffed."""
    j = np.flatnonzero(~_monotone(c))
    return j[_derivative_sign_changes(_columns(c, j)) >= 2] if j.size else j


def _newton_bisect(c, seed: float, flo: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Safeguarded Newton on [lo, hi], a sign-change bracket with flo = p(lo)."""
    y = seed
    for _ in range(_MAX_ITER):
        py = _poly_val(c, y)
        if abs(py) <= _RESIDUAL_TOL:
            return float(y)
        if (py > 0.0) == (flo > 0.0):
            lo, flo = y, py
        else:
            hi = y
        d = _deriv_val(c, y)
        y_next = 0.5 * (lo + hi)
        if d != 0.0:
            cand = y - py / d
            if lo < cand < hi:
                y_next = cand
        y = y_next
    py = _poly_val(c, y)
    if abs(py) <= _STALL_TOL:
        return float(y)
    raise NoBracket(f"root polish stalled at residual {py:.3e}")


def _newton_bisect_many(c, seed: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """_newton_bisect on every column of c at once, element for element.

    A quartic whose residual meets the tolerance keeps its y from then on
    (the residual, recomputed from the same y, meets it again) while the
    rest iterate, so each root is the scalar loop's bit for bit.  The batch
    is cut down to its live columns only once fewer than half are live.
    """
    y, flo = seed, p0
    root = np.empty(y.shape[0])
    todo = np.arange(y.shape[0])
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(_MAX_ITER):
        py = _poly_val(c, y)
        done = np.abs(py) <= _RESIDUAL_TOL
        n_done = np.count_nonzero(done)
        if n_done == y.shape[0]:
            root[todo] = y
            return root
        if 2 * n_done > y.shape[0]:
            root[todo[done]] = y[done]
            live = ~done
            todo, c, y, lo, hi, flo, py = (
                todo[live], _columns(c, live), y[live], lo[live], hi[live], flo[live], py[live]
            )
            n_done = 0
        same = (py > 0.0) == (flo > 0.0)
        lo = np.where(same, y, lo)
        flo = np.where(same, py, flo)
        hi = np.where(same, hi, y)
        d = _deriv_val(c, y)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cand = y - py / d
        step = np.where((d != 0.0) & (lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
        y = np.where(done, y, step) if n_done else step
    py = _poly_val(c, y)
    stalled = ~(np.abs(py) <= _STALL_TOL)
    if stalled.any():
        raise NoBracket(f"root polish stalled at residual {py[stalled][0]:.3e}")
    root[todo] = y
    return root


def solve_quartic_unit(b: QuarticCoeffs) -> float:
    """Root of the quartic in (0, 1), given a sign change across the interval.

    Safeguarded Newton from the secant seed, falling back to bisection
    whenever an iterate leaves the bracket; terminates at |poly(y)| <= 1e-12.
    If the derivative changes sign more than once inside (0,1) the
    polynomial may cross several times (an interpolation artifact when the
    underlying CDF is monotone); the root nearest the straight-line seed is
    then chosen, polished inside the sub-bracket reaching halfway to its
    neighbouring candidates (when p changes sign across it), and a
    MultipleRootsWarning is emitted.
    """
    # Python floats: the same bits as a float64 array, without its overhead.
    c = (float(b.b0), float(b.b1), float(b.b2), float(b.b3), float(b.b4))
    p0 = _poly_val(c, 0.0)
    p1 = _poly_val(c, 1.0)
    if p0 == 0.0:
        return 0.0
    if p1 == 0.0:
        return 1.0
    if (p0 > 0.0) == (p1 > 0.0):
        raise NoBracket(f"no sign change on [0,1]: p(0)={p0:.3e}, p(1)={p1:.3e}")

    denom = p1 - p0
    seed = min(max(-p0 / denom, 1e-12), 1.0 - 1e-12) if denom != 0.0 else 0.5

    # Wiggle sniff: more than one derivative sign change on a coarse scan
    # means the crossing may not be unique.  Quartics the monotone screen
    # passes have none, and skip it.
    if not _monotone(c) and _derivative_sign_changes(c) >= 2:
        # A b4 below the rounding of the other terms on [0,1] is noise: kept,
        # it sends one companion root far out and costs the others accuracy.
        residue = abs(c[4]) <= np.finfo(float).eps * np.sum(np.abs(c[:4]))
        roots = np.roots(c[3::-1] if residue else c[::-1])
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = np.sort(real[(real > 0.0) & (real < 1.0)])
        if inside.size > 1:
            warnings.warn(
                f"{inside.size} candidate roots in (0,1); choosing nearest to the linear seed",
                MultipleRootsWarning,
                stacklevel=2,
            )
            j = int(np.argmin(np.abs(inside - seed)))
            seed = float(inside[j])
            # Polish between the midpoints to the neighbouring candidates, so
            # bisection cannot walk to another crossing.
            lo = 0.5 * (inside[j - 1] + seed) if j > 0 else 0.0
            hi = 0.5 * (seed + inside[j + 1]) if j + 1 < inside.size else 1.0
            flo, fhi = _poly_val(c, lo), _poly_val(c, hi)
            if flo < 0.0 < fhi or fhi < 0.0 < flo:
                return _newton_bisect(c, seed, flo, lo, hi)
        elif inside.size == 1:
            seed = float(inside[0])

    return _newton_bisect(c, seed, p0)


def _solve_brackets(c) -> np.ndarray:
    """solve_quartic_unit on every column of c, in one vectorized pass.

    Only quartics the monotone screen fails are sniffed; those the sniff
    flags go through solve_quartic_unit itself, which keeps its
    MultipleRootsWarning, and the rest share one Newton-bisection.
    """
    p0 = _poly_val(c, 0.0)
    p1 = _poly_val(c, 1.0)
    open_ = (p0 != 0.0) & (p1 != 0.0)
    flat = open_ & ((p0 > 0.0) == (p1 > 0.0))
    if flat.any():
        k = np.flatnonzero(flat)[0]
        raise NoBracket(f"no sign change on [0,1]: p(0)={p0[k]:.3e}, p(1)={p1[k]:.3e}")
    every = open_.all()
    if not every:
        y = np.where(p0 == 0.0, 0.0, 1.0)
        k = np.flatnonzero(open_)
        c, p0, p1 = _columns(c, k), p0[k], p1[k]
    # Opposite signs: p1 - p0 cannot vanish.
    seed = np.minimum(np.maximum(-p0 / (p1 - p0), 1e-12), 1.0 - 1e-12)
    flagged = _flagged(c)
    if flagged.size:
        root = np.empty(seed.shape[0])
        for j in flagged:
            root[j] = solve_quartic_unit(QuarticCoeffs(*_columns(c, j)))
        plain = np.ones(seed.shape[0], dtype=bool)
        plain[flagged] = False
        root[plain] = _newton_bisect_many(_columns(c, plain), seed[plain], p0[plain])
    else:
        root = _newton_bisect_many(c, seed, p0)
    if every:
        return root
    y[k] = root
    return y


def _bracket_index(values: np.ndarray, alpha):
    i = np.searchsorted(values, alpha, side="right") - 1
    return np.clip(i, 0, values.shape[0] - 2)


def _quartics(F: np.ndarray, i: np.ndarray, alpha: np.ndarray) -> list:
    """Shifted stencil coefficients for brackets i: five rows b0..b4, one
    quartic per column."""
    start = _stencil_start(i, F.shape[0])
    offset = start - i
    w = [F[j:][start] for j in range(5)]
    c = [np.empty(i.shape[0]) for _ in range(5)]
    for o, rows in _MONOMIAL_ROWS.items():
        k = offset == o
        if k.all():
            c = _stencil_rows(rows, w)
            break
        if k.any():
            for row, v in zip(c, _stencil_rows(rows, _columns(w, k))):
                row[k] = v
    c[0] -= alpha
    return c


def _quartic_at(F: np.ndarray, i: int, alpha: float) -> QuarticCoeffs:
    """One column of _quartics, on Python floats, to the same bits."""
    # _stencil_start on one int: np.clip would cost most of the solve.
    start = min(max(i - 2, 0), F.shape[0] - 5)
    b = _stencil_rows(_MONOMIAL_ROWS[start - i], F[start : start + 5].tolist())
    b[0] -= alpha
    return QuarticCoeffs(*b)


def _show_levels(bad: np.ndarray) -> str:
    shown = ", ".join(repr(float(v)) for v in bad[:5])
    return shown if bad.size <= 5 else f"{shown}, ... ({bad.size} levels)"


def quantile(table: CdfTable, alpha):
    """alpha-quantile of the tabulated law: float in, float out; array in, array out.

    Levels must lie strictly inside the tabulated mass; each bracket is
    found by binary search and refined by the degree-4 root solve, the
    levels in ascending blocks of one vectorized pass each (a single level
    through the one-level solve, to the same bits).  Exact node hits return
    the node abscissa.  A batch that fails in more than one way reports the
    first failure of its lowest failing block.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        return _quantile_one(table, float(a))
    levels = a.reshape(-1)
    F = table.values
    g = table.grid
    inside = (F[0] + _LEVEL_MARGIN < levels) & (levels < F[-1] - _LEVEL_MARGIN)
    if not inside.all():
        raise OutOfRange(
            f"alpha={_show_levels(levels[~inside])} outside tabulated mass "
            f"[{F[0]:.3e}, {F[-1]:.8f}]"
        )
    # Solved in increasing order of level, so the bracket search and the node
    # gathers walk the table in order, and in blocks of _BLOCK levels, so no
    # temporary outgrows a block; the quantiles return in input order.
    order = np.argsort(levels)
    x = np.empty(levels.shape[0])
    for s in range(0, order.shape[0], _BLOCK):
        k = order[s : s + _BLOCK]
        x[k] = g.x_min + _solve_levels(F, levels[k]) * g.dx
    return x.reshape(a.shape)


def _solve_levels(F: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """i + y for each of the ascending ``levels``: its bracket i and the
    root y in [0, 1] there.  Raises BracketFailure at the lowest bracket
    whose values do not straddle its level."""
    i = _bracket_index(F, levels)
    fi, fi1 = F[i], F[i + 1]
    straddled = (fi < levels) & (levels < fi1)
    if straddled.all():
        return i + _solve_brackets(_quartics(F, i, levels))
    # Node hits sit at y = 0 (F_i) or y = 1 (F_i+1); the other brackets
    # must straddle their levels, and are solved below.
    interior = (fi != levels) & (fi1 != levels)
    broken = interior & ~straddled
    if broken.any():
        j = i[broken][0]
        raise BracketFailure(
            f"table not monotone at bracket {j}: F_i={F[j]!r}, F_i1={F[j + 1]!r}"
        )
    y = np.where(fi == levels, 0.0, 1.0)
    k = np.flatnonzero(interior)
    y[k] = _solve_brackets(_quartics(F, i[k], levels[k]))
    return i + y


def _quantile_one(table: CdfTable, level: float) -> float:
    """quantile at one level: the array pass's checks on Python floats, then
    the one-level solve, which the array pass matches bit for bit."""
    F = table.values
    lo, hi = float(F[0]), float(F[-1])
    if not lo + _LEVEL_MARGIN < level < hi - _LEVEL_MARGIN:
        raise OutOfRange(f"alpha={level!r} outside tabulated mass [{lo:.3e}, {hi:.8f}]")
    i = min(max(int(np.searchsorted(F, level, side="right")) - 1, 0), F.shape[0] - 2)
    fi, fi1 = float(F[i]), float(F[i + 1])
    if fi == level:
        y = 0.0
    elif fi1 == level:
        y = 1.0
    elif fi < level < fi1:
        y = solve_quartic_unit(_quartic_at(F, i, level))
    else:
        raise BracketFailure(f"table not monotone at bracket {i}: F_i={F[i]!r}, F_i1={F[i + 1]!r}")
    return float(table.grid.x_min + (i + y) * table.grid.dx)


def quartic_for_level(table: CdfTable, alpha: float):
    """The (bracket index, QuarticCoeffs) pair backing quantile(table, alpha).

    Exposed for verification: the returned coefficients satisfy
    poly(y*) ~ 0 at the normalized solution y*, and
    x_min + (i + solve_quartic_unit(coeffs)) * dx reproduces quantile's
    interior brackets bit for bit.
    """
    i = int(_bracket_index(table.values, alpha))
    return i, _quartic_at(table.values, i, float(alpha))


def sample(table: CdfTable, n: int, seed: int) -> ReturnSeries:
    """n inverse-CDF draws from the tabulated law; same seed, same output.

    ``n`` and ``seed`` are integers (a float raises TypeError); n < 1 or a
    negative seed raises OutOfRange.  Uniforms are generated by a PCG64
    generator and clamped into the tabulated mass range (the clamp touches
    a draw with probability equal to the endpoint masses, below 1e-6 on
    default grids).
    """
    n = operator.index(n)
    seed = operator.index(seed)
    if n < 1:
        raise OutOfRange(f"need n >= 1 draws, got {n}")
    if seed < 0:
        raise OutOfRange(f"need a seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=n)
    lo = table.values[0] + 2.0 * _LEVEL_MARGIN
    hi = table.values[-1] - 2.0 * _LEVEL_MARGIN
    u = np.clip(u, lo, hi)
    return ReturnSeries(values=quantile(table, u), source=f"gts-sample(seed={seed},n={n})")
