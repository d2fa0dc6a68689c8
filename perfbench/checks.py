"""Correctness checks for the outputs of each workload.

Every check returns a list of problems; an empty list means the output
passed.  Checks compare against computations made apart from gts_tail
(closed-form cumulants, scipy distributions, numpy integration, the slow
quadrature oracle at single points) or against properties the method must
have.  None compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import stats

# Tolerances named by the benchmark's acceptance criteria.
ORACLE_TOL = 1e-7
CHI2_PVALUE_TOL = 1e-10
PDF_MASS_TOL = 1e-6
# A KS or moment check that fails on correct draws must be rare enough never
# to show across the seeds of a benchmark series.
KS_PVALUE_FLOOR = 1e-6
MOMENT_SE = 5.0
RECOVERY_SE = 3.0
LOGLIK_SLACK = 1e-3


def cumulants(params) -> tuple:
    """kappa_1..kappa_4 of a GTS law in closed form (Gamma-function sums)."""
    mu, bp, bm, ap, am, lp, lm = params
    out = []
    for n in (1, 2, 3, 4):
        plus = ap * math.gamma(n - bp) * lp ** (bp - n)
        minus = am * math.gamma(n - bm) * lm ** (bm - n)
        out.append(mu + plus - minus if n == 1 else plus + (-1) ** n * minus)
    return tuple(out)


# --------------------------------------------------------------------------
# qq-tails
# --------------------------------------------------------------------------

def cdf_vs_oracle(cdf_at, oracle_cdf, probes) -> list:
    """The table CDF at each probe agrees with the oracle CDF to 1e-7."""
    bad = []
    for x in probes:
        err = abs(float(cdf_at(x)) - oracle_cdf(x))
        if not err <= ORACLE_TOL:
            bad.append(f"CDF at x={x:.6g} off the oracle by {err:.3e}")
    return bad


def quantiles_vs_oracle(levels, quantiles, oracle_cdf) -> list:
    """|F_oracle(quantile(a)) - a| <= 1e-7 at every level."""
    bad = []
    for a, q in zip(levels, quantiles):
        err = abs(oracle_cdf(float(q)) - a)
        if not err <= ORACLE_TOL:
            bad.append(f"quantile({a:g})={q:.10g} has oracle CDF error {err:.3e}")
    return bad


def draws_match_law(draws, cdf_at, params) -> list:
    """KS against the generating table, and mean/variance near the cumulants."""
    x = np.asarray(draws, dtype=float)
    n = x.shape[0]
    bad = []
    if not np.all(np.isfinite(x)):
        return ["draws contain non-finite values"]
    p = stats.kstest(x, cdf_at).pvalue
    if not p >= KS_PVALUE_FLOOR:
        bad.append(f"draws fail KS against their table (p={p:.3e})")
    k1, k2, _, k4 = cumulants(params)
    se_mean = math.sqrt(k2 / n)
    se_var = math.sqrt((k4 + 2.0 * k2 * k2) / n)
    if not abs(x.mean() - k1) <= MOMENT_SE * se_mean:
        bad.append(f"draw mean {x.mean():.5g} vs kappa_1 {k1:.5g} beyond {MOMENT_SE} SE")
    if not abs(x.var() - k2) <= MOMENT_SE * se_var:
        bad.append(f"draw variance {x.var():.5g} vs kappa_2 {k2:.5g} beyond {MOMENT_SE} SE")
    return bad


def heavier_both(verdict, what: str) -> list:
    """A tail verdict that reads heavier in both tails."""
    got = (_value(verdict.lower), _value(verdict.upper))
    if got != ("heavier", "heavier"):
        return [f"{what}: tails {got[0]}/{got[1]}, expected heavier/heavier"]
    return []


def _value(side):
    return getattr(side, "value", side)


def qq_normal_reference(levels, theoretical, mean, sd) -> list:
    """Reference quantiles of a Q-Q against N(mean, sd) match scipy's."""
    want = stats.norm.ppf(np.asarray(levels), loc=mean, scale=sd)
    err = np.abs(np.asarray(theoretical) - want) / np.maximum(1.0, np.abs(want))
    if not err.max() <= 1e-9:
        return [f"normal reference quantiles off scipy by {err.max():.3e} (relative)"]
    return []


def gof_statistics(draws, cdf_at, ks, ad, chi2) -> list:
    """KS and AD recomputed apart; chi-squared p-value against scipy."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.shape[0]
    bad = []
    d_ref = stats.kstest(x, cdf_at).statistic
    if not abs(ks - d_ref) <= 1e-12:
        bad.append(f"KS statistic {ks!r} vs scipy {d_ref!r}")
    u = np.asarray(cdf_at(x), dtype=float)
    k = np.arange(1, n + 1)
    ad_ref = -n - np.mean((2 * k - 1) * (np.log(u) + np.log(1.0 - u[::-1])))
    if not abs(ad - ad_ref) <= 1e-9 * max(1.0, abs(ad_ref)):
        bad.append(f"AD statistic {ad!r} vs recomputed {ad_ref!r}")
    stat, df, pvalue = chi2
    p_ref = stats.chi2.sf(stat, df)
    if not abs(pvalue - p_ref) <= CHI2_PVALUE_TOL:
        bad.append(f"chi2 p-value {pvalue!r} vs scipy {p_ref!r}")
    return bad


def eth_beyond_btc(btc_q, eth_q) -> list:
    """ETH's 0.1% and 99.9% quantiles lie beyond BTC's (the paper's finding)."""
    bad = []
    if not eth_q[0] < btc_q[0]:
        bad.append(f"ETH 0.1% quantile {eth_q[0]:.6g} not below BTC's {btc_q[0]:.6g}")
    if not eth_q[1] > btc_q[1]:
        bad.append(f"ETH 99.9% quantile {eth_q[1]:.6g} not above BTC's {btc_q[1]:.6g}")
    return bad


# --------------------------------------------------------------------------
# fit-mle
# --------------------------------------------------------------------------

def normal_aic(x) -> float:
    """AIC of the Gaussian maximum-likelihood fit (two parameters)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return n * math.log(2.0 * math.pi * x.var()) + n + 4.0


def fit_ok(fit, truth, loglik_truth, normal_aic) -> list:
    """Convergence, finite SEs, recovery of the truth, likelihood and AIC order."""
    bad = []
    if not fit.converged:
        bad.append("fit did not converge")
    se = np.asarray(fit.std_errors if fit.std_errors is not None else [np.nan] * 7, dtype=float)
    if not (np.all(np.isfinite(se)) and np.all(se > 0.0)):
        bad.append(f"standard errors not finite and positive: {se.tolist()}")
    else:
        z = np.abs(np.asarray(fit.params.as_tuple()) - np.asarray(truth)) / se
        if not np.sum(z <= RECOVERY_SE) >= 6:
            z = np.round(z, 2).tolist()
            bad.append(f"fewer than 6 of 7 estimates within 3 SE of the truth: z = {z}")
    if not fit.loglik >= loglik_truth - LOGLIK_SLACK:
        bad.append(f"fit loglik {fit.loglik!r} below the generating parameters' {loglik_truth!r}")
    if not fit.aic < normal_aic:
        bad.append(f"GTS AIC {fit.aic!r} not below the normal AIC {normal_aic!r}")
    return bad


# --------------------------------------------------------------------------
# cli-oneshot
# --------------------------------------------------------------------------

def exit_ok(code: int, stderr: str) -> list:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    return []


def read_csv_columns(text: str) -> tuple:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:] if line])
    return header, rows


def pdf_csv_mass(text: str) -> list:
    """The density CSV integrates to 1 within 1e-6 (trapezoid over its rows)."""
    header, rows = read_csv_columns(text)
    if header != ["x", "value"]:
        return [f"pdf CSV header {header}"]
    mass = float(np.trapezoid(rows[:, 1], rows[:, 0]))
    if not abs(mass - 1.0) <= PDF_MASS_TOL:
        return [f"pdf CSV mass {mass!r}"]
    return []


def cdf_csv_vs_oracle(text: str, oracle_cdf, probes) -> list:
    """CDF CSV rows nearest each probe agree with the oracle to 1e-7."""
    header, rows = read_csv_columns(text)
    if header != ["x", "value"]:
        return [f"cdf CSV header {header}"]
    if np.any(np.diff(rows[:, 1]) < 0.0):
        return ["cdf CSV not monotone"]
    bad = []
    for x in probes:
        i = int(np.argmin(np.abs(rows[:, 0] - x)))
        bad += cdf_vs_oracle(lambda _, i=i: rows[i, 1], oracle_cdf, [float(rows[i, 0])])
    return bad


def quantile_csv_vs_oracle(text: str, levels, oracle_cdf) -> list:
    header, rows = read_csv_columns(text)
    if header != ["alpha", "quantile"] or rows.shape[0] != len(levels):
        return [f"quantile CSV has header {header} and {rows.shape[0]} rows"]
    if not np.allclose(rows[:, 0], levels, rtol=0.0, atol=0.0):
        return ["quantile CSV levels differ from the requested ones"]
    return quantiles_vs_oracle(rows[:, 0], rows[:, 1], oracle_cdf)


def classify_json(text: str, params) -> list:
    data = json.loads(text)
    bad = []
    if (data.get("activity"), data.get("variation")) != ("infinite", "finite"):
        bad.append(f"classify says {data.get('activity')}/{data.get('variation')}")
    for n, want in zip(("1", "2", "3", "4"), cumulants(params)):
        got = data["cumulants"][n]
        if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            bad.append(f"cumulant {n}: {got!r} vs closed form {want!r}")
    return bad


def same_bytes(a: bytes, b: bytes) -> list:
    if a != b:
        return ["two sample calls with the same seed wrote different files"]
    return []


def sample_csv(text: str, n: int, params, cdf_at) -> list:
    header, rows = read_csv_columns(text)
    if header != ["return"] or rows.shape[0] != n:
        return [f"sample CSV has header {header} and {rows.shape[0]} rows, wanted {n}"]
    return draws_match_law(rows[:, 0], cdf_at, params)


def verdict_line(stderr: str, what: str) -> list:
    """The `--verdict` line reads heavier in both tails."""
    if "tails: lower=heavier upper=heavier" not in stderr:
        return [f"{what}: verdict line {stderr.strip()!r}, expected heavier/heavier"]
    return []


def qq_csv(text: str, n_points: int) -> list:
    header, rows = read_csv_columns(text)
    if header != ["level", "theoretical", "observed"] or rows.shape[0] != n_points:
        return [f"QQ CSV has header {header} and {rows.shape[0]} rows, wanted {n_points}"]
    if np.any(np.diff(rows[:, 1]) <= 0.0):
        return ["QQ CSV reference quantiles not increasing"]
    return []


def qq_svg(text: str, n_points: int) -> list:
    root = ET.fromstring(text)
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    if len(circles) != n_points:
        return [f"QQ SVG has {len(circles)} points, wanted {n_points}"]
    return []


def gof_json(text: str, draws, cdf_at) -> list:
    r = json.loads(text)
    bad = []
    p_ref = stats.chi2.sf(r["chi2_stat"], r["chi2_df"])
    if not abs(r["chi2_pvalue"] - p_ref) <= CHI2_PVALUE_TOL:
        bad.append(f"chi2 p-value {r['chi2_pvalue']!r} vs scipy {p_ref!r}")
    d_ref = stats.kstest(np.asarray(draws), cdf_at).statistic
    if not abs(r["ks_stat"] - d_ref) <= 1e-12:
        bad.append(f"KS statistic {r['ks_stat']!r} vs scipy {d_ref!r}")
    if r["n"] != len(draws):
        bad.append(f"GOF report counts {r['n']} observations, wanted {len(draws)}")
    return bad
