"""The benchmark's workloads: timed rounds over gts_tail and their checks.

A run repeats whole rounds of one workload until the run's time is spent.
Each round calls gts_tail's public API (or its CLI) a fixed number of times;
every call is one operation.  Outputs are checked after the round, outside
the timed region, so a check never slows the numbers it guards.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from functools import cached_property

import gts_tail as gt

import checks
from inputs import (
    ASSETS,
    CLI_DRAWS,
    CLI_LEVELS,
    QQ_DRAWS,
    TAIL_LEVELS,
    cli_script,
    sub_seed,
)


class Oracle:
    """Direct-quadrature CDF of one law at single points, memoized.

    The oracle is slow next to the tables it checks, and every round of a
    run probes the same points.
    """

    def __init__(self, params):
        self.params = params
        self._cache = {}

    def __call__(self, x) -> float:
        x = float(x)
        if x not in self._cache:
            self._cache[x] = gt.direct_quadrature_oracle(self.params, x)[1]
        return self._cache[x]


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Outputs(dict):
    def step(self, name: str, fn):
        try:
            self[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self[name] = Failed(exc)

    def need(self, name: str):
        value = self[name]
        if isinstance(value, Failed):
            raise RuntimeError(f"input {name!r} failed: {value.exc!r}")
        return value


class Ledger:
    """Operations attempted and failed; `wrong` counts failed checks alone."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def settle(self, outputs: Outputs, checkers: dict) -> None:
        for name, check in checkers.items():
            self.attempted += 1
            value = outputs.get(name)
            raised = isinstance(value, Failed)
            if raised:
                problems = [f"raised {value.exc!r}"]
            else:
                try:
                    problems = check(value)
                except Exception as exc:  # a malformed output is a wrong output
                    problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += 1
                self.wrong += not raised
                self.problems.extend(f"{name}: {p}" for p in problems)


# --------------------------------------------------------------------------
# qq-tails: the paper's BTC/ETH tail report
# --------------------------------------------------------------------------

class QQTails:
    def __init__(self, seed: int, inputs: dict, workdir: str):
        self.seed = seed
        self.probes = inputs["probes"]
        self.oracles = {name: Oracle(ref.params) for name, ref in ASSETS}

    def round(self, r: int, tr):
        out = Outputs()
        for i, (name, ref) in enumerate(ASSETS):
            self._asset(out, tr, name, ref.params, sub_seed(self.seed, r + 1, i))

        def cross():
            btc_cdf = out.need("btc.tables")[2]
            eth = out.need("eth.sample")
            with tr.span("qq.qq_points"):
                q = gt.qq_points(eth, lambda a: gt.quantile(btc_cdf, a), reference="btc-gts")
            with tr.span("qq.tail_verdict"):
                return q, gt.tail_verdict(q)

        out.step("eth_vs_btc.qq", cross)
        return out

    @staticmethod
    def _asset(out, tr, name, p, draw_seed):
        def tables():
            with tr.span("spectral.build_grid"):
                grid = gt.build_grid(p)
            with tr.span("spectral.pdf_table"):
                pdf = gt.pdf_table(p, grid)
            with tr.span("spectral.cdf_table"):
                cdf = gt.cdf_table(p, grid)
            return grid, pdf, cdf

        def quantiles():
            cdf = out.need(f"{name}.tables")[2]
            with tr.span("quantiles.quantile"):
                return [gt.quantile(cdf, a) for a in TAIL_LEVELS]

        def draws():
            cdf = out.need(f"{name}.tables")[2]
            with tr.span("quantiles.sample"):
                return gt.sample(cdf, QQ_DRAWS, draw_seed)

        def qq_normal():
            s = out.need(f"{name}.sample")
            with tr.span("core.cumulant"):
                mean, sd = gt.cumulant(p, 1), math.sqrt(gt.cumulant(p, 2))
            with tr.span("qq.qq_points"):
                q = gt.qq_points(s, lambda a: gt.normal_quantile(mean, sd, a), reference="normal")
            with tr.span("qq.tail_verdict"):
                return q, gt.tail_verdict(q)

        def gof():
            s = out.need(f"{name}.sample")
            cdf = out.need(f"{name}.tables")[2]
            with tr.span("qq.gof"):
                return gt.gof_ks(s, cdf)[0], gt.gof_ad(s, cdf), gt.gof_chi2(s, cdf)

        out.step(f"{name}.tables", tables)
        out.step(f"{name}.quantiles", quantiles)
        out.step(f"{name}.sample", draws)
        out.step(f"{name}.qq_normal", qq_normal)
        out.step(f"{name}.gof", gof)

    def checkers(self, out: Outputs) -> dict:
        found = {}
        for name, ref in ASSETS:
            found.update(self._asset_checkers(out, name, ref.params.as_tuple()))

        def cross(v):
            q, verdict = v
            tail = [TAIL_LEVELS.index(1e-3), TAIL_LEVELS.index(0.999)]
            btc = [out.need("btc.quantiles")[i] for i in tail]
            eth = [out.need("eth.quantiles")[i] for i in tail]
            return checks.heavier_both(verdict, "ETH draws vs BTC GTS") + (
                checks.eth_beyond_btc(btc, eth)
            )

        found["eth_vs_btc.qq"] = cross
        return found

    def reference(self, out: Outputs) -> dict:
        """Grid sizes, tail quantiles and the oracle errors they reached."""
        ref = {}
        for name, _ in ASSETS:
            grid, _, cdf = out.need(f"{name}.tables")
            q = out.need(f"{name}.quantiles")
            oracle = self.oracles[name]
            ref[name] = {
                "m": grid.m,
                "n_freq": grid.n_freq,
                "cdf_oracle_max_err": max(
                    abs(cdf.evaluate(x) - oracle(x)) for x in self.probes[name]
                ),
                "quantile_oracle_max_err": max(
                    abs(oracle(v) - a) for a, v in zip(TAIL_LEVELS, q)
                ),
                "tail_quantiles": dict(zip(map(repr, TAIL_LEVELS), q)),
            }
        return ref

    def _asset_checkers(self, out, name, params):
        oracle = self.oracles[name]

        def cdf_at(x):
            return out.need(f"{name}.tables")[2].evaluate(x)

        def qq_normal(v):
            q, verdict = v
            k1, k2, _, _ = checks.cumulants(params)
            return checks.qq_normal_reference(q.levels, q.theoretical, k1, math.sqrt(k2)) + (
                checks.heavier_both(verdict, f"{name} vs normal")
            )

        return {
            f"{name}.tables": lambda v: checks.cdf_vs_oracle(
                v[2].evaluate, oracle, self.probes[name]
            ),
            f"{name}.quantiles": lambda v: checks.quantiles_vs_oracle(TAIL_LEVELS, v, oracle),
            f"{name}.sample": lambda v: checks.draws_match_law(v.values, cdf_at, params),
            f"{name}.qq_normal": qq_normal,
            f"{name}.gof": lambda v: checks.gof_statistics(
                out.need(f"{name}.sample").values, cdf_at, *v
            ),
        }


# --------------------------------------------------------------------------
# fit-mle: one default maximum-likelihood fit with standard errors
# --------------------------------------------------------------------------

class FitMle:
    def __init__(self, seed: int, inputs: dict, workdir: str):
        self.params = gt.BITCOIN_DAILY.params
        self.data = inputs["sample"]

    def round(self, r: int, tr):
        out = Outputs()

        def fit():
            with tr.span("estimation.fit_mle"):
                return gt.fit_mle(self.data)

        out.step("fit", fit)
        return out

    def reference(self, out: Outputs) -> dict:
        """The fit's log-likelihood next to the generating parameters'."""
        f = out.need("fit")
        return {
            "loglik": f.loglik,
            "loglik_truth": gt.log_likelihood(self.params, self.data),
            "params": list(f.params.as_tuple()),
            "std_errors": list(f.std_errors) if f.std_errors is not None else None,
            "converged": f.converged,
            "hessian_fallback": f.hessian_fallback,
        }

    def checkers(self, out: Outputs) -> dict:
        def fit(f):
            loglik_truth = gt.log_likelihood(self.params, self.data)
            normal_aic = checks.normal_aic(self.data.values)
            return checks.fit_ok(f, self.params.as_tuple(), loglik_truth, normal_aic)

        return {"fit": fit}


# --------------------------------------------------------------------------
# cli-oneshot: a fixed script of CLI calls, each in a fresh interpreter
# --------------------------------------------------------------------------

def src_dir() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir()
    return env


class CliOneshot:
    def __init__(self, seed: int, inputs: dict, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.oracles = {name: Oracle(ref.params) for name, ref in ASSETS}

    @cached_property
    def eth_cdf(self):
        p = gt.ETHEREUM_DAILY.params
        return gt.cdf_table(p, gt.build_grid(p))

    def round(self, r: int, tr):
        out = Outputs()
        env = src_env()
        for op, argv, path in cli_script(self.workdir, sub_seed(self.seed, r + 1)):
            def call(argv=argv, path=path):
                cmd = [sys.executable, "-m", "gts_tail.cli", *argv]
                with tr.span(f"cli.{argv[0]}"):
                    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
                body = b""
                if done.returncode == 0:
                    with open(path, "rb") as fh:
                        body = fh.read()
                return done.returncode, done.stderr, body

            out.step(op, call)
        return out

    def reference(self, out: Outputs) -> dict:
        """Oracle CDF error of the quantile command's output."""
        _, rows = checks.read_csv_columns(out.need("quantile")[2].decode("utf-8"))
        oracle = self.oracles["btc"]
        return {"quantile_oracle_max_err": max(abs(oracle(q) - a) for a, q in rows)}

    def checkers(self, out: Outputs) -> dict:
        btc = gt.BITCOIN_DAILY.params.as_tuple()
        eth = gt.ETHEREUM_DAILY.params.as_tuple()
        eth_cdf = self.eth_cdf.evaluate
        k1, k2, _, _ = checks.cumulants(eth)
        cdf_probes = [k1 - 3.0 * math.sqrt(k2), k1, k1 + 3.0 * math.sqrt(k2)]

        def on_success(check):
            def run(v):
                code, stderr, body = v
                return checks.exit_ok(code, stderr) or check(body.decode("utf-8"), stderr)
            return run

        def draws():
            return checks.read_csv_columns(out.need("sample_a")[2].decode("utf-8"))[1][:, 0]

        return {
            "classify": on_success(lambda t, e: checks.classify_json(t, btc)),
            "pdf": on_success(lambda t, e: checks.pdf_csv_mass(t)),
            "cdf": on_success(
                lambda t, e: checks.cdf_csv_vs_oracle(t, self.oracles["eth"], cdf_probes)
            ),
            "quantile": on_success(
                lambda t, e: checks.quantile_csv_vs_oracle(t, CLI_LEVELS, self.oracles["btc"])
            ),
            "sample_a": on_success(lambda t, e: checks.sample_csv(t, CLI_DRAWS, eth, eth_cdf)),
            "sample_b": on_success(
                lambda t, e: checks.same_bytes(out.need("sample_a")[2], t.encode("utf-8"))
            ),
            "qq_normal": on_success(
                lambda t, e: checks.verdict_line(e, "ETH draws vs normal")
                + checks.qq_svg(t, CLI_DRAWS)
            ),
            "qq_gts": on_success(
                lambda t, e: checks.verdict_line(e, "ETH draws vs BTC GTS")
                + checks.qq_csv(t, CLI_DRAWS)
            ),
            "gof": on_success(lambda t, e: checks.gof_json(t, draws(), eth_cdf)),
        }


WORKLOADS = {"qq-tails": QQTails, "fit-mle": FitMle, "cli-oneshot": CliOneshot}


def run_rounds(workload, seconds: float, tr, ledger: Ledger):
    """Whole rounds until `seconds` have passed.

    Returns the median round time and the last round's outputs.
    """
    round_s = []
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < seconds:
        with tr.span("round"):
            t0 = time.perf_counter()
            out = workload.round(len(round_s), tr)
            round_s.append(time.perf_counter() - t0)
        ledger.settle(out, workload.checkers(out))
    return statistics.median(round_s), out
