"""Command-line interface: `gts-tail <command>`.

Commands: eval-cf, pdf, cdf, quantile, sample, fit, qq, gof, classify.
File arguments accept '-' for standard input/output.  Exit codes: 0 on
success, 2 for domain/validation errors, 3 for numerical failures, 4 for
I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from ._textio import text_stream
from .core import (
    PARAM_NAMES,
    RestrictedKind,
    characteristic_exponent,
    characteristic_function,
    cumulant,
    path_classification,
    read_params_file,
)
from .errors import NumericalError, ValidationError
from .estimation import FitOptions, fit_mle
from .qq import (
    GofReport,
    emit,
    gof_ad,
    gof_chi2,
    gof_ks,
    normal_quantile,
    qq_points,
    tail_verdict,
)
from .quantiles import quantile, sample
from .returns_io import load_returns_csv, write_returns_csv
from .spectral import GridConfig, build_grid, cdf_table, pdf_table, write_table_csv

def _out(path):
    return sys.stdout if path in (None, "-") else path


def _read_params(path):
    return read_params_file(sys.stdin if path == "-" else path)


def _read_returns(path):
    return load_returns_csv(sys.stdin if path == "-" else path)


def _table(args, make=cdf_table, params=None):
    """``make`` (cdf_table or pdf_table) of the law in ``params`` (default
    ``--params``) on the grid the grid flags describe."""
    p = _read_params(args.params if params is None else params)
    cfg = GridConfig(
        m=args.grid_m,
        width_sds=args.grid_width_sds,
        min_half_width=args.grid_min_half_width,
        freq_eps=args.freq_eps,
    )
    return make(p, build_grid(p, cfg))


def _add_grid_flags(p):
    cfg = GridConfig()
    p.add_argument("--grid-m", type=int, default=cfg.m,
                   help="spatial points (rounded up to a power of two, at most 2**22)")
    p.add_argument("--grid-width-sds", type=float, default=cfg.width_sds, help="half-width in std devs")
    p.add_argument("--grid-min-half-width", type=float, default=cfg.min_half_width,
                   help="half-width floor (%%)")
    p.add_argument("--freq-eps", type=float, default=cfg.freq_eps, help="|cf| cutoff threshold")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_json(payload, path) -> None:
    with text_stream(_out(path), "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------

def _cmd_eval_cf(args) -> int:
    p = _read_params(args.params)
    # Every row before the output opens: a non-finite xi leaves no partial file.
    rows = []
    for xi in args.xi:
        psi = characteristic_exponent(p, complex(xi))
        cf = characteristic_function(p, complex(xi))
        rows.append(
            f"{_fmt(xi)},{_fmt(psi.real)},{_fmt(psi.imag)},{_fmt(cf.real)},{_fmt(cf.imag)}\n"
        )
    with text_stream(_out(args.out), "w") as out:
        out.write("xi,psi_re,psi_im,cf_re,cf_im\n")
        out.writelines(rows)
    return 0


def _cmd_pdf(args) -> int:
    write_table_csv(_table(args, pdf_table), _out(args.out))
    return 0


def _cmd_cdf(args) -> int:
    write_table_csv(_table(args), _out(args.out))
    return 0


def _cmd_quantile(args) -> int:
    qs = quantile(_table(args), args.alpha)
    with text_stream(_out(args.out), "w") as out:
        out.write("alpha,quantile\n")
        for a, q in zip(args.alpha, qs):
            out.write(f"{_fmt(a)},{_fmt(q)}\n")
    return 0


def _cmd_sample(args) -> int:
    write_returns_csv(sample(_table(args), args.n, args.seed), _out(args.out))
    return 0


def _cmd_fit(args) -> int:
    data = _read_returns(args.input)
    options = FitOptions(grid_m=args.fit_grid_m, compute_se=not args.no_se)
    fit = fit_mle(data, kind=RestrictedKind(args.model), options=options)
    payload = {
        "model": args.model,
        "params": dict(zip(PARAM_NAMES, fit.params.as_tuple())),
        "loglik": fit.loglik,
        "std_errors": list(fit.std_errors) if fit.std_errors is not None else None,
        "z_pvalues": list(fit.z_pvalues) if fit.z_pvalues is not None else None,
        "aic": fit.aic,
        "bic": fit.bic,
        "n_obs": fit.n_obs,
        "n_free": fit.n_free,
        "converged": fit.converged,
        "hessian_fallback": fit.hessian_fallback,
    }
    _write_json(payload, args.out)
    return 0


def _cmd_qq(args) -> int:
    data = _read_returns(args.input)
    if args.theoretical == "normal":
        mean = float(np.mean(data.values))
        sd = float(np.std(data.values, ddof=1))
        ref = lambda p_: normal_quantile(mean, sd, p_)  # noqa: E731
        label = f"normal(mean={mean:.6g}, sd={sd:.6g})"
    else:
        if not args.theoretical_params:
            raise ValidationError("--theoretical gts requires --theoretical-params")
        t = _table(args, params=args.theoretical_params)
        ref = lambda p_: quantile(t, p_)  # noqa: E731
        label = "gts"
    q = qq_points(data, ref, levels=args.levels, reference=label)
    if args.verdict:
        v = tail_verdict(q)
        sys.stderr.write(
            f"tails: lower={v.lower.value} upper={v.upper.value} shape={v.shape.value}\n"
        )
    emit(q, args.format, _out(args.out))
    return 0


def _cmd_gof(args) -> int:
    data = _read_returns(args.input)
    t = _table(args)
    ks, crit = gof_ks(data, t)
    ad = gof_ad(data, t)
    chi2, df, pval = gof_chi2(data, t, bins=args.bins, n_fitted_params=args.fitted_params)
    report = GofReport(
        ks_stat=ks,
        ks_critical_5pct=crit,
        ad_stat=ad,
        chi2_stat=chi2,
        chi2_df=df,
        chi2_pvalue=pval,
        n=data.n,
    )
    emit(report, args.format, _out(args.out))
    return 0


def _cmd_classify(args) -> int:
    p = _read_params(args.params)
    c = path_classification(p)
    payload = {
        "activity": c.activity.value,
        "variation": c.variation.value,
        "cumulants": {str(n): cumulant(p, n) for n in (1, 2, 3, 4)},
    }
    _write_json(payload, args.out)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gts-tail",
        description="Generalized tempered stable distribution toolkit (percent log-return units)",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-cf", help="evaluate the characteristic exponent/function")
    p.add_argument("--params", required=True)
    p.add_argument("--xi", type=float, nargs="+", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_eval_cf)

    for name, handler in (("pdf", _cmd_pdf), ("cdf", _cmd_cdf)):
        p = sub.add_parser(name, help=f"tabulate the {name} on a uniform grid")
        p.add_argument("--params", required=True)
        p.add_argument("--out", required=True)
        _add_grid_flags(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("quantile", help="extract quantiles from the tabulated CDF")
    p.add_argument("--params", required=True)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--out", default="-")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("sample", help="inverse-CDF sampling")
    p.add_argument("--params", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="maximum-likelihood fit")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=sorted(k.value for k in RestrictedKind), default="full")
    p.add_argument("--out", default="-")
    p.add_argument("--fit-grid-m", type=int, default=FitOptions().grid_m)
    p.add_argument("--no-se", action="store_true", help="skip standard errors")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("qq", help="quantile-quantile analysis")
    p.add_argument("--input", required=True)
    p.add_argument("--theoretical", choices=("normal", "gts"), default="normal")
    p.add_argument("--theoretical-params")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default="-")
    p.add_argument("--verdict", action="store_true", help="print tail verdict to stderr")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_qq)

    p = sub.add_parser("gof", help="goodness-of-fit statistics against a GTS law")
    p.add_argument("--input", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--fitted-params", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("classify", help="path activity/variation and cumulants")
    p.add_argument("--params", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_classify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
