import io
import math

import mpmath
import numpy as np
import pytest

import gts_tail as gt
from gts_tail.core import _mgf_exponent_values, _shifted_cf, _shifted_cf_pullback, mgf_exponent
from gts_tail.errors import DomainError, NonFinite, OutOfDomain, ParseError
from gts_tail.spectral import _RADIUS_STRIP, _freq_cutoff


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_reference_estimates_validate():
    p = gt.validate_params(-0.121571, 0.315548, 0.406563, 0.747714, 0.544565, 0.246530, 0.174772)
    assert p == gt.BITCOIN_DAILY.params


def test_negative_tempering_rejected():
    with pytest.raises(OutOfDomain) as exc:
        gt.validate_params(0, 0.5, 0.5, 1, 1, -0.1, 1)
    assert exc.value.field == "lambda_plus"


def test_beta_one_rejected():
    with pytest.raises(OutOfDomain) as exc:
        gt.validate_params(0, 1.0, 0.5, 1, 1, 1, 1)
    assert exc.value.field == "beta_plus"


def test_non_finite_rejected():
    with pytest.raises(NonFinite):
        gt.validate_params(float("nan"), 0.5, 0.5, 1, 1, 1, 1)
    with pytest.raises(NonFinite):
        gt.validate_params(0, 0.5, 0.5, 1, float("inf"), 1, 1)


def test_zero_alpha_rejected():
    with pytest.raises(OutOfDomain) as exc:
        gt.validate_params(0, 0.5, 0.5, 0.0, 1, 1, 1)
    assert exc.value.field == "alpha_plus"


# --------------------------------------------------------------------------
# characteristic exponent
# --------------------------------------------------------------------------

def _psi_mp(p, xi, beta_override=None):
    """Exponent formula in the ambient mpmath precision (returns mpc)."""
    mu = mpmath.mpf(repr(p.mu))
    xi = mpmath.mpmathify(xi)
    out = 1j * mu * xi
    for alpha, beta, lam, sgn in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, -1),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, +1),
    ):
        alpha = mpmath.mpf(repr(alpha))
        beta = mpmath.mpf(repr(beta)) if beta_override is None else mpmath.mpf(beta_override)
        lam = mpmath.mpf(repr(lam))
        base = lam + sgn * 1j * xi
        if beta == 0:
            out -= alpha * mpmath.log(base / lam)
        else:
            out += alpha * mpmath.gamma(-beta) * (base**beta - lam**beta)
    return out


def _psi_mpmath(p, xi, beta_override=None):
    """Independent high-precision evaluation of the exponent formula."""
    with mpmath.workdps(50):
        return complex(_psi_mp(p, xi, beta_override))


def test_psi_zero_is_exactly_zero(btc_params, eth_params):
    for p in (btc_params, eth_params):
        assert gt.characteristic_exponent(p, 0.0) == 0


def test_empty_frequencies_give_empty_results(btc_params):
    for law in (btc_params, gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6)):
        assert gt.characteristic_exponent(law, []).shape == (0,)
        assert gt.characteristic_function(law, []).shape == (0,)


def test_psi_symmetric_params_real_on_axis():
    p = gt.validate_params(0.0, 0.3, 0.3, 1.1, 1.1, 0.4, 0.4)
    for xi in (0.3, 1.7, 12.0):
        val = gt.characteristic_exponent(p, xi)
        assert abs(val.imag) < 1e-15


def test_psi_matches_high_precision(btc_params, eth_params):
    for p in (btc_params, eth_params):
        for xi in (1.0, 0.5, -3.25, 17.0):
            got = gt.characteristic_exponent(p, xi)
            want = _psi_mpmath(p, xi)
            assert abs(got - want) < 1e-12


def test_hermitian_symmetry(btc_params, eth_params):
    xi = np.linspace(-50, 50, 101)
    for p in (btc_params, eth_params):
        psi = gt.characteristic_exponent(p, xi)
        viol = np.max(np.abs(np.conj(psi) - psi[::-1]))
        assert viol <= 1e-13


def test_cf_modulus_bound(btc_params):
    xi = np.linspace(-50, 50, 101)
    cf = gt.characteristic_function(btc_params, xi)
    mod = np.abs(cf)
    assert np.all(mod <= 1.0 + 1e-15)
    assert np.all(mod[np.abs(xi) > 0.4] < 1.0)
    assert gt.characteristic_function(btc_params, 0.0) == 1


def test_cf_is_exp_of_exponent(eth_params):
    xi = 0.5
    lhs = gt.characteristic_function(eth_params, xi)
    rhs = np.exp(gt.characteristic_exponent(eth_params, xi))
    assert abs(lhs - rhs) < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "xi", [math.nan, math.inf, -math.inf, complex(1.0, math.inf), [0.5, math.nan]]
)
def test_non_finite_frequency_rejected(btc_params, xi):
    # Raised before any arithmetic: no NaN result and no numpy RuntimeWarning.
    with pytest.raises(NonFinite):
        gt.characteristic_exponent(btc_params, xi)
    with pytest.raises(NonFinite):
        gt.characteristic_function(btc_params, xi)


# Laws for the real-arithmetic kernel: the two references, a bilateral-gamma
# law (beta = 0 on both sides), and a strongly asymmetric law with a
# beta = 0 upper side.
_KERNEL_LAWS = {
    "btc": gt.BITCOIN_DAILY.params,
    "eth": gt.ETHEREUM_DAILY.params,
    "bilateral-gamma": gt.validate_params(0.05, 0.0, 0.0, 1.5, 1.2, 0.8, 0.6),
    "asymmetric": gt.validate_params(-0.3, 0.0, 0.85, 3.0, 0.2, 0.05, 4.0),
}


@pytest.mark.parametrize("law", sorted(_KERNEL_LAWS))
def test_shifted_cf_matches_high_precision(law):
    p = _KERNEL_LAWS[law]
    xi = np.array([1e-3, 0.05, 0.4, 1.0, 3.7, 12.0, 45.0, 160.0])
    got = _shifted_cf(p, xi, 0.0)
    want = np.array([complex(mpmath.exp(_psi_mpmath(p, x))) for x in xi])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("law", sorted(_KERNEL_LAWS))
def test_shifted_cf_matches_complex_path(law):
    # 8192 nodes up to the 1e-16 cutoff, unshifted and shifted by the
    # default table's x_min and by an offset of the other sign.
    p = _KERNEL_LAWS[law]
    cutoff = _freq_cutoff(p, 1e-16)
    xi = cutoff * (0.5 + np.arange(8192)) / 8192
    for shift in (0.0, gt.build_grid(p).x_min, 41.0):
        want = np.exp(gt.characteristic_exponent(p, xi) - 1j * shift * xi)
        assert np.max(np.abs(_shifted_cf(p, xi, shift) - want)) <= 1e-14


@pytest.mark.parametrize("law", sorted(_KERNEL_LAWS))
@pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-16])
def test_freq_cutoff_is_public_crossing(law, eps):
    # Re psi through math must put the bisection within 4 ulps of where the
    # public complex exponent crosses log(eps).
    p = _KERNEL_LAWS[law]
    cutoff = _freq_cutoff(p, eps)
    step = 4.0 * math.ulp(cutoff)

    def log_cf(x):
        return gt.characteristic_exponent(p, x).real

    assert log_cf(cutoff - step) >= math.log(eps) > log_cf(cutoff + step)


def test_beta_zero_equals_bilateral_gamma_log_form():
    p = gt.validate_params(0.3, 0.0, 0.0, 1.2, 0.7, 0.9, 1.4)
    for xi in (0.5, -2.0, 9.0):
        got = gt.characteristic_exponent(p, xi)
        want = (
            1j * p.mu * xi
            + p.alpha_plus * np.log(p.lambda_plus / (p.lambda_plus - 1j * xi))
            + p.alpha_minus * np.log(p.lambda_minus / (p.lambda_minus + 1j * xi))
        )
        assert abs(got - want) < 1e-12


def test_beta_zero_is_continuous_limit():
    # The gap between beta = 1e-8 (general Gamma path, in high precision) and
    # the exact beta = 0 branch is O(beta); verify continuity at that scale.
    p0 = gt.validate_params(0.0, 0.0, 0.0, 1.0, 0.8, 0.6, 0.9)
    for xi in (0.7, -4.0):
        exact = gt.characteristic_exponent(p0, xi)
        near = _psi_mpmath(p0, xi, beta_override=1e-8)
        assert abs(exact - near) < 1e-6


@pytest.mark.parametrize("beta", [1e-4, 1e-7, 1e-9, 1e-12, 1e-14])
def test_small_stability_indices_match_high_precision(beta):
    # A BTC-like law with a small beta_plus, which validate_params accepts.
    # The power form alpha*Gamma(-beta)*(b**beta - lam**beta) cancels to an
    # error of about alpha*eps/beta: 5.7e-5 at 1e-12 and 8.2e-3 at 1e-14.
    btc = gt.BITCOIN_DAILY.params
    p = gt.validate_params(btc.mu, beta, btc.beta_minus, btc.alpha_plus, btc.alpha_minus,
                           btc.lambda_plus, btc.lambda_minus)
    xi = np.array([1e-3, 0.05, 0.4, 1.0, -3.7, 12.0, 45.0, 160.0])
    want = np.array([_psi_mpmath(p, x) for x in xi])
    assert np.max(np.abs(gt.characteristic_exponent(p, xi) / want - 1.0)) <= 1e-12
    got = _shifted_cf(p, xi, 0.0)
    assert np.max(np.abs(got / np.exp(want) - 1.0)) <= 1e-12


@pytest.mark.parametrize("beta", [0.0, 1e-9])
def test_stability_index_partial_near_zero_matches_high_precision(beta):
    # Both indices at beta, and d psi/d beta of that tied law (the sum of
    # the kernel's two beta partials) by central differences of the
    # exponent at steps of 1e-25 either side, in 100 digits: near 0 the
    # power form and the difference each cancel about 25 of them.  The
    # power form's partial cancelled in floats, and at beta = 0 the kernel
    # reported 0.
    p = gt.validate_params(0.1, beta, beta, 1.5, 1.2, 0.6, 0.5)
    xi = np.array([0.05, 0.4, 1.0, 3.7, 12.0, 45.0, 160.0])
    _, pullback = _shifted_cf_pullback(p, xi, 0.0)
    with mpmath.workdps(100):
        h = mpmath.mpf("1e-25")
        b = mpmath.mpf(repr(beta))
        for k, x in enumerate(xi):
            want = complex((_psi_mp(p, x, b + h) - _psi_mp(p, x, b - h)) / (2 * h))
            unit = np.zeros(xi.size, dtype=complex)
            unit[k] = 1.0
            # Re(w d) at w = 1 and at w = -i.
            got = complex(pullback(unit)[1:3].sum(), pullback(-1j * unit)[1:3].sum())
            assert abs(got - want) <= 1e-8 * abs(want)


# --------------------------------------------------------------------------
# Levy density
# --------------------------------------------------------------------------

def test_levy_density_unit_cases():
    p = gt.validate_params(0, 0.5, 0.5, 1.0, 2.0, 1.0, 1.0)
    assert abs(gt.levy_density(p, 1.0) - math.exp(-1)) < 1e-15
    assert abs(gt.levy_density(p, -1.0) - 2 * math.exp(-1)) < 1e-15


def test_levy_density_formula(btc_params):
    p = btc_params
    x = 0.5
    want = p.alpha_plus * math.exp(-p.lambda_plus * x) / x ** (1 + p.beta_plus)
    assert abs(gt.levy_density(p, x) - want) < 1e-14


def test_levy_density_rejects_zero(btc_params):
    with pytest.raises(DomainError):
        gt.levy_density(btc_params, 0.0)


def test_levy_density_rejects_nan(btc_params):
    with pytest.raises(NonFinite):
        gt.levy_density(btc_params, math.nan)
    with pytest.raises(NonFinite):
        gt.levy_density(btc_params, np.array([1.0, math.nan]))
    # The far tails are the limit 0, not an error.
    assert gt.levy_density(btc_params, math.inf) == 0.0


def test_levy_density_monotone_decreasing_in_abs_x(btc_params):
    x = np.linspace(0.05, 30, 400)
    d = gt.levy_density(btc_params, x)
    assert np.all(np.diff(d) < 0)
    d = gt.levy_density(btc_params, -x)
    assert np.all(np.diff(d) < 0)
    assert np.all(d >= 0)


# --------------------------------------------------------------------------
# path classification
# --------------------------------------------------------------------------

def test_path_classification(btc_params, eth_params):
    for p in (btc_params, eth_params):
        c = gt.path_classification(p)
        assert c.activity.value == "infinite"
        assert c.variation.value == "finite"


def test_path_classification_bilateral_gamma():
    p = gt.bilateral_gamma_params(0, 1, 1, 1, 1)
    c = gt.path_classification(p)
    assert (c.activity.value, c.variation.value) == ("infinite", "finite")


# --------------------------------------------------------------------------
# cumulants
# --------------------------------------------------------------------------

def _fd_cumulant(p, n, h="1e-4"):
    """Richardson-extrapolated central differences of psi at 0, step 1e-4.

    The differences are formed from extended-precision exponent values: in
    double precision the n=4 stencil amplifies the exponent's ~1e-16
    evaluation noise by 1/h**4, which would swamp the 1e-6 target.
    """
    with mpmath.workdps(60):
        f = lambda t: _psi_mp(p, t)  # noqa: E731
        hh = mpmath.mpf(h)

        def deriv(hh):
            if n == 1:
                return (f(hh) - f(-hh)) / (2 * hh)
            if n == 2:
                return (f(hh) - 2 * f(0) + f(-hh)) / hh**2
            if n == 3:
                return (f(2 * hh) - 2 * f(hh) + 2 * f(-hh) - f(-2 * hh)) / (2 * hh**3)
            return (f(2 * hh) - 4 * f(hh) + 6 * f(0) - 4 * f(-hh) + f(-2 * hh)) / hh**4

        # Central stencils are O(h^2); one Richardson step cancels that term.
        d = (4 * deriv(hh / 2) - deriv(hh)) / 3
        return float((d / 1j**n).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cumulants_match_finite_differences(btc_params, eth_params, n):
    for p in (btc_params, eth_params):
        want = _fd_cumulant(p, n)
        got = gt.cumulant(p, n)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_symmetric_odd_cumulants_vanish():
    p = gt.validate_params(0.0, 0.35, 0.35, 0.9, 0.9, 0.3, 0.3)
    assert abs(gt.cumulant(p, 1)) < 1e-14
    assert abs(gt.cumulant(p, 3)) < 1e-11


def test_even_cumulants_positive(btc_params, eth_params):
    for p in (btc_params, eth_params):
        assert gt.cumulant(p, 2) > 0
        assert gt.cumulant(p, 4) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cumulants_match_mpmath_to_a_few_ulps(btc_params, eth_params, n):
    # The error is measured against the magnitude of the terms, since kappa_1
    # and kappa_3 subtract one side from the other (and mu).
    bg = gt.bilateral_gamma_params(0.05, 1.5, 1.2, 0.6, 0.5)
    with mpmath.workdps(50):
        for p in (btc_params, eth_params, bg):
            terms = [
                sign * mpmath.mpf(alpha) * mpmath.gamma(n - mpmath.mpf(beta))
                * mpmath.mpf(lam) ** (mpmath.mpf(beta) - n)
                for sign, alpha, beta, lam in (
                    (1, p.alpha_plus, p.beta_plus, p.lambda_plus),
                    ((-1) ** n, p.alpha_minus, p.beta_minus, p.lambda_minus),
                )
            ]
            if n == 1:
                terms.append(mpmath.mpf(p.mu))
            err = abs(gt.cumulant(p, n) - sum(terms)) / sum(abs(t) for t in terms)
            assert err <= 6 * np.finfo(float).eps, (p, float(err))


def test_cumulant_order_must_be_an_integer(btc_params):
    assert gt.cumulant(btc_params, 2.0) == gt.cumulant(btc_params, np.int64(2))
    for n in (2.5, True, np.bool_(True), 0, -1, math.nan, math.inf, "2"):
        with pytest.raises(DomainError):
            gt.cumulant(btc_params, n)


@pytest.mark.filterwarnings("error")
def test_cumulant_overflow_raises_non_finite(btc_params):
    for n in (171, 172, 10**6, 10**400):
        with pytest.raises(NonFinite):
            gt.cumulant(btc_params, n)


def test_mgf_exponent_matches_psi_on_imaginary_axis(btc_params):
    theta = 0.1
    want = gt.characteristic_exponent(btc_params, complex(0.0, -theta))
    assert abs(mgf_exponent(btc_params, theta) - want.real) < 1e-13
    with pytest.raises(DomainError):
        mgf_exponent(btc_params, btc_params.lambda_plus * 1.01)


@pytest.mark.parametrize(
    "law",
    [
        gt.BITCOIN_DAILY.params,
        gt.ETHEREUM_DAILY.params,
        gt.bilateral_gamma_params(0.0, 1.5, 1.5, 0.6, 0.6),
        gt.validate_params(-0.3, 0.2, 0.8, 0.5, 1.2, 0.4, 1.7),
    ],
    ids=["btc", "eth", "beta0", "asym"],
)
def test_real_mgf_exponent_matches_complex_psi_on_radius_strips(law):
    # The 40-theta strips the Chernoff tail radius scans, one per side.
    for theta in (law.lambda_plus * _RADIUS_STRIP, -law.lambda_minus * _RADIUS_STRIP):
        want = gt.characteristic_exponent(law, -1j * theta).real
        got = _mgf_exponent_values(law, theta)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


# --------------------------------------------------------------------------
# restricted models
# --------------------------------------------------------------------------

def test_kobol_ties_betas():
    p = gt.kobol_params(0, 0.4, 1, 1, 0.2, 0.3)
    assert p.beta_plus == p.beta_minus == 0.4
    assert (p.lambda_plus, p.lambda_minus) == (0.2, 0.3)


def test_cgmy_ties_betas_and_lambdas():
    p = gt.cgmy_params(0, 0.4, 1, 1, 0.2)
    assert p.beta_plus == p.beta_minus == 0.4
    assert p.lambda_plus == p.lambda_minus == 0.2


def test_bilateral_gamma_pins_betas():
    p = gt.bilateral_gamma_params(0, 1, 1, 1, 1)
    assert p.beta_plus == p.beta_minus == 0.0


def test_restricted_model_dispatch():
    p = gt.restricted_model(gt.RestrictedKind.CGMY, [0, 0.4, 1, 1, 0.2])
    assert p == gt.cgmy_params(0, 0.4, 1, 1, 0.2)


def test_restricted_model_validates():
    with pytest.raises(OutOfDomain):
        gt.kobol_params(0, 0.4, 1, 1, -0.2, 0.3)


def test_reduce_roundtrip(btc_params):
    for kind in gt.RestrictedKind:
        free = kind.reduce(btc_params)
        assert len(free) == kind.n_free == len(kind.free_names)
        p2 = kind.expand(free)
        assert p2.beta_plus == p2.beta_minus or kind is not gt.RestrictedKind.KOBOL
    # A parameter set of each kind survives the projection exactly.
    own = {
        gt.RestrictedKind.FULL: btc_params,
        gt.RestrictedKind.KOBOL: gt.kobol_params(-0.1, 0.35, 0.7, 0.5, 0.25, 0.17),
        gt.RestrictedKind.CGMY: gt.cgmy_params(-0.1, 0.35, 0.7, 0.5, 0.21),
        gt.RestrictedKind.BILATERAL_GAMMA: gt.bilateral_gamma_params(-0.1, 1.5, 1.2, 0.6, 0.5),
    }
    assert set(own) == set(gt.RestrictedKind)
    for kind, p in own.items():
        assert kind.expand(kind.reduce(p)) == p
    # Tied fields project onto their mean, rounded as 0.5 * (a + b).
    p = btc_params
    assert gt.RestrictedKind.FULL.reduce(p) == list(p.as_tuple())
    assert gt.RestrictedKind.CGMY.reduce(p) == [
        p.mu, 0.5 * (p.beta_plus + p.beta_minus), p.alpha_plus, p.alpha_minus,
        0.5 * (p.lambda_plus + p.lambda_minus),
    ]


# --------------------------------------------------------------------------
# parameter files
# --------------------------------------------------------------------------

def test_params_file_roundtrip(tmp_path, btc_params):
    path = tmp_path / "p.par"
    gt.write_params_file(btc_params, path)
    assert gt.read_params_file(path) == btc_params


def test_params_file_to_a_stream_and_without_carriage_returns(tmp_path, btc_params):
    buf = io.StringIO()
    gt.write_params_file(btc_params, buf)
    buf.seek(0)
    assert gt.read_params_file(buf) == btc_params
    path = tmp_path / "p.par"
    gt.write_params_file(btc_params, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == buf.getvalue()


def test_params_file_comments_and_blanks(tmp_path):
    path = tmp_path / "p.par"
    path.write_text(
        "# comment\n\nmu = 0.0\nbeta_plus=0.3\nbeta_minus = 0.4\n"
        "alpha_plus = 1\nalpha_minus = 1\nlambda_plus = 1\nlambda_minus = 1\n"
    )
    p = gt.read_params_file(path)
    assert p.beta_plus == 0.3


def test_params_file_errors(tmp_path):
    bad = tmp_path / "bad.par"
    bad.write_text("mu = 0\nwat = 3\n")
    with pytest.raises(ParseError):
        gt.read_params_file(bad)
    missing = tmp_path / "missing.par"
    missing.write_text("mu = 0\n")
    with pytest.raises(ParseError):
        gt.read_params_file(missing)
