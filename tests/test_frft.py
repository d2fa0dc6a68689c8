import numpy as np
import pytest

from gts_tail import frft
from gts_tail.errors import NonFinite, SizeError


def brute_force(seq, delta):
    n = len(seq)
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = np.sum(seq * np.exp(-2j * np.pi * j * k * delta))
    return out


def test_reduces_to_dft():
    rng = np.random.default_rng(0)
    n = 64
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = frft(a, 1.0 / n)
    want = np.fft.fft(a)
    assert np.max(np.abs(got - want)) < 1e-10


def test_delta_zero_sums():
    rng = np.random.default_rng(1)
    a = rng.normal(size=32) + 1j * rng.normal(size=32)
    got = frft(a, 0.0)
    assert np.max(np.abs(got - a.sum())) < 1e-12


def test_example_length_64():
    rng = np.random.default_rng(2)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    got = frft(a, 0.013)
    assert np.max(np.abs(got - brute_force(a, 0.013))) < 1e-10


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_matches_brute_force_many_seeds(n):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta = float(rng.uniform(-0.15, 0.15))
        got = frft(a, delta)
        want = brute_force(a, delta)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("n", [48, 37, 1])
def test_any_length_matches_brute_force(n):
    # Bluestein's identity holds at every length, even or odd.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta = float(rng.uniform(-0.15, 0.15))
        assert np.max(np.abs(frft(a, delta) - brute_force(a, delta))) <= 1e-10


def test_rejects_an_empty_sequence():
    with pytest.raises(SizeError):
        frft(np.zeros(0, dtype=complex), 0.01)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_rejects_a_non_finite_spacing(delta):
    with pytest.raises(NonFinite):
        frft(np.ones(8, dtype=complex), delta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rejects_a_non_finite_sequence(bad):
    a = np.ones(8, dtype=complex)
    a[3] = bad
    with pytest.raises(NonFinite):
        frft(a, 0.01)
