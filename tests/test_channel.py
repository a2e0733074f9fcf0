"""Channel determinism, peak-SNR bookkeeping, and ISI convolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.channel import (ChannelSpec, peak_snr_db, philox,
                              sigma_for_peak_snr, transmit)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown channel kind"):
        ChannelSpec(kind="rayleigh")
    with pytest.raises(ValueError, match="positive"):
        ChannelSpec(noise_var=0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        ChannelSpec(noise_var=float("nan"))
    with pytest.raises(ValueError, match="at least one tap"):
        ChannelSpec(kind="fir_isi", taps=())
    with pytest.raises(ValueError, match="leading FIR tap"):
        ChannelSpec(kind="fir_isi", taps=(0.0, 1.0))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_same_seed_stream_reproduces(seed, stream):
    spec = ChannelSpec(noise_var=0.05, seed=seed)
    x = np.linspace(0.0, 1.0, 64)
    a = transmit(x, spec, stream=stream)
    b = transmit(x, spec, stream=stream)
    assert np.array_equal(a, b)


def test_streams_are_independent():
    spec = ChannelSpec(noise_var=0.05, seed=3)
    x = np.zeros(256)
    y0 = transmit(x, spec, stream=0)
    y1 = transmit(x, spec, stream=1)
    assert not np.array_equal(y0, y1)
    # different seeds differ too
    y0b = transmit(x, ChannelSpec(noise_var=0.05, seed=4), stream=0)
    assert not np.array_equal(y0, y0b)


def test_awgn_noise_statistics():
    spec = ChannelSpec(noise_var=0.04, seed=0)
    y = transmit(np.zeros(200000), spec)
    assert abs(float(np.mean(y))) < 3 * 0.2 / np.sqrt(200000)
    assert np.var(y) == pytest.approx(0.04, rel=0.02)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_philox_rejects_seed_outside_key_word(seed):
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        philox(seed, 0)
    philox(2**64 - 1, 0)


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf"),
                                 4000.0, -4000.0])
def test_sigma_for_peak_snr_rejects_snr_without_noise_variance(snr):
    with pytest.raises(ValueError, match="positive finite"):
        sigma_for_peak_snr(snr)


def test_peak_snr_round_trip():
    for snr in [10.0, 21.5, 40.0]:
        assert peak_snr_db(ChannelSpec(noise_var=sigma_for_peak_snr(snr))) == \
            pytest.approx(snr, abs=1e-12)
    # unit peak amplitude with noise_var 0.01 is 20 dB
    assert peak_snr_db(ChannelSpec(noise_var=1e-2)) == pytest.approx(20.0)


def test_fir_isi_matches_convolution():
    taps = (1.0, 0.35, -0.1)
    spec = ChannelSpec(kind="fir_isi", taps=taps, noise_var=1e-12, seed=9)
    x = np.random.default_rng(1).uniform(0.0, 1.0, size=40)
    y = transmit(x, spec)
    ref = np.convolve(x, np.asarray(taps))[: len(x)]
    assert np.allclose(y, ref, atol=1e-5)


def test_fir_isi_same_noise_stream_as_awgn():
    # the noise stream is independent of the deterministic ISI part
    x = np.ones(128) * 0.4
    n_awgn = transmit(x, ChannelSpec(noise_var=0.01, seed=6)) - x
    taps = (1.0, 0.5)
    spec = ChannelSpec(kind="fir_isi", taps=taps, noise_var=0.01, seed=6)
    clean = np.convolve(x, np.asarray(taps))[: len(x)]
    n_isi = transmit(x, spec) - clean
    assert np.allclose(n_awgn, n_isi)
