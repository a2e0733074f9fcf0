"""Channel determinism, peak-SNR bookkeeping, and ISI convolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.channel import philox, sigma_for_peak_snr, transmit
from pam6link.constellation import (bit_llrs, build_constellation,
                                    rate_samples, symbol_posteriors)
from pam6link.dsp import bcjr_app, make_trellis


def test_transmit_validation():
    x = np.zeros(4)
    with pytest.raises(ValueError, match="positive"):
        transmit(x, 0.0, philox(0, 0))
    with pytest.raises(ValueError, match="positive and finite"):
        transmit(x, float("nan"), philox(0, 0))
    with pytest.raises(ValueError, match="at least one tap"):
        transmit(x, 0.01, philox(0, 0), taps=())
    with pytest.raises(ValueError, match="leading FIR tap"):
        transmit(x, 0.01, philox(0, 0), taps=(0.0, 1.0))
    for taps in ((1.0, float("nan")), (1.0, float("inf")), (float("-inf"),)):
        with pytest.raises(ValueError, match="taps must be finite"):
            transmit(x, 0.01, philox(0, 0), taps=taps)
    with pytest.raises(ValueError, match="sum of \\|taps\\| overflows"):
        transmit(x, 0.01, philox(0, 0), taps=(1e308, 1e308))
    # finite taps whose trellis metrics (2 sum|h|)**2 * 0.5 / noise_var
    # overflow at the noise variance, then some at a larger one
    for taps, noise_var in (((8.9e307, 8.9e307), 0.01), ((1e150, 1e150), 1e-10),
                            ((1.0, 2e100), 1e-200), ((5e99, 5e99), 1e-200)):
        with pytest.raises(ValueError, match="overflows the trellis"):
            transmit(x, noise_var, philox(0, 0), taps=taps)
    for taps, noise_var in (((1e150, 1e150), 1e-7), ((1.0, 2e100), 0.01),
                            ((5e99, 5e99), 1e-20)):
        assert transmit(x, noise_var, philox(0, 0), taps=taps).shape == x.shape


_Y = np.full(8, 0.4)
_CROSS = build_constellation("cross_qam32")
# every entry point that takes a noise variance, called at variance nv
NOISE_VAR_ENTRIES = {
    "transmit": lambda nv: transmit(_Y, nv, philox(0, 0)),
    "transmit_isi": lambda nv: transmit(_Y, nv, philox(0, 0), taps=(1.0, 0.35)),
    "bit_llrs": lambda nv: bit_llrs(_Y, _CROSS, nv),
    "symbol_posteriors": lambda nv: symbol_posteriors(_Y, _CROSS, nv),
    "rate_samples": lambda nv: rate_samples(
        np.zeros(4, dtype=int), _CROSS, ("symbol_metric", "bit_metric"),
        received=_Y, noise_var=nv),
    "bcjr_app": lambda nv: bcjr_app(_Y[None], make_trellis([1.0, 0.35]), nv,
                                    lambda t0, post: None),
}


@pytest.mark.parametrize("entry", sorted(NOISE_VAR_ENTRIES))
@pytest.mark.parametrize("noise_var", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -0.01])
def test_every_entry_point_refuses_a_variance_not_positive_finite(entry, noise_var):
    with pytest.raises(ValueError, match="positive and finite"):
        NOISE_VAR_ENTRIES[entry](noise_var)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_same_seed_stream_reproduces(seed, stream):
    x = np.linspace(0.0, 1.0, 64)
    a = transmit(x, 0.05, philox(seed, stream))
    b = transmit(x, 0.05, philox(seed, stream))
    assert np.array_equal(a, b)


def test_streams_are_independent():
    x = np.zeros(256)
    y0 = transmit(x, 0.05, philox(3, 0))
    y1 = transmit(x, 0.05, philox(3, 1))
    assert not np.array_equal(y0, y1)
    # different seeds differ too
    y0b = transmit(x, 0.05, philox(4, 0))
    assert not np.array_equal(y0, y0b)


def test_awgn_noise_statistics():
    y = transmit(np.zeros(200000), 0.04, philox(0, 0))
    assert abs(float(np.mean(y))) < 3 * 0.2 / np.sqrt(200000)
    assert np.var(y) == pytest.approx(0.04, rel=0.02)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_philox_rejects_seed_outside_key_word(seed):
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        philox(seed, 0)
    philox(2**64 - 1, 0)


@pytest.mark.parametrize("seed", [1.9, 0.5, True, np.float64(2.0), "1"])
def test_philox_rejects_seed_that_is_not_an_integer(seed):
    # a cast would draw seed 1 for 1.9, yet report seed 1.9
    with pytest.raises(ValueError) as err:
        philox(seed, 0)
    assert str(err.value) == f"seed must be an integer, got {seed!r}"
    assert philox(np.int64(3), 0).random() == philox(3, 0).random()


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf"),
                                 4000.0, -4000.0, 3200.0, -3080.0, 3000.001])
def test_sigma_for_peak_snr_rejects_snr_without_noise_variance(snr):
    with pytest.raises(ValueError, match="positive finite"):
        sigma_for_peak_snr(snr)


def test_peak_snr_round_trip():
    # unit peak amplitude with noise_var 0.01 is 20 dB
    assert sigma_for_peak_snr(20.0) == pytest.approx(1e-2, rel=1e-15)
    for snr in [10.0, 21.5, 40.0, -3000.0, 3000.0]:
        assert -10.0 * np.log10(sigma_for_peak_snr(snr)) == \
            pytest.approx(snr, abs=1e-12)


def test_fir_isi_matches_convolution():
    taps = (1.0, 0.35, -0.1)
    x = np.random.default_rng(1).uniform(0.0, 1.0, size=40)
    y = transmit(x, 1e-12, philox(9, 0), taps=taps)
    ref = np.convolve(x, np.asarray(taps))[: len(x)]
    assert np.allclose(y, ref, atol=1e-5)


def test_fir_isi_same_noise_stream_as_awgn():
    # the same generator key gives the same noise, whatever the ISI part
    x = np.ones(128) * 0.4
    n_awgn = transmit(x, 0.01, philox(6, 0)) - x
    taps = (1.0, 0.5)
    clean = np.convolve(x, np.asarray(taps))[: len(x)]
    n_isi = transmit(x, 0.01, philox(6, 0), taps=taps) - clean
    assert np.allclose(n_awgn, n_isi)


@pytest.mark.parametrize("points", (6, 32))
def test_chunked_draws_equal_one_shot_draw(points):
    # a Philox generator keeps its buffered words and its normal sampler's
    # state, so ragged chunks from one generator give the one-shot draw bit
    # for bit; the blocked MI/GMI draw takes its points and noise this way
    sizes = (4095, 4097, 1, 3)
    n = sum(sizes) + 5000
    bounds = np.cumsum((0,) + sizes + (n - sum(sizes),))
    one = philox(5, 1000).integers(0, points, size=n)
    rng = philox(5, 1000)
    chunks = [rng.integers(0, points, size=b - a)
              for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(chunks), one)
    x = np.linspace(0.0, 1.0, n)
    one = transmit(x, 0.01, philox(5, 0))
    rng = philox(5, 0)
    chunks = [transmit(x[a:b], 0.01, rng) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(chunks), one)
