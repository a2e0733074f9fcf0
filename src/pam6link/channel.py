"""Synthetic peak-power-constrained links: AWGN and FIR inter-symbol interference.

Noise comes from a counter-based Philox stream keyed by (seed, stream), so
per-frame substreams are bit-reproducible no matter how calls are scheduled
across threads.
"""
from __future__ import annotations

import math

import numpy as np


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed fits the 64-bit Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{seed} outside [0, 2**64)")


def check_taps(taps) -> None:
    """Raise ValueError unless taps are finite numbers led by a nonzero one
    whose absolute values have a finite sum, so the noiseless output of
    amplitudes in [-1, 1] stays within float range."""
    if len(taps) == 0:
        raise ValueError("need at least one tap")
    if not all(math.isfinite(t) for t in taps):
        raise ValueError(f"taps must be finite, got {list(taps)}")
    if not math.isfinite(sum(abs(t) for t in taps)):
        raise ValueError(
            f"sum of |taps| overflows float range: {list(taps)}")
    if taps[0] == 0:
        raise ValueError("leading FIR tap must be nonzero")


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); same key -> same bits."""
    check_seed(seed)
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def transmit(amplitudes, noise_var: float, seed: int, stream: int = 0,
             taps=None) -> np.ndarray:
    """Send normalized amplitudes through the channel, returning noisy samples.

    y = x + n, or with FIR taps y = (h * x) + n truncated to the input
    length (zero-padded edges). Noise is i.i.d. Gaussian with variance
    noise_var per sample, drawn from philox(seed, stream).
    """
    if not 0 < noise_var < math.inf:
        raise ValueError(
            f"noise variance must be positive and finite, got {noise_var}")
    x = np.asarray(amplitudes, dtype=np.float64).ravel()
    if taps is not None:
        check_taps(taps)
        x = np.convolve(x, np.asarray(taps, dtype=np.float64))[: len(x)]
    noise = philox(seed, stream).normal(0.0, np.sqrt(noise_var), size=len(x))
    return x + noise


def sigma_for_peak_snr(snr_db: float) -> float:
    """Noise variance giving the requested peak SNR, (peak amplitude 1)^2 / sigma^2.

    Raises ValueError unless that variance is positive and finite (a NaN or
    infinite SNR, or one beyond the float range, has none).
    """
    try:
        noise_var = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise_var = math.inf
    if not 0 < noise_var < math.inf:
        raise ValueError(
            f"peak SNR {snr_db} dB gives noise variance {noise_var}; "
            "need a positive finite one")
    return noise_var
