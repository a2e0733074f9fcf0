"""Synthetic peak-power-constrained links: AWGN and FIR inter-symbol interference.

Noise comes from a counter-based Philox stream keyed by (seed, stream), so
per-frame substreams are bit-reproducible no matter how calls are scheduled
across threads. A Philox generator keeps its buffered words and its normal
sampler's state, so drawing a sequence in chunks from one generator gives
the bits of drawing it at once: transmit can send a draw block by block.
"""
from __future__ import annotations

import math

import numpy as np

# largest |peak SNR| in dB, so noise variances stay in [1e-300, 1e300]. A
# sample 5.5 sigma from a level squares to about 30 variances: 3e301 at
# 1e300, far below the float maximum, which -3080 dB (variance 1e308)
# overflows. At 1e-300 a unit distance scales to a metric of 5e299.
MAX_SNR_DB = 3000.0


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed fits the 64-bit Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{seed} outside [0, 2**64)")


def check_taps(taps, noise_var: float) -> None:
    """Raise ValueError unless taps are finite numbers led by a nonzero one
    whose ISI trellis keeps its branch metrics finite at noise_var.

    A branch metric squares the difference between a sample and a branch
    mean and scales it by 0.5 / noise_var. For amplitudes in [0, 1] the
    difference stays within sum|h|, noise aside, so the bound
    (2 * sum|h|)**2 * 0.5 / noise_var is four times the largest metric:
    the three metrics a posterior adds (forward state, branch and backward
    state) stay finite too.
    """
    if len(taps) == 0:
        raise ValueError("need at least one tap")
    if not all(math.isfinite(t) for t in taps):
        raise ValueError(f"taps must be finite, got {list(taps)}")
    span = 2 * sum(abs(t) for t in taps)
    if not math.isfinite(span * span * 0.5 / noise_var):
        raise ValueError(f"sum of |taps| overflows the trellis metrics at "
                         f"noise variance {noise_var}: {list(taps)}")
    if taps[0] == 0:
        raise ValueError("leading FIR tap must be nonzero")


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); same key -> same bits."""
    check_seed(seed)
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def transmit(amplitudes, noise_var: float, noise: np.random.Generator,
             taps=None) -> np.ndarray:
    """Send normalized amplitudes through the channel, returning noisy samples.

    y = x + n, or with FIR taps y = (h * x) + n truncated to the input
    length (zero-padded edges). Noise is i.i.d. Gaussian with variance
    noise_var per sample, the next len(x) normals of the generator `noise`
    (a philox stream).
    """
    if not 0 < noise_var < math.inf:
        raise ValueError(
            f"noise variance must be positive and finite, got {noise_var}")
    x = np.asarray(amplitudes, dtype=np.float64).ravel()
    if taps is not None:
        check_taps(taps, noise_var)
        x = np.convolve(x, np.asarray(taps, dtype=np.float64))[: len(x)]
    return x + noise.normal(0.0, np.sqrt(noise_var), size=len(x))


def sigma_for_peak_snr(snr_db: float) -> float:
    """Noise variance giving the requested peak SNR, (peak amplitude 1)^2 / sigma^2.

    Raises ValueError unless |snr_db| <= MAX_SNR_DB (a NaN or infinite SNR
    is outside too).
    """
    if not abs(snr_db) <= MAX_SNR_DB:
        raise ValueError(
            f"peak SNR {snr_db} dB outside [-{MAX_SNR_DB}, {MAX_SNR_DB}] dB, "
            "where the noise variance is positive finite and every metric "
            "of a received sample stays finite")
    return 10.0 ** (-snr_db / 10.0)
