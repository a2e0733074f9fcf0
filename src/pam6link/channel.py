"""Synthetic peak-power-constrained links: AWGN and FIR inter-symbol interference.

Noise comes from a counter-based Philox stream keyed by (seed, stream), so
per-frame substreams are bit-reproducible no matter how calls are scheduled
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHANNEL_KINDS = ("awgn", "fir_isi")


@dataclass(frozen=True)
class ChannelSpec:
    kind: str = "awgn"
    noise_var: float = 1e-2
    taps: tuple[float, ...] = (1.0,)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.noise_var <= 0:
            raise ValueError("noise variance must be positive")
        if self.kind == "fir_isi":
            if len(self.taps) == 0:
                raise ValueError("fir_isi needs at least one tap")
            if self.taps[0] == 0:
                raise ValueError("leading FIR tap must be nonzero")


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); same key -> same bits."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def transmit(amplitudes, spec: ChannelSpec, stream: int = 0) -> np.ndarray:
    """Send normalized amplitudes through the channel, returning noisy samples.

    awgn: y = x + n.  fir_isi: y = (h * x) + n truncated to the input length
    (zero-padded edges).  Noise is i.i.d. Gaussian with variance
    ``spec.noise_var`` per sample.
    """
    x = np.asarray(amplitudes, dtype=np.float64).ravel()
    if spec.kind == "fir_isi":
        x = np.convolve(x, np.asarray(spec.taps, dtype=np.float64))[: len(x)]
    noise = philox(spec.seed, stream).normal(0.0, np.sqrt(spec.noise_var), size=len(x))
    return x + noise


def peak_snr_db(spec: ChannelSpec) -> float:
    """Peak SNR in dB: (peak amplitude 1)^2 / sigma^2."""
    return -10.0 * np.log10(spec.noise_var)


def sigma_for_peak_snr(snr_db: float) -> float:
    """Noise variance giving the requested peak SNR; inverse of peak_snr_db."""
    return 10.0 ** (-snr_db / 10.0)
