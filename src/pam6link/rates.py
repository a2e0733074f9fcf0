"""Achievable-rate estimation and operating-point solvers.

Rates are reported in bits per 1D channel use (one PAM-6 level on the
wire); two-dimensional formats divide their per-point information by two.
Peak SNR is 1/noise_var since the peak amplitude is normalized to 1.

Symbol-metric rates are Monte Carlo mutual information estimates
H(X) - E[-log2 P(x|y)]; bit-metric rates use the standard mismatched
(bitwise) decoding bound [H(X) - sum_j E log2(1 + e^{-/+ LLR_j})]+, which
for independent uniform label bits equals the familiar per-bit form
sum_j (1 - E log2(1 + e^{-/+ LLR_j})).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import shaping
from .channel import philox, sigma_for_peak_snr, transmit
from .constellation import (LEVELS, bit_llrs, bit_llrs_from_levels,
                            build_constellation, normalize, symbol_posteriors)
from .dsp import bcjr_app, make_trellis

SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")
METRICS = ("symbol_metric", "bit_metric")
MAX_RATE_1D = math.log2(6.0)
SNR_CAP_DB = 60.0
_SYMBOL_STREAM = 1000  # rng substream for data; noise uses stream 0
_RATE_TOL_BPCU = 0.005  # snr_at_rate stops once a probe is this close
_HW_FLOOR = 1e-12  # keeps reported confidence strictly positive when the
                   # per-sample information is constant (noise-free regime)
MAX_NUM_SYMBOLS = 10**7  # largest MI/GMI sample
_BLOCK_POINTS = 4096  # points per demapper call: keeps intermediates in cache


@dataclass(frozen=True)
class RateEstimate:
    scheme: str
    metric: str
    snr_db: float
    rate: float
    half_width: float
    num_symbols: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.rate <= MAX_RATE_1D + 1e-9:
            raise ValueError(f"rate {self.rate} outside [0, log2 6]")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")


def _constellation_for(scheme: str):
    if scheme == "dm_pam6":
        return build_constellation("pam6_label")
    if scheme in ("cross_qam32", "framed_cross_qam32"):
        return build_constellation(scheme)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def check_num_symbols(scheme: str, num_symbols: int) -> None:
    """Raise ValueError unless num_symbols 1D uses, in [1e4, MAX_NUM_SYMBOLS],
    fill whole points of scheme."""
    dim = _constellation_for(scheme).dimension
    if num_symbols < 10**4:
        raise ValueError(f"need at least 1e4 symbols, got {num_symbols}")
    if num_symbols > MAX_NUM_SYMBOLS:
        raise ValueError(
            f"at most {MAX_NUM_SYMBOLS} symbols per estimate, got {num_symbols}")
    if num_symbols % dim:
        raise ValueError(
            f"{scheme} sends {dim} symbols per point; {num_symbols} is not "
            f"a multiple of {dim}")


def _simulate(scheme: str, snr_db: float, num_symbols: int, seed: int, taps=None):
    """Draw symbols, push them through the channel, return (const, idx, y, nv).

    num_symbols counts 1D channel uses; 2D formats emit num_symbols/2
    points. With `taps` the link has residual ISI and detection must use a
    trellis; otherwise the channel is memoryless AWGN.
    """
    check_num_symbols(scheme, num_symbols)
    c = _constellation_for(scheme)
    nv = sigma_for_peak_snr(snr_db)
    groups = num_symbols // c.dimension
    idx = philox(seed, _SYMBOL_STREAM).integers(0, c.num_points, size=groups)
    y = transmit(normalize(c.points[idx].ravel()), nv, seed, taps=taps)
    return c, idx, y, nv


def _trellis_logposts(y, taps, noise_var):
    """Per-use log posteriors over the six levels from the exact ISI trellis."""
    trellis = make_trellis(np.asarray(taps, dtype=np.float64), normalize(LEVELS))
    return bcjr_app(y, trellis, noise_var)


def _per_point(fn, y, idx, c):
    """Per-point values fn(y_block, idx_block) over blocks of _BLOCK_POINTS
    points. Every demapper step is per row, so blocking changes no bit."""
    d = c.dimension
    out = np.empty(idx.size)
    for s in range(0, idx.size, _BLOCK_POINTS):
        e = s + _BLOCK_POINTS
        out[s:e] = fn(y[s * d:e * d], idx[s:e])
    return out


def _penalty(llr, idx, c):
    """Per-point sum over label bits of log2(1 + exp(-(1-2b) * llr))."""
    b = c.labels[idx].astype(np.float64)
    signed = (1.0 - 2.0 * b) * llr
    return (np.logaddexp(0.0, -signed) / math.log(2.0)).sum(axis=1)


def _estimate(scheme, metric, snr_db, c, info_point, samples, num_symbols, seed):
    """RateEstimate from per-point information and its per-point samples."""
    rate = max(0.0, info_point / c.dimension)
    hw = max(1.96 * samples.std(ddof=1) / math.sqrt(samples.size) / c.dimension,
             _HW_FLOOR)
    return RateEstimate(
        scheme=scheme, metric=metric, snr_db=float(snr_db),
        rate=float(min(rate, MAX_RATE_1D)), half_width=float(hw),
        num_symbols=num_symbols, seed=seed,
    )


def estimate_mi(
    scheme: str,
    snr_db: float,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> RateEstimate:
    """Symbol-metric Monte Carlo rate per 1D use.

    With ISI taps the posteriors come from the exact trellis detector run
    per level; 2D formats then score each point by the product of its two
    level posteriors (a mismatched but achievable metric).
    """
    c, idx, y, nv = _simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        def log2_p_true(yb, ib):
            p_true = symbol_posteriors(yb, c, nv)[np.arange(ib.size), ib]
            return np.log2(np.maximum(p_true, np.finfo(np.float64).tiny))
        samples = _per_point(log2_p_true, y, idx, c)
    else:
        app = _trellis_logposts(y, taps, nv)
        lev_idx = c.points[idx].ravel()
        lp = app[np.arange(lev_idx.size), lev_idx] / math.log(2.0)
        samples = lp.reshape(-1, c.dimension).sum(axis=1)
    return _estimate(scheme, "symbol_metric", snr_db, c,
                     math.log2(c.num_points) + samples.mean(), samples,
                     num_symbols, seed)


def estimate_gmi(
    scheme: str,
    snr_db: float,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> RateEstimate:
    """Bit-metric Monte Carlo rate per 1D use (bitwise-LLR decoding bound)."""
    c, idx, y, nv = _simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        per_point = _per_point(
            lambda yb, ib: _penalty(
                bit_llrs(yb, c, nv).reshape(-1, c.bits_per_point), ib, c),
            y, idx, c)
    else:
        per_point = _penalty(
            bit_llrs_from_levels(_trellis_logposts(y, taps, nv), c), idx, c)
    return _estimate(scheme, "bit_metric", snr_db, c,
                     math.log2(c.num_points) - per_point.mean(), per_point,
                     num_symbols, seed)


def matcher_rate_loss(n: int = shaping.DEFAULT_MATCHER_N) -> float:
    """Entropy lost to the finite-length fixed-composition matcher (bits/amp)."""
    comp = shaping.Composition.near_uniform(n)
    k = shaping.ccdm_input_length(comp)
    return math.log2(3.0) - k / n


def snr_at_rate(
    scheme: str,
    metric: str,
    target_rate: float = 2.0,
    num_symbols: int = 10**6,
    seed: int = 0,
    matcher_n: int = shaping.DEFAULT_MATCHER_N,
    taps=None,
) -> float:
    """Peak SNR (dB) where the scheme's estimated rate meets target_rate.

    Bisection with common random numbers (same seed at every SNR), bracket
    auto-expansion capped at 60 dB. For dm_pam6 the target is feasibility
    of the full shaped construction: the finite-length matcher redeems
    k/n < log2(3) bits per amplitude, so the solver finds the SNR where
    the ideal rate exceeds the target by that loss. Pass matcher_n=None
    for the asymptotic (infinite-n) threshold.
    """
    if metric == "symbol_metric":
        est = estimate_mi
    elif metric == "bit_metric":
        est = estimate_gmi
    else:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    offset = 0.0
    if scheme == "dm_pam6" and matcher_n is not None:
        offset = matcher_rate_loss(matcher_n)
    want = target_rate + offset

    def rate_at(snr):
        return est(scheme, snr, num_symbols, seed, taps=taps).rate

    lo, hi = -5.0, 25.0
    if rate_at(lo) >= want:
        raise ValueError(f"target {target_rate} bpcu already met at {lo} dB")
    while rate_at(hi) < want:
        hi += 10.0
        if hi > SNR_CAP_DB:
            raise ValueError(
                f"target {target_rate} bpcu unreachable for {scheme}/{metric} "
                f"below {SNR_CAP_DB} dB"
            )

    def below(snr):
        r = rate_at(snr)
        return None if abs(r - want) < _RATE_TOL_BPCU else r < want

    snr, _, _ = bisect(below, lo, hi, 1e-4)
    return snr


def bisect(below, lo: float, hi: float, width: float):
    """Bisect [lo, hi] for the crossing of a monotone test.

    ``below(x)`` is True when the crossing lies above x (lo moves up to x),
    False when it lies below (hi moves down to x), and None when x is
    close enough to stop. Probes midpoints until ``below`` says stop or the
    bracket is narrower than ``width``. Returns ``(x, lo, hi)``: the last
    probe and the final bracket.
    """
    x = 0.5 * (lo + hi)
    while hi - lo >= width:
        x = 0.5 * (lo + hi)
        side = below(x)
        if side is None:
            break
        if side:
            lo = x
        else:
            hi = x
    return x, lo, hi
