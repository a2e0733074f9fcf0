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
from .constellation import (LEVELS, _label_llrs, _log_point_metrics, _row_sum,
                            _weights, bit_llrs_from_levels, build_constellation,
                            normalize)
from .dsp import bcjr_app, make_trellis, rows_per_call

SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")
METRICS = ("symbol_metric", "bit_metric")
MAX_RATE_1D = math.log2(6.0)
SNR_CAP_DB = 60.0
_SYMBOL_STREAM = 1000  # rng substream for data; noise uses stream 0
_RATE_TOL_BPCU = 0.005  # snr_at_rate stops once a probe is this close
_HW_FLOOR = 1e-12  # keeps reported confidence strictly positive when the
                   # per-sample information is constant (noise-free regime)
MAX_NUM_SYMBOLS = 10**7  # largest MI/GMI sample
# largest trellis a sample may span, num_symbols * 6**len(taps) (one
# branch metric per use, state and symbol). bcjr_app stacks
# dsp.rows_per_call rows per call, so beside its fixed blocks a call holds
# no more floats than one row holding all its branch metrics would:
# num_symbols * (S*Q + 2S + Q) for S*Q = 6**len(taps). At MAX_NUM_SYMBOLS
# that is 4.3 GB for two taps and would be 24 GB for three.
MAX_BRANCH_METRICS = MAX_NUM_SYMBOLS * 6**2
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


def constellation_for(scheme: str):
    """The constellation a scheme sends: dm_pam6 goes on the PAM-6 labels."""
    if scheme == "dm_pam6":
        return build_constellation("pam6_label")
    if scheme in ("cross_qam32", "framed_cross_qam32"):
        return build_constellation(scheme)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def check_num_symbols(scheme: str, num_symbols: int, taps=None) -> None:
    """Raise ValueError unless num_symbols 1D uses, in [1e4, MAX_NUM_SYMBOLS],
    fill whole points of scheme and, with ISI taps, keep the trellis's
    branch metrics within MAX_BRANCH_METRICS."""
    dim = constellation_for(scheme).dimension
    if num_symbols < 10**4:
        raise ValueError(f"need at least 1e4 symbols, got {num_symbols}")
    if num_symbols > MAX_NUM_SYMBOLS:
        raise ValueError(
            f"at most {MAX_NUM_SYMBOLS} symbols per estimate, got {num_symbols}")
    if num_symbols % dim:
        raise ValueError(
            f"{scheme} sends {dim} symbols per point; {num_symbols} is not "
            f"a multiple of {dim}")
    if taps is not None and num_symbols * 6**len(taps) > MAX_BRANCH_METRICS:
        raise ValueError(
            f"{len(taps)} taps over {num_symbols} symbols need {num_symbols} "
            f"* 6**{len(taps)} trellis branch metrics, more than "
            f"{MAX_BRANCH_METRICS}")


def _simulate(scheme: str, snr_db: float, num_symbols: int, seed: int, taps=None):
    """Draw symbols, push them through the channel, return (const, idx, y, nv).

    num_symbols counts 1D channel uses; 2D formats emit num_symbols/2
    points. With `taps` the link has residual ISI and detection must use a
    trellis; otherwise the channel is memoryless AWGN. Callers check
    num_symbols first (check_num_symbols).
    """
    c = constellation_for(scheme)
    nv = sigma_for_peak_snr(snr_db)
    groups = num_symbols // c.dimension
    idx = philox(seed, _SYMBOL_STREAM).integers(0, c.num_points, size=groups)
    y = transmit(normalize(c.points[idx].ravel()), nv, seed, taps=taps)
    return c, idx, y, nv


def _trellis(taps):
    """The exact ISI trellis over the six normalized levels."""
    return make_trellis(np.asarray(taps, dtype=np.float64), normalize(LEVELS))


def _penalty(llr, idx, c):
    """Per-point sum over label bits of log2(1 + exp(-(1-2b) * llr)).

    The signs 2b - 1 are gathered from the label table, so no per-point
    label array is converted to float, and the steps after the gather work
    in place on one (points, bits) array.
    """
    x = np.take(2.0 * c.labels - 1.0, idx, axis=0)
    x *= llr
    np.logaddexp(0.0, x, out=x)
    x /= math.log(2.0)
    return x.sum(axis=1)


def _awgn_samples(y, idx, c, noise_var, metrics):
    """Per-point samples of each metric over blocks of _BLOCK_POINTS points.

    Each block forms its points-major weights once. The symbol metric takes
    log2 of the true point's posterior, the weight divided by the block's
    _row_sum exactly as symbol_posteriors divides it; the bit metric takes
    the GMI penalty of the label LLRs of the same weights. Every step is
    per group, so blocking changes no bit.
    """
    d = c.dimension
    out = {m: np.empty(idx.size) for m in metrics}
    mi, gmi = out.get("symbol_metric"), out.get("bit_metric")
    tiny = np.finfo(np.float64).tiny
    for s in range(0, idx.size, _BLOCK_POINTS):
        e = s + _BLOCK_POINTS
        ib = idx[s:e]
        w = _weights(_log_point_metrics(y[s * d:e * d], c, noise_var))
        if mi is not None:
            p_true = w[ib, np.arange(ib.size)] / _row_sum(w)
            mi[s:e] = np.log2(np.maximum(p_true, tiny))
        if gmi is not None:
            gmi[s:e] = _penalty(_label_llrs(w, c), ib, c)
    return out


def _trellis_samples(app, idx, c, metrics):
    """Per-point samples of each metric from one row's trellis posteriors.

    app holds the (T, Q) level log posteriors of the row. 2D formats score
    each point by the product of its two level posteriors (a mismatched
    but achievable metric), for both metrics. The bit metric is demapped
    over blocks of _BLOCK_POINTS points, as on AWGN; every step is per
    point, so blocking changes no bit.
    """
    out = {}
    if "symbol_metric" in metrics:
        lev_idx = c.points[idx].ravel()
        lp = app[np.arange(lev_idx.size), lev_idx] / math.log(2.0)
        out["symbol_metric"] = lp.reshape(-1, c.dimension).sum(axis=1)
    if "bit_metric" in metrics:
        d = c.dimension
        gmi = out["bit_metric"] = np.empty(idx.size)
        for s in range(0, idx.size, _BLOCK_POINTS):
            e = s + _BLOCK_POINTS
            gmi[s:e] = _penalty(bit_llrs_from_levels(app[s * d:e * d], c),
                                idx[s:e], c)
    return out


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


def estimate_rates(
    scheme: str,
    snr_db: float,
    metrics=METRICS,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> dict:
    """Monte Carlo rates per 1D use of the given metrics, from one draw.

    Returns {metric: RateEstimate} for each of `metrics`, a subset of
    METRICS: "symbol_metric" is the MI, H(X) - E[-log2 P(x|y)];
    "bit_metric" the GMI, the bitwise-LLR decoding bound. Both come from
    the same symbols and noise, the same point weights on AWGN and the same
    trellis pass with ISI taps, and each equals what a call asking for
    that metric alone returns.
    """
    return estimate_rates_per_scheme((scheme,), snr_db, metrics, num_symbols,
                                     seed, taps)[0]


def estimate_rates_per_scheme(
    schemes,
    snr_db: float,
    metrics=METRICS,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> list:
    """estimate_rates of each of `schemes` at one SNR and seed, in order.

    Each scheme is drawn on the Philox streams it uses alone, so each dict
    equals estimate_rates(scheme, ...). With ISI taps the draws of up to
    dsp.rows_per_call schemes at a time go through one stacked trellis
    pass; on AWGN each scheme is demapped on its own.
    """
    metrics = tuple(metrics)
    if not metrics:
        raise ValueError(f"need at least one metric of {METRICS}")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; expected one of {METRICS}")
    for s in schemes:  # first: the trellis of too many taps would not fit
        check_num_symbols(s, num_symbols, taps)
    trellis = None if taps is None else _trellis(taps)
    rows = 1 if trellis is None else rows_per_call(trellis)
    out = []
    for s0 in range(0, len(schemes), rows):
        out += _estimate_rows(schemes[s0:s0 + rows], snr_db, metrics,
                              num_symbols, seed, taps, trellis)
    return out


def _estimate_rows(schemes, snr_db, metrics, num_symbols, seed, taps, trellis):
    """{metric: RateEstimate} of each scheme, from one draw each and, with
    a trellis, one bcjr_app call over all their draws."""
    draws = [_simulate(s, snr_db, num_symbols, seed, taps) for s in schemes]
    consts = [c for c, _, _, _ in draws]
    if trellis is None:
        samples = [_awgn_samples(y, idx, c, nv, metrics)
                   for c, idx, y, nv in draws]
    else:
        app = bcjr_app(np.stack([y for _, _, y, _ in draws]), trellis,
                       [nv for _, _, _, nv in draws])
        samples = [_trellis_samples(a, idx, c, metrics)
                   for a, (c, idx, _, _) in zip(app, draws)]
        del app
    # only the per-point vectors stay at full length for the moments
    del draws
    out = []
    for scheme, c, smp in zip(schemes, consts, samples):
        info = math.log2(c.num_points)
        est = {}
        for m in metrics:
            v = smp[m]
            point = info + v.mean() if m == "symbol_metric" else info - v.mean()
            est[m] = _estimate(scheme, m, snr_db, c, point, v, num_symbols, seed)
        out.append(est)
    return out


def estimate_mi(
    scheme: str,
    snr_db: float,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> RateEstimate:
    """Symbol-metric Monte Carlo rate per 1D use: estimate_rates(...,
    ("symbol_metric",))["symbol_metric"]. No command calls it; it stays
    while the benchmark's span table (perfbench/spans.py) names it."""
    return estimate_rates(scheme, snr_db, ("symbol_metric",), num_symbols,
                          seed, taps)["symbol_metric"]


def estimate_gmi(
    scheme: str,
    snr_db: float,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> RateEstimate:
    """Bit-metric Monte Carlo rate per 1D use: estimate_rates(...,
    ("bit_metric",))["bit_metric"]. No command calls it; it stays while
    the benchmark's span table (perfbench/spans.py) names it."""
    return estimate_rates(scheme, snr_db, ("bit_metric",), num_symbols,
                          seed, taps)["bit_metric"]


def matcher_rate_loss() -> float:
    """Entropy lost to the fixed-composition matcher of DEFAULT_MATCHER_N
    amplitudes (bits/amp)."""
    n = shaping.DEFAULT_MATCHER_N
    return math.log2(3.0) - shaping.ccdm_input_length(
        shaping.Composition.near_uniform(n)) / n


def snr_at_rate(
    scheme: str,
    metric: str,
    target_rate: float = 2.0,
    num_symbols: int = 10**6,
    seed: int = 0,
    taps=None,
) -> float:
    """Peak SNR (dB) where the scheme's estimated rate meets target_rate.

    Bisection with common random numbers (same seed at every SNR), bracket
    auto-expansion capped at 60 dB. For dm_pam6 the target is feasibility
    of the full shaped construction: the finite-length matcher redeems
    k/n < log2(3) bits per amplitude, so the solver finds the SNR where
    the ideal rate exceeds the target by that loss.
    """
    want = target_rate
    if scheme == "dm_pam6":
        want += matcher_rate_loss()

    def rate_at(snr):
        return estimate_rates(scheme, snr, (metric,), num_symbols, seed,
                              taps)[metric].rate

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
