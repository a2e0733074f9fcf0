"""Achievable-rate estimation and operating-point solvers.

Rates are reported in bits per 1D channel use (one PAM-6 level on the
wire); two-dimensional formats divide their per-point information by two.
Peak SNR is 1/noise_var since the peak amplitude is normalized to 1.

Symbol-metric rates are Monte Carlo mutual information estimates
H(X) - E[-log2 P(x|y)]; bit-metric rates use the standard mismatched
(bitwise) decoding bound [H(X) - sum_j E log2(1 + h_other_j / h_sent_j)]+,
where h_sent_j is the posterior mass of the label half holding the sent
bit j and h_other_j the other half's. In LLRs the penalty is
log2(1 + e^{-/+ LLR_j}), and for independent uniform label bits the bound
equals the familiar per-bit form sum_j (1 - E log2(1 + e^{-/+ LLR_j})).
The per-point samples of both come from constellation.rate_samples, on
AWGN and from the trellis pass.

estimate_rates_per_scheme plans every draw: each distinct scheme of a
(SNR, seed) point is drawn once and each distinct metric estimated once.
On AWGN the draw is blocked: _awgn_samples draws, sends and demaps
constellation.BLOCK_POINTS points at a time from two Philox generators made
once per scheme, and only the per-metric sample vectors reach full length,
those of one scheme at a time. With ISI taps every distinct scheme's draw
is sent whole into one stack of rows, because bcjr_app detects whole rows,
and one call hands each block of level posteriors straight to
rate_samples at that block's points, so no posterior array of a whole row
is ever held. _estimate takes the moments in place on the sample vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constellation, shaping
from .channel import philox, sigma_for_peak_snr, transmit
from .constellation import build_constellation, normalize, rate_samples
from .dsp import bcjr_app, make_trellis

SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")
METRICS = ("symbol_metric", "bit_metric")
MAX_RATE_1D = math.log2(6.0)
SNR_CAP_DB = 60.0
_SYMBOL_STREAM = 1000  # rng substream for data; noise uses stream 0
_HW_FLOOR = 1e-12  # keeps reported confidence strictly positive when the
                   # per-sample information is constant (noise-free regime)
MAX_NUM_SYMBOLS = 10**7  # largest MI/GMI sample
# largest trellis a sample may span, num_symbols * 6**len(taps) (one
# branch metric per use, state and symbol): two taps. bcjr_app holds
# num_symbols * S floats of states per row beside its fixed blocks, with
# one row per distinct scheme, at most len(SCHEMES), so at MAX_NUM_SYMBOLS
# three rows hold 1.4 GB of states at two taps and would hold 8.6 GB at three.
MAX_BRANCH_METRICS = MAX_NUM_SYMBOLS * 6**2


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


def _send(c, noise_var, points, symbols, noise, taps=None):
    """Draw `points` points of c from the generator `symbols` and send them
    through the channel with noise from `noise`: (idx, received)."""
    idx = symbols.integers(0, c.num_points, size=points)
    amplitudes = np.take(normalize(c.points), idx, axis=0).ravel()
    return idx, transmit(amplitudes, noise_var, noise, taps)


def _awgn_samples(c, noise_var, metrics, num_symbols, seed):
    """{metric: per-point samples} of an AWGN draw of num_symbols 1D uses.

    The points are drawn, sent and demapped constellation.BLOCK_POINTS at
    a time, each block taking the next points of philox(seed,
    _SYMBOL_STREAM) and the next normals of philox(seed, 0). Chunked Philox
    draws equal the one-shot draw, so blocking moves no bit, and only the
    sample vectors are ever held at full length.
    """
    points = num_symbols // c.dimension
    block = constellation.BLOCK_POINTS
    symbols, noise = philox(seed, _SYMBOL_STREAM), philox(seed, 0)
    out = {m: np.empty(points) for m in metrics}
    for s in range(0, points, block):
        idx, y = _send(c, noise_var, min(block, points - s), symbols, noise)
        rate_samples(idx, c, metrics, received=y, noise_var=noise_var,
                     out={m: v[s:s + idx.size] for m, v in out.items()})
    return out


def _moments(samples):
    """(mean, std with ddof=1) of samples, equal to samples.mean() and
    samples.std(ddof=1) bit for bit. The deviations are formed in place,
    in the steps of numpy's _var (subtract the mean, square, sum, divide
    by n - 1, square root), so samples is overwritten and no second
    full-length vector is allocated."""
    mean = samples.mean()
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    return mean, math.sqrt(samples.sum() / (samples.size - 1))


def _estimate(scheme, metric, snr_db, c, samples, num_symbols, seed):
    """RateEstimate of a metric from its per-point samples (rate_samples),
    which it overwrites: the MI adds their mean to log2 of the point count,
    the GMI subtracts it."""
    mean, std = _moments(samples)
    info = math.log2(c.num_points) + (mean if metric == "symbol_metric" else -mean)
    rate = max(0.0, info / c.dimension)
    hw = max(1.96 * std / math.sqrt(samples.size) / c.dimension, _HW_FLOOR)
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

    The one plan of a point's draw. Each distinct scheme is drawn once on
    the Philox streams it uses alone, and each distinct metric is estimated
    once from that draw, so a scheme or metric listed twice gets the same
    estimates and each dict equals estimate_rates(scheme, ...). With ISI
    taps every distinct scheme is a row of one stacked trellis pass; on
    AWGN each scheme's samples become estimates before the next is drawn.
    """
    metrics = tuple(dict.fromkeys(metrics))
    if not metrics:
        raise ValueError(f"need at least one metric of {METRICS}")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; expected one of {METRICS}")
    distinct = tuple(dict.fromkeys(schemes))
    for s in distinct:  # first: the trellis of too many taps would not fit
        check_num_symbols(s, num_symbols, taps)
    consts = [constellation_for(s) for s in distinct]
    nv = sigma_for_peak_snr(snr_db)
    if taps is None:  # drawn lazily, one scheme at a time
        samples = (_awgn_samples(c, nv, metrics, num_symbols, seed)
                   for c in consts)
    else:  # bcjr_app needs whole rows, sent into one stack
        trellis = make_trellis(taps)
        received = np.empty((len(consts), num_symbols))
        sent = []
        for c, row in zip(consts, received):
            idx, row[:] = _send(c, nv, num_symbols // c.dimension,
                                philox(seed, _SYMBOL_STREAM), philox(seed, 0),
                                taps)
            sent.append(idx.astype(np.uint8))  # point indices fit a byte
        samples = [{m: np.empty(idx.size) for m in metrics} for idx in sent]

        def consume(t0, post):
            # block bounds are even, so a block holds whole 2D points
            for c, idx, smp, lp in zip(consts, sent, samples, post):
                p0, p1 = t0 // c.dimension, (t0 + len(lp)) // c.dimension
                rate_samples(idx[p0:p1], c, metrics, level_logposts=lp,
                             out={m: v[p0:p1] for m, v in smp.items()})

        bcjr_app(received, trellis, nv, consume)
    # each vector is popped as its moments are taken and freed with them,
    # so on AWGN no scheme's samples outlive the next scheme's draw
    est = {s: {m: _estimate(s, m, snr_db, c, smp.pop(m), num_symbols, seed)
               for m in metrics}
           for s, c, smp in zip(distinct, consts, samples)}
    return [est[s] for s in schemes]


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

    Bisection over [-5, SNR_CAP_DB] dB with common random numbers (same
    seed at every SNR): the crossing is the midpoint of a bracket narrowed
    to under 1e-3 dB. For dm_pam6 the target is feasibility of the full
    shaped construction: the finite-length matcher redeems k/n < log2(3)
    bits per amplitude, so the solver finds the SNR where the ideal rate
    exceeds the target by that loss. Raises ValueError when the target is
    met at -5 dB already or not met at SNR_CAP_DB.
    """
    want = target_rate
    if scheme == "dm_pam6":
        want += matcher_rate_loss()

    def below(snr):
        return estimate_rates(scheme, snr, (metric,), num_symbols, seed,
                              taps)[metric].rate < want

    return bisect(below, -5.0, SNR_CAP_DB, 1e-3)


def bisect(below, lo: float, hi: float, width: float) -> float:
    """Crossing of a monotone test, to within width / 2.

    ``below(x)`` is True when the crossing lies above x and False when it
    lies at or below x. Raises ValueError unless width > 0, below(lo) is
    True and below(hi) is False, so that [lo, hi] holds the crossing. Then
    halves the bracket, keeping the half that holds the crossing, until it
    is narrower than ``width`` or its ends are adjacent floats, and
    returns its midpoint.
    """
    if not width > 0:  # refuses NaN too
        raise ValueError(f"width must be positive, got {width}")
    if not below(lo):
        raise ValueError(
            f"[{lo}, {hi}] holds no crossing: it lies at or below {lo}")
    if below(hi):
        raise ValueError(f"[{lo}, {hi}] holds no crossing: it lies above {hi}")
    while hi - lo >= width:
        x = 0.5 * (lo + hi)
        if not lo < x < hi:  # adjacent floats: no narrower bracket exists
            break
        if below(x):
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi)
