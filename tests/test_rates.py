"""Rate-estimate invariants: monotonicity, metric ordering, saturation."""
import math

import numpy as np
import pytest

from pam6link import rates
from pam6link.constellation import (bit_llrs, bit_llrs_from_levels,
                                    symbol_posteriors)
from pam6link.rates import (MAX_RATE_1D, RateEstimate, estimate_gmi,
                            estimate_mi, matcher_rate_loss, snr_at_rate)

SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")
SWEEP = np.linspace(14.0, 32.0, 10)
N_FAST = 20000


@pytest.fixture(scope="module")
def sweep_estimates():
    out = {}
    for scheme in SCHEMES:
        for fn, metric in ((estimate_mi, "symbol_metric"),
                           (estimate_gmi, "bit_metric")):
            out[scheme, metric] = [
                fn(scheme, float(s), num_symbols=N_FAST, seed=2) for s in SWEEP
            ]
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("metric", ("symbol_metric", "bit_metric"))
def test_rate_monotone_in_snr(sweep_estimates, scheme, metric):
    ests = sweep_estimates[scheme, metric]
    for lo, hi in zip(ests, ests[1:]):
        assert hi.rate >= lo.rate - 2.0 * (lo.half_width + hi.half_width)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bit_metric_never_beats_symbol_metric(sweep_estimates, scheme):
    for mi, gmi in zip(sweep_estimates[scheme, "symbol_metric"],
                       sweep_estimates[scheme, "bit_metric"]):
        assert gmi.rate <= mi.rate + 2.0 * (mi.half_width + gmi.half_width)


def test_estimates_are_seed_deterministic():
    a = estimate_mi("cross_qam32", 22.0, num_symbols=10000, seed=7)
    b = estimate_mi("cross_qam32", 22.0, num_symbols=10000, seed=7)
    assert a == b
    c = estimate_mi("cross_qam32", 22.0, num_symbols=10000, seed=8)
    assert c.rate != a.rate
    with pytest.raises(ValueError, match="at least 1e4 symbols"):
        estimate_mi("cross_qam32", 22.0, num_symbols=5000)
    # a 2D format cannot send half a point, so an odd count is refused
    with pytest.raises(ValueError, match="10001 is not a multiple of 2"):
        estimate_gmi("framed_cross_qam32", 22.0, num_symbols=10001)
    with pytest.raises(ValueError, match="at most 10000000 symbols"):
        rates.check_num_symbols("dm_pam6", rates.MAX_NUM_SYMBOLS + 1)
    rates.check_num_symbols("cross_qam32", rates.MAX_NUM_SYMBOLS)
    assert estimate_mi("dm_pam6", 22.0, num_symbols=10001).num_symbols == 10001


def test_saturation_rates():
    for scheme, cap in (("cross_qam32", 2.5), ("framed_cross_qam32", 2.5),
                        ("dm_pam6", math.log2(6.0))):
        est = estimate_mi(scheme, 40.0, num_symbols=50000, seed=1)
        assert est.rate == pytest.approx(cap, abs=0.01)


def test_rate_estimate_validation():
    with pytest.raises(ValueError, match="outside"):
        RateEstimate("dm_pam6", "symbol_metric", 20.0, 2.7, 0.01, 100, 0)
    with pytest.raises(ValueError, match="half_width"):
        RateEstimate("dm_pam6", "symbol_metric", 20.0, 2.0, 0.0, 100, 0)
    assert MAX_RATE_1D == pytest.approx(math.log2(6.0))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        estimate_mi("pam4", 20.0, num_symbols=N_FAST)


def test_matcher_rate_loss_value():
    loss = matcher_rate_loss(1000)
    assert loss == pytest.approx(math.log2(3.0) - 1.574, abs=1e-12)
    # longer blocks lose less
    assert matcher_rate_loss(10000) < loss


def test_snr_at_rate_brackets_measured_estimate():
    snr = snr_at_rate("cross_qam32", "symbol_metric", 2.0,
                      num_symbols=N_FAST, seed=3)
    below = estimate_mi("cross_qam32", snr - 0.3, num_symbols=N_FAST, seed=3)
    above = estimate_mi("cross_qam32", snr + 0.3, num_symbols=N_FAST, seed=3)
    assert below.rate < 2.0 < above.rate


def test_snr_at_rate_dm_subtracts_matcher_loss():
    # with the matcher loss folded in, dm needs a slightly higher SNR than
    # the raw bit-metric crossing of the same target
    raw = snr_at_rate("dm_pam6", "bit_metric", 2.0, num_symbols=N_FAST,
                      seed=3, matcher_n=None)
    net = snr_at_rate("dm_pam6", "bit_metric", 2.0, num_symbols=N_FAST, seed=3)
    assert net > raw


def test_isi_taps_cost_rate():
    flat = estimate_mi("dm_pam6", 24.0, num_symbols=N_FAST, seed=4)
    isi = estimate_mi("dm_pam6", 24.0, num_symbols=N_FAST, seed=4,
                      taps=(1.0, 0.4))
    assert isi.rate < flat.rate


def _reference_mi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_mi computed in one unblocked pass over all points."""
    c, idx, y, nv = rates._simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        post = symbol_posteriors(y, c, nv)
        p_true = post[np.arange(len(idx)), idx]
        samples = np.log2(np.maximum(p_true, np.finfo(np.float64).tiny))
    else:
        app = rates._trellis_logposts(y, taps, nv)
        lev_idx = c.points[idx].ravel()
        lp = app[np.arange(lev_idx.size), lev_idx] / math.log(2.0)
        samples = lp.reshape(-1, c.dimension).sum(axis=1)
    return rates._estimate(scheme, "symbol_metric", snr_db, c,
                           math.log2(c.num_points) + samples.mean(), samples,
                           num_symbols, seed)


def _reference_gmi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_gmi computed in one unblocked pass over all points."""
    c, idx, y, nv = rates._simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        llr = bit_llrs(y, c, nv).reshape(-1, c.bits_per_point)
    else:
        llr = bit_llrs_from_levels(rates._trellis_logposts(y, taps, nv), c)
    b = c.labels[idx].astype(np.float64)
    signed = (1.0 - 2.0 * b) * llr
    penalties = np.logaddexp(0.0, -signed) / math.log(2.0)
    per_point = penalties.sum(axis=1)
    return rates._estimate(scheme, "bit_metric", snr_db, c,
                           math.log2(c.num_points) - per_point.mean(),
                           per_point, num_symbols, seed)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("blocks", ("one", "ragged", "isi"))
def test_blocked_estimates_equal_unblocked(scheme, blocks, monkeypatch):
    """Streaming the demapper over point blocks moves no bit of a rate or
    half width: one block holding every point, several blocks with a ragged
    tail, and the unblocked trellis path with the shared bit penalty."""
    dim = 1 if scheme == "dm_pam6" else 2
    taps = None
    if blocks == "one":
        points = 10**4 // dim
        monkeypatch.setattr(rates, "_BLOCK_POINTS", points)
    elif blocks == "ragged":
        points = 3 * rates._BLOCK_POINTS + 17
    else:
        points, taps = 10**4 // dim, (1.0, 0.35)
    n = points * dim
    for got, want in ((estimate_mi, _reference_mi),
                      (estimate_gmi, _reference_gmi)):
        a = got(scheme, 22.5, num_symbols=n, seed=5, taps=taps)
        b = want(scheme, 22.5, n, 5, taps)
        assert a.rate == b.rate and a.half_width == b.half_width
