"""Rate-estimate invariants: monotonicity, metric ordering, saturation."""
import math

import numpy as np
import pytest

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
