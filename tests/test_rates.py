"""Rate-estimate invariants: monotonicity, metric ordering, saturation."""
import math

import numpy as np
import pytest
from test_constellation import (reference_bit_llrs,
                                reference_bit_llrs_from_levels,
                                reference_symbol_posteriors)

from pam6link import rates, shaping
from pam6link.dsp import bcjr_app
from pam6link.rates import (MAX_RATE_1D, RateEstimate, estimate_gmi,
                            estimate_mi, estimate_rates, matcher_rate_loss,
                            snr_at_rate)

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
    assert shaping.DEFAULT_MATCHER_N == 1000
    loss = matcher_rate_loss()
    assert loss == pytest.approx(math.log2(3.0) - 1.574, abs=1e-12)
    # longer blocks lose less
    longer = shaping.ccdm_input_length(shaping.Composition.near_uniform(10000))
    assert math.log2(3.0) - longer / 10000 < loss


def test_snr_at_rate_brackets_measured_estimate():
    snr = snr_at_rate("cross_qam32", "symbol_metric", 2.0,
                      num_symbols=N_FAST, seed=3)
    below = estimate_mi("cross_qam32", snr - 0.3, num_symbols=N_FAST, seed=3)
    above = estimate_mi("cross_qam32", snr + 0.3, num_symbols=N_FAST, seed=3)
    assert below.rate < 2.0 < above.rate


def test_snr_at_rate_dm_subtracts_matcher_loss():
    # the dm crossing is where the ideal rate covers the target plus the
    # finite-length matcher loss, so the coded system can carry the target
    snr = snr_at_rate("dm_pam6", "bit_metric", 2.0, num_symbols=N_FAST, seed=3)
    gmi = estimate_gmi("dm_pam6", snr, num_symbols=N_FAST, seed=3)
    assert abs(gmi.rate - (2.0 + matcher_rate_loss())) < rates._RATE_TOL_BPCU


def test_trellis_size_is_checked_before_any_draw():
    # two taps at the largest sample fit; more would not: twelve taps span
    # a trellis of 10**7 * 6**12 branch metrics, and building it alone
    # would take 16 GiB
    rates.check_num_symbols("dm_pam6", rates.MAX_NUM_SYMBOLS, (1.0, 0.35))
    with pytest.raises(ValueError, match="branch metrics"):
        rates.check_num_symbols("dm_pam6", rates.MAX_NUM_SYMBOLS,
                                (1.0, 0.35, 0.1))
    with pytest.raises(ValueError, match="branch metrics"):
        estimate_mi("cross_qam32", 22.0, num_symbols=rates.MAX_NUM_SYMBOLS,
                    taps=(1.0,) + (0.0,) * 11)


def test_isi_taps_cost_rate():
    flat = estimate_mi("dm_pam6", 24.0, num_symbols=N_FAST, seed=4)
    isi = estimate_mi("dm_pam6", 24.0, num_symbols=N_FAST, seed=4,
                      taps=(1.0, 0.4))
    assert isi.rate < flat.rate


def _reference_mi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_mi computed in one unblocked pass over all points, with the
    row-major reference demapper."""
    c, idx, y, nv = rates._simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        post = reference_symbol_posteriors(y, c, nv)
        p_true = post[np.arange(len(idx)), idx]
        samples = np.log2(np.maximum(p_true, np.finfo(np.float64).tiny))
    else:
        app = bcjr_app(y[None], rates._trellis(taps), nv)[0]
        lev_idx = c.points[idx].ravel()
        lp = app[np.arange(lev_idx.size), lev_idx] / math.log(2.0)
        samples = lp.reshape(-1, c.dimension).sum(axis=1)
    return rates._estimate(scheme, "symbol_metric", snr_db, c,
                           math.log2(c.num_points) + samples.mean(), samples,
                           num_symbols, seed)


def _reference_gmi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_gmi computed in one unblocked pass over all points, with the
    row-major reference demapper."""
    c, idx, y, nv = rates._simulate(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        llr = reference_bit_llrs(y, c, nv).reshape(-1, c.bits_per_point)
    else:
        llr = reference_bit_llrs_from_levels(
            bcjr_app(y[None], rates._trellis(taps), nv)[0], c)
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
    half width: one block holding every point, and several blocks with a
    ragged tail on AWGN and on the trellis path."""
    dim = 1 if scheme == "dm_pam6" else 2
    taps = None
    if blocks == "one":
        points = 10**4 // dim
        monkeypatch.setattr(rates, "_BLOCK_POINTS", points)
    else:
        points = 3 * rates._BLOCK_POINTS + 17
    if blocks == "isi":
        taps = (1.0, 0.35)
    n = points * dim
    for got, want in ((estimate_mi, _reference_mi),
                      (estimate_gmi, _reference_gmi)):
        a = got(scheme, 22.5, num_symbols=n, seed=5, taps=taps)
        b = want(scheme, 22.5, n, 5, taps)
        assert a.rate == b.rate and a.half_width == b.half_width


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("taps", (None, (1.0, 0.35)))
@pytest.mark.parametrize("metrics", (("symbol_metric", "bit_metric"),
                                     ("bit_metric", "symbol_metric"),
                                     ("symbol_metric",), ("bit_metric",)))
def test_joint_estimate_equals_separate_calls(scheme, taps, metrics):
    """One draw, one demapper pass and one trellis pass give every field
    of each estimate the separate estimators give, keyed in request order."""
    n = 3 * rates._BLOCK_POINTS + 34 if taps is None else 10**4
    got = estimate_rates(scheme, 22.5, metrics, num_symbols=n, seed=6,
                         taps=taps)
    assert tuple(got) == metrics
    separate = {"symbol_metric": estimate_mi, "bit_metric": estimate_gmi}
    for m in metrics:
        assert got[m] == separate[m](scheme, 22.5, num_symbols=n, seed=6,
                                     taps=taps)
        assert got[m].metric == m


def test_estimate_rates_rejects_unknown_metrics():
    with pytest.raises(ValueError, match="unknown metric 'fer'"):
        estimate_rates("dm_pam6", 22.0, ("symbol_metric", "fer"),
                       num_symbols=N_FAST)
    with pytest.raises(ValueError, match="at least one metric"):
        estimate_rates("dm_pam6", 22.0, (), num_symbols=N_FAST)
