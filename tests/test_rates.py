"""Rate-estimate invariants: monotonicity, metric ordering, saturation."""
import math
import tracemalloc

import numpy as np
import pytest
from test_constellation import (reference_label_halves,
                                reference_label_halves_from_levels,
                                reference_symbol_posteriors)

from pam6link import constellation, rates, shaping
from pam6link.channel import philox, sigma_for_peak_snr, transmit
from pam6link.dsp import make_trellis
from pam6link.rates import (MAX_RATE_1D, RateEstimate, estimate_gmi,
                            estimate_mi, estimate_rates, matcher_rate_loss,
                            snr_at_rate)
from pam6link.selfcheck import gathered_app

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


@pytest.fixture(scope="module")
def fast_crossings():
    return {(scheme, metric): snr_at_rate(scheme, metric, 2.0,
                                          num_symbols=N_FAST, seed=3)
            for scheme, metric in (("cross_qam32", "symbol_metric"),
                                   ("dm_pam6", "bit_metric"))}


def test_snr_at_rate_brackets_measured_estimate(fast_crossings):
    # the crossing is the midpoint of a bracket under 1e-3 dB wide, so the
    # estimate at the same seed crosses the target within 1e-3 dB of it
    for (scheme, metric), snr in fast_crossings.items():
        want = 2.0 + (matcher_rate_loss() if scheme == "dm_pam6" else 0.0)
        below, above = (
            estimate_rates(scheme, s, (metric,), num_symbols=N_FAST,
                           seed=3)[metric].rate for s in (snr - 1e-3, snr + 1e-3))
        assert below < want <= above, (scheme, metric)


def test_snr_at_rate_dm_subtracts_matcher_loss(fast_crossings):
    # the dm crossing is where the ideal rate covers the target plus the
    # finite-length matcher loss, so the coded system can carry the target
    snr = fast_crossings["dm_pam6", "bit_metric"]
    gmi = estimate_gmi("dm_pam6", snr, num_symbols=N_FAST, seed=3)
    assert abs(gmi.rate - (2.0 + matcher_rate_loss())) < 1e-3


def test_snr_at_rate_rejects_targets_outside_the_bracket():
    # above log2 6 no SNR reaches the target; a zero rate is met everywhere
    with pytest.raises(ValueError, match=r"\[-5.0, 60.0\] holds no crossing: "
                       r"it lies above 60.0"):
        snr_at_rate("dm_pam6", "symbol_metric", 2.6, num_symbols=N_FAST)
    with pytest.raises(ValueError, match=r"it lies at or below -5.0"):
        snr_at_rate("cross_qam32", "bit_metric", 0.0, num_symbols=N_FAST)


def test_bisect_halves_a_checked_bracket():
    probes = []

    def below(x):
        probes.append(x)
        return x < math.pi

    x = rates.bisect(below, 0.0, 10.0, 1e-6)
    assert abs(x - math.pi) <= 0.5e-6
    # both ends, then one probe per halving until the bracket is under 1e-6
    assert probes[:2] == [0.0, 10.0] and len(probes) == 2 + 24
    with pytest.raises(ValueError, match=r"\[4.0, 10.0\] holds no crossing: "
                       r"it lies at or below 4.0"):
        rates.bisect(below, 4.0, 10.0, 1e-6)
    with pytest.raises(ValueError, match=r"\[0.0, 3.0\] holds no crossing: "
                       r"it lies above 3.0"):
        rates.bisect(below, 0.0, 3.0, 1e-6)


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_bisect_refuses_a_width_it_cannot_narrow_to(width):
    # a bracket never gets narrower than 0, so these would halve forever,
    # and NaN would return the first midpoint unbisected; no probe is made
    probes = []
    with pytest.raises(ValueError, match="width must be positive"):
        rates.bisect(lambda x: probes.append(x) or x < 0.3, 0.0, 1.0, width)
    assert probes == []


def test_bisect_stops_at_adjacent_floats():
    # a positive width below the spacing of floats at the crossing ends
    # when no float lies between the bracket's ends
    x = rates.bisect(lambda x: x < 0.3, 0.0, 1.0, 1e-300)
    assert abs(x - 0.3) <= math.ulp(0.3)


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


def _reference_draw(scheme, snr_db, num_symbols, seed, taps):
    """The whole draw at once, on the streams an estimate keys: the points
    from philox(seed, 1000), the noise from philox(seed, 0)."""
    c = rates.constellation_for(scheme)
    nv = sigma_for_peak_snr(snr_db)
    idx = philox(seed, 1000).integers(0, c.num_points,
                                      size=num_symbols // c.dimension)
    y = transmit(constellation.normalize(c.points[idx].ravel()), nv,
                 philox(seed, 0), taps)
    return c, idx, y, nv


def _reference_estimate(scheme, metric, snr_db, c, samples, num_symbols, seed):
    """RateEstimate from numpy's mean() and std(ddof=1) of the samples."""
    mean = samples.mean()
    info = math.log2(c.num_points) + (mean if metric == "symbol_metric" else -mean)
    hw = 1.96 * samples.std(ddof=1) / math.sqrt(samples.size) / c.dimension
    return RateEstimate(scheme, metric, float(snr_db),
                        float(min(max(0.0, info / c.dimension), MAX_RATE_1D)),
                        float(max(hw, rates._HW_FLOOR)), num_symbols, seed)


def _reference_mi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_mi computed in one unblocked pass over the whole draw, with
    the row-major reference demapper."""
    c, idx, y, nv = _reference_draw(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        post = reference_symbol_posteriors(y, c, nv)
        p_true = post[np.arange(len(idx)), idx]
        samples = np.log2(np.maximum(p_true, np.finfo(np.float64).tiny))
    else:
        app = gathered_app(y[None], make_trellis(taps), nv)[0]
        lev_idx = c.points[idx].ravel()
        lp = app[np.arange(lev_idx.size), lev_idx] / math.log(2.0)
        samples = lp.reshape(-1, c.dimension).sum(axis=1)
    return _reference_estimate(scheme, "symbol_metric", snr_db, c, samples,
                               num_symbols, seed)


def _reference_gmi(scheme, snr_db, num_symbols, seed, taps=None):
    """estimate_gmi computed in one unblocked pass over the whole draw, with
    the row-major reference demapper: per point sum_j log2(1 + h_other /
    h_sent) over the label halves of the sent bits."""
    c, idx, y, nv = _reference_draw(scheme, snr_db, num_symbols, seed, taps)
    if taps is None:
        halves = reference_label_halves(y, c, nv)
    else:
        halves = reference_label_halves_from_levels(
            gathered_app(y[None], make_trellis(taps), nv)[0], c)
    b = c.labels[idx].astype(bool)
    h_sent = np.where(b, halves[..., 1], halves[..., 0])
    h_other = np.where(b, halves[..., 0], halves[..., 1])
    penalties = np.log1p(h_other / h_sent) / math.log(2.0)
    per_point = penalties.sum(axis=1)
    return _reference_estimate(scheme, "bit_metric", snr_db, c, per_point,
                               num_symbols, seed)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("blocks", ("one", "ragged", "isi"))
def test_blocked_estimates_equal_unblocked(scheme, blocks, monkeypatch):
    """Drawing, sending and demapping in point blocks, and the in-place
    moments, move no bit of a rate or half width: one block holding every
    point, and several blocks with a ragged tail on AWGN and on the trellis
    path."""
    dim = 1 if scheme == "dm_pam6" else 2
    taps = None
    if blocks == "one":
        points = 10**4 // dim
        monkeypatch.setattr(rates, "BLOCK_POINTS", points)
    else:
        points = 3 * rates.BLOCK_POINTS + 17
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
    n = 3 * rates.BLOCK_POINTS + 34 if taps is None else 10**4
    got = estimate_rates(scheme, 22.5, metrics, num_symbols=n, seed=6,
                         taps=taps)
    assert tuple(got) == metrics
    separate = {"symbol_metric": estimate_mi, "bit_metric": estimate_gmi}
    for m in metrics:
        assert got[m] == separate[m](scheme, 22.5, num_symbols=n, seed=6,
                                     taps=taps)
        assert got[m].metric == m


@pytest.mark.parametrize("taps", (None, (1.0, 0.35)))
def test_a_metric_asked_twice_is_estimated_once(taps):
    """A repeated metric gets the estimate of asking it once: the moments
    are taken in place, so estimating one vector twice would read used-up
    samples."""
    once = estimate_rates("dm_pam6", 22.0, ("bit_metric",), 10**4, 0, taps)
    twice = estimate_rates("dm_pam6", 22.0, ("bit_metric", "bit_metric"),
                           10**4, 0, taps)
    assert twice == once
    both = estimate_rates("dm_pam6", 22.0, ("symbol_metric", "bit_metric",
                                            "symbol_metric"), 10**4, 0, taps)
    assert tuple(both) == rates.METRICS
    assert both["bit_metric"] == once["bit_metric"]


def _counting(monkeypatch, name):
    """Wrap rates.<name> so that each call appends its first argument."""
    calls, fn = [], getattr(rates, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(rates, name, counted)
    return calls


@pytest.mark.parametrize("taps", (None, (1.0, 0.35)))
def test_a_scheme_listed_twice_is_drawn_once(monkeypatch, taps):
    calls = _counting(monkeypatch, "transmit")
    once = rates.estimate_rates_per_scheme(("dm_pam6",), 22.0,
                                           num_symbols=10**4, taps=taps)
    n_once = len(calls)
    twice = rates.estimate_rates_per_scheme(("dm_pam6", "dm_pam6"), 22.0,
                                            num_symbols=10**4, taps=taps)
    assert len(calls) == 2 * n_once
    assert twice == once * 2


def test_one_tap_point_is_one_trellis_pass(monkeypatch):
    # every distinct scheme is a row of one bcjr_app call, also at one tap
    # (one state), where each row's states are fewest
    calls = _counting(monkeypatch, "bcjr_app")
    got = rates.estimate_rates_per_scheme(
        SCHEMES + ("dm_pam6",), 22.0, num_symbols=10**4, taps=(0.9,))
    assert [y.shape for y in calls] == [(3, 10**4)]
    for scheme, est in zip(SCHEMES + ("dm_pam6",), got):
        assert est == estimate_rates(scheme, 22.0, num_symbols=10**4,
                                     taps=(0.9,))


def test_estimate_rates_rejects_unknown_metrics():
    with pytest.raises(ValueError, match="unknown metric 'fer'"):
        estimate_rates("dm_pam6", 22.0, ("symbol_metric", "fer"),
                       num_symbols=N_FAST)
    with pytest.raises(ValueError, match="at least one metric"):
        estimate_rates("dm_pam6", 22.0, (), num_symbols=N_FAST)


def test_awgn_estimate_holds_only_its_sample_vectors():
    # 1e6 points of dm_pam6: two 8e6-byte sample vectors, one per metric,
    # plus one block of BLOCK_POINTS points; the whole draw would add 16e6
    # bytes more of indices, amplitudes, noise and received samples. Three
    # schemes at one point hold one scheme's vectors at a time: the 2D
    # schemes' would add 16e6 bytes if held beside dm_pam6's
    estimate_rates("dm_pam6", 22.5, num_symbols=10**4)
    for schemes in (("dm_pam6",), SCHEMES):
        tracemalloc.start()
        try:
            rates.estimate_rates_per_scheme(schemes, 22.5, num_symbols=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, schemes


def test_isi_estimate_holds_no_posterior_array():
    # three schemes of 4e4 symbols at two taps, one stacked trellis pass:
    # its stored states, S = 6 floats per use and row, dominate; a (B, T, 6)
    # posterior array beside them would break the bound, as would the
    # states of both recursions at every use
    taps, n, rows, s = (1.0, 0.35), 4 * 10**4, 3, 6
    rates.estimate_rates_per_scheme(SCHEMES, 22.5, num_symbols=10**4, taps=taps)
    tracemalloc.start()
    try:
        rates.estimate_rates_per_scheme(SCHEMES, 22.5, num_symbols=n, taps=taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * n * (s + 6) * 8


@pytest.mark.parametrize("samples", [
    np.random.default_rng(k).normal(loc, scale, size=n)
    for k, (n, loc, scale) in enumerate(((2, 0.0, 1.0), (3, -4.0, 1e-3),
                                         (129, 1.5, 10.0), (4097, -0.2, 0.5),
                                         (100003, 3.0, 1e5)))
] + [np.full(5000, 0.1), np.full(2, -3.7), np.array([1e-300, 2.5])])
def test_in_place_moments_equal_numpy(samples):
    want = (samples.mean(), samples.std(ddof=1))
    assert rates._moments(samples.copy()) == want


def test_constant_samples_floor_the_half_width():
    # the mean of 5000 copies of 0.1 rounds off 0.1, so the deviations are
    # about 1e-17 rather than zero; either way the half width is the floor
    samples = np.full(5000, 0.1)
    est = rates._estimate("dm_pam6", "bit_metric", 40.0,
                          rates.constellation_for("dm_pam6"), samples.copy(),
                          5000, 0)
    assert est.rate == math.log2(6.0) - samples.mean()
    assert est.half_width == rates._HW_FLOOR
