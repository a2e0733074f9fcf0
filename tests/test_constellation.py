"""Label tables, mapping round trips, and metric computations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link import constellation, rates
from pam6link.channel import transmit
from pam6link.constellation import (CONSTELLATION_NAMES, LEVELS, PEAK_LEVEL,
                                    bit_llrs, build_constellation,
                                    check_unit_distance_gray, map_bits,
                                    normalize, rate_samples, symbol_posteriors)
from pam6link.dsp import make_trellis
from pam6link.selfcheck import gathered_app, pointwise_app
from pinned_dispatch import at_pinned_dispatch


@pytest.fixture(params=CONSTELLATION_NAMES)
def const(request):
    return build_constellation(request.param)


def test_point_counts():
    assert build_constellation("cross_qam32").num_points == 32
    assert build_constellation("framed_cross_qam32").num_points == 32
    assert build_constellation("pam6_label").num_points == 6


def test_labels_bijective(const):
    labels = {tuple(lab) for lab in const.labels}
    assert len(labels) == const.num_points


def test_points_unique_and_in_range(const):
    # every format reaches both extreme levels: the same peak power
    pts = {tuple(p) for p in const.points}
    assert len(pts) == const.num_points
    assert const.points.min() == 0 and const.points.max() == PEAK_LEVEL


def test_cross_uses_30_of_36_positions():
    c = build_constellation("cross_qam32")
    # the four corner pairs of the 6x6 grid stay dark except two reused ones;
    # what matters downstream: 32 of 36 grid positions, none outside the grid
    used = {tuple(p) for p in c.points}
    assert len(used) == 32
    full = {(i, j) for i in range(6) for j in range(6)}
    assert used <= full


def test_gray_property_split():
    assert check_unit_distance_gray(build_constellation("framed_cross_qam32")) == []
    assert check_unit_distance_gray(build_constellation("pam6_label")) == []
    viol = check_unit_distance_gray(build_constellation("cross_qam32"))
    assert len(viol) >= 1


def test_known_cross_violation_pair():
    c = build_constellation("cross_qam32")
    labs = {tuple(p): "".join(map(str, l)) for p, l in zip(c.points, c.labels)}
    # adjacent pair on the bottom row whose labels differ in three bits
    assert labs[(1, 0)] == "00100" and labs[(1, 1)] == "00011"
    viol = check_unit_distance_gray(c)
    pairs = {(tuple(a), tuple(b)) for a, b, *_ in viol}
    assert ((1, 0), (1, 1)) in pairs or ((1, 1), (1, 0)) in pairs


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_map_bits_sends_each_label_on_its_point(data):
    # only label bit patterns are mappable (pam6 uses 6 of 8 3-bit patterns)
    name = data.draw(st.sampled_from(CONSTELLATION_NAMES))
    c = build_constellation(name)
    idx = np.array(data.draw(st.lists(st.integers(0, c.num_points - 1),
                                      min_size=1, max_size=40)))
    levels = map_bits(c.labels[idx].ravel(), c)
    assert np.array_equal(levels, c.points[idx].ravel())


def test_map_bits_rejects_ragged():
    c = build_constellation("cross_qam32")
    with pytest.raises(ValueError):
        map_bits(np.zeros(7, dtype=np.uint8), c)


def test_map_bits_rejects_non_label_pattern():
    # pam6_label uses 6 of the 8 3-bit patterns; the bad group follows a
    # valid one so the error must name the right group
    c = build_constellation("pam6_label")
    for pattern in ("000", "100"):
        bits = np.array([0, 1, 0] + [int(b) for b in pattern], dtype=np.uint8)
        with pytest.raises(ValueError, match=f"bit pattern {pattern} is not a label"):
            map_bits(bits, c)


def test_map_bits_refuses_non_binary_entry_that_packs_to_a_label():
    # 0 0 0 0 2 would pack like 00010, the label of point (2, 1); the entry
    # above 1 must still be refused, after a valid group
    c = build_constellation("cross_qam32")
    assert np.array_equal(map_bits([0, 0, 0, 1, 0], c), [2, 1])
    bits = np.concatenate([c.labels[0], [0, 0, 0, 0, 2]])
    with pytest.raises(ValueError,
                       match="bit pattern 00002 is not a label of cross_qam32"):
        map_bits(bits, c)


def test_map_bits_accepts_exactly_the_labels(const):
    # every bit pattern of the label width: a label sends its point, any
    # other pattern is refused
    L = const.bits_per_point
    points = {tuple(lab): tuple(p) for lab, p in zip(const.labels, const.points)}
    for v in range(2 ** L):
        pattern = tuple((v >> (L - 1 - j)) & 1 for j in range(L))
        if pattern in points:
            assert tuple(map_bits(pattern, const)) == points[pattern]
        else:
            with pytest.raises(ValueError, match="is not a label"):
                map_bits(pattern, const)


def test_normalize_peak():
    amps = normalize([0, 5, 3])
    assert amps.max() == 1.0 and amps.min() == 0.0
    assert np.allclose(amps, [0.0, 1.0, 0.6])


def test_posteriors_normalize_and_llrs_match(const):
    # moderate noise keeps both posterior splits away from 0/1 so the
    # probability-domain reference does not saturate
    rng = np.random.default_rng(0)
    idx = rng.integers(0, const.num_points, size=64)
    amps = normalize(const.points[idx].ravel())
    y = amps + 0.15 * rng.standard_normal(amps.size)
    nv = 0.15**2
    post = symbol_posteriors(y, const, nv)
    assert post.shape == (64, const.num_points)
    assert np.allclose(post.sum(axis=1), 1.0)
    # LLR of bit b must agree with the posterior mass split on that bit
    llr = bit_llrs(y, const, nv).reshape(64, const.bits_per_point)
    for b in range(const.bits_per_point):
        mask0 = const.labels[:, b] == 0
        p0 = post[:, mask0].sum(axis=1)
        ref = np.log(p0) - np.log1p(-p0)
        assert np.allclose(llr[:, b], ref, rtol=1e-7, atol=1e-7)


def test_posteriors_favor_transmitted_at_high_snr(const):
    rng = np.random.default_rng(3)
    idx = rng.integers(0, const.num_points, size=128)
    y = normalize(const.points[idx].ravel())
    post = symbol_posteriors(y, const, 1e-4)
    assert np.array_equal(post.argmax(axis=1), idx)


def test_llrs_match_logsumexp_at_high_snr(const):
    # at noise_var 1e-4 one label half holds almost all the mass, so the
    # other half's sum must be formed on its own: s1 = total - s0 rounds
    # to zero and saturates the LLR hundreds of nats away from the truth
    nv = 1e-4
    rng = np.random.default_rng(11)
    idx = rng.integers(0, const.num_points, size=400)
    y = normalize(const.points[idx].ravel()) + 0.01 * rng.standard_normal(
        idx.size * const.dimension)
    llr = bit_llrs(y, const, nv).reshape(-1, const.bits_per_point)
    for b, ref in enumerate(pointwise_app(y, const, nv)[1].T):
        # beyond ~708 nats the smaller half underflows and the LLR saturates
        exact = np.abs(ref) < 700.0
        assert np.count_nonzero(exact & (ref > 50.0)) > 20
        assert np.allclose(llr[exact, b], ref[exact], rtol=1e-9, atol=1e-9)
        assert np.all(np.sign(llr[~exact, b]) == np.sign(ref[~exact]))
        assert np.all(np.abs(llr[~exact, b]) >= 700.0)


# Row-major demapper, (num_groups, num_points), kept as the exact reference
# for the points-major one: every LLR and posterior must match it bit for bit.
# Each sum over the points adds them left to right, as a cumulative sum does.

def _reference_sum_over_axes(axis_terms, c):
    d = c.dimension
    out = np.take(axis_terms[0::d], c.points[:, 0], axis=1)
    for k in range(1, d):
        out += np.take(axis_terms[k::d], c.points[:, k], axis=1)
    return out


def _reference_log_point_metrics(received, c, noise_var):
    y = np.asarray(received, dtype=np.float64).ravel()
    d2 = y[:, None] - normalize(LEVELS)
    d2 *= d2
    logm = _reference_sum_over_axes(d2, c)
    logm /= -2.0 * noise_var
    return logm


def _reference_label_halves(logm, c):
    """(num_groups, bits_per_point, 2): [g, j, h] is the mass of group g's
    points whose label bit j is h, clamped at tiny."""
    logm -= logm.max(axis=1, keepdims=True)
    w = np.exp(logm, out=logm)
    out = np.empty((w.shape[0], c.bits_per_point, 2), dtype=np.float64)
    for j in range(c.bits_per_point):
        mask0 = c.labels[:, j] == 0
        out[:, j, 0] = np.cumsum(w[:, mask0], axis=1)[:, -1]
        out[:, j, 1] = np.cumsum(w[:, ~mask0], axis=1)[:, -1]
    return np.maximum(out, np.finfo(np.float64).tiny, out=out)


def _reference_marginalize_bits(logm, c):
    halves = np.log(_reference_label_halves(logm, c))
    return halves[..., 0] - halves[..., 1]


def reference_label_halves(received, c, noise_var):
    return _reference_label_halves(
        _reference_log_point_metrics(received, c, noise_var), c)


def reference_label_halves_from_levels(level_logposts, c):
    return _reference_label_halves(
        _reference_sum_over_axes(np.asarray(level_logposts, dtype=np.float64), c), c)


def reference_bit_llrs(received, c, noise_var):
    return _reference_marginalize_bits(
        _reference_log_point_metrics(received, c, noise_var), c).ravel()


def reference_bit_llrs_from_levels(level_logposts, c):
    return _reference_marginalize_bits(
        _reference_sum_over_axes(np.asarray(level_logposts, dtype=np.float64), c), c)


def reference_symbol_posteriors(received, c, noise_var):
    logm = _reference_log_point_metrics(received, c, noise_var)
    logm -= logm.max(axis=1, keepdims=True)
    post = np.exp(logm, out=logm)
    post /= np.cumsum(post, axis=1)[:, -1:]
    return post


@pytest.mark.parametrize("snr_db", (0.0, 15.0, 22.5, 30.0, 60.0))
@pytest.mark.parametrize("groups", (1, 500, 4096, 4097))
def test_points_major_demapper_equals_row_major(const, snr_db, groups):
    nv = 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(groups)
    idx = rng.integers(0, const.num_points, size=groups)
    y = normalize(const.points[idx].ravel()) + np.sqrt(nv) * rng.standard_normal(
        groups * const.dimension)
    for got, want in ((bit_llrs(y, const, nv), reference_bit_llrs(y, const, nv)),
                      (symbol_posteriors(y, const, nv),
                       reference_symbol_posteriors(y, const, nv))):
        assert got.shape == want.shape and np.array_equal(got, want)
    # trellis-style level log posteriors: the product metric path
    lp = -rng.exponential(1.0 / nv, size=(groups * const.dimension, len(LEVELS)))
    got = constellation._label_llrs(constellation._weights(
        constellation._level_point_metrics(lp, const)), const)
    want = reference_bit_llrs_from_levels(lp, const)
    assert got.shape == want.shape and np.array_equal(got, want)


# sha256 of bit_llrs on a seeded block at the pinned dispatch level
# (pinned_dispatch.py): the coded path decodes from these LLRs, so a change
# that moves any of them must update the digest and say why
BIT_LLRS_SHA256 = "cbd570c358fcd433f9a28d5c45f82abdda1e0dd692a0f8815f52668f83437f6c"


def test_bit_llrs_bytes_are_pinned():
    assert at_pinned_dispatch("""
        import hashlib
        import numpy as np
        from pam6link.constellation import (CONSTELLATION_NAMES, bit_llrs,
                                            build_constellation, normalize)
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for name in CONSTELLATION_NAMES:
            c = build_constellation(name)
            for nv in (10 ** -1.5, 10 ** -3.0):
                idx = rng.integers(0, c.num_points, size=5000)
                y = normalize(c.points[idx].ravel()) + np.sqrt(nv) * (
                    rng.standard_normal(idx.size * c.dimension))
                digest.update(bit_llrs(y, c, nv).tobytes())
        result = digest.hexdigest()
        """) == BIT_LLRS_SHA256


@pytest.mark.parametrize("snr_db,taps", [(15.0, None), (22.5, None),
                                         (30.0, None), (22.5, (1.0, 0.35))])
def test_gmi_samples_equal_the_llr_form(const, snr_db, taps):
    # sum_j log2(1 + h_other / h_sent) over the label bits is
    # sum_j log2(1 + exp(-/+ LLR_j)), here with the demapper's own LLRs, on
    # AWGN and on trellis level posteriors
    rng = np.random.default_rng(7)
    idx = rng.integers(0, const.num_points, size=rates.BLOCK_POINTS)
    nv = 10.0 ** (-snr_db / 10.0)
    y = transmit(normalize(const.points[idx].ravel()), nv, rng, taps)
    if taps is None:
        got = rate_samples(idx, const, ("bit_metric",), received=y, noise_var=nv)
        llr = bit_llrs(y, const, nv).reshape(-1, const.bits_per_point)
    else:
        lp = gathered_app(y[None], make_trellis(taps), nv)[0]
        got = rate_samples(idx, const, ("bit_metric",), level_logposts=lp)
        llr = constellation._label_llrs(constellation._weights(
            constellation._level_point_metrics(lp, const)), const)
    signed = (1.0 - 2.0 * const.labels[idx]) * llr
    want = (np.logaddexp(0.0, -signed) / np.log(2.0)).sum(axis=1)
    assert np.allclose(got["bit_metric"], want, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gmi_sample_stays_finite_at_the_tiny_floor():
    # levels 0-2 of the first use get log posterior -1e4, so every point
    # with its first coordinate there weighs 0. Sending (1, 2), label bit
    # 0's sent half sits at the tiny floor while its other half holds 16
    # points of weight 1: h_other / h_sent overflows, its log does not.
    # That bit gives log2(16 / tiny) = 1026 bits; each other bit splits
    # the 16 points evenly and gives 1
    c = build_constellation("cross_qam32")
    sent = np.flatnonzero((c.points == (1, 2)).all(axis=1))
    lp = np.zeros((2, len(LEVELS)))
    lp[0, :3] = -1e4
    got = rate_samples(sent, c, ("bit_metric",), level_logposts=lp)
    assert got["bit_metric"] == pytest.approx([1030.0], rel=1e-12)


def test_rate_samples_takes_one_detection_and_known_metrics(const):
    idx = np.zeros(4, dtype=np.int64)
    y = normalize(const.points[idx].ravel())
    lp = np.zeros((y.size, len(LEVELS)))
    for kw in ({}, {"received": y, "noise_var": 0.1, "level_logposts": lp}):
        with pytest.raises(ValueError, match="either received samples or level"):
            rate_samples(idx, const, ("bit_metric",), **kw)
    with pytest.raises(ValueError, match="symbol_metric or bit_metric, got"):
        rate_samples(idx, const, ("fer",), received=y, noise_var=0.1)


@pytest.mark.parametrize("trellis", [False, True])
@pytest.mark.parametrize("metric", ["symbol_metric", "bit_metric"])
def test_rate_samples_returns_the_metrics_asked(const, metric, trellis):
    # a metric asked alone comes back alone, bit for bit as asked with both
    rng = np.random.default_rng(3)
    idx = rng.integers(0, const.num_points, size=64)
    lp = np.log(rng.dirichlet(np.ones(len(LEVELS)), size=64 * const.dimension))
    y = normalize(const.points[idx].ravel()) + 0.2 * rng.standard_normal(len(lp))
    kw = {"level_logposts": lp} if trellis else {"received": y, "noise_var": 0.04}
    alone = rate_samples(idx, const, (metric,), **kw)
    both = rate_samples(idx, const, ("symbol_metric", "bit_metric"), **kw)
    assert list(alone) == [metric] and alone[metric].shape == (idx.size,)
    np.testing.assert_array_equal(alone[metric], both[metric])


@pytest.mark.parametrize("trellis", [False, True])
def test_one_point_blocks_give_what_a_block_gives(const, trellis):
    # one group is summed over the points in the order a block sums it, so
    # demapping point by point moves no sample, LLR or posterior bit
    rng = np.random.default_rng(5)
    n, d = 64, const.dimension
    idx = rng.integers(0, const.num_points, size=n)
    lp = np.log(rng.dirichlet(np.ones(len(LEVELS)), size=n * d))
    y = normalize(const.points[idx].ravel()) + 0.2 * rng.standard_normal(n * d)
    metrics = ("symbol_metric", "bit_metric")

    def demap(points, uses):
        if trellis:
            w = constellation._weights(
                constellation._level_point_metrics(lp[uses], const))
            return (rate_samples(idx[points], const, metrics, level_logposts=lp[uses]),
                    [constellation._label_llrs(w, const)])
        return (rate_samples(idx[points], const, metrics, received=y[uses],
                             noise_var=0.04),
                [bit_llrs(y[uses], const, 0.04), symbol_posteriors(y[uses], const, 0.04)])

    block = demap(slice(None), slice(None))
    ones = [demap(slice(i, i + 1), slice(i * d, (i + 1) * d)) for i in range(n)]
    for m in metrics:
        np.testing.assert_array_equal(np.concatenate([s[m] for s, _ in ones]),
                                      block[0][m], err_msg=m)
    for k, want in enumerate(block[1]):
        np.testing.assert_array_equal(np.concatenate([o[k] for _, o in ones]), want)
