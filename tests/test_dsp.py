"""BCJR detector tests."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.dsp import POSTERIOR_BLOCK, bcjr_app, make_trellis, rows_per_call
from pam6link.rates import estimate_gmi, estimate_mi

LEVELS = np.arange(6) / 5.0


def test_trellis_structure():
    tr = make_trellis(np.array([1.0, 0.4]), LEVELS)
    assert tr.n_states == 6
    assert tr.branch_mean.size == 36
    # branch (prev_state=2, symbol=5): mean = 1.0*levels[5] + 0.4*levels[2]
    b = 2 * 6 + 5
    assert tr.branch_mean[b] == pytest.approx(LEVELS[5] + 0.4 * LEVELS[2])


def _brute_force_app(y, taps, noise_var):
    """Exhaustive MAP posteriors for a short burst starting from level 0."""
    t_len = y.size
    q = LEVELS.size
    memory = len(taps) - 1
    logp = np.full((t_len, q), -np.inf)
    for seq in itertools.product(range(q), repeat=t_len):
        padded = [0] * memory + list(seq)
        ll = 0.0
        for t in range(t_len):
            mean = sum(taps[i] * LEVELS[padded[memory + t - i]]
                       for i in range(memory + 1))
            ll += -0.5 * (y[t] - mean) ** 2 / noise_var
        for t in range(t_len):
            logp[t, seq[t]] = np.logaddexp(logp[t, seq[t]], ll)
    return logp - np.logaddexp.reduce(logp, axis=1, keepdims=True)


def test_bcjr_matches_exhaustive_map():
    rng = np.random.default_rng(6)
    taps = np.array([1.0, 0.35, -0.12])
    tr = make_trellis(taps, LEVELS)
    sym = rng.integers(0, 6, size=6)
    x = np.convolve(LEVELS[sym], taps)[:6]
    y = x + 0.15 * rng.standard_normal(6)
    got = bcjr_app(y[None], tr, noise_var=0.15**2)[0]
    ref = _brute_force_app(y, taps, 0.15**2)
    assert float(np.max(np.abs(got - ref))) < 1e-9


@pytest.mark.parametrize("length", [1, POSTERIOR_BLOCK - 1, POSTERIOR_BLOCK,
                                    POSTERIOR_BLOCK + 1, 3 * POSTERIOR_BLOCK + 7])
def test_bcjr_memoryless_matches_pointwise_at_block_edges(length):
    # the posteriors are formed in blocks of steps: lengths around the block
    # size check that every step is written, across block boundaries
    rng = np.random.default_rng(length)
    tr = make_trellis(np.array([1.0]), LEVELS)
    y = rng.uniform(-0.2, 1.2, size=length)
    ll = -0.5 * (y[:, None] - LEVELS[None, :]) ** 2 / 0.05
    got = bcjr_app(y[None], tr, noise_var=0.05)[0]
    assert got.shape == (length, 6)
    ref = ll - np.logaddexp.reduce(ll, axis=1, keepdims=True)
    assert float(np.max(np.abs(got - ref))) < 1e-12


def _per_step_app(y, tr, noise_var):
    """Reference BCJR: one step per loop pass, with gathers and NaN masks.

    The arithmetic bcjr_app must reproduce exactly: each log-sum-exp sums
    the same terms in the same order over the same axis. With memory 2 the
    first forward steps reach states no branch has entered yet, so their
    groups are all -inf.
    """
    t_len, q, ns = y.size, tr.levels.size, tr.n_states
    prev, sym = np.divmod(np.arange(ns * q), q)
    next_state = (q * prev + sym) % ns
    mean = tr.branch_mean
    in_order = np.argsort(next_state, kind="stable")

    def lse(x, axis):
        mx = x.max(axis=axis)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = mx + np.log(np.exp(x - np.expand_dims(mx, axis)).sum(axis=axis))
        r[~np.isfinite(mx)] = -np.inf
        return r

    alphas = np.full((t_len + 1, ns), -np.inf)
    alphas[0, 0] = 0.0
    metrics = np.empty((t_len, ns * q))
    for t in range(t_len):
        metrics[t] = -0.5 / noise_var * (y[t] - mean) ** 2
        m = alphas[t, prev] + metrics[t]
        alphas[t + 1] = lse(m[in_order].reshape(ns, q), 1)
    beta = np.zeros(ns)
    out = np.empty((t_len, q))
    for t in range(t_len - 1, -1, -1):
        joint = alphas[t, prev] + metrics[t] + beta[next_state]
        post = lse(joint.reshape(ns, q), 0)
        norm = post.max()
        out[t] = post - (norm + np.log(np.exp(post - norm).sum()))
        beta = lse((metrics[t] + beta[next_state]).reshape(ns, q), 1)
    return out


@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.35), (1.0, 0.4, 0.2),
                                  (1.0, 0.3, 0.2, 0.1)])
def test_bcjr_equals_per_step_reference(taps):
    # one loop runs both recursions, the backward one on a transposed view
    # split as (S/L, L): memory 3 (L = 36) checks that split, odd lengths
    # have the two directions cross mid-loop, and the posteriors are formed
    # in blocks after it
    rng = np.random.default_rng(len(taps))
    tr = make_trellis(np.array(taps), LEVELS)
    for length in (1, 2, 3, 5, POSTERIOR_BLOCK, POSTERIOR_BLOCK + 1,
                   2 * POSTERIOR_BLOCK + 3):
        sym = rng.integers(0, 6, size=length)
        y = np.convolve(LEVELS[sym], taps)[:length] + 0.07 * rng.standard_normal(length)
        got = bcjr_app(y[None], tr, 0.0049)[0]
        assert np.array_equal(got, _per_step_app(y, tr, 0.0049))


@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.35), (1.0, 0.4, 0.2),
                                  (1.0, 0.3, 0.2, 0.1)])
def test_stacked_rows_equal_single_row_calls(taps):
    # rows advance in one loop over a (B, 2, Q, S) buffer and share each
    # block of branch metrics; each must still be the one-row result
    rng = np.random.default_rng(10 + len(taps))
    tr = make_trellis(np.array(taps), LEVELS)
    nvs = np.array([1e-4, 0.0049, 0.1])
    for length in (1, 3, 5, POSTERIOR_BLOCK - 1, POSTERIOR_BLOCK + 1, 1000):
        y = np.stack([
            np.convolve(LEVELS[rng.integers(0, 6, size=length)], taps)[:length]
            + np.sqrt(nv) * rng.standard_normal(length) for nv in nvs])
        got = bcjr_app(y, tr, nvs)
        assert got.shape == (3, length, 6)
        for r in range(3):
            assert np.array_equal(got[r], bcjr_app(y[r:r + 1], tr, nvs[r])[0])
    with pytest.raises(ValueError, match="rows, uses"):
        bcjr_app(y[0], tr, nvs[0])


def test_stacked_call_holds_no_more_than_one_rows_branch_metrics():
    # rows_per_call rows of 1e4 uses at two taps stay below what the
    # branch metrics of those uses alone would take, 3 * T * S * Q floats
    tr = make_trellis(np.array([1.0, 0.35]), LEVELS)
    rows, t_len = rows_per_call(tr), 10**4
    assert rows == 3
    assert rows_per_call(make_trellis(np.array([1.0]), LEVELS)) == 1
    y = np.random.default_rng(3).uniform(-0.2, 1.5, size=(rows, t_len))
    tracemalloc.start()
    try:
        bcjr_app(y, tr, 0.0056)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * t_len * tr.n_states * 6 * 8


# MI/GMI on the ISI link, read from the per-step BCJR this kernel replaced:
# the rewrite must leave every float as it was
ISI_PINS = {
    "cross_qam32": ((1.8853100969609697, 0.019531271954010755),
                    (1.849222214813194, 0.022627192701072475)),
    "framed_cross_qam32": ((1.9319507844318062, 0.01929242543043033),
                           (1.9697046186991845, 0.01968367917492276)),
    "dm_pam6": ((2.0114895216626154, 0.01797706829261091),
                (2.0106835639367073, 0.018134515028913435)),
}


@pytest.mark.parametrize("scheme", sorted(ISI_PINS))
def test_isi_rates_pinned_exactly(scheme):
    for fn, pin in zip((estimate_mi, estimate_gmi), ISI_PINS[scheme]):
        est = fn(scheme, 22.5, num_symbols=10**4, seed=0, taps=(1.0, 0.35))
        assert (est.rate, est.half_width) == pin


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_bcjr_memoryless_reduces_to_pointwise_posterior(seed):
    rng = np.random.default_rng(seed)
    tr = make_trellis(np.array([1.0]), LEVELS)
    y = rng.uniform(-0.2, 1.2, size=8)
    got = bcjr_app(y[None], tr, noise_var=0.05)[0]
    ll = -0.5 * (y[:, None] - LEVELS[None, :]) ** 2 / 0.05
    ref = ll - np.logaddexp.reduce(ll, axis=1, keepdims=True)
    assert np.allclose(got, ref, atol=1e-12)


def test_bcjr_high_snr_recovers_sequence():
    rng = np.random.default_rng(8)
    taps = np.array([1.0, 0.45, 0.1])
    tr = make_trellis(taps, LEVELS)
    sym = rng.integers(0, 6, size=400)
    x = np.convolve(LEVELS[sym], taps)[:400]
    y = x + 0.01 * rng.standard_normal(400)
    post = bcjr_app(y[None], tr, noise_var=1e-4)[0]
    assert np.array_equal(np.argmax(post, axis=1), sym)
