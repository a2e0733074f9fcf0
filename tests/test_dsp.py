"""BCJR detector tests."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.dsp import HAND_OVER, POSTERIOR_BLOCK, bcjr_app, make_trellis
from pam6link.rates import SCHEMES
from pinned_dispatch import at_pinned_dispatch

LEVELS = np.arange(6) / 5.0


def gathered_app(y, tr, noise_var):
    """The (B, T, 6) log posteriors of bcjr_app, gathered from its blocks."""
    y = np.asarray(y, dtype=np.float64)
    out = np.full(y.shape + (6,), np.nan)

    def consume(t0, post):
        out[:, t0:t0 + post.shape[1]] = post

    bcjr_app(y, tr, noise_var, consume)
    return out


def test_trellis_structure():
    tr = make_trellis([1.0, 0.4])
    assert tr.n_states == 6
    assert tr.branch_mean.size == 36
    # branch b = prev_state*6 + symbol: mean = 1.0*levels[symbol]
    # + 0.4*levels[prev_state], over the normalized levels
    for prev, sym in itertools.product(range(6), repeat=2):
        assert tr.branch_mean[prev * 6 + sym] == LEVELS[sym] + 0.4 * LEVELS[prev]


def test_trellis_needs_a_tap():
    with pytest.raises(ValueError, match=r"at least one tap, got taps \[\]"):
        make_trellis([])


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
    tr = make_trellis(taps)
    sym = rng.integers(0, 6, size=6)
    x = np.convolve(LEVELS[sym], taps)[:6]
    y = x + 0.15 * rng.standard_normal(6)
    got = gathered_app(y[None], tr, 0.15**2)[0]
    ref = _brute_force_app(y, taps, 0.15**2)
    assert float(np.max(np.abs(got - ref))) < 1e-9


@pytest.mark.parametrize("length", [1, POSTERIOR_BLOCK - 1, POSTERIOR_BLOCK,
                                    POSTERIOR_BLOCK + 1, 3 * POSTERIOR_BLOCK + 7])
def test_bcjr_memoryless_matches_pointwise_at_block_edges(length):
    # the posteriors are formed in blocks of steps: lengths around the block
    # size check that every step is handed over, across block boundaries
    rng = np.random.default_rng(length)
    tr = make_trellis([1.0])
    y = rng.uniform(-0.2, 1.2, size=length)
    ll = -0.5 * (y[:, None] - LEVELS[None, :]) ** 2 / 0.05
    got = gathered_app(y[None], tr, 0.05)[0]
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
    t_len, q, ns = y.size, LEVELS.size, tr.n_states
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
    # split as (S/L, L): memory 3 (L = 36) checks that split; the two
    # directions meet mid-loop, odd lengths and lengths of 2 mod 4 with a
    # few uses between them, and past the meeting the posteriors of both
    # sides are formed from live and stored states, over several blocks of
    # steps and of hand-overs at the longest length
    rng = np.random.default_rng(len(taps))
    tr = make_trellis(taps)
    for length in (1, 2, 3, 5, 6, POSTERIOR_BLOCK, POSTERIOR_BLOCK + 1,
                   2 * POSTERIOR_BLOCK + 3, 4 * HAND_OVER + 6):
        sym = rng.integers(0, 6, size=length)
        y = np.convolve(LEVELS[sym], taps)[:length] + 0.07 * rng.standard_normal(length)
        got = gathered_app(y[None], tr, 0.0049)[0]
        assert np.array_equal(got, _per_step_app(y, tr, 0.0049))


@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.35), (1.0, 0.4, 0.2),
                                  (1.0, 0.3, 0.2, 0.1)])
def test_stacked_rows_equal_single_row_calls(taps):
    # rows advance in one loop over a (B, 2, Q, S) buffer and share each
    # block of branch metrics; each must still be the one-row result, at
    # any noise variance
    rng = np.random.default_rng(10 + len(taps))
    tr = make_trellis(taps)
    for length, nv in zip((1, 3, 5, POSTERIOR_BLOCK - 1, POSTERIOR_BLOCK + 1, 1000),
                          (1e-4, 0.0049, 0.1) * 2):
        y = np.stack([
            np.convolve(LEVELS[rng.integers(0, 6, size=length)], taps)[:length]
            + np.sqrt(nv) * rng.standard_normal(length) for _ in range(3)])
        got = gathered_app(y, tr, nv)
        assert got.shape == (3, length, 6)
        for r in range(3):
            assert np.array_equal(got[r], gathered_app(y[r:r + 1], tr, nv)[0])
    with pytest.raises(ValueError, match="rows, uses"):
        gathered_app(y[0], tr, nv)
    with pytest.raises(TypeError):  # one variance for all rows
        gathered_app(y, tr, np.full(3, nv))


def test_stacked_call_holds_no_more_than_one_rows_branch_metrics():
    # the rate estimators stack one row per distinct scheme, at most
    # len(SCHEMES): rows of 1e4 uses at two taps hold the stored half of
    # both recursions, S floats per use and row, plus blocks whose size does
    # not depend on T: never the 3 * T * S * Q floats of the uses' branch
    # metrics, nor a (B, T, Q) posterior array
    tr = make_trellis([1.0, 0.35])
    rows, t_len = len(SCHEMES), 10**4
    y = np.random.default_rng(3).uniform(-0.2, 1.5, size=(rows, t_len))
    tracemalloc.start()
    try:
        bcjr_app(y, tr, 0.0056, lambda t0, post: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = rows * t_len * tr.n_states * 8
    # one block of branch metrics per direction, and at most as much again
    # for the smaller blocks of rolling states and posteriors
    metric_blocks = 2 * POSTERIOR_BLOCK * rows * tr.n_states * 6 * 8
    assert peak < states + 2 * metric_blocks


@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.35), (1.0, 0.4, 0.2),
                                  (1.0, 0.3, 0.2, 0.1)])
@pytest.mark.parametrize("rows", [1, 3])
def test_blocks_cover_every_use_once_at_even_bounds(taps, rows):
    # lengths around the meeting step, the steps' blocks and the blocks
    # handed over; an even T must split no 2D point
    tr = make_trellis(taps)
    rng = np.random.default_rng(len(taps) + rows)
    for t_len in (0, 1, 2, 3, 255, 256, 257, 513, 775):
        y = rng.uniform(-0.2, 1.5, size=(rows, t_len))
        seen = np.zeros(t_len, dtype=int)
        bounds = []

        def consume(t0, post):
            assert post.shape == (rows, post.shape[1], 6)
            assert post.shape[1] > 0
            seen[t0:t0 + post.shape[1]] += 1
            bounds.append((t0, t0 + post.shape[1]))

        bcjr_app(y, tr, 0.01, consume)
        assert np.all(seen == 1), (t_len, bounds)
        assert all(0 <= a < e <= t_len for a, e in bounds)
        if t_len % 2 == 0:
            assert all(a % 2 == 0 and e % 2 == 0 for a, e in bounds), bounds


# MI/GMI on the ISI link at the pinned dispatch level (pinned_dispatch.py),
# first read from the per-step BCJR this kernel replaced: a rewrite must
# leave every float as it was
ISI_PINS = {
    "cross_qam32": ((1.88531009696097, 0.01953127195401076),
                    (1.849222214813194, 0.022627192701072475)),
    "framed_cross_qam32": ((1.9319507844318062, 0.01929242543043033),
                           (1.9697046186991845, 0.01968367917492276)),
    "dm_pam6": ((2.0114895216626154, 0.01797706829261091),
                (2.0106835639367073, 0.018134515028913435)),
}


@pytest.mark.parametrize("scheme", sorted(ISI_PINS))
def test_isi_rates_pinned_exactly(scheme):
    got = at_pinned_dispatch(f"""
        from pam6link.rates import estimate_gmi, estimate_mi
        result = []
        for fn in (estimate_mi, estimate_gmi):
            est = fn({scheme!r}, 22.5, num_symbols=10**4, seed=0,
                     taps=(1.0, 0.35))
            result.append((est.rate, est.half_width))
        """)
    assert [tuple(pin) for pin in got] == list(ISI_PINS[scheme])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_bcjr_memoryless_reduces_to_pointwise_posterior(seed):
    rng = np.random.default_rng(seed)
    tr = make_trellis([1.0])
    y = rng.uniform(-0.2, 1.2, size=8)
    got = gathered_app(y[None], tr, 0.05)[0]
    ll = -0.5 * (y[:, None] - LEVELS[None, :]) ** 2 / 0.05
    ref = ll - np.logaddexp.reduce(ll, axis=1, keepdims=True)
    assert np.allclose(got, ref, atol=1e-12)


def test_bcjr_high_snr_recovers_sequence():
    rng = np.random.default_rng(8)
    taps = np.array([1.0, 0.45, 0.1])
    tr = make_trellis(taps)
    sym = rng.integers(0, 6, size=400)
    x = np.convolve(LEVELS[sym], taps)[:400]
    y = x + 0.01 * rng.standard_normal(400)
    post = gathered_app(y[None], tr, 1e-4)[0]
    assert np.array_equal(np.argmax(post, axis=1), sym)
