"""BCJR detector tests."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.dsp import bcjr_app, make_trellis

LEVELS = np.arange(6) / 5.0


def test_trellis_structure():
    tr = make_trellis(np.array([1.0, 0.4]), LEVELS)
    assert tr.memory == 1 and tr.n_states == 6
    assert tr.branch_mean.size == 36
    # branch (prev_state=2, symbol=5): mean = 1.0*levels[5] + 0.4*levels[2]
    b = 2 * 6 + 5
    assert tr.branch_mean[b] == pytest.approx(LEVELS[5] + 0.4 * LEVELS[2])
    assert tr.next_state[b] == 5
    assert tr.branch_sym[b] == 5


def _brute_force_app(y, taps, noise_var, log_priors=None):
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
            if log_priors is not None:
                ll += log_priors[t, seq[t]] if log_priors.ndim == 2 else \
                    log_priors[seq[t]]
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
    got = bcjr_app(y, tr, noise_var=0.15**2)
    ref = _brute_force_app(y, taps, 0.15**2)
    assert float(np.max(np.abs(got - ref))) < 1e-9


def test_bcjr_with_nonuniform_priors():
    rng = np.random.default_rng(7)
    taps = np.array([1.0, 0.3])
    tr = make_trellis(taps, LEVELS)
    y = 0.6 + 0.2 * rng.standard_normal(5)
    lp = np.log(rng.dirichlet(np.ones(6), size=5))
    got = bcjr_app(y, tr, noise_var=0.04, log_priors=lp)
    ref = _brute_force_app(y, taps, 0.04, log_priors=lp)
    assert float(np.max(np.abs(got - ref))) < 1e-9
    with pytest.raises(ValueError, match="log_priors shape"):
        bcjr_app(y, tr, 0.04, log_priors=np.zeros((3, 6)))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_bcjr_memoryless_reduces_to_pointwise_posterior(seed):
    rng = np.random.default_rng(seed)
    tr = make_trellis(np.array([1.0]), LEVELS)
    y = rng.uniform(-0.2, 1.2, size=8)
    got = bcjr_app(y, tr, noise_var=0.05)
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
    post = bcjr_app(y, tr, noise_var=1e-4)
    assert np.array_equal(np.argmax(post, axis=1), sym)
