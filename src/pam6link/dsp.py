"""Receiver DSP: symbol-wise BCJR detection over a known ISI trellis.

Links with residual inter-symbol interference (the ``fir_isi`` channel)
are detected by an exact log-domain BCJR over the channel taps; its
per-symbol level posteriors feed the rate estimators.

Cost of one ``bcjr_app`` call on T observations over S states and Q
symbols: O(T) Python steps of one stacked (2, Q, S) log-sum-exp each,
which advance the forward and the backward recursion together; the
posteriors are formed afterwards, a block of POSTERIOR_BLOCK steps at a
time. Memory is the branch metrics (T*S*Q floats) plus the states of
both recursions (2*(T+1)*S) plus one block (POSTERIOR_BLOCK*S*Q).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Trellis:
    """Branch means of a 6-ary (or general Q-ary) ISI trellis.

    A state holds the last len(taps) - 1 symbol indices base Q; branch
    b = prev_state*Q + symbol leads to state (Q*prev_state + symbol) mod
    n_states. The channel is assumed quiescent (level-0 amplitude) before
    the burst, so the initial state is 0; the terminal distribution is left
    uniform.
    """
    levels: np.ndarray
    n_states: int
    branch_mean: np.ndarray = field(repr=False)


def make_trellis(taps: np.ndarray, levels: np.ndarray) -> Trellis:
    taps = np.asarray(taps, dtype=np.float64).ravel()
    levels = np.asarray(levels, dtype=np.float64).ravel()
    q = levels.size
    n_states = q**(taps.size - 1)
    b = np.arange(n_states * q)
    mean = taps[0] * levels[b % q]
    digits = b // q
    for tap in taps[1:]:
        mean = mean + tap * levels[digits % q]
        digits = digits // q
    return Trellis(levels=levels, n_states=n_states, branch_mean=mean)


POSTERIOR_BLOCK = 256  # steps whose posteriors are formed together
_FLOOR = np.finfo(np.float64).min


def _logsumexp(x: np.ndarray, axis: int, out: np.ndarray, mx: np.ndarray) -> None:
    """Write the log-sum-exp of x along axis to out, with mx as scratch.

    out and mx have x's shape with axis kept at length 1; x is overwritten.
    The group max is floored at the most negative float, so a group of
    only -inf gives -inf without a NaN, while any other group keeps its
    exact max and so the same floats as an unfloored log-sum-exp.
    """
    np.maximum.reduce(x, axis, out=mx, keepdims=True, initial=_FLOOR)
    np.subtract(x, mx, out=x)
    np.exp(x, out=x)
    np.add.reduce(x, axis, out=out, keepdims=True)
    np.log(out, out=out)
    np.add(mx, out, out=out)


def bcjr_app(y: np.ndarray, trellis: Trellis, noise_var: float):
    """Exact symbol-wise log-APPs over an ISI trellis (log-domain BCJR).

    y are the observations, noise_var the white-noise variance; symbols
    are equiprobable. Returns a (T, Q) array of log posteriors normalized
    per symbol.

    Branch b = p*Q + s (state p, symbol s) leads to state
    Q*(p mod L) + s with L = S/Q (1 without memory). One loop runs both
    recursions: step k takes alpha_k to alpha_{k+1} and beta_{T-k} to
    beta_{T-k-1} with one log-sum-exp over axis 1 of a (2, Q, S) buffer.
    Its forward half is the step's (S, Q) branches seen as (Q, S), so a
    column holds the branches into one state. Its backward half is the
    branches transposed to [symbol, prev state], with prev state split
    as (S/L, L), so beta of the next state is a (Q, 1, L) broadcast of
    beta seen as (L, Q). Neither half gathers. The posteriors are formed
    after the loop, a block of steps at a time.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    q = trellis.levels.size
    t_len = y.size
    ns = trellis.n_states
    # branch metrics: gaussian log-likelihood, (T, S, Q)
    metrics = np.subtract.outer(y, trellis.branch_mean)
    np.square(metrics, out=metrics)
    metrics *= -0.5 / noise_var
    metrics = metrics.reshape(t_len, ns, q)
    lead = max(ns // q, 1)
    by_next, beta_view = (ns // lead, lead, q), (lead, ns // lead)
    x = np.empty((2, q, ns))  # one step of both recursions, reused in place
    fwd = x[0].reshape(ns, q)
    bwd = x[1].reshape(q, ns // lead, lead)
    mx = np.empty((2, 1, ns))

    # st[k] holds (alpha_k, beta_{T-k}): state 0 at the start, any at the end
    st = np.full((t_len + 1, 2, ns), -np.inf)
    st[0, 0, 0] = 0.0
    st[0, 1] = 0.0
    g_bwd = metrics.transpose(0, 2, 1).reshape(t_len, q, ns // lead, lead)[::-1]
    b_bwd = st[:, 1].reshape((t_len + 1,) + beta_view).transpose(0, 2, 1)[:, :, None]
    block = POSTERIOR_BLOCK
    out = np.empty((t_len, 1, q))
    joint = np.empty((block, ns, q))
    with np.errstate(divide="ignore"):
        for g, a, gb, b, s_next in zip(metrics, st[:, 0, :, None], g_bwd, b_bwd,
                                       st[1:, :, None]):
            np.add(g, a, out=fwd)
            np.add(gb, b, out=bwd)
            _logsumexp(x, 1, s_next, mx)

        alphas, betas = st[:, 0], st[::-1, 1]  # [t]: at time t
        for t0 in range(0, t_len, block):
            n = min(block, t_len - t0)
            blk = joint[:n]
            np.add(metrics[t0:t0 + n], alphas[t0:t0 + n, :, None], out=blk)
            four = blk.reshape((n,) + by_next)
            np.add(four, betas[t0 + 1:t0 + n + 1].reshape((n, 1) + beta_view), out=four)
            post = np.empty((n, 1, q))
            _logsumexp(blk, 1, post, np.empty((n, 1, q)))
            norm = np.empty((n, 1, 1))
            _logsumexp(post.copy(), 2, norm, np.empty((n, 1, 1)))
            np.subtract(post, norm, out=out[t0:t0 + n])
    return out.reshape(t_len, q)
