"""Receiver DSP: symbol-wise BCJR detection over a known ISI trellis.

Links with residual inter-symbol interference (the ``fir_isi`` channel)
are detected by an exact log-domain BCJR over the channel taps; its
per-symbol level posteriors feed the rate estimators.

Cost of one ``bcjr_app`` call on T observations over S states and Q
symbols: the forward and the backward recursion are O(T) Python steps of
one (S, Q) log-sum-exp each, and the posteriors are formed a block of
POSTERIOR_BLOCK steps at a time. Memory is the branch metrics (T*S*Q
floats) plus the alphas (T*S) plus one block (POSTERIOR_BLOCK*S*Q).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Trellis:
    """Branch bookkeeping for a 6-ary (or general Q-ary) ISI trellis.

    State encodes the last `memory` symbol indices base Q; a branch is
    (prev_state, symbol) with id b = prev_state*Q + symbol, next state
    (Q*prev_state + symbol) mod Q^memory. The channel is assumed quiescent
    (level-0 amplitude) before the burst, so the initial state is 0; the
    terminal distribution is left uniform.
    """
    taps: np.ndarray
    levels: np.ndarray
    memory: int
    n_states: int
    branch_mean: np.ndarray = field(repr=False)
    branch_sym: np.ndarray = field(repr=False)
    next_state: np.ndarray = field(repr=False)


def make_trellis(taps: np.ndarray, levels: np.ndarray) -> Trellis:
    taps = np.asarray(taps, dtype=np.float64).ravel()
    levels = np.asarray(levels, dtype=np.float64).ravel()
    q = levels.size
    memory = taps.size - 1
    n_states = q**memory
    b = np.arange(n_states * q)
    prev = b // q
    sym = b % q
    mean = taps[0] * levels[sym]
    digits = prev
    for i in range(1, memory + 1):
        mean = mean + taps[i] * levels[digits % q]
        digits = digits // q
    nxt = (q * prev + sym) % n_states
    return Trellis(
        taps=taps, levels=levels, memory=memory, n_states=n_states,
        branch_mean=mean, branch_sym=sym, next_state=nxt,
    )


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
    Q*(p mod L) + s with L = S/Q (1 without memory). So a step's (S, Q)
    branches seen as (Q, S) hold the branches into one state in a column,
    and seen as (S/L, L, Q) take beta of the next state as an (L, S/L)
    broadcast: neither recursion gathers. The posteriors of a block of
    steps are formed together once the backward pass has its betas.
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
    step = np.empty((ns, q))  # one step's branches, reused in place
    into = step.reshape(q, ns)
    out_of = step.reshape(by_next)
    mx_into, mx_out = np.empty((1, ns)), np.empty((ns, 1))
    block = POSTERIOR_BLOCK

    alphas = np.full((t_len + 1, ns), -np.inf)  # alphas[t]: alpha at time t
    alphas[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        for g, a, a_next in zip(metrics, alphas[:, :, None], alphas[1:, None]):
            np.add(g, a, out=step)
            _logsumexp(into, 0, a_next, mx_into)

        out = np.empty((t_len, 1, q))
        betas = np.zeros((block + 1, ns))  # betas[j]: beta at time t0 + j
        joint = np.empty((block, ns, q))
        g_out = metrics.reshape((t_len,) + by_next)
        b_next = betas.reshape((block + 1,) + beta_view)
        # blocks from the end; only the last one in time can be short, and
        # betas[block] carries beta across the block boundary
        for t0 in range((t_len - 1) // block * block, -1, -block):
            n = min(block, t_len - t0)
            betas[n] = betas[block]
            for g, b, b_prev in zip(g_out[t0:t0 + n][::-1], b_next[n:0:-1],
                                    betas[n - 1::-1, :, None]):
                np.add(g, b, out=out_of)
                _logsumexp(step, 1, b_prev, mx_out)
            blk = joint[:n]
            np.add(metrics[t0:t0 + n], alphas[t0:t0 + n, :, None], out=blk)
            four = blk.reshape((n,) + by_next)
            np.add(four, betas[1:n + 1].reshape((n, 1) + beta_view), out=four)
            post = np.empty((n, 1, q))
            _logsumexp(blk, 1, post, np.empty((n, 1, q)))
            norm = np.empty((n, 1, 1))
            _logsumexp(post.copy(), 2, norm, np.empty((n, 1, 1)))
            np.subtract(post, norm, out=out[t0:t0 + n])
            betas[block] = betas[0]
    return out.reshape(t_len, q)
