"""Receiver DSP: symbol-wise BCJR detection over a known ISI trellis.

Links with residual inter-symbol interference (the ``fir_isi`` channel)
are detected by an exact log-domain BCJR over the channel taps; its
per-symbol level posteriors feed the rate estimators.

Cost of one ``bcjr_app`` call on B rows of T observations over S states
and Q symbols: O(T) Python steps of one stacked (B, 2, Q, S) log-sum-exp
each, which advance the forward and the backward recursion of every row
together, so the per-step numpy call overhead is paid once for all B
rows; the posteriors are formed afterwards, a block of POSTERIOR_BLOCK
steps at a time. Memory per row is the states of both recursions
(2*(T+1)*S floats) and the posteriors (T*Q); besides, the call holds one
block of branch metrics per direction (B*POSTERIOR_BLOCK*S*Q floats
each), never the T*S*Q of a whole row. rows_per_call says how many rows
fit where one row holding all its branch metrics would.
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


POSTERIOR_BLOCK = 256  # steps per block of branch metrics and of posteriors
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


def rows_per_call(trellis: Trellis) -> int:
    """Rows one bcjr_app call may stack and hold no more floats per use
    than one row holding all its branch metrics would.

    A call over B rows holds B*(2S + Q) floats per use (the states of both
    recursions and the posteriors) beside its fixed blocks of branch
    metrics; one row holding all its branch metrics would hold
    S*Q + 2S + Q. The largest such B is 3 at two or more taps (S >= Q) and
    1 at a single tap (S = 1).
    """
    s, q = trellis.n_states, trellis.levels.size
    return (s * q + 2 * s + q) // (2 * s + q)


def _branch_metrics(y: np.ndarray, trellis: Trellis, scale: np.ndarray,
                    out: np.ndarray) -> None:
    """Write the gaussian branch log-likelihoods of y to out.

    y is (n, B), time-major; scale holds -0.5/noise_var per row; out is
    (n, B, S*Q). Every element is formed by the same three operations
    whatever the block, so forming a step twice gives the same floats.
    """
    np.subtract(y[:, :, None], trellis.branch_mean, out=out)
    np.square(out, out=out)
    np.multiply(out, scale[:, None], out=out)


def bcjr_app(y: np.ndarray, trellis: Trellis, noise_var):
    """Exact symbol-wise log-APPs over an ISI trellis (log-domain BCJR).

    y is (B, T): B independent observation sequences of T uses each,
    detected together; noise_var is the white-noise variance of each row
    (a scalar applies to every row). Symbols are equiprobable. Returns a
    (B, T, Q) array of log posteriors normalized per symbol; row r equals
    what a call on y[r:r + 1] alone returns, bit for bit.

    Branch b = p*Q + s (state p, symbol s) leads to state
    Q*(p mod L) + s with L = S/Q (1 without memory). One loop of T steps
    runs both recursions of every row: step k takes alpha_k to
    alpha_{k+1} and beta_{T-k} to beta_{T-k-1} with one log-sum-exp over
    axis 2 of a (B, 2, Q, S) buffer. Its forward half is the step's
    (S, Q) branches seen as (Q, S), so a column holds the branches into
    one state. Its backward half is the branches transposed to [symbol,
    prev state], with prev state split as (S/L, L), so beta of the next
    state is a (Q, 1, L) broadcast of beta seen as (L, Q). Neither half
    gathers. Branch metrics are formed a block of POSTERIOR_BLOCK steps
    at a time, for each direction in the loop and again for the
    posteriors after it; all T of them are never held at once.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"y must be (rows, uses), got shape {y.shape}")
    rows, t_len = y.shape
    scale = -0.5 / np.broadcast_to(np.asarray(noise_var, dtype=np.float64), (rows,))
    q = trellis.levels.size
    ns = trellis.n_states
    lead = max(ns // q, 1)
    by_next, beta_view = (ns // lead, lead, q), (lead, ns // lead)
    x = np.empty((rows, 2, q, ns))  # one step of both recursions, reused in place
    fwd = x.reshape(rows, 2, ns, q)[:, 0]
    bwd = x.reshape(rows, 2, q, ns // lead, lead)[:, 1]
    mx = np.empty((rows, 2, 1, ns))

    # st[k, r] holds (alpha_k, beta_{T-k}) of row r: state 0 at the start,
    # any at the end
    st = np.full((t_len + 1, rows, 2, ns), -np.inf)
    st[0, :, 0, 0] = 0.0
    st[0, :, 1] = 0.0
    b_bwd = (st[:, :, 1].reshape((t_len + 1, rows) + beta_view)
             .transpose(0, 1, 3, 2)[:, :, :, None])
    block = POSTERIOR_BLOCK
    g_fwd = np.empty((block, rows, ns, q))
    g_bwd = np.empty((block, rows, ns, q))
    # the backward half's steps: branches as [symbol, prev state (S/L, L)]
    h_bwd = g_bwd.transpose(0, 1, 3, 2).reshape(block, rows, q, ns // lead, lead)
    yt = y.T
    with np.errstate(divide="ignore"):
        for t0 in range(0, t_len, block):
            n = min(block, t_len - t0)
            _branch_metrics(yt[t0:t0 + n], trellis, scale,
                            g_fwd[:n].reshape(n, rows, ns * q))
            # steps t0.. of the backward recursion run times T-1-t0 down
            _branch_metrics(yt[t_len - t0 - n:t_len - t0][::-1], trellis, scale,
                            g_bwd[:n].reshape(n, rows, ns * q))
            for g, a, h, b, s_next in zip(g_fwd[:n], st[t0:t0 + n, :, 0, :, None],
                                          h_bwd[:n], b_bwd[t0:t0 + n],
                                          st[t0 + 1:t0 + n + 1, :, :, None]):
                np.add(g, a, out=fwd)
                np.add(h, b, out=bwd)
                _logsumexp(x, 2, s_next, mx)

        alphas, betas = st[:, :, 0], st[::-1, :, 1]  # [t]: at time t
        out = np.empty((rows, t_len, q))
        for t0 in range(0, t_len, block):
            n = min(block, t_len - t0)
            blk = g_fwd[:n]
            _branch_metrics(yt[t0:t0 + n], trellis, scale,
                            blk.reshape(n, rows, ns * q))
            np.add(blk, alphas[t0:t0 + n, :, :, None], out=blk)
            four = blk.reshape((n, rows) + by_next)
            np.add(four, betas[t0 + 1:t0 + n + 1].reshape((n, rows, 1) + beta_view),
                   out=four)
            post = np.empty((n, rows, 1, q))
            _logsumexp(blk, 2, post, np.empty((n, rows, 1, q)))
            norm = np.empty((n, rows, 1, 1))
            _logsumexp(post.copy(), 3, norm, np.empty((n, rows, 1, 1)))
            np.subtract(post, norm,
                        out=out[:, t0:t0 + n, None].transpose(1, 0, 2, 3))
    return out
