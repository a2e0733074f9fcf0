"""Receiver DSP: symbol-wise BCJR detection over a known ISI trellis.

Links with residual inter-symbol interference (the ``fir_isi`` channel)
are detected by an exact log-domain BCJR over the channel taps and the
PAM-6 levels; its per-symbol level posteriors feed the rate estimators.

Cost of one ``bcjr_app`` call on B rows of T observations over S states
and Q symbols: O(T) Python steps of one stacked (B, 2, Q, S) log-sum-exp
each, which advance the forward and the backward recursion of every row
together, so the per-step numpy call overhead is paid once for all B
rows. The two recursions meet in the middle: the first T/2 steps store
their states, and the other T/2 form the posteriors from each
recursion's live states and the other's stored ones, handing them to the
caller block by block. Memory per row is the stored states, 2S floats
for each of T/2 steps (T*S); besides, the call holds one block of branch
metrics per direction (B*POSTERIOR_BLOCK*S*Q floats each), one block of
rolling states and one block of posteriors per side (B*HAND_OVER*Q
floats each), never the T*S*Q branch metrics or the T*Q posteriors of a
whole row.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import check_noise_var
from .constellation import LEVELS, normalize


@dataclass(frozen=True)
class Trellis:
    """Branch means of the ISI trellis over the Q = 6 PAM-6 levels.

    A state holds the last len(taps) - 1 symbol indices base Q; branch
    b = prev_state*Q + symbol leads to state (Q*prev_state + symbol) mod
    n_states. The channel is assumed quiescent (level-0 amplitude) before
    the burst, so the initial state is 0; the terminal distribution is left
    uniform.
    """
    n_states: int
    branch_mean: np.ndarray = field(repr=False)


def make_trellis(taps) -> Trellis:
    """The trellis of FIR taps over the normalized levels normalize(LEVELS)."""
    taps = np.asarray(taps, dtype=np.float64).ravel()
    if taps.size == 0:
        raise ValueError(f"need at least one tap, got taps {taps.tolist()}")
    levels = normalize(LEVELS)
    q = levels.size
    n_states = q**(taps.size - 1)
    b = np.arange(n_states * q)
    mean = taps[0] * levels[b % q]
    digits = b // q
    for tap in taps[1:]:
        mean = mean + tap * levels[digits % q]
        digits = digits // q
    return Trellis(n_states=n_states, branch_mean=mean)


POSTERIOR_BLOCK = 256  # steps per block of branch metrics and of states
# uses per block of posteriors that each side of the second half hands to
# consume: fewer, larger blocks keep the consumer's per-call cost down
HAND_OVER = 2 * POSTERIOR_BLOCK
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


def _branch_metrics(y: np.ndarray, trellis: Trellis, scale: float,
                    out: np.ndarray) -> None:
    """Write the gaussian branch log-likelihoods of y to out.

    y is (n, B), time-major; scale is -0.5/noise_var; out is (n, B, S*Q).
    Every element is formed by the same three operations whatever the
    block, so forming a step twice gives the same floats.
    """
    np.subtract(y[:, :, None], trellis.branch_mean, out=out)
    np.square(out, out=out)
    np.multiply(out, scale, out=out)


def _meeting_step(t_len: int) -> int:
    """H, the step where bcjr_app's two recursions meet: the least step at
    or past T/2 that is even when T is, so that every block bound is."""
    h = (t_len + 1) // 2
    if t_len % 2 == 0 and h % 2:
        h += 1
    return h


def _posteriors(g: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                by_next: tuple, beta_view: tuple, out: np.ndarray) -> None:
    """Write the normalized log posteriors of n steps to out, (n, B, 1, Q).

    g is the steps' (n, B, S, Q) branch metrics, overwritten; alpha holds
    the (n, B, S) forward states at the steps and beta the backward states
    one step later, both in g's step order. A posterior adds
    (metric + alpha) + beta and reduces over the previous state, then over
    the symbols for its normalizer, so each step's floats do not depend on
    the block it is formed in.
    """
    n, rows, _, q = g.shape
    np.add(g, alpha[..., None], out=g)
    four = g.reshape((n, rows) + by_next)
    np.add(four, beta.reshape((n, rows, 1) + beta_view), out=four)
    norm = np.empty((n, rows, 1, 1))
    with np.errstate(divide="ignore"):
        _logsumexp(g, 2, out, np.empty((n, rows, 1, q)))
        _logsumexp(out.copy(), 3, norm, np.empty((n, rows, 1, 1)))
    np.subtract(out, norm, out=out)


def bcjr_app(y: np.ndarray, trellis: Trellis, noise_var: float, consume) -> None:
    """Exact symbol-wise log-APPs over an ISI trellis (log-domain BCJR),
    handed to consume a block of steps at a time.

    y is (B, T): B independent observation sequences of T uses each,
    detected together at the one white-noise variance noise_var. Symbols
    are equiprobable. Each block goes to consume(t0, post): post is
    (B, n, Q), the log posteriors of uses t0..t0+n-1 normalized per
    symbol, and valid during the call only. The blocks do not overlap and
    cover [0, T) once, in no particular order; when T is even every block
    bound is even, so no 2D point is split. Row r of every block equals
    what a call on y[r:r + 1] alone hands over, bit for bit.

    Branch b = p*Q + s (state p, symbol s) leads to state
    Q*(p mod L) + s with L = S/Q (1 without memory). One loop runs both
    recursions of every row: step k takes alpha_k to alpha_{k+1} and
    beta_{T-k} to beta_{T-k-1} with one log-sum-exp over axis 2 of a
    (B, 2, Q, S) buffer. Its forward half is the step's (S, Q) branches
    seen as (Q, S), so a column holds the branches into one state. Its
    backward half is the branches transposed to [symbol, prev state],
    with prev state split as (S/L, L), so beta of the next state is a
    (Q, 1, L) broadcast of beta seen as (L, Q). Neither half gathers.

    The posterior of use t needs alpha_t and beta_{t+1} only. The first H
    steps (H = _meeting_step(T), about T/2) store (alpha_k, beta_{T-k});
    then the uses T-H..H-1, which both stored halves cover, are formed.
    The other T-H steps keep both recursions going on a rolling block of
    POSTERIOR_BLOCK states, and each block of live states meets the stored
    states of the other direction: the forward side forms uses H..T-1, the
    backward side uses T-H-1 down to 0, and each side hands its posteriors
    over HAND_OVER uses at a time. Branch metrics are formed a block at a
    time per direction, and in the second half the posteriors are formed
    in place on the blocks the recursions just used.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"y must be (rows, uses), got shape {y.shape}")
    noise_var = float(noise_var)
    check_noise_var(noise_var)
    rows, t_len = y.shape
    scale = -0.5 / noise_var
    q = len(LEVELS)
    ns = trellis.n_states
    lead = max(ns // q, 1)
    by_next, beta_view = (ns // lead, lead, q), (lead, ns // lead)
    x = np.empty((rows, 2, q, ns))  # one step of both recursions, reused in place
    fwd = x.reshape(rows, 2, ns, q)[:, 0]
    bwd = x.reshape(rows, 2, q, ns // lead, lead)[:, 1]
    mx = np.empty((rows, 2, 1, ns))
    block = POSTERIOR_BLOCK
    g_fwd = np.empty((block, rows, ns, q))
    g_bwd = np.empty((block, rows, ns, q))
    # the backward half's steps: branches as [symbol, prev state (S/L, L)]
    h_bwd = g_bwd.transpose(0, 1, 3, 2).reshape(block, rows, q, ns // lead, lead)
    yt = y.T

    def advance(t0, states):
        """Run steps t0.. of both recursions from states[0] into
        states[1:], leaving their branch metrics in g_fwd and g_bwd."""
        n = len(states) - 1
        _branch_metrics(yt[t0:t0 + n], trellis, scale,
                        g_fwd[:n].reshape(n, rows, ns * q))
        # steps t0.. of the backward recursion run times T-1-t0 down
        _branch_metrics(yt[t_len - t0 - n:t_len - t0][::-1], trellis, scale,
                        g_bwd[:n].reshape(n, rows, ns * q))
        b_bwd = (states[:, :, 1].reshape((n + 1, rows) + beta_view)
                 .transpose(0, 1, 3, 2)[:, :, :, None])
        with np.errstate(divide="ignore"):
            for g, a, h, b, s_next in zip(g_fwd[:n], states[:n, :, 0, :, None],
                                          h_bwd[:n], b_bwd, states[1:, :, :, None]):
                np.add(g, a, out=fwd)
                np.add(h, b, out=bwd)
                _logsumexp(x, 2, s_next, mx)

    half = _meeting_step(t_len)
    # st[k, r] holds (alpha_k, beta_{T-k}) of row r for k <= H: state 0 at
    # the start, any at the end
    st = np.full((half + 1, rows, 2, ns), -np.inf)
    st[0, :, 0, 0] = 0.0
    st[0, :, 1] = 0.0
    for t0 in range(0, half, block):
        advance(t0, st[t0:min(t0 + block, half) + 1])
    if 2 * half > t_len:  # uses T-H..H-1, whose states are all stored
        t0, n = t_len - half, 2 * half - t_len
        _branch_metrics(yt[t0:half], trellis, scale,
                        g_fwd[:n].reshape(n, rows, ns * q))
        s = st[t0:half]
        post = np.empty((rows, n, q))
        _posteriors(g_fwd[:n], s[:, :, 0], s[::-1, :, 1], by_next, beta_view,
                    post.transpose(1, 0, 2)[:, :, None])
        consume(t0, post)

    roll = np.empty((block + 1, rows, 2, ns))  # (alpha_k, beta_{T-k}) from k0 on
    roll[0] = st[half]
    # the forward side fills f_post from the start, uses k0 - j on; the
    # backward side fills b_post from the end, uses T-1-k0+j down
    f_post = np.empty((rows, HAND_OVER, q))
    b_post = np.empty((rows, HAND_OVER, q))
    f_out = f_post.transpose(1, 0, 2)[:, :, None]
    b_out = b_post[:, ::-1].transpose(1, 0, 2)[:, :, None]
    for k0 in range(half, t_len, block):
        n = min(block, t_len - k0)
        j = (k0 - half) % HAND_OVER
        advance(k0, roll[:n + 1])
        s = st[t_len - k0 - n:t_len - k0][::-1]  # at uses k0.. and T-1-k0..
        _posteriors(g_fwd[:n], roll[:n, :, 0], s[:, :, 1], by_next, beta_view,
                    f_out[j:j + n])
        _posteriors(g_bwd[:n], s[:, :, 0], roll[:n, :, 1], by_next, beta_view,
                    b_out[j:j + n])
        roll[0] = roll[n]
        if j + n == HAND_OVER or k0 + n == t_len:
            consume(k0 - j, f_post[:, :j + n])
            consume(t_len - k0 - n, b_post[:, HAND_OVER - j - n:])
