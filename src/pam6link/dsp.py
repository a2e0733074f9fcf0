"""Receiver DSP: symbol-wise BCJR detection over a known ISI trellis.

Links with residual inter-symbol interference (the ``fir_isi`` channel)
are detected by an exact log-domain BCJR over the channel taps; its
per-symbol level posteriors feed the rate estimators.
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
    in_order: np.ndarray = field(repr=False)  # branches sorted by next state


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
    in_order = np.argsort(nxt, kind="stable")
    return Trellis(
        taps=taps, levels=levels, memory=memory, n_states=n_states,
        branch_mean=mean, branch_sym=sym, next_state=nxt, in_order=in_order,
    )


def bcjr_app(
    y: np.ndarray,
    trellis: Trellis,
    noise_var: float,
    log_priors: np.ndarray = None,
):
    """Exact symbol-wise log-APPs over an ISI trellis (log-domain BCJR).

    y are the observations, noise_var the white-noise variance, log_priors
    an optional (T, Q) or (Q,) array of symbol log priors. Returns a (T, Q)
    array of log posteriors normalized per symbol.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    q = trellis.levels.size
    t_len = y.size
    ns = trellis.n_states
    if log_priors is None:
        lp = np.zeros((t_len, q))
    else:
        lp = np.asarray(log_priors, dtype=np.float64)
        lp = np.broadcast_to(lp, (t_len, q)) if lp.ndim == 1 else lp
        if lp.shape != (t_len, q):
            raise ValueError(f"log_priors shape {lp.shape} != ({t_len}, {q})")
    prev = np.arange(ns * q) // q
    gamma_gain = -0.5 / noise_var
    # branch metrics per step: gaussian log-likelihood plus symbol prior
    alphas = np.empty((t_len + 1, ns))
    alphas[0] = -np.inf
    alphas[0, 0] = 0.0
    sym = trellis.branch_sym
    mean = trellis.branch_mean
    in_order = trellis.in_order
    metrics = np.empty((t_len, ns * q))
    for t in range(t_len):
        g = gamma_gain * (y[t] - mean) ** 2 + lp[t, sym]
        metrics[t] = g
        m = alphas[t, prev] + g
        grouped = m[in_order].reshape(ns, q)
        mx = grouped.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = mx + np.log(np.exp(grouped - mx[:, None]).sum(axis=1))
        nxt[~np.isfinite(mx)] = -np.inf
        alphas[t + 1] = nxt
    beta = np.zeros(ns)
    out = np.empty((t_len, q))
    nxt_state = trellis.next_state
    for t in range(t_len - 1, -1, -1):
        joint = alphas[t, prev] + metrics[t] + beta[nxt_state]
        by_sym = joint.reshape(ns, q)  # branch id = prev*q + sym
        mx = by_sym.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            post = mx + np.log(np.exp(by_sym - mx[None, :]).sum(axis=0))
        post[~np.isfinite(mx)] = -np.inf
        norm = post.max()
        norm = norm + np.log(np.exp(post - norm).sum())
        out[t] = post - norm
        # step beta: beta_prev[s] = lse over branches out of s
        m = metrics[t] + beta[nxt_state]
        grouped = m.reshape(ns, q)
        mx = grouped.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            newb = mx + np.log(np.exp(grouped - mx[:, None]).sum(axis=1))
        newb[~np.isfinite(mx)] = -np.inf
        beta = newb
    return out
