"""Quasi-cyclic LDPC codes lifted from a plain-text base graph.

The base graph has kb = 10 systematic block-columns and an accumulator-chain
parity part, so encoding is forward substitution over the lifted blocks. Rate
matching for a requested (codelength n, rate k/n):

    Z       = ceil(K / kb)          lift size
    shorten = kb*Z - K              trailing systematic bits fixed to zero
    m_use   = ceil((n - K) / Z)     base rows actually used
    punct_parity = m_use*Z - (n - K)    parity-chain tail positions removed

The parity tail is removed rather than punctured: a tail bit of the
accumulator chain appears in exactly one check, so deleting the (variable,
check) pair leaves the code projected on transmitted bits unchanged while
sparing the decoder erasures whose single check could never contribute.

Every systematic bit is transmitted, so a codeword goes out as (data,
parity) in order: the layout the sign-bit amplitude-shaping chain needs,
where parity bits pick symbol signs.

Decoding is normalized min-sum (factor 0.75) with early stop on a zero
syndrome, vectorized over the edge list.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

NORM_FACTOR = 0.75
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class BaseGraph:
    kb: int
    mb: int
    zmin: int
    version: int
    shifts: np.ndarray  # (mb, kb+mb), -1 marks an absent block


def load_basegraph(path=None) -> BaseGraph:
    """Parse a base-graph file; default is the packaged basegraph_v1.txt."""
    if path is None:
        ref = importlib.resources.files("pam6link.fec") / "data/basegraph_v1.txt"
        text = ref.read_text()
    else:
        with open(path) as f:
            text = f.read()
    rows = []
    header = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = [int(tok) for tok in line.split()]
        except ValueError as e:
            raise ValueError(f"base graph line {ln}: {e}") from None
        if header is None:
            if len(vals) != 4:
                raise ValueError(f"base graph line {ln}: header needs 4 ints")
            header = vals
        else:
            rows.append(vals)
    if header is None:
        raise ValueError("base graph file has no header line")
    kb, mb, zmin, version = header
    shifts = np.array(rows, dtype=np.int64)
    if shifts.shape != (mb, kb + mb):
        raise ValueError(
            f"base graph shape {shifts.shape} != ({mb}, {kb + mb})"
        )
    for r in range(mb):
        if shifts[r, kb + r] != 0 or (r > 0 and shifts[r, kb + r - 1] != 0):
            raise ValueError("parity part is not an accumulator chain")
    return BaseGraph(kb=kb, mb=mb, zmin=zmin, version=version, shifts=shifts)


@dataclass(frozen=True)
class LdpcCode:
    n: int                 # codeword bits: data, then parity
    k: int                 # systematic (data) bits
    z: int
    m_use: int
    shorten: int
    punct_parity: int
    graph: BaseGraph = field(repr=False)
    check_idx: np.ndarray = field(repr=False)   # edge -> check, check-sorted
    var_idx: np.ndarray = field(repr=False)     # edge -> variable
    check_ptr: np.ndarray = field(repr=False)   # segment starts per check
    var_perm: np.ndarray = field(repr=False)    # check-order -> var-order
    var_ptr: np.ndarray = field(repr=False)

    @property
    def n_checks(self) -> int:
        return self.m_use * self.z - self.punct_parity

    @property
    def rate(self) -> float:
        return self.k / self.n


def ldpc_build(codelength: int, rate: float, basegraph: BaseGraph = None) -> LdpcCode:
    """Rate-match the base graph to (codelength, rate) and lift it."""
    bg = basegraph if basegraph is not None else load_basegraph()
    k_exact = codelength * rate
    k = int(round(k_exact))
    if abs(k_exact - k) > 1e-6:
        raise ValueError(f"rate {rate} * length {codelength} is not an integer")
    if not 0 < k < codelength:
        raise ValueError(f"need 0 < k < n, got k={k}, n={codelength}")
    z = -(-k // bg.kb)
    if z < 2:
        raise ValueError(f"lift size {z} too small")
    shorten = bg.kb * z - k
    parity_tx = codelength - k
    m_use = -(-parity_tx // z)
    if m_use > bg.mb:
        raise ValueError(
            f"rate {rate} needs {m_use} base rows, graph has {bg.mb}"
        )
    punct_parity = m_use * z - parity_tx

    # lifted edge list over active variables (shortened columns dropped);
    # layout: systematic 0..k, parity chain k..k+m_use*z
    checks = []
    vars_ = []
    t = np.arange(z)
    for r in range(m_use):
        for c in range(bg.kb + m_use):
            s = bg.shifts[r, c]
            if s < 0:
                continue
            if c < bg.kb:
                v = c * z + (t + s) % z
                keep = v < k
                checks.append(r * z + t[keep])
                vars_.append(v[keep])
            else:
                checks.append(r * z + t)
                vars_.append(k + (c - bg.kb) * z + t)
    check_idx = np.concatenate(checks)
    var_idx = np.concatenate(vars_)
    # remove the chain tail: the last punct_parity checks and their
    # degree-1 parity variables (their edges all sit in removed checks)
    n_checks = m_use * z - punct_parity
    keep = check_idx < n_checks
    check_idx = check_idx[keep]
    var_idx = var_idx[keep]
    order = np.lexsort((var_idx, check_idx))
    check_idx = check_idx[order]
    var_idx = var_idx[order]
    counts = np.bincount(check_idx, minlength=n_checks)
    if counts.min() < 2:
        raise ValueError("rate matching produced a check of degree < 2")
    check_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    var_perm = np.argsort(var_idx, kind="stable")
    vcounts = np.bincount(var_idx, minlength=k + n_checks)
    if vcounts.min() < 1:
        raise ValueError("rate matching left an unconnected variable")
    var_ptr = np.concatenate([[0], np.cumsum(vcounts)]).astype(np.int64)
    return LdpcCode(
        n=codelength, k=k, z=z, m_use=m_use, shorten=shorten,
        punct_parity=punct_parity, graph=bg,
        check_idx=check_idx, var_idx=var_idx, check_ptr=check_ptr,
        var_perm=var_perm, var_ptr=var_ptr,
    )


def ldpc_encode(data: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Systematic encode; returns the transmitted word (data, parity chain).

    The parity chain solves each block row by forward substitution (all
    parity shifts are zero).
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    if data.size != code.k:
        raise ValueError(f"expected {code.k} data bits, got {data.size}")
    z = code.z
    bg = code.graph
    u = np.concatenate([data, np.zeros(code.shorten, dtype=np.uint8)])
    blocks = u.reshape(bg.kb, z)
    parity = np.zeros((code.m_use, z), dtype=np.uint8)
    prev = np.zeros(z, dtype=np.uint8)
    for r in range(code.m_use):
        acc = prev.copy()
        for c in range(bg.kb):
            s = bg.shifts[r, c]
            if s >= 0:
                acc ^= np.roll(blocks[c], -int(s))
        parity[r] = acc
        prev = acc
    # the chain tail beyond n_checks was removed from the graph
    p = parity.ravel()[: code.m_use * z - code.punct_parity]
    return np.concatenate([data, p])


def ldpc_syndrome(codeword: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-check parity of a codeword."""
    cw = np.asarray(codeword, dtype=np.uint8).ravel()
    if cw.size != code.n:
        raise ValueError(f"expected {code.n} bits, got {cw.size}")
    return np.bitwise_xor.reduceat(cw[code.var_idx], code.check_ptr[:-1])


def ldpc_decode(
    llrs: np.ndarray,
    code: LdpcCode,
    max_iter: int = DEFAULT_MAX_ITER,
    norm: float = NORM_FACTOR,
):
    """Normalized min-sum decode of per-codeword-bit channel LLRs.

    LLRs follow log(P(bit=0)/P(bit=1)). Returns (data_bits, converged,
    iterations); iterations counts message-passing rounds actually run.
    """
    channel = np.asarray(llrs, dtype=np.float64).ravel()
    if channel.size != code.n:
        raise ValueError(f"expected {code.n} channel LLRs, got {channel.size}")
    total = channel
    starts = code.check_ptr[:-1]
    vstarts = code.var_ptr[:-1]
    vidx = code.var_idx
    cidx = code.check_idx
    c2v = np.zeros(vidx.size, dtype=np.float64)
    converged = False
    iters = 0
    for _ in range(max_iter):
        hard = (total < 0).astype(np.uint8)
        if not np.bitwise_xor.reduceat(hard[vidx], starts).any():
            converged = True
            break
        iters += 1
        v2c = total[vidx] - c2v
        sbit = (v2c < 0).astype(np.uint8)
        mags = np.abs(v2c)
        m1 = np.minimum.reduceat(mags, starts)
        m1e = m1[cidx]
        eq = np.flatnonzero(mags == m1e)
        first = np.ones(eq.size, dtype=bool)
        first[1:] = cidx[eq[1:]] != cidx[eq[:-1]]
        argmin_edges = eq[first]
        mags_ex = mags.copy()
        mags_ex[argmin_edges] = np.inf
        m2 = np.minimum.reduceat(mags_ex, starts)
        mag_out = m1e.copy()
        mag_out[argmin_edges] = m2[cidx[argmin_edges]]
        sprod = np.bitwise_xor.reduceat(sbit, starts)
        sign_out = sprod[cidx] ^ sbit
        c2v = norm * np.where(sign_out == 0, mag_out, -mag_out)
        total = channel + np.add.reduceat(c2v[code.var_perm], vstarts)
    else:
        hard = (total < 0).astype(np.uint8)
        converged = not np.bitwise_xor.reduceat(hard[vidx], starts).any()
    return hard[: code.k], converged, iters


def write_alist(code: LdpcCode) -> str:
    """Serialize the rate-matched parity-check matrix in alist text format."""
    nvar = code.n
    ncheck = code.n_checks
    vdeg = np.diff(code.var_ptr)
    cdeg = np.diff(code.check_ptr)
    lines = [f"{nvar} {ncheck}", f"{vdeg.max()} {cdeg.max()}"]
    lines.append(" ".join(str(d) for d in vdeg))
    lines.append(" ".join(str(d) for d in cdeg))
    checks_by_var = code.check_idx[code.var_perm]
    for v in range(nvar):
        row = checks_by_var[code.var_ptr[v] : code.var_ptr[v + 1]] + 1
        pad = [0] * (vdeg.max() - row.size)
        lines.append(" ".join(str(x) for x in list(row) + pad))
    for c in range(ncheck):
        row = code.var_idx[code.check_ptr[c] : code.check_ptr[c + 1]] + 1
        pad = [0] * (cdeg.max() - row.size)
        lines.append(" ".join(str(x) for x in list(row) + pad))
    return "\n".join(lines) + "\n"


def read_alist(text: str):
    """Parse alist text; returns (n_var, n_check, check_idx, var_idx) sorted
    by (check, var) for comparison against a built code."""
    toks = text.split()
    pos = 0

    def take(count):
        nonlocal pos
        vals = [int(t) for t in toks[pos : pos + count]]
        if len(vals) != count:
            raise ValueError("alist truncated")
        pos += count
        return vals

    nvar, ncheck = take(2)
    max_v, max_c = take(2)
    vdeg = take(nvar)
    cdeg = take(ncheck)
    edges = []
    for v in range(nvar):
        row = take(max_v)
        got = [x for x in row if x != 0]
        if len(got) != vdeg[v]:
            raise ValueError(f"alist variable {v}: degree mismatch")
        for c in got:
            edges.append((c - 1, v))
    for c in range(ncheck):
        row = take(max_c)
        got = [x for x in row if x != 0]
        if len(got) != cdeg[c]:
            raise ValueError(f"alist check {c}: degree mismatch")
    edges.sort()
    check_idx = np.array([e[0] for e in edges], dtype=np.int64)
    var_idx = np.array([e[1] for e in edges], dtype=np.int64)
    return nvar, ncheck, check_idx, var_idx
