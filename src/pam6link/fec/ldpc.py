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
where parity bits pick symbol signs. Encoding XORs the data bits of each
check over the edge list (the partial syndrome) and accumulates it down the
block rows of the parity chain.

Decoding is normalized min-sum (factor 0.75) with early stop on a zero
syndrome (Chen & Fossorier, IEEE Trans. Commun. 2002). It runs on a dense
edge layout built once per code:

    check_vars (dc, n_checks)  variable of each check's j-th edge, edges in
                               (check, variable) order; a check of degree
                               below dc is padded with n, an extra LLR slot
                               that holds +inf
    var_slots  (dv, n)         flat check_vars slot of each variable's j-th
                               edge, in check order; missing edges point to
                               one extra message slot that holds 0

A padded edge reads v2c = +inf - c2v. That is +inf, which changes no
minimum, unless the check's minimum was infinite the round before; then
every real edge of the check got an infinite message, which its total also
holds, so each reads NaN and the padded edge changes nothing either.

Each iteration is one gather of the totals through check_vars (feeding both
the syndrome and v2c), column reductions for the sign parity and the two
smallest magnitudes, one gather of the messages through var_slots and a row
sum: about twenty numpy calls on (dc, n_checks) and (dv, n) arrays, some
0.12 ms for the codes of 1000-symbol frames (one core of a 2-vCPU x86 VM,
numpy 2.4). Tie rule: every edge
of a check gets the minimum m1, except an edge that is the check's only
minimum, which gets the second minimum m2; so a tied minimum gives every
edge m1. Each variable adds its messages as a0 + (a1 + a2 + ...) in check
order, the association np.add.reduceat uses for degrees up to 8, so the
results equal an edge-list (reduceat) min-sum bit for bit at every variable
degree the packaged graph produces.
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
    check_vars: np.ndarray = field(repr=False)  # (dc, n_checks), pad n
    var_slots: np.ndarray = field(repr=False)   # (dv, n), pad check_vars.size

    @property
    def n_checks(self) -> int:
        return self.m_use * self.z - self.punct_parity

    @property
    def rate(self) -> float:
        return self.k / self.n


def rate_match(bg: BaseGraph, codelength: int, k: int) -> tuple[int, int]:
    """Lift size z and base rows m_use for k data bits in a codelength word.

    Raises ValueError when the base graph cannot carry the code: a lift
    below 2, less parity than one lifted row (the removed chain tail would
    take the only check of some data bits), or more than its mb rows hold.
    """
    z = -(-k // bg.kb)
    if z < 2:
        raise ValueError(f"{k} data bits give lift size {z}; the graph needs at least 2")
    if codelength - k < z:
        raise ValueError(
            f"rate {k}/{codelength} leaves {codelength - k} parity bits, "
            f"fewer than one lifted row of {z}")
    m_use = -(-(codelength - k) // z)
    if m_use > bg.mb:
        raise ValueError(f"rate {k}/{codelength} needs {m_use} base rows, graph has {bg.mb}")
    return z, m_use


def ldpc_build(codelength: int, rate: float, basegraph: BaseGraph = None) -> LdpcCode:
    """Rate-match the base graph to (codelength, rate) and lift it."""
    bg = basegraph if basegraph is not None else load_basegraph()
    k_exact = codelength * rate
    k = int(round(k_exact))
    if abs(k_exact - k) > 1e-6:
        raise ValueError(f"rate {rate} * length {codelength} is not an integer")
    if not 0 < k < codelength:
        raise ValueError(f"need 0 < k < n, got k={k}, n={codelength}")
    z, m_use = rate_match(bg, codelength, k)
    shorten = bg.kb * z - k
    parity_tx = codelength - k
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
    # dense decoder layout (module docstring): edge e is row crow[e] of its
    # check's column and row vrow[var_perm[e]] of its variable's column
    crow = np.arange(var_idx.size) - np.repeat(check_ptr[:-1], counts)
    check_vars = np.full((counts.max(), n_checks), codelength, dtype=np.intp)
    check_vars[crow, check_idx] = var_idx
    slots = crow * n_checks + check_idx
    vrow = np.arange(var_idx.size) - np.repeat(var_ptr[:-1], vcounts)
    var_slots = np.full((vcounts.max(), codelength), check_vars.size,
                        dtype=np.intp)
    var_slots[vrow, var_idx[var_perm]] = slots[var_perm]
    return LdpcCode(
        n=codelength, k=k, z=z, m_use=m_use, shorten=shorten,
        punct_parity=punct_parity, graph=bg,
        check_idx=check_idx, var_idx=var_idx, check_ptr=check_ptr,
        var_perm=var_perm, var_ptr=var_ptr, check_vars=check_vars,
        var_slots=var_slots,
    )


def ldpc_encode(data: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Systematic encode; returns the transmitted word (data, parity chain).

    Check r*z + t of block row r sums its data bits (the partial syndrome)
    with parity bits t of rows r and r - 1 (all parity shifts are zero), so
    the parity rows are the running XOR of the partial-syndrome rows.
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    if data.size != code.k:
        raise ValueError(f"expected {code.k} data bits, got {data.size}")
    word = np.zeros(code.n, dtype=np.uint8)
    word[: code.k] = data
    partial = np.zeros(code.m_use * code.z, dtype=np.uint8)
    partial[: code.n_checks] = ldpc_syndrome(word, code)
    parity = np.bitwise_xor.accumulate(partial.reshape(code.m_use, code.z))
    # the chain tail beyond n_checks was removed from the graph
    word[code.k:] = parity.ravel()[: code.n_checks]
    return word


def ldpc_syndrome(codeword: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-check parity of a codeword."""
    cw = np.asarray(codeword, dtype=np.uint8).ravel()
    if cw.size != code.n:
        raise ValueError(f"expected {code.n} bits, got {cw.size}")
    return np.bitwise_xor.reduceat(cw[code.var_idx], code.check_ptr[:-1])


def ldpc_decode(llrs: np.ndarray, code: LdpcCode, max_iter: int = DEFAULT_MAX_ITER):
    """Normalized min-sum decode of per-codeword-bit channel LLRs.

    LLRs follow log(P(bit=0)/P(bit=1)). Returns (data_bits, converged,
    iterations); iterations counts message-passing rounds actually run.
    """
    channel = np.asarray(llrs, dtype=np.float64).ravel()
    if channel.size != code.n:
        raise ValueError(f"expected {code.n} channel LLRs, got {channel.size}")
    check_vars = code.check_vars
    # totals, then the +inf slot padded check edges read
    total = np.append(channel, np.inf)
    # check-to-variable messages, then the zero slot missing edges read
    c2v = np.zeros(check_vars.size + 1)
    c2v_edges = c2v[:-1].reshape(check_vars.shape)
    converged = False
    iters = 0
    for _ in range(max_iter):
        v2c = total[check_vars]
        if not np.bitwise_xor.reduce(v2c < 0, axis=0).any():
            converged = True
            break
        iters += 1
        v2c -= c2v_edges
        negative = v2c < 0
        mags = np.abs(v2c, out=v2c)
        m1 = mags.min(axis=0)
        is_min = mags == m1
        m2 = np.where(is_min, np.inf, mags).min(axis=0)
        # a tied minimum is every edge's minimum over the other edges
        tied = np.add.reduce(is_min.view(np.uint8), axis=0, dtype=np.uint16) > 1
        np.copyto(m2, m1, where=tied)
        mag = np.where(is_min, NORM_FACTOR * m2, NORM_FACTOR * m1)
        flip = np.bitwise_xor.reduce(negative, axis=0) ^ negative
        # -(f*m) == f*(-m): the sign goes on by the float sign bit
        np.bitwise_xor(mag.view(np.uint64),
                       np.left_shift(flip, 63, dtype=np.uint64),
                       out=c2v_edges.view(np.uint64))
        msgs = c2v[code.var_slots]
        # a0 + (a1 + a2 + ...), the association of np.add.reduceat
        incoming = msgs[1:].sum(axis=0)
        incoming += msgs[0]
        np.add(channel, incoming, out=total[:-1])
    else:
        converged = not np.bitwise_xor.reduce(total[check_vars] < 0, axis=0).any()
    return (total[: code.k] < 0).astype(np.uint8), converged, iters


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
