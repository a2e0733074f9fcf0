"""Quasi-cyclic LDPC codes lifted from the packaged base graph data/basegraph_v1.txt.

The base graph has kb = 10 systematic block-columns and an accumulator-chain
parity part, so encoding is forward substitution over the lifted blocks. Rate
matching for K data bits in a codeword of n bits:

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
where parity bits pick symbol signs. One check is kept per transmitted
parity bit, so n_checks = n - K.

A code holds its Tanner graph once, in a dense edge layout that one sort of
the lifted edge list fills:

    check_vars (dc, n_checks)  variable of each check's j-th edge, edges in
                               (check, variable) order; a check of degree
                               below dc is padded with n
    var_slots  (dv, n)         flat check_vars slot of each variable's j-th
                               edge, in check order; missing edges point to
                               slot check_vars.size, one past the table

The syndrome is a gather through check_vars (padded edges read an extra
zero bit) and an XOR down the columns. The encoder takes the syndrome of
(data, 0) as the partial syndrome and accumulates it down the block rows of
the parity chain. The alist export writes the columns of both tables.

Decoding is normalized min-sum (factor 0.75) with early stop on a zero
syndrome (Chen & Fossorier, IEEE Trans. Commun. 2002) on the same tables:
padded check edges read an extra LLR slot that holds +inf, missing variable
edges an extra message slot that holds 0. A padded edge reads v2c = +inf -
c2v. That is +inf, which changes no minimum, unless the check's minimum was
infinite the round before; then every real edge of the check got an
infinite message, which its total also holds, so each reads NaN and the
padded edge changes nothing either.

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
import operator
from dataclasses import dataclass, field

import numpy as np

from ..channel import as_bits

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
    """Parse a base-graph file; default is the packaged one, which ldpc_build lifts."""
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
    check_vars: np.ndarray = field(repr=False)  # (dc, n_checks), pad n
    var_slots: np.ndarray = field(repr=False)   # (dv, n), pad check_vars.size

    @property
    def n_checks(self) -> int:
        return self.check_vars.shape[1]


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


def ldpc_build(codelength: int, k: int) -> LdpcCode:
    """Rate-match the packaged base graph to k data bits in a codelength word, lift it."""
    bg = load_basegraph()
    k = operator.index(k)
    if not 0 < k < codelength:
        raise ValueError(f"need 0 < k < n, got k={k}, n={codelength}")
    z, m_use = rate_match(bg, codelength, k)
    n_checks = codelength - k

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
    # sort by (check, variable) and remove the chain tail: the checks from
    # n_checks on and their degree-1 parity variables (their edges all sit
    # in removed checks). The stable argsort is the kernel by_var needs
    # anyway; np.sort would page in about 0.4 MB more of numpy's sort code.
    edges = np.concatenate(checks) * codelength + np.concatenate(vars_)
    edges = edges[np.argsort(edges, kind="stable")]
    edges = edges[edges < n_checks * codelength]
    check_idx, var_idx = np.divmod(edges, codelength)
    counts = np.bincount(check_idx, minlength=n_checks)
    if counts.min() < 2:
        raise ValueError("rate matching produced a check of degree < 2")
    if np.bincount(var_idx, minlength=codelength).min() < 1:
        raise ValueError("rate matching left an unconnected variable")
    # dense layout (module docstring): an edge's row is its rank in its
    # check's segment of the sorted edges, then in its variable's segment
    # of the same edges stably sorted by variable (so still in check order)
    crow = np.arange(edges.size) - np.searchsorted(check_idx, check_idx)
    check_vars = np.full((counts.max(), n_checks), codelength, dtype=np.intp)
    check_vars[crow, check_idx] = var_idx
    by_var = np.argsort(var_idx, kind="stable")
    var_sorted = var_idx[by_var]
    vrow = np.arange(edges.size) - np.searchsorted(var_sorted, var_sorted)
    var_slots = np.full((vrow.max() + 1, codelength), check_vars.size,
                        dtype=np.intp)
    var_slots[vrow, var_sorted] = (crow * n_checks + check_idx)[by_var]
    check_vars.flags.writeable = var_slots.flags.writeable = False
    return LdpcCode(n=codelength, k=k, z=z, m_use=m_use,
                    check_vars=check_vars, var_slots=var_slots)


def ldpc_encode(data: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Systematic encode; returns the transmitted word (data, parity chain).

    Check r*z + t of block row r sums its data bits (the partial syndrome)
    with parity bits t of rows r and r - 1 (all parity shifts are zero), so
    the parity rows are the running XOR of the partial-syndrome rows.
    """
    data = as_bits(data, "data")
    if data.size != code.k:
        raise ValueError(f"expected {code.k} data bits, got {data.size}")
    word = np.zeros(code.n, dtype=np.uint8)
    word[: code.k] = data
    partial = np.zeros(code.m_use * code.z, dtype=np.uint8)
    partial[: code.n_checks] = _parity(word, code)
    parity = np.bitwise_xor.accumulate(partial.reshape(code.m_use, code.z))
    # the chain tail beyond n_checks was removed from the graph
    word[code.k:] = parity.ravel()[: code.n_checks]
    return word


def ldpc_syndrome(codeword: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-check parity of a codeword; raises ValueError unless it holds
    code.n entries, each 0 or 1."""
    cw = as_bits(codeword, "codeword")
    if cw.size != code.n:
        raise ValueError(f"expected {code.n} bits, got {cw.size}")
    return _parity(cw, code)


def _parity(word: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-check parity of a 0/1 word (uint8 or bool) of code.n bits, unchecked."""
    # padded edges read the appended zero; a plain 0 would promote to int64
    bits = np.append(word, np.uint8(0))[code.check_vars]
    return np.bitwise_xor.reduce(bits, axis=0)


def ldpc_decode(llrs: np.ndarray, code: LdpcCode, max_iter: int = DEFAULT_MAX_ITER):
    """Normalized min-sum decode of per-codeword-bit channel LLRs.

    LLRs follow log(P(bit=0)/P(bit=1)). Returns (data_bits, converged,
    iterations); iterations counts message-passing rounds actually run.
    An LLR may be +/-inf; a NaN raises ValueError.
    """
    channel = np.asarray(llrs, dtype=np.float64).ravel()
    if channel.size != code.n:
        raise ValueError(f"expected {code.n} channel LLRs, got {channel.size}")
    if np.isnan(channel).any():  # NaN < 0 is False: it would pass every check
        raise ValueError("channel LLRs must not be NaN")
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
        converged = not _parity(total[:-1] < 0, code).any()
    return (total[: code.k] < 0).astype(np.uint8), converged, iters


def _text_rows(rows) -> list:
    """Lines of space-separated integers, one per row."""
    return list(map(" ".join, np.asarray(rows).astype(str).tolist()))


def write_alist(code: LdpcCode) -> str:
    """Serialize the rate-matched parity-check matrix in alist text format.

    The rows are the columns of the dense tables: each variable's checks in
    check order, each check's variables in variable order, 1-based, with
    pads written as 0 and the table heights as the row widths.
    """
    var_rows = np.where(code.var_slots < code.check_vars.size,
                        code.var_slots % code.n_checks + 1, 0).T
    check_rows = np.where(code.check_vars < code.n, code.check_vars + 1, 0).T
    lines = _text_rows([[code.n, code.n_checks],
                        [var_rows.shape[1], check_rows.shape[1]]])
    lines += _text_rows([np.count_nonzero(var_rows, axis=1)])
    lines += _text_rows([np.count_nonzero(check_rows, axis=1)])
    lines += _text_rows(var_rows) + _text_rows(check_rows)
    return "\n".join(lines) + "\n"


def read_alist(text: str):
    """Parse alist text; returns (n_var, n_check, check_idx, var_idx) sorted
    by (check, var) for comparison against a built code.

    Raises ValueError naming the row when a row's degree is wrong, when an
    index lies outside [1, n_check] (variable rows) or [1, n_var] (check
    rows), or when a check row lists other variables than the variable rows
    give it.
    """
    toks = text.split()
    pos = 0

    def take(count):
        nonlocal pos
        vals = [int(t) for t in toks[pos : pos + count]]
        if len(vals) != count:
            raise ValueError("alist truncated")
        pos += count
        return vals

    def row(what, width, degree, limit):
        got = [x for x in take(width) if x != 0]
        if len(got) != degree:
            raise ValueError(f"alist {what}: degree mismatch")
        for x in got:
            if not 1 <= x <= limit:
                raise ValueError(f"alist {what}: index {x} outside [1, {limit}]")
        return got

    nvar, ncheck = take(2)
    max_v, max_c = take(2)
    vdeg = take(nvar)
    cdeg = take(ncheck)
    check_vars = [[] for _ in range(ncheck)]  # as the variable rows give them
    for v in range(nvar):
        for c in row(f"variable {v}", max_v, vdeg[v], ncheck):
            check_vars[c - 1].append(v)
    for c in range(ncheck):
        got = sorted(x - 1 for x in row(f"check {c}", max_c, cdeg[c], nvar))
        if got != check_vars[c]:
            raise ValueError(f"alist check {c}: variables {got} but the "
                             f"variable rows give {check_vars[c]}")
    check_idx = np.repeat(np.arange(ncheck, dtype=np.int64),
                          [len(vs) for vs in check_vars])
    var_idx = np.array([v for vs in check_vars for v in vs], dtype=np.int64)
    return nvar, ncheck, check_idx, var_idx
