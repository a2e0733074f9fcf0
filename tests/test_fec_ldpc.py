"""QC-LDPC rate matching, encode/decode, alist I/O, and the scrambler."""
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.channel import philox
from pam6link.constellation import build_constellation, map_bits
from pam6link.fec.ldpc import (ldpc_build, ldpc_decode, ldpc_encode,
                               ldpc_syndrome, load_basegraph, read_alist,
                               write_alist)
from pam6link.fec.scramble import adapt_llrs, scramble

COMMITTED_CODES = [(2500, 2000), (3000, 2426)]  # cross/framed, dm_pam6 at 2.0
ALL_ROWS_CODE = (2200, 1000)  # all 12 base rows: variable degrees up to 8
# the codes of 1000-symbol frames at the rate grid 1.8, 1.9, 2.0, 2.1 bpcu:
# 2D formats, then dm_pam6 (2000 amplitude label bits plus the data sign
# bits)
GRID_CODES = ([(2500, k) for k in (1800, 1900, 2000, 2100)]
              + [(3000, k) for k in (2226, 2326, 2426, 2526)])
# sha256 of write_alist's text: the export must not drift with the layout
ALIST_SHA256 = {
    (2500, 2000): "0f8e1deaf8005a9eb0cbf4a93cc48eb65e78200fcf82795d8901e82c44d6b63c",
    (3000, 2426): "1cec57a60168722a0e52d06cd8f17eee55eab03a7381cfdb43efd3e30f1ffce8",
    (2200, 1000): "40da264e05555a88dbdb5b8c89a4ae05b59cf18f999b8827085dec78abdfc56d",
}


def _edge_list(code):
    """The code's edges as a check-sorted list: (check_idx, var_idx) in
    (check, variable) order, the reduceat start of each check, and the
    stable permutation to variable order with the start of each variable."""
    table = code.check_vars.T
    real = table < code.n
    check_idx = np.nonzero(real)[0]
    var_idx = table[real]
    var_perm = np.argsort(var_idx, kind="stable")
    check_starts = np.searchsorted(check_idx, np.arange(code.n_checks))
    var_starts = np.searchsorted(var_idx[var_perm], np.arange(code.n))
    return check_idx, var_idx, check_starts, var_perm, var_starts


def _reference_encode(data, code):
    """Block-row forward substitution with cyclic shifts of the data blocks."""
    z, bg = code.z, load_basegraph()
    shorten = bg.kb * z - code.k
    u = np.concatenate([data, np.zeros(shorten, dtype=np.uint8)])
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
    return np.concatenate([data, parity.ravel()[: code.n_checks]])


def _reference_decode(llrs, code, max_iter=50, norm=0.75):
    """Normalized min-sum on the check-sorted edge list with reduceat
    segments; the first argmin of each check gets the second minimum."""
    channel = np.asarray(llrs, dtype=np.float64)
    total = channel
    cidx, vidx, starts, var_perm, var_starts = _edge_list(code)
    c2v = np.zeros(vidx.size)
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
        sign_out = np.bitwise_xor.reduceat(sbit, starts)[cidx] ^ sbit
        c2v = norm * np.where(sign_out == 0, mag_out, -mag_out)
        total = channel + np.add.reduceat(c2v[var_perm], var_starts)
    else:
        hard = (total < 0).astype(np.uint8)
        converged = not np.bitwise_xor.reduceat(hard[vidx], starts).any()
    return hard[: code.k], converged, iters


def _llr_cases(code, rng):
    """BPSK LLRs in and around the waterfall: noisy, rounded so that
    magnitudes tie, with some +-inf entries, and all +-inf."""
    cases = []
    for sigma in (0.55, 0.62, 0.7):
        u = rng.integers(0, 2, size=code.k).astype(np.uint8)
        y = 1.0 - 2.0 * ldpc_encode(u, code) + sigma * rng.standard_normal(code.n)
        llr = 2.0 * y / sigma**2
        cases += [llr, np.round(llr), 4.0 * np.round(llr / 4.0)]
        some_inf = llr.copy()
        pos = rng.choice(code.n, size=code.n // 50, replace=False)
        some_inf[pos] = np.copysign(np.inf, llr[pos])
        cases += [some_inf, np.copysign(np.inf, llr)]
    return cases


@pytest.mark.parametrize("where", ["all", "one"])
def test_decode_refuses_nan_llrs(where):
    # NaN < 0 is False, so a word of NaNs would pass every parity check and
    # read as a decoded all-zero word; +-inf LLRs stay valid
    code = ldpc_build(*COMMITTED_CODES[0])
    llr = np.full(code.n, 3.0)
    if where == "all":
        llr[:] = np.nan
    else:
        llr[code.n // 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        ldpc_decode(llr, code)
    bits, ok, _ = ldpc_decode(np.full(code.n, np.inf), code)
    assert ok and not bits.any()


def test_basegraph_loads_and_validates():
    bg = load_basegraph()
    assert bg.kb == 10 and bg.mb == 12 and bg.zmin >= 2
    assert bg.shifts.shape == (12, 22)
    # parity part is an accumulator chain with zero shifts
    for r in range(bg.mb):
        assert bg.shifts[r, bg.kb + r] == 0
        if r:
            assert bg.shifts[r, bg.kb + r - 1] == 0


def test_basegraph_rejects_corruption(tmp_path):
    bg_file = tmp_path / "bad.txt"
    bg_file.write_text("10 12 150 1\n" + "0 " * 21 + "0\n")
    with pytest.raises(ValueError):
        load_basegraph(bg_file)


def test_rate_matching_dimensions():
    kb = load_basegraph().kb
    code = ldpc_build(2500, 2000)
    assert code.n == 2500 and code.k == 2000 and code.z == 200
    assert code.m_use == 3 and kb * code.z - code.k == 0  # nothing shortened
    assert code.n - code.k == 500
    code = ldpc_build(3000, 2426)
    assert code.k == 2426 and code.z == 243
    assert kb * code.z - code.k == 10 * 243 - 2426
    assert code.n - code.k == 3000 - 2426


def test_build_rejects_non_integer_k():
    # the dimension is a bit count: a rate or a float count is refused
    for k in (0.8, 2000.0):
        with pytest.raises(TypeError):
            ldpc_build(2500, k)


@pytest.mark.parametrize("n,k,match", [
    (30, 10, "lift size 1; the graph needs at least 2"),
    (2100, 2000, "100 parity bits, fewer than one lifted row of 200"),
    (2500, 100, "needs 240 base rows, graph has 12"),
    (100, 0, "need 0 < k < n"),
    (100, 100, "need 0 < k < n"),
])
def test_build_rejects_what_the_graph_cannot_carry(n, k, match):
    with pytest.raises(ValueError, match=match):
        ldpc_build(n, k)


@pytest.mark.parametrize("call,size,match", [
    (lambda code, x: ldpc_encode(x, code), 401, "expected 400 data bits, got 401"),
    (lambda code, x: ldpc_syndrome(x, code), 499, "expected 500 bits, got 499"),
    (lambda code, x: ldpc_decode(x, code), 501, "expected 500 channel LLRs, got 501"),
], ids=["encode", "syndrome", "decode"])
def test_lengths_are_checked(call, size, match):
    code = ldpc_build(500, 400)
    with pytest.raises(ValueError, match=match):
        call(code, np.zeros(size))


@pytest.mark.parametrize("value", [2, 0.7, -1, 256])
def test_entries_that_are_not_bits_are_refused(value):
    # a plain cast to uint8 would let 2 and -1 (as 255) into the word, whose
    # syndrome then reads zero, and read 0.7 and 256 as 0; the mapper and
    # the scrambler refuse them too, the mapper naming the group as given
    code = ldpc_build(250, 200)
    data = np.zeros(code.k)
    data[7] = value
    with pytest.raises(ValueError, match="data must hold only 0 and 1"):
        ldpc_encode(data, code)
    word = ldpc_encode(np.zeros(code.k), code).astype(np.float64)
    word[-3] = value
    with pytest.raises(ValueError, match="codeword must hold only 0 and 1"):
        ldpc_syndrome(word, code)
    with pytest.raises(ValueError, match="scrambler input must hold only 0 and 1"):
        scramble([0, 1, value, 0])
    shown = {2: "00102", 0.7: "[0.0, 0.0, 1.0, 0.0, 0.7]", -1: "0010-1",
             256: "0010256"}[value]
    with pytest.raises(ValueError, match=re.escape(f"bit pattern {shown} is not a label")):
        map_bits([0, 0, 1, 0, value], build_constellation("cross_qam32"))


@pytest.mark.parametrize("n,k", GRID_CODES)
def test_tables_follow_rate_matching(n, k):
    # the dense layout of the module docstring, at every code a 1000-symbol
    # frame of the rate grid uses
    bg = load_basegraph()
    code = ldpc_build(n, k)
    assert (code.n, code.k, code.n_checks) == (n, k, n - k)
    assert code.z == -(-k // bg.kb) >= bg.zmin
    assert code.m_use == -(-(n - k) // code.z) <= bg.mb
    cv, vs = code.check_vars, code.var_slots
    assert not cv.flags.writeable and not vs.flags.writeable
    # each check lists its variables in increasing order, then its pads
    real = cv < n
    assert (real.sum(axis=0) >= 2).all()
    assert not (real[1:] & ~real[:-1]).any()
    assert (np.diff(np.where(real, cv, n), axis=0)[real[1:]] > 0).all()
    # each variable's slots point back at it, in check order, then pads
    used = vs < cv.size
    assert (used.sum(axis=0) >= 1).all() and used.sum() == real.sum()
    assert not (used[1:] & ~used[:-1]).any()
    variables = np.broadcast_to(np.arange(n), vs.shape)
    assert np.array_equal(cv.ravel()[vs[used]], variables[used])
    checks = np.where(used, vs % code.n_checks, code.n_checks)
    assert (np.diff(checks, axis=0)[used[1:]] > 0).all()


@pytest.mark.parametrize("n,k", GRID_CODES)
def test_lifts_from_zmin_have_no_four_cycles(n, k):
    # two checks share at most one variable, as the base graph's header
    # promises for every lift of at least zmin
    code = ldpc_build(n, k)
    h = np.zeros((code.n_checks, n + 1))
    h[np.arange(code.n_checks), code.check_vars] = 1.0
    h = h[:, :n]
    overlap = h @ h.T
    np.fill_diagonal(overlap, 0.0)
    assert overlap.max() == 1.0


@pytest.mark.parametrize("n,k", COMMITTED_CODES)
def test_single_flips_on_multi_check_bits_are_corrected(n, k):
    # a hard error on a bit of two or more checks is outvoted in one or two
    # iterations; a bit of one check can only be detected, not located
    code = ldpc_build(n, k)
    rng = np.random.default_rng(n + k)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    llr = (1.0 - 2.0 * ldpc_encode(u, code)) * 4.0
    degree = (code.var_slots < code.check_vars.size).sum(axis=0)
    for v in np.flatnonzero(degree >= 2):
        word = llr.copy()
        word[v] = -word[v]
        got, conv, iters = ldpc_decode(word, code)
        assert conv and iters <= 2 and np.array_equal(got, u), v


@pytest.mark.parametrize("n,k", [(400, 300), (500, 400), (600, 485), ALL_ROWS_CODE])
def test_every_single_erasure_is_filled(n, k):
    # an erased bit (LLR 0) is the parity of the other bits of any of its
    # checks, so one iteration fills it, at any lift
    code = ldpc_build(n, k)
    rng = np.random.default_rng(k)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    llr = (1.0 - 2.0 * ldpc_encode(u, code)) * 4.0
    for v in range(n):
        word = llr.copy()
        word[v] = 0.0
        got, conv, iters = ldpc_decode(word, code)
        assert conv and iters <= 1 and np.array_equal(got, u), v


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_syndrome_zero_for_any_encode(seed):
    code = ldpc_build(1250, 1000)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    cw = ldpc_encode(u, code)
    assert cw[: code.k].tolist() == u.tolist()
    assert ldpc_syndrome(cw, code).max() == 0


@pytest.mark.parametrize("n,k", COMMITTED_CODES + [(1250, 1000), ALL_ROWS_CODE])
def test_encode_equals_block_row_reference(n, k):
    code = ldpc_build(n, k)
    rng = np.random.default_rng(n + k)
    for _ in range(20):
        u = rng.integers(0, 2, size=code.k).astype(np.uint8)
        cw = ldpc_encode(u, code)
        assert np.array_equal(cw, _reference_encode(u, code))
        syndrome = ldpc_syndrome(cw, code)
        assert syndrome.dtype == np.uint8 and not syndrome.any()


@pytest.mark.parametrize("n,k", COMMITTED_CODES + [ALL_ROWS_CODE])
@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
def test_decode_equals_edge_list_reference(n, k):
    code = ldpc_build(n, k)
    cases = _llr_cases(code, np.random.default_rng(k))
    iters = []
    for llr in cases:
        for max_iter in (0, 1, 50):
            got = ldpc_decode(llr, code, max_iter=max_iter)
            ref = _reference_decode(llr, code, max_iter=max_iter)
            assert np.array_equal(got[0], ref[0])
            assert got[1:] == ref[1:]
            iters.append(ref[2])
    # the cases reach both early stops and the iteration cap
    assert min(iters) == 0 and max(iters) == 50


def test_noiseless_decode_identity():
    for n, k in COMMITTED_CODES:
        code = ldpc_build(n, k)
        rng = np.random.default_rng(10)
        u = rng.integers(0, 2, size=k).astype(np.uint8)
        cw = ldpc_encode(u, code)
        llrs = (1.0 - 2.0 * cw.astype(np.float64)) * 8.0
        got, conv, iters = ldpc_decode(llrs, code)
        assert conv and iters == 0 and np.array_equal(got, u)


def test_decode_recovers_small_noise():
    code = ldpc_build(2500, 2000)
    rng = np.random.default_rng(11)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    cw = ldpc_encode(u, code)
    x = 1.0 - 2.0 * cw.astype(np.float64)
    sigma = 0.42
    y = x + sigma * rng.standard_normal(x.size)
    got, conv, _ = ldpc_decode(2.0 * y / sigma**2, code)
    assert conv and np.array_equal(got, u)


def test_ber_improves_as_noise_drops():
    # sweep oracle: post-decode errors must not increase when sigma shrinks
    code = ldpc_build(1250, 1000)
    rng = np.random.default_rng(12)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    cw = ldpc_encode(u, code)
    x = 1.0 - 2.0 * cw.astype(np.float64)
    noise = rng.standard_normal(x.size)
    errs = []
    for sigma in [0.80, 0.55, 0.30]:
        y = x + sigma * noise
        got, conv, _ = ldpc_decode(2.0 * y / sigma**2, code)
        errs.append(int(np.sum(got != u)))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] == 0


def test_parity_tail_removal_keeps_projected_code():
    # the transmitted-bit projection must be unchanged: every transmitted
    # codeword still satisfies every kept check, and kept checks never
    # reference a variable beyond the active range
    code = ldpc_build(3000, 2426)
    check_idx, var_idx = _edge_list(code)[:2]
    assert code.n_checks == code.n - code.k < code.m_use * code.z
    assert var_idx.max() < code.n
    assert check_idx.max() == code.n_checks - 1


def test_alist_round_trip():
    code = ldpc_build(1250, 1000)
    text = write_alist(code)
    nvar, ncheck, ci, vi = read_alist(text)
    assert nvar == code.n and ncheck == code.n_checks
    check_idx, var_idx = _edge_list(code)[:2]
    assert set(zip(ci.tolist(), vi.tolist())) == set(
        zip(check_idx.tolist(), var_idx.tolist()))


def test_read_alist_rejects_inconsistent_rows():
    code = ldpc_build(400, 300)
    lines = write_alist(code).splitlines()
    var0 = 4  # header, widths, variable degrees, check degrees, then rows
    last_check = var0 + code.n + code.n_checks - 1
    # a variable row naming a check that does not exist
    bad = lines.copy()
    row = bad[var0].split()
    row[0] = "999"
    bad[var0] = " ".join(row)
    with pytest.raises(ValueError, match=r"variable 0: index 999 outside \[1, 100\]"):
        read_alist("\n".join(bad))
    # a check row naming a variable whose own row does not list that check
    bad = lines.copy()
    row = bad[last_check].split()
    row[0] = "1"
    bad[last_check] = " ".join(row)
    with pytest.raises(ValueError, match=f"check {code.n_checks - 1}: variables"):
        read_alist("\n".join(bad))
    # and a check row naming a variable beyond n
    bad[last_check] = " ".join(["401"] + row[1:])
    with pytest.raises(ValueError, match=r"check 99: index 401 outside \[1, 400\]"):
        read_alist("\n".join(bad))


@pytest.mark.parametrize("n,k", COMMITTED_CODES + [ALL_ROWS_CODE])
def test_alist_text_is_pinned(n, k):
    text = write_alist(ldpc_build(n, k))
    assert hashlib.sha256(text.encode()).hexdigest() == ALIST_SHA256[(n, k)]


@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_scramble_involution(n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    once = scramble(bits)
    twice = scramble(once)
    assert np.array_equal(twice, bits)


def test_scramble_moves_bits_and_adapts_llrs():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=4096).astype(np.uint8)
    sc = scramble(bits)
    assert not np.array_equal(sc, bits)
    # the one sequence: uniform bits of the Philox stream (0xC0DEC, 0x5C12A)
    assert np.array_equal(scramble(np.zeros(4096)), philox(0xC0DEC, 0x5C12A)
                          .integers(0, 2, size=4096, dtype=np.uint8))
    # LLR adaptation commutes with scrambling: descrambled hard decisions
    # of adapted LLRs equal hard decisions of the original LLRs
    llrs = rng.standard_normal(4096)
    adapted = adapt_llrs(llrs)
    hard_adapted = (adapted < 0).astype(np.uint8)
    assert np.array_equal(scramble(hard_adapted), (llrs < 0).astype(np.uint8))
    # the sequence is built once and shared read-only; each result is a
    # fresh writable array, so writing one changes no later call
    again = scramble(bits)
    again ^= 1
    assert np.array_equal(scramble(bits), sc)
