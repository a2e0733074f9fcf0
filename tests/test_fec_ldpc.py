"""QC-LDPC rate matching, encode/decode, alist I/O, and the scrambler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.fec.ldpc import (ldpc_build, ldpc_decode, ldpc_encode,
                               ldpc_syndrome, load_basegraph, read_alist,
                               write_alist)
from pam6link.fec.scramble import adapt_llrs, scramble

COMMITTED_CODES = [(2500, 2000), (3000, 2426)]  # cross/framed, dm_pam6 at 2.0
ALL_ROWS_CODE = (2200, 1000)  # all 12 base rows: variable degrees up to 8


def _reference_encode(data, code):
    """Block-row forward substitution with cyclic shifts of the data blocks."""
    z, bg = code.z, code.graph
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
    return np.concatenate([data, parity.ravel()[: code.n_checks]])


def _reference_decode(llrs, code, max_iter=50, norm=0.75):
    """Normalized min-sum on the check-sorted edge list with reduceat
    segments; the first argmin of each check gets the second minimum."""
    channel = np.asarray(llrs, dtype=np.float64)
    total = channel
    starts = code.check_ptr[:-1]
    vidx, cidx = code.var_idx, code.check_idx
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
        total = channel + np.add.reduceat(c2v[code.var_perm], code.var_ptr[:-1])
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
    code = ldpc_build(2500, 0.8)
    assert code.n == 2500 and code.k == 2000 and code.z == 200
    assert code.m_use == 3 and code.shorten == 0
    assert code.n - code.k == 500
    code = ldpc_build(3000, 2426 / 3000)
    assert code.k == 2426 and code.z == 243
    assert code.shorten == 10 * 243 - 2426
    assert code.n - code.k == 3000 - 2426


def test_build_rejects_non_integer_k():
    with pytest.raises(ValueError):
        ldpc_build(2500, 0.8001)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_syndrome_zero_for_any_encode(seed):
    code = ldpc_build(1250, 0.8)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    cw = ldpc_encode(u, code)
    assert cw[: code.k].tolist() == u.tolist()
    assert ldpc_syndrome(cw, code).max() == 0


@pytest.mark.parametrize("n,k", COMMITTED_CODES + [(1250, 1000), ALL_ROWS_CODE])
def test_encode_equals_block_row_reference(n, k):
    code = ldpc_build(n, k / n)
    rng = np.random.default_rng(n + k)
    for _ in range(20):
        u = rng.integers(0, 2, size=code.k).astype(np.uint8)
        cw = ldpc_encode(u, code)
        assert np.array_equal(cw, _reference_encode(u, code))
        assert not ldpc_syndrome(cw, code).any()


@pytest.mark.parametrize("n,k", COMMITTED_CODES + [ALL_ROWS_CODE])
@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
def test_decode_equals_edge_list_reference(n, k):
    code = ldpc_build(n, k / n)
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
        code = ldpc_build(n, k / n)
        rng = np.random.default_rng(10)
        u = rng.integers(0, 2, size=k).astype(np.uint8)
        cw = ldpc_encode(u, code)
        llrs = (1.0 - 2.0 * cw.astype(np.float64)) * 8.0
        got, conv, iters = ldpc_decode(llrs, code)
        assert conv and iters == 0 and np.array_equal(got, u)


def test_decode_recovers_small_noise():
    code = ldpc_build(2500, 0.8)
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
    code = ldpc_build(1250, 0.8)
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
    code = ldpc_build(3000, 2426 / 3000)
    assert code.n_checks == code.m_use * code.z - code.punct_parity
    assert code.var_idx.max() < code.n
    assert code.check_idx.max() == code.n_checks - 1


def test_alist_round_trip():
    code = ldpc_build(1250, 0.8)
    text = write_alist(code)
    nvar, ncheck, ci, vi = read_alist(text)
    assert nvar == code.n and ncheck == code.n_checks
    assert set(zip(ci.tolist(), vi.tolist())) == set(
        zip(code.check_idx.tolist(), code.var_idx.tolist()))


@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_scramble_involution(n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    once = scramble(bits, seed=seed)
    twice = scramble(once, seed=seed)
    assert np.array_equal(twice, bits)


def test_scramble_moves_bits_and_adapts_llrs():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=4096).astype(np.uint8)
    sc = scramble(bits, seed=99)
    assert not np.array_equal(sc, bits)
    # LLR adaptation commutes with scrambling: descrambled hard decisions
    # of adapted LLRs equal hard decisions of the original LLRs
    llrs = rng.standard_normal(4096)
    adapted = adapt_llrs(llrs, seed=99)
    hard_adapted = (adapted < 0).astype(np.uint8)
    assert np.array_equal(scramble(hard_adapted, seed=99), (llrs < 0).astype(np.uint8))
    # the sequence is built once and shared read-only; each result is a
    # fresh writable array, so writing one changes no later call
    again = scramble(bits, seed=99)
    again ^= 1
    assert np.array_equal(scramble(bits, seed=99), sc)
