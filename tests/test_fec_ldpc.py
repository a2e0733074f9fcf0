"""QC-LDPC rate matching, encode/decode, alist I/O, and the scrambler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.fec.ldpc import (ldpc_build, ldpc_decode, ldpc_encode,
                               ldpc_syndrome, load_basegraph, read_alist,
                               write_alist)
from pam6link.fec.scramble import adapt_llrs, scramble


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


def test_noiseless_decode_identity():
    for n, k in [(2500, 2000), (3000, 2426)]:
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
