"""Matcher round trips, composition bookkeeping, and the PAS frame layout."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.constellation import build_constellation
from pam6link.fec.ldpc import ldpc_build, ldpc_encode
from pam6link.shaping import (Composition, amplitudes_to_pairs, ccdm_decode,
                              ccdm_encode, ccdm_input_length,
                              pairs_to_amplitudes, pas_decode, pas_encode,
                              sign_amp_from_symbols, symbols_from_sign_amp)

PAM6 = build_constellation("pam6_label")


def _label_bits(symbols):
    return PAM6.labels[np.asarray(symbols, dtype=np.int64)]


def test_near_uniform_composition():
    comp = Composition.near_uniform(1000)
    assert comp.counts == (334, 333, 333)
    assert comp.n == 1000
    comp9 = Composition.near_uniform(9)
    assert sum(comp9.counts) == 9 and max(comp9.counts) - min(comp9.counts) <= 1


def test_input_length_against_multinomial_oracle():
    # k must be floor(log2 multinomial(n; c0, c1, c2)), computed exactly
    for n in [9, 30, 120, 1000]:
        comp = Composition.near_uniform(n)
        c0, c1, c2 = comp.counts
        count = math.comb(n, c0) * math.comb(n - c0, c1)
        assert ccdm_input_length(comp) == count.bit_length() - 1


def test_matcher_rate_window_at_1000():
    comp = Composition.near_uniform(1000)
    k = ccdm_input_length(comp)
    assert 1.565 <= k / 1000 <= 1.585


@given(st.integers(min_value=0, max_value=2**40 - 1))
@settings(max_examples=200, deadline=None)
def test_ccdm_round_trip_small(payload):
    comp = Composition(counts=(9, 8, 8))
    k = ccdm_input_length(comp)
    bits = np.array([(payload >> i) & 1 for i in range(k)], dtype=np.uint8)
    a = ccdm_encode(bits, comp)
    assert tuple(np.bincount(a, minlength=3)) == comp.counts
    assert np.array_equal(ccdm_decode(a, comp), bits)


def test_ccdm_round_trip_full_length():
    comp = Composition.near_uniform(1000)
    k = ccdm_input_length(comp)
    rng = np.random.default_rng(42)
    for _ in range(25):
        bits = rng.integers(0, 2, size=k).astype(np.uint8)
        a = ccdm_encode(bits, comp)
        assert tuple(np.bincount(a, minlength=3)) == comp.counts
        assert np.array_equal(ccdm_decode(a, comp), bits)


def test_ccdm_rejects_wrong_length():
    comp = Composition.near_uniform(30)
    k = ccdm_input_length(comp)
    with pytest.raises(ValueError):
        ccdm_encode(np.zeros(k + 1, dtype=np.uint8), comp)


def test_pair_tables_invert_and_skip_00():
    a = np.array([0, 1, 2, 2, 1, 0])
    b = amplitudes_to_pairs(a)
    assert b.shape == (12,)
    pairs = b.reshape(-1, 2)
    assert not np.any((pairs[:, 0] == 0) & (pairs[:, 1] == 0))
    assert np.array_equal(pairs_to_amplitudes(b), a)


def test_sign_amp_symbol_mapping():
    s = np.array([0, 0, 0, 1, 1, 1])
    a = np.array([0, 1, 2, 0, 1, 2])
    x = symbols_from_sign_amp(s, a)
    assert np.array_equal(x, [0, 1, 2, 5, 4, 3])
    s2, a2 = sign_amp_from_symbols(x)
    assert np.array_equal(s2, s) and np.array_equal(a2, a)


@pytest.mark.parametrize("gamma", [0.326, 0.426])
def test_pas_encode_layout_and_noiseless_decode(gamma):
    n = 1000
    comp = Composition.near_uniform(n)
    k = ccdm_input_length(comp)
    g = round(gamma * n)
    code = ldpc_build(3 * n, (2 * n + g) / (3 * n))
    rng = np.random.default_rng(1)
    d = rng.integers(0, 2, size=k + g).astype(np.uint8)
    x = pas_encode(d, comp, code)
    assert x.shape == (n,)
    s, a = sign_amp_from_symbols(x)
    # amplitudes carry the matcher output with the exact composition
    assert tuple(np.bincount(a, minlength=3)) == comp.counts
    assert np.array_equal(a, ccdm_encode(d[:k], comp))
    # sign sequence = (parity of (amplitude labels, extra bits), extra bits)
    u = np.concatenate([amplitudes_to_pairs(a), d[k:]])
    assert np.array_equal(s[: n - g], ldpc_encode(u, code)[code.k:])
    assert np.array_equal(s[n - g:], d[k:])
    # noiseless LLRs from the label bits themselves must round trip
    labels = _label_bits(x)
    llrs = (1.0 - 2.0 * labels.astype(np.float64)) * 12.0
    got, ok = pas_decode(llrs, comp, code)
    assert ok and np.array_equal(got, d)


def test_pas_gamma_one_needs_no_fec():
    n = 120
    comp = Composition.near_uniform(n)
    k = ccdm_input_length(comp)
    rng = np.random.default_rng(3)
    d = rng.integers(0, 2, size=k + n).astype(np.uint8)
    x = pas_encode(d, comp)
    s, _ = sign_amp_from_symbols(x)
    assert np.array_equal(s, d[k:])
    llrs = (1.0 - 2.0 * _label_bits(x).astype(np.float64)) * 9.0
    got, ok = pas_decode(llrs, comp)
    assert ok and np.array_equal(got, d)


def test_pas_decode_flags_invalid_pairs():
    n = 120
    comp = Composition.near_uniform(n)
    k = ccdm_input_length(comp)
    rng = np.random.default_rng(4)
    d = rng.integers(0, 2, size=k + n).astype(np.uint8)
    labels = _label_bits(pas_encode(d, comp))
    # force one pair toward 00 with confident wrong LLRs
    llrs = (1.0 - 2.0 * labels.astype(np.float64)) * 9.0
    llrs[0, 1] = 50.0
    llrs[0, 2] = 50.0
    got, ok = pas_decode(llrs, comp)
    assert got is None and not ok


def test_pas_encode_validates_data_length():
    comp = Composition.near_uniform(120)
    with pytest.raises(ValueError):
        pas_encode(np.zeros(5, dtype=np.uint8), comp)


@pytest.mark.parametrize("length,dim", [
    (3 * 120, 230),   # dimension below the 2n label bits
    (3 * 121, 250),   # length of a 121-symbol frame
])
def test_pas_rejects_code_that_does_not_fit_frame(length, dim):
    comp = Composition.near_uniform(120)
    code = ldpc_build(length, dim / length)
    d = np.zeros(ccdm_input_length(comp), dtype=np.uint8)
    with pytest.raises(ValueError, match="does not fit"):
        pas_encode(d, comp, code)
    with pytest.raises(ValueError, match="does not fit"):
        pas_decode(np.zeros((120, 3)), comp, code)
