"""Matcher round trips, composition bookkeeping, and the PAS frame layout."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link import shaping
from pam6link.constellation import build_constellation
from pam6link.fec.ldpc import ldpc_build, ldpc_encode
from pam6link.shaping import (Composition, ccdm_decode, ccdm_encode,
                              ccdm_input_length, pas_decode, pas_encode)

PAM6 = build_constellation("pam6_label")

# uniform, a zero count in each place, one-symbol classes (k = 0), and
# length-1000 blocks
REFERENCE_COMPOSITIONS = [Composition.near_uniform(1000).counts, (5, 0, 3),
                          (1, 1, 1), (400, 300, 300), (0, 0, 7), (1, 0, 0),
                          (0, 5, 0)]


def _reference_encode(data, comp):
    """Per-position interval subdivision, one floor division per symbol tried."""
    data = np.asarray(data, dtype=np.uint8).ravel()
    k = ccdm_input_length(comp)
    if len(data) != k:
        raise ValueError(f"matcher input must be {k} bits, got {len(data)}")
    index = 0
    for bit in data:
        index = (index << 1) | int(bit)
    return _sequence_of_rank(index, comp)


def _sequence_of_rank(index, comp):
    """The index-th lexicographic sequence of the composition class, for any
    index below the class size, not only those below 2**k."""
    counts = list(comp.counts)
    n = comp.n
    remaining = comp.multinomial()
    out = np.empty(n, dtype=np.int8)
    for pos in range(n):
        for sym in (0, 1, 2):
            if counts[sym] == 0:
                continue
            sub = remaining * counts[sym] // (n - pos)
            if index < sub:
                out[pos] = sym
                counts[sym] -= 1
                remaining = sub
                break
            index -= sub
        else:
            raise AssertionError("index exceeded composition class size")
    return out


def _reference_decode(a, comp):
    """Per-position rank sum over the lower symbols, then a per-bit loop."""
    a = np.asarray(a, dtype=np.int8).ravel()
    if len(a) != comp.n:
        raise ValueError(f"sequence length {len(a)} != composition length {comp.n}")
    observed = tuple(int((a == s).sum()) for s in (0, 1, 2))
    if observed != tuple(comp.counts):
        raise ValueError(f"composition mismatch: got {observed}, expected {comp.counts}")
    k = ccdm_input_length(comp)
    counts = list(comp.counts)
    n = comp.n
    remaining = comp.multinomial()
    index = 0
    for pos, sym in enumerate(a):
        sym = int(sym)
        for lower in range(sym):
            if counts[lower]:
                index += remaining * counts[lower] // (n - pos)
        remaining = remaining * counts[sym] // (n - pos)
        counts[sym] -= 1
    if index >> k:
        raise ValueError("sequence is not in the matcher image")
    bits = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        bits[i] = index & 1
        index >>= 1
    return bits


def _decode_outcome(decode, a, comp):
    """Decoded bits, or the ValueError message for a sequence it rejects."""
    try:
        return decode(a, comp)
    except ValueError as e:
        return str(e)


def _check_against_reference(comp, words, rng):
    for d in words:
        a = ccdm_encode(d, comp)
        ref = _reference_encode(d, comp)
        assert a.dtype == ref.dtype and np.array_equal(a, ref)
        assert np.array_equal(ccdm_decode(a, comp), d)
        assert np.array_equal(_reference_decode(a, comp), d)
        # a permutation keeps the composition but is often outside the image;
        # dropping a symbol breaks the length, changing one the composition
        changed = a.copy()
        changed[0] = (changed[0] + 1) % 3
        for seq in (rng.permutation(a), a[1:], changed):
            got = _decode_outcome(ccdm_decode, seq, comp)
            want = _decode_outcome(_reference_decode, seq, comp)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)


def _label_bits(symbols):
    return PAM6.labels[np.asarray(symbols, dtype=np.int64)]


def _sign_amp(x):
    """Sign-bit shaping by definition: level v sends sign (v >= 3) and
    amplitude min(v, 5 - v)."""
    x = np.asarray(x)
    return (x >= 3).astype(np.uint8), np.minimum(x, 5 - x)


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
    # the class size equals the factorial formula, independent of comb
    for counts in [Composition.near_uniform(n).counts for n in (9, 1000, 10**4)] + [
            (5, 0, 3), (0, 0, 7), (1, 0, 0), (400, 300, 300)]:
        comp = Composition(counts)
        c0, c1, c2 = counts
        count = math.factorial(comp.n) // (
            math.factorial(c0) * math.factorial(c1) * math.factorial(c2))
        assert comp.multinomial() == count
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


@pytest.mark.parametrize("counts", REFERENCE_COMPOSITIONS)
def test_matcher_equals_per_position_reference(counts):
    comp = Composition(counts)
    k = ccdm_input_length(comp)
    rng = np.random.default_rng(sum(counts))
    words = [np.zeros(k, dtype=np.uint8), np.ones(k, dtype=np.uint8)]
    words += [rng.integers(0, 2, size=k).astype(np.uint8) for _ in range(100)]
    _check_against_reference(comp, words, rng)


def test_matcher_equals_reference_at_20000():
    comp = Composition.near_uniform(20000)
    k = ccdm_input_length(comp)
    rng = np.random.default_rng(20000)
    words = [np.zeros(k, dtype=np.uint8), np.ones(k, dtype=np.uint8),
             rng.integers(0, 2, size=k).astype(np.uint8)]
    _check_against_reference(comp, words, rng)


@pytest.mark.parametrize("counts", [Composition.near_uniform(1000).counts, (9, 8, 8)])
def test_matcher_image_ends_below_rank_2_to_the_k(counts):
    comp = Composition(counts)
    k = ccdm_input_length(comp)
    assert 2**k < comp.multinomial()
    last = _sequence_of_rank(2**k - 1, comp)
    assert np.array_equal(ccdm_encode(np.ones(k, dtype=np.uint8), comp), last)
    assert np.array_equal(ccdm_decode(last, comp), np.ones(k, dtype=np.uint8))
    # the next sequence of the class has the composition but no input
    beyond = _sequence_of_rank(2**k, comp)
    assert tuple(np.bincount(beyond, minlength=3)) == comp.counts
    with pytest.raises(ValueError, match="not in the matcher image"):
        ccdm_decode(beyond, comp)


@pytest.mark.parametrize("pos,value", [(0, 2), (-1, 255), (3, -1)])
def test_ccdm_and_pas_reject_non_binary_bits(pos, value):
    comp = Composition((9, 8, 8))
    k = ccdm_input_length(comp)
    d = np.zeros(k, dtype=np.int64)
    d[pos] = value
    with pytest.raises(ValueError, match="only 0 and 1"):
        ccdm_encode(d, comp)
    # the extra bits pas_encode puts on the signs are checked too: a length
    # 75 code of dimension 60 leaves g = 10 of them
    d = np.zeros(k + 10, dtype=np.int64)
    d[k + pos if pos >= 0 else pos] = value
    with pytest.raises(ValueError, match="only 0 and 1"):
        pas_encode(d, comp, ldpc_build(75, 60))


@pytest.mark.parametrize("value", [256, 0.7, -1])
def test_ccdm_decode_rejects_non_amplitudes(value):
    comp = Composition((9, 8, 8))
    a = ccdm_encode(np.zeros(ccdm_input_length(comp), dtype=np.uint8), comp)
    # 256 and 0.7 would otherwise be cast to amplitude 0 and decode cleanly
    bad = a.astype(type(value))
    bad[np.flatnonzero(a == 0)[0]] = value
    with pytest.raises(ValueError, match="only 0, 1 and 2"):
        ccdm_decode(bad, comp)


def test_shaped_levels_carry_their_labels():
    # every sent level's pam6_label label is (sign, matcher pair), the
    # table the receiver demaps with
    n, g = 1000, 426
    comp = Composition.near_uniform(n)
    k = ccdm_input_length(comp)
    code = ldpc_build(3 * n, 2 * n + g)
    d = np.random.default_rng(5).integers(0, 2, size=k + g).astype(np.uint8)
    x = pas_encode(d, comp, code)
    pairs = _label_bits(ccdm_encode(d[:k], comp))[:, 1:]
    u = np.concatenate([pairs.ravel(), d[k:]])
    signs = np.concatenate([ldpc_encode(u, code)[code.k:], d[k:]])
    assert np.array_equal(_label_bits(x), np.column_stack([signs, pairs]))


@pytest.mark.parametrize("gamma", [0.326, 0.426])
def test_pas_encode_layout_and_noiseless_decode(gamma):
    n = 1000
    comp = Composition.near_uniform(n)
    k = ccdm_input_length(comp)
    g = round(gamma * n)
    code = ldpc_build(3 * n, 2 * n + g)
    rng = np.random.default_rng(1)
    d = rng.integers(0, 2, size=k + g).astype(np.uint8)
    x = pas_encode(d, comp, code)
    assert x.shape == (n,)
    s, a = _sign_amp(x)
    # amplitudes carry the matcher output with the exact composition
    assert tuple(np.bincount(a, minlength=3)) == comp.counts
    assert np.array_equal(a, ccdm_encode(d[:k], comp))
    # sign sequence = (parity of (amplitude labels, extra bits), extra bits)
    u = np.concatenate([_label_bits(a)[:, 1:].ravel(), d[k:]])
    assert np.array_equal(s[: n - g], ldpc_encode(u, code)[code.k:])
    assert np.array_equal(s[n - g:], d[k:])
    # noiseless LLRs from the label bits themselves must round trip
    labels = _label_bits(x)
    llrs = (1.0 - 2.0 * labels.astype(np.float64)) * 12.0
    got, ok = pas_decode(llrs, comp, code)
    assert ok and np.array_equal(got, d)


def _small_frame(seed):
    """A 120-symbol frame: its code of dimension 300 leaves g = 60 data bits
    on the signs, and its source bits."""
    comp = Composition.near_uniform(120)
    code = ldpc_build(360, 300)
    d = np.random.default_rng(seed).integers(0, 2, ccdm_input_length(comp) + 60)
    return comp, code, d.astype(np.uint8)


def test_pas_small_frame_round_trip():
    comp, code, d = _small_frame(3)
    x = pas_encode(d, comp, code)
    s, a = _sign_amp(x)
    assert np.array_equal(s[-60:], d[-60:])
    assert np.array_equal(a, ccdm_encode(d[:-60], comp))
    llrs = (1.0 - 2.0 * _label_bits(x).astype(np.float64)) * 9.0
    got, ok = pas_decode(llrs, comp, code)
    assert ok and np.array_equal(got, d)


def _noiseless_llrs(x):
    return (1.0 - 2.0 * _label_bits(x).astype(np.float64)) * 9.0


@pytest.fixture
def matcher_calls(monkeypatch):
    """Counts the ccdm_decode calls pas_decode makes."""
    calls = []

    def counted(a, comp):
        calls.append(1)
        return ccdm_decode(a, comp)

    monkeypatch.setattr(shaping, "ccdm_decode", counted)
    return calls


def test_pas_decode_of_an_earlier_frame_runs_the_matcher_inverse(matcher_calls):
    comp, code, d_a = _small_frame(6)
    _, _, d_b = _small_frame(7)
    x_a = pas_encode(d_a, comp, code)
    x_b = pas_encode(d_b, comp, code)
    got, ok = pas_decode(_noiseless_llrs(x_a), comp, code)
    assert ok and np.array_equal(got, d_a) and len(matcher_calls) == 1
    # the frame encoded last is read from the record, with the same bits
    got, ok = pas_decode(_noiseless_llrs(x_b), comp, code)
    assert ok and np.array_equal(got, d_b) and len(matcher_calls) == 1


def test_other_amplitudes_never_return_the_recorded_bits():
    comp, code, d = _small_frame(8)
    assert comp.counts == (40, 40, 40)
    pas_encode(d, comp, code)
    k = ccdm_input_length(comp)
    a = ccdm_encode(d[:k], comp)
    i, j = np.flatnonzero(a == 0)[0], np.flatnonzero(a == 2)[0]
    swapped = a.copy()
    swapped[[i, j]] = swapped[[j, i]]
    # another sequence of the class, a shorter one, and the recorded one
    # read under another composition decode as the matcher inverse says
    others = [(swapped, comp), (np.roll(a, 1), comp), (a[1:], comp),
              (a, Composition((41, 40, 39)))]
    for seq, c in others:
        want = _decode_outcome(ccdm_decode, seq, c)
        got = _decode_outcome(shaping._unmatch, seq, c)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want) and not np.array_equal(got, d[:k])


def test_changing_decoded_bits_leaves_the_next_decode_alone():
    comp, code, d = _small_frame(9)
    source = d.copy()
    x = pas_encode(source, comp, code)
    source ^= 1
    got, ok = pas_decode(_noiseless_llrs(x), comp, code)
    assert ok and np.array_equal(got, d)
    got ^= 1
    again, ok = pas_decode(_noiseless_llrs(x), comp, code)
    assert ok and np.array_equal(again, d)
    # the matcher inverse itself hands out a copy of the recorded bits
    k = ccdm_input_length(comp)
    a = np.minimum(x, 5 - x)
    head = shaping._unmatch(a, comp)
    head ^= 1
    assert np.array_equal(shaping._unmatch(a, comp), d[:k])


def test_threads_decode_their_own_frames():
    # with more threads than cores and a short switch interval, the record
    # the matcher inverse reads often belongs to another thread's frame,
    # or is replaced while it is read; every thread must still get back
    # its own frame's bits
    comp, code, _ = _small_frame(0)
    k = ccdm_input_length(comp)

    def wrong_frames(seed):
        frames = [_small_frame(seed + i)[2] for i in (0, 100)]
        wrong = 0
        for i in range(100):
            d = frames[i % 2]
            x = pas_encode(d, comp, code)
            head = shaping._unmatch(np.minimum(x, 5 - x), comp)
            wrong += not np.array_equal(head, d[:k])
        got, ok = pas_decode(_noiseless_llrs(x), comp, code)
        return wrong + (not (ok and np.array_equal(got, d)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            wrong = list(pool.map(wrong_frames, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0] * 8


def test_pas_decode_flags_invalid_pairs():
    comp, code, d = _small_frame(4)
    labels = _label_bits(pas_encode(d, comp, code))
    # force one pair toward 00 with confident wrong LLRs
    llrs = (1.0 - 2.0 * labels.astype(np.float64)) * 9.0
    llrs[0, 1] = 50.0
    llrs[0, 2] = 50.0
    got, ok = pas_decode(llrs, comp, code)
    assert got is None and not ok


def test_pas_encode_validates_data_length():
    comp, code, _ = _small_frame(5)
    with pytest.raises(ValueError, match="source must provide"):
        pas_encode(np.zeros(5, dtype=np.uint8), comp, code)


@pytest.mark.parametrize("length,dim", [
    (3 * 120, 230),   # dimension below the 2n label bits
    (3 * 121, 250),   # length of a 121-symbol frame
])
def test_pas_rejects_code_that_does_not_fit_frame(length, dim):
    comp = Composition.near_uniform(120)
    code = ldpc_build(length, dim)
    d = np.zeros(ccdm_input_length(comp), dtype=np.uint8)
    with pytest.raises(ValueError, match="does not fit"):
        pas_encode(d, comp, code)
    with pytest.raises(ValueError, match="does not fit"):
        pas_decode(np.zeros((120, 3)), comp, code)
