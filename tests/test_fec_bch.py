"""BCH construction, round trips, and bounded-distance behavior."""
import itertools
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link.fec.bch import (_berlekamp_massey, _chien_roots, _syndromes, bch_build,
                              bch_decode, bch_encode, bch_strength)
from pam6link.fec.gf2m import GF2m
from pam6link.link import build_coded

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_field_tables_consistent():
    f = GF2m(4)
    # alpha^order == 1 and log/exp invert each other
    assert f.exp[f.order] == 1
    for v in range(1, f.order + 1):
        assert f.exp[f.log[v]] == v


def test_field_multiplication_matches_polynomial_model():
    f = GF2m(4)

    def poly_mul(a, b):
        # schoolbook GF(2)[x] product reduced by the primitive polynomial
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & (1 << 4):
                a ^= 0b10011
            b >>= 1
        return r

    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        assert f.mul(a, b) == poly_mul(a, b)


def test_build_dimensions_mother_4095():
    code = bch_build(4095, t=5)
    assert code.field.m == 12  # mother length 2**12 - 1 = 4095
    assert code.length == 4095
    assert code.parity_length == 60  # five distinct even cosets of size 12
    assert code.systematic_length == 4035


def test_build_shortened():
    code = bch_build(400, t=4)
    assert code.field.m == 9  # the smallest field reaching 400: 2**9 - 1 = 511
    assert code.length == 400
    assert code.systematic_length == 400 - code.parity_length


def _dimensions_by_scan(length):
    """Reference: build t = 1, 2, ... until no code is left (t beyond the
    field, or no data bits), with no cap on t; their dimensions in order."""
    dims = []
    while True:
        try:
            dims.append(bch_build(length, len(dims) + 1).systematic_length)
        except ValueError:
            return dims


def test_strength_matches_a_build_scan():
    for length in list(range(3, 80)) + [255, 400]:
        dims = _dimensions_by_scan(length)
        for k in range(1, length):
            # the scan stops at the first t whose dimension drops below k
            want = len(list(itertools.takewhile(lambda d: d >= k, dims)))
            if want == 0:
                with pytest.raises(ValueError, match="reaches k"):
                    bch_strength(length, k)
            else:
                assert bch_strength(length, k) == want, (length, k)


def test_strength_needs_a_supported_field():
    # 65535 is the longest length GF(2^16) reaches
    assert bch_strength(65535, 52428) == 850
    with pytest.raises(ValueError, match="GF\\(2\\^17\\)"):
        bch_strength(65536, 52428)


def test_encode_is_systematic():
    code = bch_build(200, t=3)
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
    cw = bch_encode(u, code)
    assert cw.size == code.length
    assert np.array_equal(cw[: code.systematic_length], u)


def _reference_encode(data, code):
    """(data, parity) with parity the XOR of the remainder rows x^(r+i) mod g
    that the data bits select; row 0 is g - x^r (g is monic), each next row
    the last times x."""
    gen, r = code.generator, code.parity_length
    rows = np.zeros((code.systematic_length, r), dtype=np.uint8)
    rows[0] = gen[:r]
    for i in range(1, code.systematic_length):
        rows[i, 1:] = rows[i - 1, :-1]
        if rows[i - 1, -1]:
            rows[i] ^= gen[:r]
    return np.concatenate([data, (data @ rows) & 1])


@pytest.mark.parametrize("code", [
    *(build_coded("cross_qam32", rate, 1000, "bch").bch for rate in (0.1, 1.8, 2.0, 2.1)),
    bch_build(400, t=4),
], ids=lambda c: f"n{c.length}-t{c.t}")
def test_division_parity_equals_remainder_rows(code):
    k = code.systematic_length
    rng = np.random.default_rng(code.t)
    # the lowest and the highest data bit alone, all ones, three random words
    words = np.zeros((6, k), dtype=np.uint8)
    words[0, 0] = words[1, -1] = 1
    words[2] = 1
    words[3:] = rng.integers(0, 2, size=(3, k))
    for u in words:
        assert np.array_equal(bch_encode(u, code), _reference_encode(u, code))


def test_limit_frame_encodes_and_corrects_in_linear_memory():
    # the longest frame: length 65535 at t = 850, whose dense remainder
    # table alone would hold 52439 x 13096 bytes (687 MB)
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from pam6link.fec import bch_decode, bch_encode
        from pam6link.link import build_coded
        code = build_coded("cross_qam32", 2.0, 26214, "bch").bch
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
        word = bch_encode(u, code)
        word[rng.choice(code.length, size=3, replace=False)] ^= 1
        got, ok = bch_decode(word, code)
        assert ok and np.array_equal(got, u)
        print(code.length, code.t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    length, t, maxrss_kb = map(int, done.stdout.split())
    assert (length, t) == (65535, 850)
    assert maxrss_kb < 200 * 1024


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_random_weight_t_corrected(seed):
    code = bch_build(255, t=3)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
    cw = bch_encode(u, code)
    word = cw.copy()
    nerr = int(rng.integers(0, code.t + 1))
    if nerr:
        word[rng.choice(len(word), size=nerr, replace=False)] ^= 1
    got, ok = bch_decode(word, code)
    assert ok and np.array_equal(got, u)


def test_exhaustive_weight_le_t_small():
    # every correctable pattern at (m=4, t=2, n=15); also the clean word
    code = bch_build(15, t=2)
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
    cw = bch_encode(u, code)
    n = code.length
    patterns = [np.zeros(n, dtype=np.uint8)]
    for i in range(n):
        e = np.zeros(n, dtype=np.uint8)
        e[i] = 1
        patterns.append(e)
        for j in range(i + 1, n):
            e2 = e.copy()
            e2[j] = 1
            patterns.append(e2)
    assert len(patterns) == 1 + 15 + 105
    for e in patterns:
        got, ok = bch_decode((cw ^ e).astype(np.uint8), code)
        assert ok and np.array_equal(got, u)


def test_beyond_t_detected_or_bounded_distance():
    # t+1 errors: either the decoder flags failure and returns the data
    # field untouched, or it lands on a codeword within distance t of the
    # received word (bounded-distance decoding, a miscorrection)
    code = bch_build(63, t=2)
    rng = np.random.default_rng(3)
    flagged = 0
    for _ in range(200):
        u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
        cw = bch_encode(u, code)
        word = cw.copy()
        word[rng.choice(len(word), size=code.t + 1, replace=False)] ^= 1
        got, ok = bch_decode(word, code)
        if not ok:
            flagged += 1
            assert np.array_equal(got, word[: code.systematic_length])
        else:
            cw2 = bch_encode(np.asarray(got, dtype=np.uint8), code)
            assert int(np.sum(cw2 ^ word)) <= code.t
    assert flagged > 0  # detection does happen at weight t+1


def _direct_syndromes(code, word):
    """S_j = word(alpha^j), every j in 1..2t evaluated on its own."""
    k, r = code.systematic_length, code.parity_length
    pos = np.flatnonzero(word)
    degs = np.where(pos < k, pos + r, pos - k)
    fld = code.field
    return np.array([np.bitwise_xor.reduce(fld.exp[degs * j % fld.order])
                     for j in range(1, 2 * code.t + 1)], dtype=np.int64)


def _full_recheck_decode(word, code):
    """Bounded-distance decode that re-checks the corrected word with a
    full direct syndrome pass: the reference bch_decode must agree with."""
    word = word.copy()
    k, r = code.systematic_length, code.parity_length
    synd = _direct_syndromes(code, word)
    if not synd.any():
        return word[:k], True
    sigma = _berlekamp_massey(code, synd)
    nerr = len(sigma) - 1
    if nerr == 0 or nerr > code.t:
        return word[:k], False
    roots = _chien_roots(code, sigma)
    if roots.size != nerr:
        return word[:k], False
    flip = np.where(roots >= r, roots - r, roots + k)
    word[flip] ^= 1
    if _direct_syndromes(code, word).any():
        word[flip] ^= 1
        return word[:k], False
    return word[:k], True


CODES = [(15, 2), (63, 3), (200, 4), (1000, 12), (2047, 20)]


@pytest.mark.parametrize("length,t", CODES)
def test_syndromes_equal_direct_evaluation(length, t):
    # the even S_j are squares of earlier ones, not evaluated: every j
    # must still equal word(alpha^j)
    code = bch_build(length, t)
    rng = np.random.default_rng(length)
    for density in (0.0, 1 / length, 0.5, 1.0):
        word = (rng.random(length) < density).astype(np.uint8)
        assert np.array_equal(_syndromes(code, word), _direct_syndromes(code, word))


@pytest.mark.parametrize("length,t", CODES)
def test_decode_outcomes_match_full_recheck(length, t):
    # the corrected word is re-checked from the flipped bits' syndromes
    # alone: (data, ok) must be what a full second syndrome pass gives,
    # on clean words, correctable patterns and beyond-t patterns
    code = bch_build(length, t)
    rng = np.random.default_rng(t)
    outcomes = set()
    for weight in range(t + 3):
        for _ in range(8):
            u = rng.integers(0, 2, size=code.systematic_length).astype(np.uint8)
            word = bch_encode(u, code)
            word[rng.choice(length, size=weight, replace=False)] ^= 1
            got, ok = bch_decode(word, code)
            want, want_ok = _full_recheck_decode(word, code)
            assert ok == want_ok and np.array_equal(got, want)
            outcomes.add((ok, bool(np.array_equal(got, u))))
    assert (True, True) in outcomes and (False, False) in outcomes


def test_decode_rejects_bad_length():
    code = bch_build(100, t=2)
    with pytest.raises(ValueError):
        bch_decode(np.zeros(99, dtype=np.uint8), code)
