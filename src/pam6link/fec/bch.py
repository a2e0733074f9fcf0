"""Binary BCH codes: systematic encoding and bounded-distance decoding.

Codes are built from a mother code of length 2^m - 1 and shortened to the
requested length by fixing the highest-degree coefficients to zero. The
codeword vector is (data, parity); data bit i sits at polynomial degree
r + i (r = parity length), parity bit j at degree j.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2m import GF2m


def _cyclotomic_coset(j: int, n: int) -> tuple:
    coset = []
    x = j
    while x not in coset:
        coset.append(x)
        x = (2 * x) % n
    return tuple(sorted(coset))


def _minimal_poly(field: GF2m, coset) -> np.ndarray:
    """prod_{i in coset} (x - alpha^i), coefficients in GF(2)."""
    poly = [1]
    for i in coset:
        root = field.pow_alpha(i)
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(c, root)
        poly = nxt
    coeffs = np.array(poly, dtype=np.uint8)
    if not np.all((coeffs == 0) | (coeffs == 1)):
        raise AssertionError("minimal polynomial left the base field")
    return coeffs


def _poly_mul_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.convolve(a.astype(np.int64), b.astype(np.int64)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class BchCode:
    m: int
    t: int
    length: int
    generator: np.ndarray  # GF(2) coefficients, generator[d] is the x^d term
    field: GF2m = field(repr=False, default=None)

    @property
    def n_mother(self) -> int:
        return (1 << self.m) - 1

    @property
    def parity_length(self) -> int:
        return len(self.generator) - 1

    @property
    def systematic_length(self) -> int:
        return self.length - self.parity_length

    @property
    def rate(self) -> float:
        return self.systematic_length / self.length


def field_degree(length: int) -> int:
    """Smallest m >= 2 whose mother length 2^m - 1 reaches length; the
    t = 1 code, with the most data bits, carries length - m of them."""
    m = max(2, length.bit_length())
    if (1 << m) - 1 < length:
        m += 1
    return m


def bch_build(length: int, t: int, m: int = None) -> BchCode:
    """Construct a t-error-correcting BCH code of the given length.

    m picks the mother-code length 2^m - 1; by default the smallest field
    with n_mother >= length is used.
    """
    if m is None:
        m = field_degree(length)
    fld = GF2m(m)
    n = fld.order
    if length > n:
        raise ValueError(f"length {length} exceeds mother length {n}")
    if not 1 <= t or 2 * t >= n:
        raise ValueError(f"t={t} outside [1, {(n - 1) // 2}] for mother length {n}")
    seen = set()
    gen = np.array([1], dtype=np.uint8)
    for j in range(1, 2 * t + 1):
        coset = _cyclotomic_coset(j, n)
        if coset in seen:
            continue
        seen.add(coset)
        gen = _poly_mul_gf2(gen, _minimal_poly(fld, coset))
    if length <= len(gen) - 1:
        raise ValueError(
            f"length {length} leaves no room for data (parity {len(gen) - 1})"
        )
    return BchCode(m=m, t=t, length=length, generator=gen, field=fld)


def _remainder_table(code: BchCode) -> np.ndarray:
    """Row i is x^(r+i) mod g, so parity = XOR of rows selected by data bits."""
    r = code.parity_length
    k = code.systematic_length
    g = code.generator
    table = np.zeros((k, r), dtype=np.uint8)
    # iterative x^(r) mod g, then multiply by x stepwise
    cur = np.zeros(r, dtype=np.uint8)
    # x^r mod g = g - x^r truncated (g is monic)
    cur[:] = g[:r]
    table[0] = cur
    for i in range(1, k):
        carry = cur[r - 1]
        nxt = np.zeros(r, dtype=np.uint8)
        nxt[1:] = cur[: r - 1]
        if carry:
            nxt ^= g[:r]
        cur = nxt
        table[i] = cur
    return table


_REM_CACHE: dict = {}


def _remainders(code: BchCode) -> np.ndarray:
    key = (code.m, code.t, code.length)
    if key not in _REM_CACHE:
        _REM_CACHE[key] = _remainder_table(code)
    return _REM_CACHE[key]


def bch_encode(data: np.ndarray, code: BchCode) -> np.ndarray:
    data = np.asarray(data, dtype=np.uint8).ravel()
    if data.size != code.systematic_length:
        raise ValueError(
            f"expected {code.systematic_length} data bits, got {data.size}"
        )
    parity = (data @ _remainders(code)) & 1
    return np.concatenate([data, parity.astype(np.uint8)])


def _degrees(code: BchCode) -> np.ndarray:
    """Polynomial degree of each codeword-vector position."""
    r = code.parity_length
    k = code.systematic_length
    return np.concatenate([np.arange(k) + r, np.arange(r)])


def _syndromes(code: BchCode, word: np.ndarray) -> np.ndarray:
    degs = _degrees(code)[word != 0]
    js = np.arange(1, 2 * code.t + 1)
    if degs.size == 0:
        return np.zeros(2 * code.t, dtype=np.int64)
    expo = (degs[:, None] * js[None, :]) % code.field.order
    vals = code.field.exp[expo]
    return np.bitwise_xor.reduce(vals, axis=0)


def _berlekamp_massey(code: BchCode, synd: np.ndarray) -> list:
    """Error-locator sigma(x) from the syndrome sequence, constant term 1."""
    fld = code.field
    sigma = [1]
    prev = [1]
    L = 0
    shift = 1
    b = 1
    for i, s in enumerate(synd):
        d = int(s)
        for j in range(1, L + 1):
            if j < len(sigma):
                d ^= fld.mul(sigma[j], int(synd[i - j]))
        if d == 0:
            shift += 1
            continue
        coef = fld.mul(d, fld.inv(b))
        cand = list(sigma) + [0] * max(0, len(prev) + shift - len(sigma))
        for j, p in enumerate(prev):
            cand[j + shift] ^= fld.mul(coef, p)
        if 2 * L <= i:
            prev = list(sigma)
            L = i + 1 - L
            b = d
            shift = 1
        else:
            shift += 1
        sigma = cand
    return sigma[: L + 1]


def _chien_roots(code: BchCode, sigma) -> np.ndarray:
    """Degrees d in [0, length) with sigma(alpha^-d) = 0."""
    fld = code.field
    nz = [(l, fld.log[c]) for l, c in enumerate(sigma) if c != 0]
    d = np.arange(code.length)
    acc = np.zeros(code.length, dtype=np.int64)
    for l, logc in nz:
        acc ^= fld.exp[(logc - d * l) % fld.order]
    return d[acc == 0]


def bch_decode(word: np.ndarray, code: BchCode):
    """Bounded-distance decode; returns (data_bits, ok).

    ok is False when the error locator is inconsistent or the corrected
    word still has nonzero syndromes (decoder detects but cannot correct).
    """
    word = np.asarray(word, dtype=np.uint8).ravel().copy()
    if word.size != code.length:
        raise ValueError(f"expected {code.length} bits, got {word.size}")
    k = code.systematic_length
    synd = _syndromes(code, word)
    if not synd.any():
        return word[:k], True
    sigma = _berlekamp_massey(code, synd)
    nerr = len(sigma) - 1
    if nerr == 0 or nerr > code.t:
        return word[:k], False
    roots = _chien_roots(code, sigma)
    if roots.size != nerr:
        return word[:k], False
    degs = _degrees(code)
    pos = np.searchsorted(np.sort(degs), roots)
    # map degrees back to vector positions
    order = np.argsort(degs)
    flip = order[pos]
    word[flip] ^= 1
    if _syndromes(code, word).any():
        word[flip] ^= 1
        return word[:k], False
    return word[:k], True
