"""Binary BCH codes: systematic encoding and bounded-distance decoding.

Codes are built from a mother code of length 2^m - 1 and shortened to the
requested length by fixing the highest-degree coefficients to zero. The
codeword vector is (data, parity); data bit i sits at polynomial degree
r + i (r = parity length), parity bit j at degree j.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2m import PRIMITIVE_POLY, GF2m


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
    t: int
    length: int
    generator: np.ndarray  # GF(2) coefficients, generator[d] is the x^d term
    field: GF2m = field(repr=False)

    @property
    def parity_length(self) -> int:
        return len(self.generator) - 1

    @property
    def systematic_length(self) -> int:
        return self.length - self.parity_length


def _cosets(n: int, t: int):
    """The distinct cyclotomic cosets mod n that meet 1..2t, as (least
    element, coset) in increasing order; the t-error code's generator is
    the product of their minimal polynomials."""
    seen = set()
    for j in range(1, 2 * t, 2):  # an even j shares the coset of j / 2
        if j not in seen:
            coset = _cyclotomic_coset(j, n)
            seen.update(coset)
            yield j, coset


def _field_degree(length: int) -> int:
    """Smallest m >= 2 whose mother length 2^m - 1 reaches length."""
    m = max(2, length.bit_length())
    if m not in PRIMITIVE_POLY:
        raise ValueError(f"BCH length {length} needs GF(2^{m}); "
                         f"at most GF(2^{max(PRIMITIVE_POLY)}) is supported")
    return m


def bch_strength(length: int, k: int) -> int:
    """Strongest t whose code of the given length keeps at least k data
    bits: each coset the generator takes on costs its size in parity.
    Raises ValueError when t = 1 already keeps fewer, or when the length
    needs a field beyond those PRIMITIVE_POLY lists."""
    n = (1 << _field_degree(length)) - 1
    parity = 0
    for j, coset in _cosets(n, (n - 1) // 2):
        parity += len(coset)
        if length - parity < max(k, 1):  # a code keeps one data bit
            if j == 1:
                raise ValueError(f"no BCH code of length {length} reaches k={k}")
            return (j - 1) // 2
    return (n - 1) // 2


def bch_build(length: int, t: int) -> BchCode:
    """Construct a t-error-correcting BCH code of the given length, shortened
    from the mother code of the smallest field that reaches it."""
    fld = GF2m(_field_degree(length))
    n = fld.order
    if not 1 <= t or 2 * t >= n:
        raise ValueError(f"t={t} outside [1, {(n - 1) // 2}] for mother length {n}")
    gen = np.array([1], dtype=np.uint8)
    for _, coset in _cosets(n, t):
        gen = _poly_mul_gf2(gen, _minimal_poly(fld, coset))
    r = len(gen) - 1
    if length <= r:
        raise ValueError(f"length {length} leaves no room for data (parity {r})")
    gen.flags.writeable = False
    return BchCode(t=t, length=length, generator=gen, field=fld)


def _to_int(bits) -> int:
    """GF(2) polynomial as an int: bits[d] is the x^d coefficient, bit d."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def bch_encode(data: np.ndarray, code: BchCode) -> np.ndarray:
    data = np.asarray(data, dtype=np.uint8).ravel()
    if data.size != code.systematic_length:
        raise ValueError(
            f"expected {code.systematic_length} data bits, got {data.size}"
        )
    # parity(x) = data(x) x^r mod g(x), by long division on ints
    r = code.parity_length
    g = _to_int(code.generator)
    rem = _to_int(data) << r
    while (top := rem.bit_length() - 1) >= r:
        rem ^= g << (top - r)
    raw = np.frombuffer(rem.to_bytes(-(-r // 8), "little"), dtype=np.uint8)
    return np.concatenate([data, np.unpackbits(raw, bitorder="little")[:r]])


def _power_sums(fld: GF2m, degs: np.ndarray, count: int) -> np.ndarray:
    """S_j = sum over d in degs of alpha^(d j), for j = 1..count.

    Only the odd j are evaluated, one at a time with a running exponent
    (memory linear in degs); over GF(2) an even j = o 2^k (o odd) gives
    S_j = S_o^(2^k), read through the log/exp tables.
    """
    order = fld.order
    step = 2 * degs % order
    expo = (order - degs) % order  # -d: the first pass lands on j = 1
    odd = np.empty((count + 1) // 2, dtype=np.int64)
    for i in range(odd.size):
        expo += step  # d j mod order; both terms are below order
        expo[expo >= order] -= order
        odd[i] = np.bitwise_xor.reduce(fld.exp[expo])
    j = np.arange(1, count + 1)
    power = j & -j  # 2^k
    base = odd[(j // power - 1) // 2]
    return np.where(base != 0, fld.exp[fld.log[base] * power % order], 0)


def _syndromes(code: BchCode, word: np.ndarray) -> np.ndarray:
    """S_j = word(alpha^j) for j = 1..2t."""
    pos = np.flatnonzero(word)
    k = code.systematic_length
    # data bit i sits at degree r + i, parity bit j at degree j
    degs = np.where(pos < k, pos + code.parity_length, pos - k)
    return _power_sums(code.field, degs, 2 * code.t)


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
    # degree d is data bit d - r, or parity bit d (after the k data bits)
    r = code.parity_length
    flip = np.where(roots >= r, roots - r, roots + k)
    # the corrected word's syndromes: synd plus those of the flipped bits
    if (synd ^ _power_sums(code.field, roots, 2 * code.t)).any():
        return word[:k], False
    word[flip] ^= 1
    return word[:k], True
