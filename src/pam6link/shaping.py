"""Constant-composition distribution matching and sign-bit shaped framing.

The matcher maps k uniform bits onto ternary amplitude sequences of a fixed
composition by exact integer interval subdivision (enumerative arithmetic
coding), so encode/decode round-trip exactly with no floating point.

The frame construction carries the remaining information on the sign bits:
amplitudes are labeled with bit pairs, fed through a systematic LDPC
encoder, and the parity plus extra data bits select the upper or lower half
of the PAM-6 alphabet per symbol. The code's dimension fixes how many sign
bits carry data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fec.ldpc import ldpc_decode, ldpc_encode

# ternary amplitude class -> bit pair; the pattern 00 is never emitted
AMP_TO_PAIR = {0: (0, 1), 1: (1, 1), 2: (1, 0)}

DEFAULT_MATCHER_N = 1000  # amplitudes per shaped block


@dataclass(frozen=True)
class Composition:
    """Occurrence counts of the ternary symbols {0, 1, 2} in one DM block."""

    counts: tuple[int, int, int]

    def __post_init__(self):
        if len(self.counts) != 3 or any(c < 0 for c in self.counts):
            raise ValueError("composition needs three non-negative counts")
        if self.n == 0:
            raise ValueError("composition must be non-empty")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def multinomial(self) -> int:
        """Number of distinct sequences with this composition (exact)."""
        n0, n1, n2 = self.counts
        return math.factorial(self.n) // (
            math.factorial(n0) * math.factorial(n1) * math.factorial(n2)
        )

    @classmethod
    def near_uniform(cls, n: int) -> "Composition":
        """Near-uniform composition for block length n, surplus on symbol 0."""
        base, rem = divmod(n, 3)
        counts = tuple(base + (1 if i < rem else 0) for i in range(3))
        return cls(counts)


def ccdm_input_length(comp: Composition) -> int:
    """Number of data bits the matcher absorbs: floor(log2 of the class size)."""
    return comp.multinomial().bit_length() - 1


def ccdm_encode(data, comp: Composition) -> np.ndarray:
    """Map k = ccdm_input_length(comp) bits to a sequence with composition comp.

    The i-th lexicographic sequence of the composition class is selected,
    where i is the input read as an MSB-first integer; the interval of
    remaining sequence counts is subdivided proportionally to the remaining
    symbol counts at every position.
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    k = ccdm_input_length(comp)
    if len(data) != k:
        raise ValueError(f"matcher input must be {k} bits, got {len(data)}")
    index = 0
    for bit in data:
        index = (index << 1) | int(bit)
    counts = list(comp.counts)
    n = comp.n
    remaining = comp.multinomial()
    out = np.empty(n, dtype=np.int8)
    for pos in range(n):
        for sym in (0, 1, 2):
            if counts[sym] == 0:
                continue
            # sequences starting with sym: exact subdivision of the interval
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


def ccdm_decode(a, comp: Composition) -> np.ndarray:
    """Recover the matcher input bits from a sequence in the encoder image."""
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


def amplitudes_to_pairs(a) -> np.ndarray:
    """Ternary amplitudes -> flat label-bit sequence (2 bits per symbol)."""
    a = np.asarray(a, dtype=np.int64).ravel()
    table = np.array([AMP_TO_PAIR[0], AMP_TO_PAIR[1], AMP_TO_PAIR[2]], dtype=np.uint8)
    return table[a].ravel()


def pairs_to_amplitudes(b) -> np.ndarray:
    """Flat label bits -> ternary amplitudes; raises on a 00 pair."""
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 2)
    amps = np.empty(len(b), dtype=np.int8)
    code = b[:, 0] * 2 + b[:, 1]
    if np.any(code == 0):
        raise ValueError("label pair 00 does not encode an amplitude")
    lut = np.array([-1, 0, 2, 1], dtype=np.int8)  # 01->0, 10->2, 11->1
    amps[:] = lut[code]
    return amps


def symbols_from_sign_amp(s, a) -> np.ndarray:
    """PAM-6 level per symbol: lower half {0,1,2} for s=0, mirrored for s=1."""
    s = np.asarray(s, dtype=np.int64).ravel()
    a = np.asarray(a, dtype=np.int64).ravel()
    return np.where(s == 0, a, 5 - a)


def sign_amp_from_symbols(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.int64).ravel()
    s = (x >= 3).astype(np.uint8)
    a = np.where(s == 0, x, 5 - x).astype(np.int8)
    return s, a


def _extra_bits(comp: Composition, code) -> int:
    """Data bits g carried on signs: code.k - 2n, or every sign (n) uncoded.

    The LDPC input is the 2n amplitude label bits plus g data bits, and its
    n - g parity bits fill the remaining signs, so the code must have length
    3n and a dimension in [2n, 3n).
    """
    n = comp.n
    if code is None:
        return n
    if code.n != 3 * n or not 2 * n <= code.k < 3 * n:
        raise ValueError(
            f"LDPC code (n={code.n}, k={code.k}) does not fit a {n}-symbol "
            f"frame: need length {3 * n} and dimension in [{2 * n}, {3 * n})"
        )
    return code.k - 2 * n


def pas_encode(d, comp: Composition, code=None) -> np.ndarray:
    """Source bits -> PAM-6 levels of one sign-bit shaped frame.

    The first ccdm_input_length(comp) bits pick the amplitudes. Their label
    pairs and the g remaining bits form the systematic input u of ``code``
    (an LdpcCode); the signs carry (parity of u, the g extra bits). With
    ``code`` None every sign carries a data bit and nothing is protected.
    """
    g = _extra_bits(comp, code)
    k = ccdm_input_length(comp)
    d = np.asarray(d, dtype=np.uint8).ravel()
    if len(d) != k + g:
        raise ValueError(f"source must provide {k + g} bits (k={k}, g={g}), got {len(d)}")
    a = ccdm_encode(d[:k], comp)
    if code is None:
        s = d[k:]
    else:
        u = np.concatenate([amplitudes_to_pairs(a), d[k:]])
        s = np.concatenate([ldpc_encode(u, code)[code.k:], d[k:]])
    return symbols_from_sign_amp(s, a)


def pas_decode(label_llrs, comp: Composition, code=None):
    """Recover source bits from per-symbol label LLRs via the frame inverse.

    ``label_llrs`` is (n, 3): LLR of (sign bit, pair bit 1, pair bit 2) per
    symbol, positive favoring 0. The codeword is min-sum decoded with
    ``code``, or hard-thresholded when ``code`` is None. Returns
    ``(d_hat, ok)``; ``ok`` is False when the decoder did not converge or
    the decoded frame violates the shaping structure (a 00 pair or a
    composition mismatch), and then d_hat may be None.
    """
    n = comp.n
    g = _extra_bits(comp, code)
    llrs = np.asarray(label_llrs, dtype=np.float64)
    if llrs.shape != (n, 3):
        raise ValueError(f"expected ({n}, 3) label LLRs, got {llrs.shape}")
    # codeword = (b, d_extra, p); signs carry (p, d_extra)
    sign_llrs = llrs[:, 0]
    cw_llrs = np.concatenate([llrs[:, 1:].reshape(-1), sign_llrs[n - g:], sign_llrs[:n - g]])
    if code is None:
        bits, converged = (cw_llrs < 0).astype(np.uint8), True
    else:
        bits, converged, _ = ldpc_decode(cw_llrs, code)
    b_hat = bits[: 2 * n]
    d_extra = bits[2 * n : 2 * n + g]
    try:
        a_hat = pairs_to_amplitudes(b_hat)
        d_head = ccdm_decode(a_hat, comp)
    except ValueError:
        return None, False
    d_hat = np.concatenate([d_head, d_extra])
    return d_hat, bool(converged)
