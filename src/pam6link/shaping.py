"""Constant-composition distribution matching and sign-bit shaped framing.

The matcher maps k uniform bits onto ternary amplitude sequences of a fixed
composition by exact integer interval subdivision (enumerative arithmetic
coding), so encode/decode round-trip exactly with no floating point.

Cost of one block of n amplitudes carrying k bits, with exact integers
throughout: ``ccdm_encode`` and ``ccdm_decode`` walk the same subdivision,
O(n) Python steps of one k-bit division by a small int and two k-bit
multiplies by small ints each, in O(n) memory. ``pas_encode`` records its
last matcher call, so ``pas_decode`` of a frame whose decoded amplitudes
are that call's output costs one O(n) comparison and a copy instead of
``ccdm_decode``: in a frame loop, every intact frame.

The frame construction carries the remaining information on the sign bits:
amplitudes are labeled with bit pairs, fed through a systematic LDPC
encoder, and the parity plus extra data bits select the upper or lower half
of the PAM-6 alphabet per symbol. The code's dimension fixes how many sign
bits carry data. Shaped frames map through the ``pam6_label`` table that the
receiver demaps with: amplitude a is level a, whose label is (0, pair), and
each symbol sends the level labeled (sign, pair).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import as_bits
from .constellation import build_constellation, map_bits
from .fec.ldpc import ldpc_decode, ldpc_encode

# the one labeling of shaped frames, shared with the receiver's demapper
_PAM6 = build_constellation("pam6_label")

DEFAULT_MATCHER_N = 1000  # amplitudes per shaped block

# (composition, amplitudes, input bits) of the last pas_encode matcher call,
# replaced by one assignment so that a reader always sees a matching triple
_last_match = None


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
        return _multinomial(*self.counts)

    @classmethod
    def near_uniform(cls, n: int) -> "Composition":
        """Near-uniform composition for block length n, surplus on symbol 0."""
        base, rem = divmod(n, 3)
        counts = tuple(base + (1 if i < rem else 0) for i in range(3))
        return cls(counts)


@functools.lru_cache(maxsize=16)
def _multinomial(n0: int, n1: int, n2: int) -> int:
    return math.comb(n0 + n1 + n2, n0) * math.comb(n1 + n2, n1)


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
    data = as_bits(data, "matcher input")
    k = ccdm_input_length(comp)
    if len(data) != k:
        raise ValueError(f"matcher input must be {k} bits, got {len(data)}")
    # packbits pads the last byte on the right; shift the padding out
    index = int.from_bytes(np.packbits(data).tobytes(), "big") >> (-k % 8)
    c0, c1, _ = comp.counts
    n = comp.n
    remaining = comp.multinomial()
    out = bytearray(n)
    for pos in range(n):
        # sequences starting with symbol s number remaining * c_s / m, an
        # exact integer; split remaining = q*m + r so the two thresholds
        # need one bigint division and small-int floors. index < remaining
        # throughout (2**k <= class size), so no symbol of count 0 is chosen
        m = n - pos
        q, r = divmod(remaining, m)
        t0 = q * c0 + r * c0 // m
        if index < t0:
            remaining = t0
            c0 -= 1
            continue
        c01 = c0 + c1
        t1 = q * c01 + r * c01 // m
        if index < t1:
            out[pos] = 1
            index -= t0
            remaining = t1 - t0
            c1 -= 1
        else:
            out[pos] = 2
            index -= t1
            remaining -= t1
    return np.frombuffer(out, dtype=np.int8)


def ccdm_decode(a, comp: Composition) -> np.ndarray:
    """Recover the matcher input bits from a sequence in the encoder image.

    Retraces ccdm_encode's subdivision: each position splits the remaining
    class at the same thresholds t0 and t1, and the symbol placed adds the
    sequences of the lower symbols (0, t0 or t1) to the rank.
    """
    a = np.asarray(a).ravel()
    # checked before the cast, which would read 256 or 0.7 as amplitude 0
    if not np.all((a == 0) | (a == 1) | (a == 2)):
        raise ValueError("matcher sequence must hold only 0, 1 and 2")
    a = a.astype(np.int8)
    n = comp.n
    if len(a) != n:
        raise ValueError(f"sequence length {len(a)} != composition length {n}")
    observed = tuple(np.bincount(a, minlength=3).tolist())
    if observed != tuple(comp.counts):
        raise ValueError(f"composition mismatch: got {observed}, expected {comp.counts}")
    k = ccdm_input_length(comp)
    c0, c1, _ = comp.counts
    remaining = comp.multinomial()
    index = 0
    for pos, sym in enumerate(a.tolist()):
        m = n - pos
        q, r = divmod(remaining, m)
        t0 = q * c0 + r * c0 // m
        if sym == 0:
            remaining = t0
            c0 -= 1
            continue
        c01 = c0 + c1
        t1 = q * c01 + r * c01 // m
        if sym == 1:
            index += t0
            remaining = t1 - t0
            c1 -= 1
        else:
            index += t1
            remaining -= t1
    if index >> k:
        raise ValueError("sequence is not in the matcher image")
    raw = np.frombuffer((index << (-k % 8)).to_bytes(-(-k // 8), "big"), dtype=np.uint8)
    return np.unpackbits(raw)[:k]


def _extra_bits(comp: Composition, code) -> int:
    """Data bits g carried on signs: code.k - 2n.

    The LDPC input is the 2n amplitude label bits plus g data bits, and its
    n - g parity bits fill the remaining signs, so the code must have length
    3n and a dimension in [2n, 3n).
    """
    n = comp.n
    if code.n != 3 * n or not 2 * n <= code.k < 3 * n:
        raise ValueError(
            f"LDPC code (n={code.n}, k={code.k}) does not fit a {n}-symbol "
            f"frame: need length {3 * n} and dimension in [{2 * n}, {3 * n})"
        )
    return code.k - 2 * n


def pas_encode(d, comp: Composition, code) -> np.ndarray:
    """Source bits -> PAM-6 levels of one sign-bit shaped frame.

    The first ccdm_input_length(comp) bits pick the amplitudes. Their label
    pairs and the g remaining bits form the systematic input u of ``code``
    (an LdpcCode); the signs carry (parity of u, the g extra bits).
    """
    g = _extra_bits(comp, code)
    k = ccdm_input_length(comp)
    d = as_bits(d, "source")
    if len(d) != k + g:
        raise ValueError(f"expected {k + g} data bits (k={k}, g={g}), got {len(d)}")
    global _last_match
    a = ccdm_encode(d[:k], comp)
    _last_match = (comp, a, d[:k])
    # amplitude a is level a, whose label has sign bit 0
    pairs = _PAM6.labels[a, 1:]
    u = np.concatenate([pairs.ravel(), d[k:]])
    s = np.concatenate([ldpc_encode(u, code)[code.k:], d[k:]])
    return map_bits(np.column_stack([s, pairs]), _PAM6)


def _unmatch(a, comp: Composition) -> np.ndarray:
    """ccdm_decode(a, comp), copied from the last pas_encode call when it
    matched these amplitudes under this composition."""
    last = _last_match
    if last is not None and last[0] == comp and np.array_equal(a, last[1]):
        return last[2].copy()
    return ccdm_decode(a, comp)


def pas_decode(label_llrs, comp: Composition, code):
    """Recover source bits from per-symbol label LLRs via the frame inverse.

    ``label_llrs`` is (n, 3): LLR of (sign bit, pair bit 1, pair bit 2) per
    symbol, positive favoring 0. The codeword is min-sum decoded with
    ``code``. Returns ``(d_hat, ok)``; ``ok`` is False when the decoder did
    not converge or the decoded frame violates the shaping structure (a 00
    pair or a composition mismatch), and then d_hat may be None.

    The matcher input is read from the last ``pas_encode`` call when the
    decoded amplitudes equal that call's, element for element, under the
    same composition; otherwise ``ccdm_decode`` inverts them. Both give the
    same bits, because the matcher is a bijection onto its image
    (Schulte & Boecherer, "Constant Composition Distribution Matching",
    IEEE Trans. IT 2016). The record is one tuple replaced in one
    assignment, so a thread reads the amplitudes and bits of one call.
    """
    n = comp.n
    g = _extra_bits(comp, code)
    llrs = np.asarray(label_llrs, dtype=np.float64)
    if llrs.shape != (n, 3):
        raise ValueError(f"expected ({n}, 3) label LLRs, got {llrs.shape}")
    # codeword = (b, d_extra, p); signs carry (p, d_extra)
    sign_llrs = llrs[:, 0]
    cw_llrs = np.concatenate([llrs[:, 1:].reshape(-1), sign_llrs[n - g:], sign_llrs[:n - g]])
    bits, converged, _ = ldpc_decode(cw_llrs, code)
    d_extra = bits[2 * n : 2 * n + g]
    try:
        # amplitudes are the levels labeled (0, pair); a 00 pair is no label
        signs = np.zeros(n, dtype=np.uint8)
        a_hat = map_bits(np.column_stack([signs, bits[: 2 * n].reshape(n, 2)]), _PAM6)
        d_head = _unmatch(a_hat, comp)
    except ValueError:
        return None, False
    d_hat = np.concatenate([d_head, d_extra])
    return d_hat, bool(converged)
