"""Additive scrambling so coded bits look i.i.d. uniform to the mapper.

The scrambler XORs one fixed pseudo-random sequence, Philox stream (_SEED,
_STREAM), onto the bits; applying it twice is the identity. Soft receivers
keep the LLRs and flip their signs wherever the scramble bit is one.
Sign-bit shaped frames must NOT be scrambled: flipping bits there would
destroy the amplitude composition.
"""
from __future__ import annotations

import functools

import numpy as np

from ..channel import as_bits, philox

_SEED, _STREAM = 0xC0DEC, 0x5C12A


@functools.lru_cache(maxsize=8)
def _prbs(n: int) -> np.ndarray:
    """The scramble sequence of n bits, built once per length; read-only."""
    seq = philox(_SEED, _STREAM).integers(0, 2, size=n, dtype=np.uint8)
    seq.flags.writeable = False
    return seq


def scramble(bits: np.ndarray) -> np.ndarray:
    """XOR with the scramble sequence; self-inverse, so it also descrambles.
    Raises ValueError unless every entry is 0 or 1."""
    bits = as_bits(bits, "scrambler input")
    return bits ^ _prbs(bits.size)


def adapt_llrs(llrs: np.ndarray) -> np.ndarray:
    """Descramble soft values: negate LLRs where the scramble bit is one."""
    llrs = np.asarray(llrs, dtype=np.float64).ravel()
    flip = _prbs(llrs.size).astype(np.float64)
    return llrs * (1.0 - 2.0 * flip)
