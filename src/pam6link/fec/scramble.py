"""Additive scrambling so coded bits look i.i.d. uniform to the mapper.

The scrambler XORs a seeded pseudo-random sequence onto the bits; applying
it twice is the identity. Soft receivers keep the LLRs and flip their signs
wherever the scramble bit is one. Sign-bit shaped frames must NOT be
scrambled: flipping bits there would destroy the amplitude composition.
"""
from __future__ import annotations

import functools

import numpy as np

from ..channel import philox


@functools.lru_cache(maxsize=8)
def _prbs(n: int, seed: int) -> np.ndarray:
    """The scramble sequence, built once per (length, seed); read-only."""
    seq = philox(seed, 0x5C12A).integers(0, 2, size=n, dtype=np.uint8)
    seq.flags.writeable = False
    return seq


def scramble(bits: np.ndarray, seed: int) -> np.ndarray:
    """XOR with the seeded sequence; self-inverse, so it also descrambles."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return bits ^ _prbs(bits.size, seed)


def adapt_llrs(llrs: np.ndarray, seed: int) -> np.ndarray:
    """Descramble soft values: negate LLRs where the scramble bit is one."""
    llrs = np.asarray(llrs, dtype=np.float64).ravel()
    flip = _prbs(llrs.size, seed).astype(np.float64)
    return llrs * (1.0 - 2.0 * flip)
