"""Table-driven GF(2^m) arithmetic for algebraic decoding."""
from __future__ import annotations

import numpy as np

# primitive polynomials, index = m (bitmask includes the x^m term)
PRIMITIVE_POLY = {
    2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011,
    7: 0b10001001, 8: 0b100011101, 9: 0b1000010001, 10: 0b10000001001,
    11: 0b100000000101, 12: 0b1000001010011, 13: 0b10000000011011,
    14: 0b100010001000011, 15: 0b1000000000000011, 16: 0b10001000000001011,
}


class GF2m:
    """GF(2^m) with exp/log tables; elements are ints in [0, 2^m)."""

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLY:
            raise ValueError(f"unsupported field degree {m}")
        self.m = m
        self.order = (1 << m) - 1
        poly = PRIMITIVE_POLY[m]
        exp = np.zeros(2 * self.order, dtype=np.int64)
        log = np.zeros(self.order + 1, dtype=np.int64)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly
        exp[self.order :] = exp[: self.order]
        exp.flags.writeable = log.flags.writeable = False
        self.exp = exp
        self.log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return int(self.exp[self.order - self.log[a]])

    def pow_alpha(self, e: int) -> int:
        """alpha^e for any integer exponent."""
        return int(self.exp[e % self.order])
