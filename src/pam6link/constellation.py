"""PAM-6-carrying constellations: point tables, bit labelings, and soft demappers.

Three alphabets are supported, all built on the six intensity levels
{0, 1, 2, 3, 4, 5}:

* ``cross_qam32``        -- 32-point cross over two consecutive PAM-6 uses.
* ``framed_cross_qam32`` -- 32-point framed cross (corner levels occupied),
                            same peak power, Gray-labelable.
* ``pam6_label``         -- the 6-entry, 3-bit label table for sign-bit
                            shaped PAM-6 (one level per channel use).

Levels are normalized to amplitudes level/5 in [0, 1] (unipolar intensity,
peak amplitude 1), so peak SNR is 1/sigma^2 for every scheme.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEVELS = (0, 1, 2, 3, 4, 5)
PEAK_LEVEL = 5

# (x_{2i}, x_{2i+1}) -> 5-bit label; fixed grid, do not reorder.
_CROSS_QAM32 = {
    (1, 0): "00100", (2, 0): "00110", (3, 0): "10110", (4, 0): "10100",
    (0, 1): "00111", (1, 1): "00011", (2, 1): "00010", (3, 1): "10010",
    (4, 1): "10011", (5, 1): "10111",
    (0, 2): "00101", (1, 2): "00001", (2, 2): "00000", (3, 2): "10000",
    (4, 2): "10001", (5, 2): "10101",
    (0, 3): "01101", (1, 3): "01001", (2, 3): "01000", (3, 3): "11000",
    (4, 3): "11001", (5, 3): "11101",
    (0, 4): "01111", (1, 4): "01011", (2, 4): "01010", (3, 4): "11010",
    (4, 4): "11011", (5, 4): "11111",
    (1, 5): "01100", (2, 5): "01110", (3, 5): "11110", (4, 5): "11100",
}

_FRAMED_CROSS_QAM32 = {
    (0, 0): "00000", (1, 0): "00001", (2, 0): "00011", (3, 0): "01011",
    (4, 0): "01001", (5, 0): "01000",
    (0, 1): "00100", (2, 1): "00010", (3, 1): "01010", (5, 1): "01100",
    (0, 2): "00101", (1, 2): "00111", (2, 2): "00110", (3, 2): "01110",
    (4, 2): "01111", (5, 2): "01101",
    (0, 3): "10101", (1, 3): "10111", (2, 3): "10110", (3, 3): "11110",
    (4, 3): "11111", (5, 3): "11101",
    (0, 4): "10100", (2, 4): "10010", (3, 4): "11010", (5, 4): "11100",
    (0, 5): "10000", (1, 5): "10001", (2, 5): "10011", (3, 5): "11011",
    (4, 5): "11001", (5, 5): "11000",
}

# level -> 3-bit label; bit 0 is the sign/half-select bit, bits 1-2 the
# amplitude-class pair (levels {0,5} -> 01, {1,4} -> 11, {2,3} -> 10).
_PAM6_LABELS = {0: "001", 1: "011", 2: "010", 3: "110", 4: "111", 5: "101"}

CONSTELLATION_NAMES = ("cross_qam32", "framed_cross_qam32", "pam6_label")


@dataclass(frozen=True)
class Constellation:
    """A labeled PAM-6-carrying alphabet.

    Attributes
    ----------
    name : str
        One of ``CONSTELLATION_NAMES``.
    dimension : int
        1 for per-use labels, 2 for QAM constellations sent as level pairs.
    points : np.ndarray, shape (num_points, dimension), int
        Integer levels in {0..5} per axis.
    labels : np.ndarray, shape (num_points, bits_per_point), uint8
        Bit labels, MSB first as printed.
    """

    name: str
    dimension: int
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts, labs = self.points, self.labels
        if len(pts) != len(labs):
            raise ValueError("label count must equal point count")
        if len({tuple(l) for l in labs}) != len(labs):
            raise ValueError("labels must be distinct")
        if pts.min() < 0 or pts.max() > PEAK_LEVEL:
            raise ValueError("coordinate levels must lie in {0..5}")

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def bits_per_point(self) -> int:
        return self.labels.shape[1]


def _row_index(rows, table, radix):
    """Index in `table` of each row of base-`radix` digits, -1 where absent."""
    shape = (radix,) * table.shape[1]
    lut = np.full(radix ** table.shape[1], -1)
    lut[np.ravel_multi_index(table.T, shape)] = np.arange(len(table))
    inside = ((rows >= 0) & (rows < radix)).all(axis=1)
    return np.where(inside, lut[np.ravel_multi_index(np.clip(rows, 0, radix - 1).T, shape)], -1)


def _from_table(name, table, dimension):
    items = sorted(table.items())
    points = np.array([p if isinstance(p, tuple) else (p,) for p, _ in items], dtype=np.int64)
    labels = np.array([[int(c) for c in lab] for _, lab in items], dtype=np.uint8)
    return Constellation(name=name, dimension=dimension, points=points, labels=labels)


def build_constellation(name: str) -> Constellation:
    """Return the named constellation with its fixed label table."""
    if name == "cross_qam32":
        return _from_table(name, _CROSS_QAM32, 2)
    if name == "framed_cross_qam32":
        return _from_table(name, _FRAMED_CROSS_QAM32, 2)
    if name == "pam6_label":
        return _from_table(name, {k: v for k, v in _PAM6_LABELS.items()}, 1)
    raise ValueError(f"unknown constellation {name!r}; expected one of {CONSTELLATION_NAMES}")


def map_bits(bits, c: Constellation) -> np.ndarray:
    """Map a bit sequence onto consecutive PAM-6 levels.

    Each group of ``c.bits_per_point`` bits selects one constellation point,
    emitted as ``c.dimension`` consecutive levels.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    L = c.bits_per_point
    if len(bits) % L:
        raise ValueError(f"bit count {len(bits)} not divisible by {L}")
    groups = bits.reshape(-1, L)
    idx = _row_index(groups, c.labels, 2)
    bad = np.flatnonzero(idx < 0)
    if bad.size:
        g = groups[bad[0]]
        raise ValueError(f"bit pattern {''.join(map(str, g))} is not a label of {c.name}")
    return c.points[idx].ravel()


def demap_hard(levels, c: Constellation) -> np.ndarray:
    """Invert :func:`map_bits` on a valid level sequence."""
    levels = np.asarray(levels, dtype=np.int64).ravel()
    if len(levels) % c.dimension:
        raise ValueError(f"level count {len(levels)} not divisible by dimension {c.dimension}")
    pts = levels.reshape(-1, c.dimension)
    idx = _row_index(pts, c.points, PEAK_LEVEL + 1)
    bad = np.flatnonzero(idx < 0)
    if bad.size:
        raise ValueError(f"{tuple(int(v) for v in pts[bad[0]])} is not a point of {c.name}")
    return c.labels[idx].ravel()


def normalize(levels) -> np.ndarray:
    """Levels {0..5} -> transmit amplitudes in [0, 1] (peak amplitude 1)."""
    return np.asarray(levels, dtype=np.float64) / PEAK_LEVEL


def power_stats(c: Constellation, priors=None) -> tuple[float, float]:
    """Peak and average power per 1D channel use, levels centered about 2.5.

    Returns ``(peak_power, avg_power)`` in normalized-amplitude^2 units:
    amplitude per axis is (level - 2.5)/5, so the outermost levels 0 and 5
    carry power 0.25.  ``priors`` are per-point probabilities (uniform when
    omitted); peak power is the maximum over points carrying prior mass.
    """
    if priors is None:
        priors = np.full(c.num_points, 1.0 / c.num_points)
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (c.num_points,):
        raise ValueError("priors must have one entry per constellation point")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {priors.sum()!r}, expected 1")
    amps = (c.points - 2.5) / PEAK_LEVEL
    axis_power = amps**2
    used = priors > 0
    peak = float(axis_power[used].max())
    avg = float((priors[:, None] * axis_power).sum() / c.dimension)
    return peak, avg


def check_unit_distance_gray(c: Constellation) -> list[tuple]:
    """Find all unit-distance point pairs whose labels differ in more than one bit.

    A pair violates the Gray condition when the two points are at distance
    exactly 1 along a single axis (equal on all other axes) and their labels
    differ in >= 2 positions.  Returns a list of
    ``(point_a, point_b, label_a, label_b)`` tuples; empty means the labeling
    is unit-distance Gray.
    """
    violations = []
    pts, labs = c.points, c.labels
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = np.abs(pts[i] - pts[j])
            if diff.sum() == 1 and diff.max() == 1:
                nbits = int((labs[i] != labs[j]).sum())
                if nbits > 1:
                    violations.append(
                        (tuple(int(v) for v in pts[i]), tuple(int(v) for v in pts[j]),
                         "".join(map(str, labs[i])), "".join(map(str, labs[j])))
                    )
    return violations


def _sum_over_axes(axis_terms, c):
    """Per-use terms over the six levels, shape (num_uses, 6), summed along
    each point's coordinates: shape (num_groups, num_points)."""
    d = c.dimension
    out = np.take(axis_terms[0::d], c.points[:, 0], axis=1)
    for k in range(1, d):
        out += np.take(axis_terms[k::d], c.points[:, k], axis=1)
    return out


def _log_point_metrics(received, c, noise_var, point_priors):
    """log [P(point) * p(y|point)] per received group, shape (num_groups, num_points)."""
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    y = np.asarray(received, dtype=np.float64).ravel()
    if len(y) % c.dimension:
        raise ValueError(f"received length {len(y)} not divisible by dimension {c.dimension}")
    # squared distance to each level per use, summed over a point's axes and
    # only then divided: dividing per axis first rounds differently
    d2 = y[:, None] - normalize(LEVELS)
    d2 *= d2
    logm = _sum_over_axes(d2, c)
    logm /= -2.0 * noise_var
    if point_priors is not None:
        point_priors = np.asarray(point_priors, dtype=np.float64)
        if point_priors.shape != (c.num_points,):
            raise ValueError("point priors must have one entry per constellation point")
        with np.errstate(divide="ignore"):
            logm += np.log(point_priors)
    return logm


def _marginalize_bits(logm, c):
    """Bitwise LLRs, shape (num_groups, bits_per_point), from per-point log
    metrics; overwrites logm.

    Both label halves are summed explicitly: taking s1 as total - s0
    cancels catastrophically once one half dominates.
    """
    logm -= logm.max(axis=1, keepdims=True)
    w = np.exp(logm, out=logm)
    out = np.empty((w.shape[0], c.bits_per_point), dtype=np.float64)
    tiny = np.finfo(np.float64).tiny
    for j in range(c.bits_per_point):
        mask0 = c.labels[:, j] == 0
        s0 = w[:, mask0].sum(axis=1)
        s1 = w[:, ~mask0].sum(axis=1)
        out[:, j] = np.log(np.maximum(s0, tiny)) - np.log(np.maximum(s1, tiny))
    return out


def bit_llrs(received, c: Constellation, noise_var: float, point_priors=None) -> np.ndarray:
    """Bitwise log-likelihood ratios log P(bit=0|y) / P(bit=1|y), natural log.

    Computed per received group over all constellation points with
    max-subtraction stabilization; output shape is
    (num_groups, bits_per_point) flattened to 1D in label-bit order.
    """
    return _marginalize_bits(_log_point_metrics(received, c, noise_var, point_priors), c).ravel()


def bit_llrs_from_levels(level_logposts, c: Constellation) -> np.ndarray:
    """Bitwise LLRs, shape (num_groups, bits_per_point), from per-use level
    log posteriors of shape (num_uses, 6), such as a trellis detector's.

    Each point is scored by the sum of its coordinates' log posteriors (a
    product metric for 2D formats).
    """
    return _marginalize_bits(_sum_over_axes(np.asarray(level_logposts, dtype=np.float64), c), c)


def symbol_posteriors(received, c: Constellation, noise_var: float, point_priors=None) -> np.ndarray:
    """Posterior distribution over constellation points per received group.

    Shape (num_groups, num_points); each row sums to 1.
    """
    logm = _log_point_metrics(received, c, noise_var, point_priors)
    logm -= logm.max(axis=1, keepdims=True)
    post = np.exp(logm, out=logm)
    post /= post.sum(axis=1, keepdims=True)
    return post
