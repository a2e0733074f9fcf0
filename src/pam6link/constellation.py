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

``labels`` is the one definition of each mapping. A constellation derives
two lookups from it once, on first use: packed label -> point index, which
``map_bits`` reads, and per label bit the point rows with that bit 0 and
with it 1, whose weights sum to the two label halves' masses.

The soft demapper works points-major: the log metrics of a block of received
groups form one (num_points, num_groups) array, so each reduction over the
points adds whole contiguous rows instead of reducing thousands of short
rows one by one. Per axis, a C-contiguous (6, num_groups) table holds the
squared distance of each use to each level; the point metrics take rows
from it by the points' coordinates, add the axes and divide by -2 sigma^2
once. The ISI path transposes its per-use level log posteriors into the
same per-axis tables. Every sum over the points adds them in point order,
whatever the block's shape (``_point_sum``), and a max is exact in any
order, so every output equals that of a row-major (num_groups, num_points)
demapper that adds each row left to right, bit for bit, and a group
demapped alone gets the bits it gets inside a block.

``symbol_posteriors`` returns the transposed view and ``bit_llrs`` a flat
copy in label-bit order, so callers see the row-major shapes.
``rate_samples`` runs one block of sent points (the rates module sizes
and loops the blocks) through the one demapper, from AWGN samples or
trellis level posteriors, into the per-point samples whose means are the
MI and GMI estimates. A GMI sample reads the label halves straight, with
no LLR: per label bit j, log2(1 + h_other / h_sent), where h_sent is the
mass of the points whose bit j equals the sent bit and h_other that of the
rest.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import check_noise_var, is_bits

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
# Shaped frames map through this table both ways, so it must keep levels
# 0-2 on sign 0 and give v and 5 - v the same pair (selfcheck pas_round_trip).
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

    @functools.cached_property
    def _point_of_label(self) -> np.ndarray:
        """Point index of each packed label (``_pack``), -1 for a bit
        pattern that is no label."""
        table = np.full(2 ** self.bits_per_point, -1, dtype=np.intp)
        table[_pack(self.labels)] = np.arange(self.num_points)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def _label_rows(self) -> tuple:
        """Per label bit, (rows of the points whose bit is 0, rows of those
        whose bit is 1), each ascending."""
        rows = tuple((np.flatnonzero(bit == 0), np.flatnonzero(bit == 1))
                     for bit in self.labels.T)
        for r in rows:
            r[0].flags.writeable = r[1].flags.writeable = False
        return rows


def _pack(rows):
    """Rows of bits read as MSB-first integers."""
    return rows @ (1 << np.arange(rows.shape[1] - 1, -1, -1))


def _from_table(name, table, dimension):
    items = sorted(table.items())
    points = np.array([p if isinstance(p, tuple) else (p,) for p, _ in items], dtype=np.int64)
    labels = np.array([[int(c) for c in lab] for _, lab in items], dtype=np.uint8)
    points.flags.writeable = labels.flags.writeable = False
    return Constellation(name=name, dimension=dimension, points=points, labels=labels)


def build_constellation(name: str) -> Constellation:
    """Return the named constellation with its fixed label table."""
    if name == "cross_qam32":
        return _from_table(name, _CROSS_QAM32, 2)
    if name == "framed_cross_qam32":
        return _from_table(name, _FRAMED_CROSS_QAM32, 2)
    if name == "pam6_label":
        return _from_table(name, _PAM6_LABELS, 1)
    raise ValueError(f"unknown constellation {name!r}; expected one of {CONSTELLATION_NAMES}")


def map_bits(bits, c: Constellation) -> np.ndarray:
    """Map a bit sequence onto consecutive PAM-6 levels.

    Each group of ``c.bits_per_point`` bits selects one constellation point,
    emitted as ``c.dimension`` consecutive levels. Raises ValueError naming
    the first group, as given, that is no label (00002 is none, though a
    cast would fold it onto 00010).
    """
    bits = np.asarray(bits).ravel()
    L = c.bits_per_point
    if len(bits) % L:
        raise ValueError(f"bit count {len(bits)} not divisible by {L}")
    groups = bits.reshape(-1, L)
    idx = np.take(c._point_of_label, _pack(groups == 1))
    if not is_bits(bits):
        idx[~((groups == 0) | (groups == 1)).all(axis=1)] = -1
    bad = np.flatnonzero(idx < 0)
    if bad.size:
        g = groups[bad[0]].tolist()  # floats as a list, others as a label reads
        shown = str(g) if groups.dtype.kind == "f" else "".join(str(int(v)) for v in g)
        raise ValueError(f"bit pattern {shown} is not a label of {c.name}")
    return np.take(c.points, idx, axis=0).ravel()


def normalize(levels) -> np.ndarray:
    """Levels {0..5} -> transmit amplitudes in [0, 1] (peak amplitude 1)."""
    return np.asarray(levels, dtype=np.float64) / PEAK_LEVEL


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


def _sum_over_axes(tables, c):
    """Per-axis terms over the six levels, tables[k] of shape (6, num_groups)
    and C-contiguous, summed along each point's coordinates: shape
    (num_points, num_groups)."""
    out = np.take(tables[0], c.points[:, 0], axis=0)
    for k in range(1, c.dimension):
        out += np.take(tables[k], c.points[:, k], axis=0)
    return out


def _log_point_metrics(received, c, noise_var):
    """log p(y|point) + const per received group, shape (num_points, num_groups)."""
    check_noise_var(noise_var)
    y = np.asarray(received, dtype=np.float64).ravel()
    d = c.dimension
    if len(y) % d:
        raise ValueError(f"received length {len(y)} not divisible by dimension {d}")
    # squared distance to each level per use, summed over a point's axes and
    # only then divided: dividing per axis first rounds differently
    levels = normalize(LEVELS)[:, None]
    tables = [y[k::d] - levels for k in range(d)]
    for t in tables:
        t *= t
    logm = _sum_over_axes(tables, c)
    logm /= -2.0 * noise_var
    return logm


def _level_point_metrics(lp, c):
    """Points-major log metrics from (num_uses, 6) level log posteriors: the
    sum of each point's coordinates' (a product metric for 2D formats)."""
    d = c.dimension
    return _sum_over_axes([np.ascontiguousarray(lp[k::d].T) for k in range(d)], c)


def _point_sum(w, out=None):
    """Sum over the points of points-major w, shape (num_points, n), added
    in point order: np.add.reduce adds two or more columns row by row, but
    one column as a contiguous vector, pairwise from 8 rows up."""
    if w.shape[1] != 1:
        return np.add.reduce(w, axis=0, out=out)
    if out is None:
        out = np.empty(1)
    out[:] = w[0]
    for row in w[1:]:
        out += row
    return out


def _weights(logm):
    """Points-major weights exp(logm - max over the points), in place in logm.

    The max-subtraction keeps every group's best point at weight 1, so no
    sum below overflows and the best point never underflows.
    """
    logm -= logm.max(axis=0)
    return np.exp(logm, out=logm)


def _label_halves(w, c):
    """Masses of the label halves, shape (2, bits_per_point, num_groups),
    from points-major weights: [h, j] sums the weights of the points whose
    label bit j is h, clamped at tiny.

    Both halves are summed explicitly: taking one as total - other cancels
    catastrophically once one half dominates. Each half is gathered on its
    own (16 rows for a 32-point format) to keep the block in cache.
    """
    halves = np.empty((2, c.bits_per_point, w.shape[1]), dtype=np.float64)
    for j, rows in enumerate(c._label_rows):
        for h in (0, 1):
            _point_sum(w.take(rows[h], axis=0), out=halves[h, j])
    return np.maximum(halves, np.finfo(np.float64).tiny, out=halves)


def _label_llrs(w, c):
    """Bitwise LLRs, shape (num_groups, bits_per_point), from points-major
    weights: the log of each label half's mass (_label_halves), bit 0's
    minus bit 1's."""
    halves = _label_halves(w, c)
    np.log(halves, out=halves)
    return (halves[0] - halves[1]).T


def bit_llrs(received, c: Constellation, noise_var: float) -> np.ndarray:
    """Bitwise log-likelihood ratios log P(bit=0|y) / P(bit=1|y), natural log.

    Computed per received group over all constellation points with
    max-subtraction stabilization; output shape is
    (num_groups, bits_per_point) flattened to 1D in label-bit order.
    """
    return _label_llrs(_weights(_log_point_metrics(received, c, noise_var)),
                       c).ravel()


def symbol_posteriors(received, c: Constellation, noise_var: float) -> np.ndarray:
    """Posterior over equiprobable constellation points per received group.

    Shape (num_groups, num_points); each row sums to 1.
    """
    post = _weights(_log_point_metrics(received, c, noise_var))
    post /= _point_sum(post)
    return post.T


def rate_samples(idx, c: Constellation, metrics, received=None, noise_var=None,
                 level_logposts=None) -> dict:
    """{metric: per-point samples} for the sent points idx, whose means give
    the MI ("symbol_metric": log2 of the sent point's posterior) and the
    GMI ("bit_metric": sum_j log2(1 + h_other_j / h_sent_j) over the label
    bits, h_sent_j the mass of the label half holding the sent bit b_j and
    h_other_j the other's; in LLRs, log2(1 + exp(-(1 - 2 b_j) * LLR_j))).

    Detection is from received samples at noise_var (AWGN) or from a
    trellis detector's (num_uses, 6) level log posteriors, which score a 2D
    point by the product of its levels' (mismatched but achievable). The
    symbol metric is a point's AWGN weight over the sum of the weights, as
    symbol_posteriors divides it, or its levels' log posteriors / ln 2
    summed over the axes (the point table's sums round differently). The
    bit metric takes log1p of each ratio, or the difference of the halves'
    logs where h_sent sits at the tiny floor and the ratio would overflow,
    and adds the bits' terms in label-bit order. The points are one block,
    demapped at once for both metrics, and each sum runs over one point's
    terms in a fixed order, so the caller's blocking changes no bit; its
    block size bounds the (num_points, idx.size) intermediates.
    """
    if (received is None) == (level_logposts is None):
        raise ValueError("need either received samples or level log posteriors")
    if not set(metrics) <= {"symbol_metric", "bit_metric"}:
        raise ValueError(f"metrics must be symbol_metric or bit_metric, got {metrics}")
    d = c.dimension
    out = {}
    if received is not None:
        w = _weights(_log_point_metrics(received, c, noise_var))
        if "symbol_metric" in metrics:
            p_true = w[idx, np.arange(idx.size)] / _point_sum(w)
            out["symbol_metric"] = np.log2(
                np.maximum(p_true, np.finfo(np.float64).tiny))
    else:
        if "symbol_metric" in metrics:
            sent = np.take(c.points, idx, axis=0).ravel()
            lev = level_logposts[np.arange(idx.size * d), sent] / math.log(2.0)
            out["symbol_metric"] = lev.reshape(-1, d).sum(axis=1)
        if "bit_metric" in metrics:
            w = _weights(_level_point_metrics(level_logposts, c))
    if "bit_metric" in metrics:  # points-major on (bits, points) arrays
        halves = _label_halves(w, c)
        b = np.take(c.labels.T.astype(bool), idx, axis=1)
        h_sent = np.where(b, halves[1], halves[0])
        h_other = np.where(b, halves[0], halves[1])
        with np.errstate(over="ignore"):  # h_sent at the tiny floor
            x = np.divide(h_other, h_sent)
        np.log1p(x, out=x)
        over = np.isinf(x)
        if over.any():  # log1p(r) rounds to log(r) beyond the largest float
            x[over] = np.log(h_other[over]) - np.log(h_sent[over])
        x /= math.log(2.0)
        out["bit_metric"] = np.add.reduce(x, axis=0)
    return out
