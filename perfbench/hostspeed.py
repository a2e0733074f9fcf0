"""Host-speed probe, for timings that hold still on a shared machine.

On a small virtual machine that shares its host, the same work can run
20-40% slower for stretches of seconds to minutes while neighbours are busy.
Process CPU time slows as much as wall time does, so scheduling is not the
cause and CPU time does not help. The benchmark times two fixed kernels
right before and after every work item and divides the item's time by how
much slower than usual they ran, so a slow stretch shows in both and
cancels.

One kernel is interpreter work (float adds and small-dict stores), the
other is short numpy calls on arrays of ~1e4 elements (gather, reduceat,
abs, where), the two kinds of work the program spends its time on. Either
alone tracks the program's slowdowns less well than their mean. Neither
uses pam6link, so a change to the program cannot move them.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel times on a 2-vCPU KVM guest (Xeon, 2.1 GHz, Python 3.11.7,
# numpy 2.4.6); scaled timings read as seconds on that guest at usual speed
REF_INTERP_S = 2.8e-3
REF_NUMPY_S = 3.25e-3

_rng = np.random.default_rng(0)
_V = _rng.normal(size=14000)
_IDX = _rng.integers(0, _V.size, _V.size)
_STARTS = np.arange(0, _V.size, 7)


def _interp():
    acc, d = 0.0, {}
    for i in range(20000):
        acc += i * 1e-9
        d[i & 255] = acc


def _numpy():
    for _ in range(12):
        a = _V[_IDX]
        np.minimum.reduceat(np.abs(a), _STARTS)
        np.add.reduceat(np.where(a < 0, -a, a), _STARTS)


def _median_s(kernel) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe() -> float:
    """Current slowness of the host: 1.0 at the reference guest's usual
    speed, 1.3 when the kernels take 30% longer."""
    return 0.5 * (_median_s(_interp) / REF_INTERP_S
                  + _median_s(_numpy) / REF_NUMPY_S)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to reference speed."""
    return 2.0 / (before + after)
