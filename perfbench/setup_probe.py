"""Time one set-up of a workload in a fresh process and print the seconds.

Set-up is import, config parse and the first constellation or code build
(workloads.setup). Prints the raw seconds, then the seconds scaled to the
reference host speed by a host-speed probe taken right after (hostspeed.py).
run.py starts several of these per run and reports the median scaled time
as `setup_s`.
Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import sys
import time

t0 = time.perf_counter()

from workloads import WORKLOADS, setup  # noqa: E402

setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402

p = hostspeed.probe()
print(repr(elapsed), repr(elapsed * hostspeed.scale(p, p)))
