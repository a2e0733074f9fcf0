#!/usr/bin/env python3
"""pam6link benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pam6link is imported from its src/. The
workload's sweep config (workloads.py) is run through
`experiment.run_experiment(cfg, threads=1)` pass after pass, each pass the
same config, until another pass would overrun --seconds. Every pass's CSV is
checked (check.py) and must equal the first pass's byte for byte.

--trace 0 reports the end-to-end metrics from untraced passes, with item
times scaled to reference host speed (hostspeed.py). --trace 1
alternates untraced and traced passes (spans.py), requires the traced CSV to
equal the untraced one, reconciles the frame error classes with the FER rows,
and reports the per-layer metrics plus the tracing overhead.

Output: a manifest line (machine, versions, load average before and after),
a table of every metric with its unit, then as the last line one JSON object
with keys correct, attempted, failed and metrics. The JSON holds exactly the
metrics BENCHMARK.json declares for the mode.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy

import hostspeed
from check import check_csv, load_reference, parse_rows
from spans import ERROR_CLASSES, Tracer
from workloads import (FRAME_SYMBOLS, ROOT, SCHEMES, WORKLOADS, Workload,
                       setup)

SETUP_PROBES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Pass:
    csv: str
    item_s: list          # wall seconds per work item, in item order
    item_scale: list      # host-speed factor per item (hostspeed.scale)
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)

    def scaled_s(self, items=None) -> float:
        """Seconds at reference host speed spent in the given items."""
        items = range(len(self.item_s)) if items is None else items
        return sum(self.item_s[i] * self.item_scale[i] for i in items)


def run_pass(cfg, experiment, tracer=None) -> Pass:
    """One run_experiment call, with the host speed probed around it.

    An untraced pass also probes between items, outside the item times, and
    scales each item by the probes on either side. A traced pass scales
    every item by the probes around the whole pass, so that no probe lands
    inside a span.
    """
    starts, ends, probes = [], [], [hostspeed.probe()]

    def progress(item, rows):
        ends.append(time.perf_counter())
        if tracer is None:
            probes.append(hostspeed.probe())
        starts.append(time.perf_counter())

    if tracer is not None:
        tracer.install()
    try:
        starts.append(time.perf_counter())
        csv = experiment.run_experiment(cfg, threads=1, progress=progress)
    finally:
        if tracer is not None:
            tracer.remove()
    item_s = [b - a for a, b in zip(starts, ends)]
    if tracer is None:
        scale = [hostspeed.scale(a, b) for a, b in zip(probes, probes[1:])]
    else:
        scale = [hostspeed.scale(probes[0], hostspeed.probe())] * len(item_s)
    return Pass(csv, item_s, scale, tracer)


def probe_setup(name: str, seed: int) -> tuple:
    """Median (wall, scaled) set-up seconds over fresh processes."""
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        w, s = out.stdout.split()[-2:]
        wall.append(float(w))
        scaled.append(float(s))
    return statistics.median(wall), statistics.median(scaled)


def verify(w: Workload, seed: int, passes: list) -> tuple:
    """(attempted, faults): faults maps (pass index, item) -> reasons."""
    reference = load_reference()
    items = w.items(seed)
    first_lines = passes[0].csv.splitlines()
    first_counts = None
    attempted, faults = 0, {}
    for k, p in enumerate(passes):
        verdicts = check_csv(w, seed, p.csv, reference)
        attempted += len(verdicts)
        lines = p.csv.splitlines()
        for i, (item, f) in enumerate(verdicts):
            if lines[i + 1:i + 2] != first_lines[i + 1:i + 2]:
                f.append("traced CSV differs from untraced CSV" if p.tracer
                         else "CSV differs from the first pass")
            if f:
                faults[(k, item)] = f
        if p.tracer is None:
            continue
        counts, _ = p.tracer.metrics()
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            for item in items:
                faults.setdefault((k, item), []).append(
                    "layer counts differ between traced passes")
        try:
            rows = parse_rows(p.csv)
        except ValueError:
            continue  # check_csv has already failed every item of this pass
        if w.coded:
            for item, row in zip(items, rows):
                seen = p.tracer.frames[row.scheme]
                errs = sum(seen[c] for c in ERROR_CLASSES)
                if seen["frames"] != row.n or errs != round(row.errors):
                    faults.setdefault((k, item), []).append(
                        f"traced {errs} errors in {seen['frames']} frames, "
                        f"CSV {round(row.errors)} in {row.n}")
    return attempted, faults


def throughput(w: Workload, passes: list, pick) -> float:
    """Median over passes of million channel uses per second, at reference
    host speed, through the items pick(scheme, metric) selects."""
    sel = [i for i, pair in enumerate(w.pairs) if pick(*pair)]
    uses = w.item_uses * len(sel)
    return statistics.median(uses / p.scaled_s(sel) for p in passes) / 1e6


def end_to_end(w: Workload, passes: list) -> dict:
    m = {"wall_s": statistics.median(p.scaled_s() for p in passes),
         "wall_unscaled_s": statistics.median(p.wall_s for p in passes),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for s in SCHEMES:
        m[f"msym_per_s.{s}"] = throughput(w, passes, lambda sc, _: sc == s)
    if w.coded:
        per_frame = FRAME_SYMBOLS / 1e6
        m["frames_per_s"] = throughput(w, passes, lambda *_: True) / per_frame
        for s in SCHEMES:
            m[f"frames_per_s.{s}"] = m[f"msym_per_s.{s}"] / per_frame
    else:
        m["mi_msym_per_s"] = throughput(
            w, passes, lambda _, met: met == "symbol_metric")
        m["gmi_msym_per_s"] = throughput(
            w, passes, lambda _, met: met == "bit_metric")
    return m


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    counts, _ = traced[0].tracer.metrics()
    times = [p.tracer.metrics()[1] for p in traced]
    m = dict(counts)
    for name in times[0]:
        m[name] = statistics.median(t[name] for t in times)
    m["trace.overhead_s"] = (statistics.median(p.scaled_s() for p in traced)
                             - statistics.median(p.scaled_s() for p in untraced))
    return m


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if "msym_per_s" in name:
        return "Msym/s"
    if name.startswith("frames_per_s"):
        return "frames/s"
    if name.endswith("ms_per_iter"):
        return "ms"
    if name.endswith("us_per_symbol"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def declared(section: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    w = WORKLOADS[args.workload]
    load_before = os.getloadavg()

    cfg, experiment = setup(w, args.seed)
    setup_unscaled_s, setup_s = probe_setup(w.name, args.seed)

    deadline = time.perf_counter() + args.seconds
    passes, longest = [], 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(cfg, experiment, Tracer() if traced else None))
        longest = max(longest, time.perf_counter() - t0)
        if (len(passes) >= 1 + args.trace
                and time.perf_counter() + longest > deadline):
            break

    attempted, faults = verify(w, args.seed, passes)
    failed = len(faults)
    for (k, item), reasons in sorted(faults.items()):
        print(f"FAIL pass {k} {'/'.join(map(str, item))}: {'; '.join(reasons)}",
              file=sys.stderr)

    print(json.dumps({"manifest": {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "traced_passes": sum(p.tracer is not None for p in passes),
        "wall_per_pass_s": [round(p.wall_s, 4) for p in passes],
        "scaled_per_pass_s": [round(p.scaled_s(), 4) for p in passes],
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg_before": load_before,
        "loadavg_after": os.getloadavg()}}))

    untraced = [p for p in passes if p.tracer is None]
    computed = {"setup_s": setup_s, "setup_unscaled_s": setup_unscaled_s,
                **end_to_end(w, untraced),
                "fail_frac": failed / attempted}
    if args.trace:
        computed.update(per_layer(passes))
    for name, value in computed.items():
        print(f"{name:<42} {value:>16.6g} {unit(name)}")

    metrics = {}
    for spec in declared("per_layer" if args.trace else "end_to_end"):
        name = spec["name"]
        if unit(name) != spec["unit"]:
            raise SystemExit(f"benchmark: unit of {name} is {unit(name)}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[name] = {"value": computed[name], "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
