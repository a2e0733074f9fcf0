"""Output check for one pass of a workload: every CSV row against invariants
and against the reference rows stored in reference.json.

At a seed with stored reference rows, each rate must match to RATE_TOL and
each FER row must have exactly the stored number of frame errors. At any
other seed, each row must lie within SIGMAS standard errors of the row at
the first stored seed. At every seed:

- the row names the expected scheme, metric, SNR and seed;
- N is the workload's symbol count, or its frame budget for coded rows;
- each rate lies in [0, log2 6] and each FER in [0, 1] with a whole error count;
- half widths are positive;
- on memoryless AWGN, GMI <= MI + the MI half width. With ISI taps both
  rates come from mismatched per-symbol metrics, for which GMI <= MI is not
  a theorem, so the check is not applied there (see NOTES.md).

Usage: python3 perfbench/check.py WORKLOAD SEED CSVFILE
prints one verdict per work item and exits 1 if any item fails.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

from workloads import WORKLOADS, Workload

HEADER = "scheme,metric,snr_db,rate,half_width,N,seed"
MAX_RATE = math.log2(6.0)
RATE_TOL = 1e-9   # absolute, on rate columns at a seed with stored rows
HW_RTOL = 1e-6    # relative, on half widths at a seed with stored rows
SIGMAS = 6.0      # statistical tolerance at other seeds
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


@dataclass(frozen=True)
class Row:
    scheme: str
    metric: str
    snr_db: float
    rate: float
    half_width: float
    n: int
    seed: int

    @property
    def key(self):
        return (self.scheme, self.metric, self.snr_db, self.seed)

    @property
    def errors(self) -> float:
        return self.rate * self.n


def parse_rows(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 7:
            raise ValueError(f"row has {len(f)} fields: {line!r}")
        rows.append(Row(f[0], f[1], float(f[2]), float(f[3]), float(f[4]),
                        int(f[5]), int(f[6])))
    return rows


def load_reference() -> dict:
    """workload name -> {seed: [Row, ...]}."""
    with open(REFERENCE, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {name: {int(seed): parse_rows(text) for seed, text in by_seed.items()}
            for name, by_seed in raw.items()}


def _row_faults(w: Workload, row: Row, item, mi_row, ref, ref_exact: bool):
    if row.key != item:
        return [f"row {row.key} where {item} was expected"]
    faults = []
    want_n = w.frames if w.coded else w.num_symbols
    if row.n != want_n:
        faults.append(f"N={row.n}, expected {want_n}")
    if not (math.isfinite(row.rate) and math.isfinite(row.half_width)):
        return faults + ["non-finite value"]
    if not row.half_width > 0:
        faults.append(f"half_width {row.half_width} not positive")
    if w.coded:
        if not 0.0 <= row.rate <= 1.0:
            faults.append(f"FER {row.rate} outside [0, 1]")
        if abs(row.errors - round(row.errors)) > 1e-6:
            faults.append(f"FER {row.rate} x N={row.n} is not a whole error count")
    elif not 0.0 <= row.rate <= MAX_RATE:
        faults.append(f"rate {row.rate} outside [0, log2 6]")
    if mi_row is not None and w.taps is None and \
            row.rate > mi_row.rate + mi_row.half_width:
        faults.append(f"GMI {row.rate} > MI {mi_row.rate} + {mi_row.half_width}")
    if ref is None:
        return faults
    if ref_exact and w.coded:
        if round(row.errors) != round(ref.errors) or row.n != ref.n:
            faults.append(f"{round(row.errors)}/{row.n} frame errors, reference "
                          f"{round(ref.errors)}/{ref.n}")
    elif ref_exact:
        if abs(row.rate - ref.rate) > RATE_TOL:
            faults.append(f"rate {row.rate!r}, reference {ref.rate!r}")
        if abs(row.half_width - ref.half_width) > HW_RTOL * ref.half_width:
            faults.append(f"half_width {row.half_width!r}, reference "
                          f"{ref.half_width!r}")
    elif w.coded:
        p = (row.errors + ref.errors + 1) / (row.n + ref.n + 2)
        tol = SIGMAS * math.sqrt(p * (1 - p) * (1 / row.n + 1 / ref.n)) + 2 / row.n
        if abs(row.rate - ref.rate) > tol:
            faults.append(f"FER {row.rate} differs from reference {ref.rate} "
                          f"by more than {tol:.4f}")
    else:
        tol = SIGMAS * math.hypot(row.half_width, ref.half_width) / 1.96
        if abs(row.rate - ref.rate) > tol:
            faults.append(f"rate {row.rate} differs from reference {ref.rate} "
                          f"by more than {tol:.4f}")
    return faults


def check_csv(w: Workload, seed: int, text: str, reference: dict) -> list:
    """One (item, [faults]) pair per work item; an empty list means correct."""
    items = w.items(seed)
    try:
        rows = parse_rows(text)
    except ValueError as e:
        return [(item, [str(e)]) for item in items]
    if len(rows) != len(items):
        return [(item, [f"{len(rows)} rows for {len(items)} items"])
                for item in items]
    stored = reference.get(w.name, {})
    ref_exact = seed in stored
    ref_rows = stored[seed if ref_exact else min(stored)] if stored else None
    mi = {r.scheme: r for r in rows if r.metric == "symbol_metric"}
    out = []
    for i, (item, row) in enumerate(zip(items, rows)):
        mi_row = mi.get(row.scheme) if row.metric == "bit_metric" else None
        ref = ref_rows[i] if ref_rows is not None else None
        out.append((item, _row_faults(w, row, item, mi_row, ref, ref_exact)))
    return out


def main(argv):
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        raise SystemExit(f"usage: check.py {{{','.join(WORKLOADS)}}} SEED CSVFILE")
    with open(argv[2], encoding="utf-8") as fh:
        text = fh.read()
    verdicts = check_csv(WORKLOADS[argv[0]], int(argv[1]), text, load_reference())
    for item, faults in verdicts:
        print(("FAIL " if faults else "ok   ") + "/".join(map(str, item)),
              "; ".join(faults))
    return 1 if any(f for _, f in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
