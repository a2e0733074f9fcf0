"""Write reference.json: one pass of every workload at the given seeds.

Usage: python3 perfbench/make_reference.py SEED [SEED ...]
Run it only on a commit whose results are trusted; check.py compares every
later run against these rows. Each pass must already meet the invariants.
"""
import json
import sys

from check import REFERENCE, check_csv
from workloads import WORKLOADS, setup


def main(seeds):
    out = {}
    for name, w in WORKLOADS.items():
        out[name] = {}
        for seed in seeds:
            cfg, experiment = setup(w, seed)
            text = experiment.run_experiment(cfg, threads=1)
            faults = [f for _, f in check_csv(w, seed, text, {}) if f]
            if faults:
                raise SystemExit(f"{name} seed {seed}: {faults}")
            out[name][str(seed)] = text
            print(f"{name} seed {seed}: {len(text.splitlines()) - 1} rows",
                  file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: make_reference.py SEED [SEED ...]")
    main([int(s) for s in sys.argv[1:]])
