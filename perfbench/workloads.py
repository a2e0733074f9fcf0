"""The benchmark's workloads: sweep configs generated from the benchmark seed.

Every workload runs all three schemes through the public sweep runner,
``experiment.parse_config`` then ``experiment.run_experiment``. Only the
seed changes between runs of one workload; the benchmark seed is used as
the config seed. NOTES.md records why each workload was chosen.

Run as a script to print a workload's config, e.g.
``python3 perfbench/workloads.py awgn_rates 0 > cfg.yaml``.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass

SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")
RATE_METRICS = ("symbol_metric", "bit_metric")
FRAME_SYMBOLS = 1000  # channel uses per coded frame, for every scheme
CODE_RATE_BPCU = 2.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    name: str
    snr_db: float
    taps: tuple = None          # FIR taps; None means memoryless AWGN
    num_symbols: int = None     # channel uses per rate item
    frames: int = None          # fixed frame budget per coded item

    @property
    def coded(self) -> bool:
        return self.frames is not None

    @property
    def metrics(self) -> tuple:
        return ("fer",) if self.coded else RATE_METRICS

    def config_text(self, seed: int) -> str:
        lines = [f"schemes: [{', '.join(SCHEMES)}]",
                 f"metric: [{', '.join(self.metrics)}]",
                 f"snr_db: [{self.snr_db!r}]",
                 f"seeds: [{int(seed)}]"]
        if self.taps is None:
            lines.append("channel: {kind: awgn}")
        else:
            taps = ", ".join(repr(t) for t in self.taps)
            lines.append(f"channel: {{kind: fir_isi, taps: [{taps}]}}")
        if self.coded:
            # min_errors above the budget: every item runs exactly `frames`
            lines += [f"codec: {{family: ldpc, rate: {CODE_RATE_BPCU!r}}}",
                      f"frame_symbols: {FRAME_SYMBOLS}",
                      f"max_frames: {self.frames}",
                      f"min_errors: {self.frames + 1}"]
        else:
            lines.append(f"num_symbols: {self.num_symbols}")
        return "\n".join(lines) + "\n"

    @property
    def pairs(self) -> list:
        """(scheme, metric) of each work item, in run_experiment's order."""
        return [(s, m) for s in SCHEMES for m in self.metrics]

    def items(self, seed: int) -> list:
        """Work items as run_experiment's progress callback names them."""
        return [(s, m, float(self.snr_db), int(seed)) for s, m in self.pairs]

    @property
    def item_uses(self) -> int:
        """Channel uses behind one work item."""
        return self.frames * FRAME_SYMBOLS if self.coded else self.num_symbols


WORKLOADS = {w.name: w for w in (
    Workload("awgn_rates", snr_db=22.5, num_symbols=10**6),
    Workload("isi_rates", snr_db=22.5, taps=(1.0, 0.35), num_symbols=10**4),
    Workload("coded_waterfall", snr_db=25.0, frames=200),
    Workload("coded_clean", snr_db=30.0, frames=200),
)}


def import_program():
    """Import pam6link from this checkout's src/ and return its modules.

    Refuses a pam6link found anywhere else, so a checkout without src/
    cannot silently measure an installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "pam6link", "__init__.py")):
        raise SystemExit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import pam6link
    from pam6link import constellation, experiment, link
    where = os.path.dirname(os.path.abspath(pam6link.__file__))
    if where != os.path.join(SRC, "pam6link"):
        raise SystemExit(f"benchmark: pam6link imported from {where}, not {SRC}")
    return experiment, link, constellation


def setup(workload: Workload, seed: int):
    """Import, parse the workload's config and build its codes or tables.

    This is the work `setup_s` measures. Returns the parsed config and the
    experiment module.
    """
    experiment, link, constellation = import_program()
    cfg = experiment.parse_config(workload.config_text(seed))
    for scheme in cfg.schemes:
        if workload.coded:
            link.build_coded(scheme, cfg.codec.rate_bpcu, cfg.frame_symbols,
                             cfg.codec.family)
        else:
            constellation.build_constellation(
                "pam6_label" if scheme == "dm_pam6" else scheme)
    return cfg, experiment


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED")
    sys.stdout.write(WORKLOADS[sys.argv[1]].config_text(int(sys.argv[2])))
