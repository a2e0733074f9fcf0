"""Timing spans around pam6link's layer functions, installed from outside.

`Tracer.install` replaces every binding of each target function in every
loaded pam6link module with a wrapper that records a span, so a caller is
traced whichever name it uses: `link.ldpc_encode` and `fec.ldpc.ldpc_encode`
(reached through `LdpcCode.encode_parity` on the dm_pam6 path) are both
wrapped, as are `link.bit_llrs` and `rates.bit_llrs`. `Tracer.remove` puts
the originals back. The program's source is not touched.

A span's self time is its duration minus the durations of the spans it
called. Spans are aggregated per name as they close; nothing is written
until the benchmark reads the totals.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# span name -> (module, function); names are <layer module>.<function>
TARGETS = {
    "experiment.run_experiment": ("pam6link.experiment", "run_experiment"),
    "rates.estimate_mi": ("pam6link.rates", "estimate_mi"),
    "rates.estimate_gmi": ("pam6link.rates", "estimate_gmi"),
    "link.coded_fer": ("pam6link.link", "coded_fer"),
    "link.build_coded": ("pam6link.link", "build_coded"),
    "link.encode_frame": ("pam6link.link", "encode_frame"),
    "link.decode_frame": ("pam6link.link", "decode_frame"),
    "channel.transmit": ("pam6link.channel", "transmit"),
    "constellation.bit_llrs": ("pam6link.constellation", "bit_llrs"),
    "constellation.symbol_posteriors": ("pam6link.constellation",
                                        "symbol_posteriors"),
    "constellation.map_bits": ("pam6link.constellation", "map_bits"),
    "fec.ldpc.encode": ("pam6link.fec.ldpc", "ldpc_encode"),
    "fec.ldpc.decode": ("pam6link.fec.ldpc", "ldpc_decode"),
    "fec.scramble.scramble": ("pam6link.fec.scramble", "scramble"),
    "fec.scramble.adapt_llrs": ("pam6link.fec.scramble", "adapt_llrs"),
    "shaping.pas_encode": ("pam6link.shaping", "pas_encode"),
    "shaping.pas_decode": ("pam6link.shaping", "pas_decode"),
    "shaping.ccdm_encode": ("pam6link.shaping", "ccdm_encode"),
    "shaping.ccdm_decode": ("pam6link.shaping", "ccdm_decode"),
    "dsp.bcjr_app": ("pam6link.dsp", "bcjr_app"),
}

# spans reported with call counts and self time
COUNTED = ("constellation.bit_llrs", "constellation.symbol_posteriors",
           "constellation.map_bits", "fec.ldpc.decode", "fec.ldpc.encode",
           "shaping.pas_encode", "shaping.pas_decode", "shaping.ccdm_encode",
           "shaping.ccdm_decode", "channel.transmit", "link.encode_frame",
           "link.decode_frame")
# spans reported with self time only
TIMED = ("rates.estimate_mi", "rates.estimate_gmi", "link.build_coded",
         "link.coded_fer", "experiment.run_experiment", "dsp.bcjr_app")
ERROR_CLASSES = ("not_converged", "wrong_word", "structure")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Span totals, LDPC iterations and frame error classes for one pass."""

    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.ldpc_iters = 0
        self.ldpc_converged = 0
        self.bcjr_symbols = 0
        # scheme -> {"frames": n, <error class>: n, ...}
        self.frames = defaultdict(lambda: dict.fromkeys(("frames",) + ERROR_CLASSES, 0))
        self._open = []  # child time covered so far, one entry per open span
        self._sent = None
        self._patched = []
        self._observers = {
            "fec.ldpc.decode": self._see_ldpc_decode,
            "dsp.bcjr_app": self._see_bcjr,
            "link.encode_frame": self._see_encode_frame,
            "link.decode_frame": self._see_decode_frame,
        }

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pam6link" or name.startswith("pam6link.")]
        for span, (mod, attr) in TARGETS.items():
            orig = getattr(importlib.import_module(mod), attr)
            wrapped = self._wrap(span, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))

    def remove(self):
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def _wrap(self, span, fn):
        observe = self._observers.get(span)
        stats = self.spans[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stats.calls += 1
                stats.self_s += dur - self._open.pop()
                if self._open:
                    self._open[-1] += dur
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def _see_ldpc_decode(self, args, out):
        _, converged, iters = out
        self.ldpc_iters += int(iters)
        self.ldpc_converged += bool(converged)

    def _see_bcjr(self, args, out):
        self.bcjr_symbols += np.size(args[0])

    def _see_encode_frame(self, args, out):
        self._sent = np.asarray(args[1], dtype=np.uint8).ravel()

    def _see_decode_frame(self, args, out):
        """Classify the frame as coded_fer does: an error is a None word, a
        failed decode, or a wrong word, checked in that order."""
        got, ok = out
        counts = self.frames[args[0].scheme]
        counts["frames"] += 1
        if got is None:
            counts["structure"] += 1
        elif not ok:
            counts["not_converged"] += 1
        elif not np.array_equal(np.asarray(got, dtype=np.uint8), self._sent):
            counts["wrong_word"] += 1

    def metrics(self):
        """(counts, times): per-pass layer metrics by name.

        Counts must repeat exactly between passes of one seed; times vary.
        """
        s = self.spans
        counts, times = {}, {}
        for name in COUNTED:
            counts[f"{name}.calls"] = s[name].calls
            times[f"{name}.self_s"] = s[name].self_s
        for name in TIMED:
            times[f"{name}.self_s"] = s[name].self_s
        times["fec.scramble.self_s"] = (s["fec.scramble.scramble"].self_s
                                        + s["fec.scramble.adapt_llrs"].self_s)
        dec = s["fec.ldpc.decode"]
        counts["fec.ldpc.decode.iters"] = self.ldpc_iters
        counts["fec.ldpc.decode.converged_frac"] = (
            self.ldpc_converged / dec.calls if dec.calls else 0.0)
        times["fec.ldpc.decode.ms_per_iter"] = (
            1e3 * dec.self_s / self.ldpc_iters if self.ldpc_iters else 0.0)
        times["dsp.bcjr_app.us_per_symbol"] = (
            1e6 * s["dsp.bcjr_app"].self_s / self.bcjr_symbols
            if self.bcjr_symbols else 0.0)
        counts["link.frames"] = sum(c["frames"] for c in self.frames.values())
        for cls in ERROR_CLASSES:
            counts[f"link.errors.{cls}"] = sum(c[cls] for c in self.frames.values())
        return counts, times
