"""Command-line experiment runner.

Subcommands
-----------
run        execute a sweep config and emit CSV (see experiment module)
selfcheck  run the built-in oracle suite and print a pass/fail table
tables     dump the constellation label tables
rates      one-point MI/GMI sweep; prints the CSV that run prints
gaps       peak-SNR crossings of the three formats at a target rate on
           AWGN and their gaps against cross_qam32, per metric

Exit codes: 0 ok, 1 config error, 2 runtime failure, 3 selfcheck failure.
Bundled configs (awgn_gaps, loopback, coded_ordering, waterfall) can be
named in place of a path. `run --threads N` runs the sweep's units (each
coded item, each point's MI/GMI draw) on N worker processes. All
randomness flows from config seeds; two runs with the same seeds write
byte-identical CSV regardless of --threads.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import os
import sys
import time

from . import __version__
from .channel import check_seed
from .constellation import CONSTELLATION_NAMES, build_constellation
from .experiment import (MAX_WORKERS, ConfigError, ExperimentConfig,
                         check_field, parse_config, run_experiment)
from .rates import METRICS, SCHEMES, check_num_symbols, snr_at_rate

BUNDLED_CONFIGS = ("awgn_gaps", "loopback", "coded_ordering", "waterfall")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SELFCHECK = 3


def _resolve_config(name: str):
    """A bundled config name or a filesystem path -> config text."""
    if name in BUNDLED_CONFIGS:
        ref = importlib.resources.files("pam6link") / f"configs/{name}.yaml"
        return ref.read_text(), f"bundled:{name}"
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return fh.read(), name
    except OSError as e:
        raise ConfigError(
            f"config: {name!r} is neither a bundled name "
            f"{list(BUNDLED_CONFIGS)} nor a readable file ({e})") from None


def _check_output(path: str) -> None:
    """ConfigError unless a run can write its CSV to path. Checked before
    the sweep so that a bad path loses no rows, by opening the path for
    appending, which truncates nothing; a file this check made is removed
    again. The CSV is written only once complete, so a failed run leaves
    the path as it was."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as e:
        raise ConfigError(f"output: cannot write the CSV to {path!r}: "
                          f"{e.strerror or e}") from None
    if not existed:
        os.remove(path)


def _cmd_run(args) -> int:
    text, origin = _resolve_config(args.config)
    cfg = parse_config(text)
    if args.seed_override is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed_override,))
    out_path = args.output if args.output is not None else cfg.output
    if out_path is not None:
        _check_output(out_path)

    progress = None
    if args.verbose:
        def progress(item, rows):
            scheme, metric, snr, seed = item
            print(f"# done {scheme}/{metric} snr={snr} seed={seed} "
                  f"({len(rows)} rows)", file=sys.stderr, flush=True)

    t0 = time.time()
    csv_text = run_experiment(cfg, threads=args.threads, progress=progress)
    summary = (f"{len(cfg.schemes)} scheme(s), "
               f"{len(cfg.snr_db)} SNR point(s), {time.time() - t0:.1f}s")
    n_rows = csv_text.count("\n") - 1
    if out_path is None:
        sys.stdout.write(csv_text)
        print(f"# {n_rows} rows, {summary}  [{origin}]", file=sys.stderr)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        print(f"wrote {n_rows} rows to {out_path} ({summary})  [{origin}]")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck()
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if args.verbose or not ok:
            line += f"  {detail}"
        print(line)
    failed = sum(not ok for _, ok, _ in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_SELFCHECK


def _cmd_tables(args) -> int:
    names = [args.scheme] if args.scheme else list(CONSTELLATION_NAMES)
    for name in names:
        c = build_constellation(name)
        print(f"# {name}: {len(c.labels)} points, dimension {c.dimension}, "
              f"{c.bits_per_point} bits/point")
        for point, label in zip(c.points, c.labels):
            coord = " ".join(str(int(v)) for v in point)
            bits = "".join(str(int(b)) for b in label)
            print(f"{coord}  {bits}")
        print()
    return EXIT_OK


def _cmd_rates(args) -> int:
    # a one-point sweep: unset flags take the config's defaults
    kw = {}
    if args.taps is not None:
        kw.update(channel_kind="fir_isi", taps=tuple(args.taps))
    if args.num_symbols is not None:
        kw["num_symbols"] = args.num_symbols
    if args.seed is not None:
        kw["seeds"] = (args.seed,)
    cfg = ExperimentConfig(schemes=(args.scheme,), metrics=(args.metric,),
                           snr_db=(args.snr,), **kw)
    sys.stdout.write(run_experiment(cfg))
    return EXIT_OK


def _cmd_gaps(args) -> int:
    # every crossing is found before a row is printed, so a failure leaves
    # stdout empty; with num_symbols and seed checked first, a ValueError of
    # snr_at_rate is its bracket check: no crossing in [-5, 60] dB
    for scheme in SCHEMES:
        check_field(check_num_symbols, "num_symbols", scheme, args.num_symbols)
    check_field(check_seed, "seed", args.seed)
    metrics = (args.metric,) if args.metric else METRICS
    crossings = {(m, s): check_field(snr_at_rate, f"rate: {s} {m}", s, m,
                                     args.rate, args.num_symbols, args.seed)
                 for m in metrics for s in SCHEMES}
    print("metric,scheme,snr_crossing_db,gap_vs_cross_db")
    for (metric, scheme), snr in crossings.items():
        gap = crossings[metric, "cross_qam32"] - snr
        print(f"{metric},{scheme},{snr:.4f},{gap:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pam6link", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a sweep config, emit CSV")
    pr.add_argument("--config", required=True,
                    help=f"config path or bundled name {list(BUNDLED_CONFIGS)}")
    pr.add_argument("--output", default=None,
                    help="CSV path (default: config 'output', else stdout)")
    pr.add_argument("--seed-override", type=int, default=None, metavar="N",
                    help="replace the config seed list with this single seed")
    pr.add_argument("--threads", type=int, default=1, metavar="N",
                    help="worker processes for the sweep's units, each "
                         "coded item and each point's MI/GMI draw (default 1, "
                         f"no pool; at most {MAX_WORKERS})")
    pr.add_argument("--verbose", action="store_true",
                    help="progress lines on stderr")
    pr.set_defaults(fn=_cmd_run)

    ps = sub.add_parser("selfcheck", help="run the built-in oracle suite")
    ps.add_argument("--verbose", action="store_true",
                    help="print detail for passing checks too")
    ps.set_defaults(fn=_cmd_selfcheck)

    pt = sub.add_parser("tables", help="dump constellation label tables")
    pt.add_argument("--scheme", choices=CONSTELLATION_NAMES, default=None)
    pt.set_defaults(fn=_cmd_tables)

    pe = sub.add_parser("rates", help="one-point MI/GMI sweep, CSV as run")
    pe.add_argument("--scheme", required=True, choices=SCHEMES)
    pe.add_argument("--metric", required=True, choices=METRICS)
    pe.add_argument("--snr", required=True, type=float, help="peak SNR in dB")
    pe.add_argument("--num-symbols", type=int, default=None)
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--taps", type=float, nargs="+", default=None,
                    help="FIR taps for a residual-ISI link")
    pe.set_defaults(fn=_cmd_rates)

    pg = sub.add_parser("gaps", help="SNR crossings at a rate and their gaps")
    pg.add_argument("--rate", type=float, default=2.0,
                    help="target rate in bits per 1D use (default 2.0)")
    pg.add_argument("--num-symbols", type=int, default=10**6)
    pg.add_argument("--seed", type=int, default=11)
    pg.add_argument("--metric", choices=METRICS, default=None,
                    help="restrict to one metric (default: both)")
    pg.set_defaults(fn=_cmd_gaps)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; map to the config-error code
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 -- CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
