"""Declarative experiment configs and the sweep runner behind the CLI.

A config is a YAML mapping (nested key-value with lists) that names one or
more schemes, one or more metrics, a channel, an SNR sweep, and seeds. The
runner expands the cross product scheme x metric x snr x seed into work
items and emits CSV rows in config order, so the output bytes are
independent of scheduling. The MI/GMI items of one (snr, seed) point share
one draw per scheme. Each coded item and each point's draw is one unit of
work, run on the caller or on a pool of worker processes.

CSV schema (header always present, one row per item):

    scheme, metric, snr_db, rate, half_width, N, seed

For metric "symbol_metric"/"bit_metric" the rate column is the Monte Carlo
estimate in bits per 1D channel use and N counts channel uses. For metric
"fer" the rate column holds the measured frame error rate and N the frame
count. For metric "rate_at_fer" the first row per point reports the
achieved rate (half_width 0; nan when no grid rate meets the target) over
the total frames spent, followed by one "fer@<rate>" row per grid rate
probed; both give the rate a frame carries, data bits over frame symbols.
Floats are written with repr so parsing them back loses nothing.
"""
from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import MISSING, astuple, dataclass, fields

import yaml

from .channel import check_seed, check_taps, sigma_for_peak_snr
from .link import (CODECS, build_coded, check_frame_symbols, coded_fer,
                   rate_at_fer)
from .rates import (SCHEMES, METRICS, check_num_symbols,
                    estimate_rates_per_scheme)

RUN_METRICS = METRICS + ("fer", "rate_at_fer")
CHANNEL_KINDS = ("awgn", "fir_isi")
CSV_HEADER = "scheme,metric,snr_db,rate,half_width,N,seed"
# fork starts every worker of a pool at once, so --threads has a ceiling
MAX_WORKERS = 64


class ConfigError(ValueError):
    """Config rejected; message carries a line or field diagnostic."""


@dataclass(frozen=True)
class CodecSpec:
    family: str = "ldpc"  # the one code family, link.CODECS; configs name it
    rate_bpcu: float = 2.0
    rate_grid: tuple = (1.80, 1.90, 2.00, 2.10)


@dataclass(frozen=True)
class ExperimentConfig:
    schemes: tuple
    metrics: tuple
    snr_db: tuple
    seeds: tuple = (0,)
    channel_kind: str = "awgn"
    taps: tuple = None
    num_symbols: int = 10**5
    frame_symbols: int = 1000
    codec: CodecSpec = None
    fer_target: float = 1e-2
    max_frames: int = 1000
    min_errors: int = 100
    output: str = None

    def __post_init__(self):
        if self.codec is not None and self.codec.family not in CODECS:
            raise ConfigError(
                f"codec.family: {self.codec.family!r} not one of {list(CODECS)}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"scheme: {s!r} not one of {list(SCHEMES)}")
        if not self.schemes:
            raise ConfigError("scheme: need at least one")
        for m in self.metrics:
            if m not in RUN_METRICS:
                raise ConfigError(
                    f"metric: {m!r} not one of {list(RUN_METRICS)}")
        if not self.metrics:
            raise ConfigError("metric: need at least one")
        if not self.snr_db:
            raise ConfigError("snr_db: need at least one sweep point")
        for snr in self.snr_db:
            check_field(sigma_for_peak_snr, "snr_db", snr)
        if self.channel_kind not in CHANNEL_KINDS:
            raise ConfigError(
                f"channel.kind: {self.channel_kind!r} not one of {list(CHANNEL_KINDS)}")
        if self.channel_kind == "fir_isi" and not self.taps:
            raise ConfigError("channel.taps: required when kind is fir_isi")
        if self.channel_kind != "fir_isi" and self.taps is not None:
            # the rate estimators run the ISI trellis whenever taps are set
            raise ConfigError(
                f"channel.taps: only allowed when kind is fir_isi, not {self.channel_kind!r}")
        if self.taps is not None:
            for snr in self.snr_db:
                check_field(check_taps, "channel.taps", self.taps, sigma_for_peak_snr(snr))
        needs_codec = set(self.metrics) & {"fer", "rate_at_fer"}
        if needs_codec and self.codec is None:
            raise ConfigError(f"codec: required for metric(s) {sorted(needs_codec)}")
        if needs_codec and self.channel_kind == "fir_isi":
            # the coded link is memoryless AWGN
            raise ConfigError(
                f"channel.kind: fir_isi not supported with metric(s) {sorted(needs_codec)}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one")
        for seed in self.seeds:
            check_field(check_seed, "seeds", seed)
        if not 0 <= self.fer_target <= 1:
            raise ConfigError(f"fer_target: need a number in [0, 1], got {self.fer_target}")
        for key in ("frame_symbols", "max_frames", "min_errors"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: need at least 1, got {getattr(self, key)}")
        for scheme in self.schemes:
            check_field(check_num_symbols, "num_symbols", scheme, self.num_symbols)
            if self.taps is not None:
                check_field(check_num_symbols, "channel.taps", scheme,
                            self.num_symbols, self.taps)
        if needs_codec:
            self._check_frames()

    def _check_frames(self):
        """Build each coded scheme's frame at every rate the metrics ask for:
        a rate is accepted exactly when its frame builds, and the run reuses
        the memoized builds."""
        rates = []
        if "fer" in self.metrics:
            rates.append(("codec.rate", self.codec.rate_bpcu))
        if "rate_at_fer" in self.metrics:
            if not self.codec.rate_grid:
                raise ConfigError("codec.rate_grid: need at least one rate")
            rates += [("codec.rate_grid", r) for r in self.codec.rate_grid]
        for scheme in self.schemes:
            check_field(check_frame_symbols, "frame_symbols", scheme, self.frame_symbols)
            for key, rate in rates:
                check_field(build_coded, key, scheme, rate,
                            self.frame_symbols, self.codec.family)


def check_field(fn, key, *args):
    """Call a library check, turning its ValueError (or the OverflowError
    of a value beyond float or int range) into one naming key; returns
    what fn returns."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{key}: {e}") from None


def _string(v):
    """A YAML string. A null reads as 'None', which the field's own check
    then refuses by name."""
    if v is not None and not isinstance(v, str):
        raise TypeError
    return str(v)


def _number(v):
    """A YAML number or a numeric string (PyYAML reads 1e308, having no
    point, as a string); booleans are refused."""
    if isinstance(v, bool):
        raise TypeError
    return float(v)


def _integer(v):
    """A YAML integer; booleans and strings are refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError
    return v


# Each YAML field, nested ones dotted -> (the field it sets, of CodecSpec
# under codec and of ExperimentConfig elsewhere; its reader; whether it
# holds a list, where one item stands for a list of one; what the reader
# expects, for its error).
_FIELDS = {
    "scheme": ("schemes", _string, True, "names"),
    "schemes": ("schemes", _string, True, "names"),
    "metric": ("metrics", _string, True, "names"),
    "snr_db": ("snr_db", _number, True, "numbers"),
    "seeds": ("seeds", _integer, True, "integers"),
    "channel.kind": ("channel_kind", _string, False, "a name"),
    "channel.taps": ("taps", _number, True, "numbers"),
    "num_symbols": ("num_symbols", _integer, False, "an integer"),
    "frame_symbols": ("frame_symbols", _integer, False, "an integer"),
    "codec.family": ("family", _string, False, "a name"),
    "codec.rate": ("rate_bpcu", _number, False, "a number"),
    "codec.rate_grid": ("rate_grid", _number, True, "numbers"),
    "fer_target": ("fer_target", _number, False, "a number"),
    "max_frames": ("max_frames", _integer, False, "an integer"),
    "min_errors": ("min_errors", _integer, False, "an integer"),
    "output": ("output", _string, False, "a path"),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _refuse_unknown(where: str, unknown) -> None:
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown, key=str)}")


def _given(raw: dict) -> dict:
    """The fields raw sets, nested ones dotted, each known and each section
    a mapping. A top-level null sets nothing where the ExperimentConfig
    field has no default (it is then reported missing) or a None one."""
    _refuse_unknown("config", set(raw) - {key.split(".")[0] for key in _FIELDS})
    given = {}
    for key, v in raw.items():
        target = _FIELDS[key][0] if key in _FIELDS else key
        if v is None and _DEFAULTS.get(target, 0) in (None, MISSING):
            continue
        if key in _FIELDS:
            given[key] = v
            continue
        if not isinstance(v, dict):
            raise ConfigError(f"{key}: expected a mapping")
        _refuse_unknown(key, {k for k in v if f"{key}.{k}" not in _FIELDS})
        given.update((f"{key}.{k}", x) for k, x in v.items())
    return given


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader refusing a scalar key written twice in one mapping, which
    safe_load would silently resolve to the last value. Merged (<<) keys
    may be overridden; unhashable keys are left to construct_mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise ConfigError(f"{key}: given twice in one mapping, again "
                                      f"at line {key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate YAML config text.

    Syntax errors surface the YAML line; schema errors name the offending
    field with a dotted path.
    """
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"config syntax error at {where}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a top-level mapping")
    given = _given(raw)
    kw, codec = {}, {}
    for key, (target, read, many, what) in _FIELDS.items():
        if key not in given:
            continue
        into = codec if key.startswith("codec.") else kw
        if target in into:
            first = next(k for k in _FIELDS if k in given and _FIELDS[k][0] == target)
            raise ConfigError(f"config: give either {first!r} or {key!r}, not both")
        v = given[key]
        try:
            into[target] = (tuple(map(read, v if isinstance(v, list) else [v]))
                            if many else read(v))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key}: expected {what}, got {v!r}") from None
    for key, (target, *_) in _FIELDS.items():
        if _DEFAULTS.get(target) is MISSING and target not in kw:
            raise ConfigError(f"{key}: required")
    if isinstance(raw.get("codec"), dict):
        kw["codec"] = CodecSpec(**codec)
    return ExperimentConfig(**kw)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(scheme, metric, snr_db, rate, half_width, n, seed) -> str:
    return ",".join(_fmt(v) for v in
                    (scheme, metric, float(snr_db), float(rate),
                     float(half_width), int(n), int(seed)))


def _coded_rows(cfg: ExperimentConfig, scheme: str, metric: str,
                snr: float, seed: int) -> list:
    """The rows of one fer or rate_at_fer item."""
    if metric == "fer":
        fer, hw, frames, _ = coded_fer(
            scheme, cfg.codec.rate_bpcu, snr, frame_symbols=cfg.frame_symbols,
            max_frames=cfg.max_frames, min_errors=cfg.min_errors, seed=seed)
        return [_row(scheme, "fer", snr, fer, hw, frames, seed)]

    achieved, points = rate_at_fer(
        scheme, snr, fer_target=cfg.fer_target, rate_grid=cfg.codec.rate_grid,
        frame_symbols=cfg.frame_symbols, max_frames=cfg.max_frames,
        min_errors=cfg.min_errors, seed=seed)
    rows = [_row(scheme, "rate_at_fer", snr, achieved, 0.0,
                 sum(p.frames for p in points), seed)]
    for p in points:
        rows.append(_row(scheme, f"fer@{p.rate:g}", snr, p.fer, p.half_width,
                         p.frames, seed))
    return rows


def _run_unit(cfg: ExperimentConfig, unit: tuple):
    """Run unit = (scheme, metric, snr, seed): that coded item's rows, or,
    with scheme None and metric a tuple of MI/GMI metrics, every scheme's
    estimates at the point."""
    scheme, metric, snr, seed = unit
    if scheme is None:
        return estimate_rates_per_scheme(cfg.schemes, snr, metric,
                                         cfg.num_symbols, seed, cfg.taps)
    return _coded_rows(cfg, scheme, metric, snr, seed)


def map_ordered(fn, *iterables, threads: int = 1):
    """Yield fn over the iterables' items in input order, as map does: on
    the caller when threads is 1, else on min(threads, items) worker
    processes, forked so that they inherit the imported modules and the
    memoized codes. An error in fn, or closing the iterator, cancels the
    items not yet started; the workers are gone once the iterator is
    exhausted or closed."""
    if threads == 1:  # a one-process run loads no pool
        yield from map(fn, *iterables)
        return
    columns = [list(items) for items in iterables]
    workers = min(threads, *map(len, columns))
    if workers == 0:  # no items: map gives nothing, and no pool starts
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(workers, get_context("fork"))
    try:
        yield from pool.map(fn, *columns)
    finally:
        pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   progress=None) -> str:
    """Run every sweep point and return the full CSV text.

    Rows are written, and progress is called once per item with (scheme,
    metric, snr, seed) and its rows, in config order, so the bytes never
    depend on scheduling. Each fer or rate_at_fer item is one unit of work
    (_run_unit), and so is each (snr, seed) point, taken by list position,
    for the MI/GMI items of every scheme there. Units run in the order of
    their first item, through map_ordered: on the caller at that item's
    turn when threads is 1, else on min(threads, units) worker processes.
    """
    if not 1 <= threads <= MAX_WORKERS:
        raise ConfigError(f"threads: need at least 1 and at most {MAX_WORKERS} "
                          f"worker processes, got {threads}")
    points = [(snr, seed) for snr in cfg.snr_db for seed in cfg.seeds]
    rate_metrics = tuple(m for m in cfg.metrics if m in METRICS)
    units, draws = [], [(None, rate_metrics, snr, seed) for snr, seed in points]
    for scheme in cfg.schemes:
        for metric in cfg.metrics:
            if metric in METRICS:
                units, draws = units + draws, []
            else:
                units += [(scheme, metric, snr, seed) for snr, seed in points]
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    held = []  # each point's estimates drawn so far, one dict per scheme
    # closed here, not when collected: a traceback keeps this frame alive
    with contextlib.closing(map_ordered(functools.partial(_run_unit, cfg),
                                        units, threads=threads)) as results:
        for i, scheme in enumerate(cfg.schemes):
            for metric in cfg.metrics:
                for p, (snr, seed) in enumerate(points):
                    if metric in METRICS:
                        if p == len(held):
                            held.append(next(results))
                        # a RateEstimate's fields are the CSV columns, in order
                        rows = [_row(*astuple(held[p][i][metric]))]
                    else:
                        rows = next(results)
                    buf.writelines(row + "\n" for row in rows)
                    if progress:
                        progress((scheme, metric, snr, seed), rows)
    return buf.getvalue()
