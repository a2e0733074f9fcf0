"""Declarative experiment configs and the sweep runner behind the CLI.

A config is a YAML mapping (nested key-value with lists) that names one or
more schemes, one or more metrics, a channel, an SNR sweep, and seeds. The
runner expands the cross product scheme x metric x snr x seed into work
items, evaluates them (optionally across threads), and emits CSV rows in
config order so the output bytes are independent of scheduling.

CSV schema (header always present, one row per item):

    scheme, metric, snr_db, rate, half_width, N, seed

For metric "symbol_metric"/"bit_metric" the rate column is the Monte Carlo
estimate in bits per 1D channel use and N counts channel uses. For metric
"fer" the rate column holds the measured frame error rate and N the frame
count. For metric "rate_at_fer" the first row per point reports the
achieved rate (half_width 0) over the total frames spent, followed by one
"fer" row per grid rate probed. Floats are written with repr so parsing
them back loses nothing.
"""
from __future__ import annotations

import concurrent.futures
import io
from dataclasses import dataclass

import yaml

from .channel import check_seed, check_taps, sigma_for_peak_snr
from .link import check_frame_symbols, coded_fer, frame_data_bits, rate_at_fer
from .rates import (SCHEMES, METRICS, check_num_symbols, estimate_gmi,
                    estimate_mi)

RUN_METRICS = METRICS + ("fer", "rate_at_fer")
CSV_HEADER = "scheme,metric,snr_db,rate,half_width,N,seed"


class ConfigError(ValueError):
    """Config rejected; message carries a line or field diagnostic."""


@dataclass(frozen=True)
class CodecSpec:
    family: str = "ldpc"  # ldpc | bch | none
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
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"scheme: {s!r} not one of {list(SCHEMES)}")
        for m in self.metrics:
            if m not in RUN_METRICS:
                raise ConfigError(
                    f"metric: {m!r} not one of {list(RUN_METRICS)}")
        if not self.metrics:
            raise ConfigError("metric: need at least one")
        if not self.snr_db:
            raise ConfigError("snr_db: need at least one sweep point")
        for snr in self.snr_db:
            _check(sigma_for_peak_snr, "snr_db", snr)
        if self.channel_kind not in ("awgn", "fir_isi"):
            raise ConfigError(
                f"channel.kind: {self.channel_kind!r} not one of ['awgn', 'fir_isi']")
        if self.channel_kind == "fir_isi" and not self.taps:
            raise ConfigError("channel.taps: required when kind is fir_isi")
        if self.channel_kind != "fir_isi" and self.taps is not None:
            # the rate estimators run the ISI trellis whenever taps are set
            raise ConfigError(
                f"channel.taps: only allowed when kind is fir_isi, not {self.channel_kind!r}")
        if self.taps is not None:
            _check(check_taps, "channel.taps", self.taps)
        needs_codec = set(self.metrics) & {"fer", "rate_at_fer"}
        if needs_codec and self.codec is None:
            raise ConfigError(f"codec: required for metric(s) {sorted(needs_codec)}")
        if needs_codec and self.channel_kind == "fir_isi":
            # the coded link is memoryless AWGN
            raise ConfigError(
                f"channel.kind: fir_isi not supported with metric(s) {sorted(needs_codec)}")
        if needs_codec and self.codec.family == "bch" and "dm_pam6" in self.schemes:
            raise ConfigError(
                "codec.family: 'bch' not supported by scheme dm_pam6; use 'ldpc' or 'none'")
        if "rate_at_fer" in self.metrics and self.codec.family == "none":
            # an uncoded frame carries one fixed rate, whatever the grid says
            raise ConfigError(
                "codec.family: 'none' not supported with metric rate_at_fer; use 'ldpc' or 'bch'")
        if not self.seeds:
            raise ConfigError("seeds: need at least one")
        for seed in self.seeds:
            _check(check_seed, "seeds", seed)
        if not 0 <= self.fer_target <= 1:
            raise ConfigError(f"fer_target: need a number in [0, 1], got {self.fer_target}")
        for key in ("frame_symbols", "max_frames", "min_errors"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: need at least 1, got {getattr(self, key)}")
        for scheme in self.schemes:
            _check(check_num_symbols, "num_symbols", scheme, self.num_symbols)
        if needs_codec:
            self._check_frames()

    def _check_frames(self):
        """Check each coded scheme's frame at every rate the metrics ask for."""
        rates = []
        if "fer" in self.metrics:
            rates.append(("codec.rate", self.codec.rate_bpcu))
        if "rate_at_fer" in self.metrics:
            if not self.codec.rate_grid:
                raise ConfigError("codec.rate_grid: need at least one rate")
            rates += [("codec.rate_grid", r) for r in self.codec.rate_grid]
        for scheme in self.schemes:
            _check(check_frame_symbols, "frame_symbols", scheme,
                   self.frame_symbols)
            for key, rate in rates:
                _check(frame_data_bits, key, scheme, rate, self.frame_symbols,
                       self.codec.family)


def _check(fn, key, *args):
    """Call a library check, turning its ValueError (or the OverflowError
    of a value beyond float or int range) into one naming key."""
    try:
        fn(*args)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{key}: {e}") from None


_TOP_KEYS = {"scheme", "schemes", "metric", "snr_db", "seeds", "channel",
             "num_symbols", "frame_symbols", "codec", "fer_target",
             "max_frames", "min_errors", "output"}
_CHANNEL_KEYS = {"kind", "taps"}
_CODEC_KEYS = {"family", "rate", "rate_grid"}


def _as_list(v, key):
    if isinstance(v, (list, tuple)):
        return list(v)
    if isinstance(v, (int, float, str)):
        return [v]
    raise ConfigError(f"{key}: expected a scalar or list, got {type(v).__name__}")


def _float(v, key):
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {v!r}") from None


def _floats(v, key):
    try:
        return tuple(float(x) for x in _as_list(v, key))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected numbers, got {v!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate YAML config text.

    Syntax errors surface the YAML line; schema errors name the offending
    field with a dotted path.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"config syntax error at {where}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a top-level mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"config: unknown field(s) {sorted(unknown)}")
    if "scheme" in raw and "schemes" in raw:
        raise ConfigError("config: give either 'scheme' or 'schemes', not both")

    schemes = raw.get("schemes", raw.get("scheme"))
    if schemes is None:
        raise ConfigError("scheme: required")
    schemes = tuple(str(s) for s in _as_list(schemes, "scheme"))

    metrics = raw.get("metric")
    if metrics is None:
        raise ConfigError("metric: required")
    metrics = tuple(str(m) for m in _as_list(metrics, "metric"))

    if "snr_db" not in raw:
        raise ConfigError("snr_db: required")
    snr_db = _floats(raw["snr_db"], "snr_db")

    seeds = tuple(_as_list(raw.get("seeds", [0]), "seeds"))
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigError(f"seeds: expected integers, got {raw.get('seeds')!r}")

    ch = raw.get("channel", {})
    if not isinstance(ch, dict):
        raise ConfigError("channel: expected a mapping")
    unknown = set(ch) - _CHANNEL_KEYS
    if unknown:
        raise ConfigError(f"channel: unknown field(s) {sorted(unknown)}")
    kind = str(ch.get("kind", "awgn"))
    taps = _floats(ch["taps"], "channel.taps") if "taps" in ch else None

    codec = None
    cd = raw.get("codec")
    if cd is not None:
        if not isinstance(cd, dict):
            raise ConfigError("codec: expected a mapping")
        unknown = set(cd) - _CODEC_KEYS
        if unknown:
            raise ConfigError(f"codec: unknown field(s) {sorted(unknown)}")
        grid = cd.get("rate_grid")
        codec = CodecSpec(
            family=str(cd.get("family", "ldpc")),
            rate_bpcu=_float(cd.get("rate", 2.0), "codec.rate"),
            rate_grid=(_floats(grid, "codec.rate_grid") if grid is not None
                       else CodecSpec.rate_grid),
        )
        if codec.family not in ("ldpc", "bch", "none"):
            raise ConfigError(
                f"codec.family: {codec.family!r} not one of ['ldpc', 'bch', 'none']")

    def _int(key, default):
        v = raw.get(key, default)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"{key}: expected an integer, got {v!r}")
        return v

    out = raw.get("output")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output: expected a path, got {out!r}")
    return ExperimentConfig(
        schemes=schemes, metrics=metrics, snr_db=snr_db, seeds=seeds,
        channel_kind=kind, taps=taps,
        num_symbols=_int("num_symbols", 10**5),
        frame_symbols=_int("frame_symbols", 1000),
        codec=codec,
        fer_target=_float(raw.get("fer_target", 1e-2), "fer_target"),
        max_frames=_int("max_frames", 1000),
        min_errors=_int("min_errors", 100),
        output=out,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    return parse_config(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(scheme, metric, snr_db, rate, half_width, n, seed) -> str:
    return ",".join(_fmt(v) for v in
                    (scheme, metric, float(snr_db), float(rate),
                     float(half_width), int(n), int(seed)))


def _eval_item(cfg: ExperimentConfig, scheme: str, metric: str, snr: float,
               seed: int):
    """Evaluate one (scheme, metric, snr, seed) item; returns a list of rows."""
    if metric in METRICS:
        est = (estimate_mi if metric == "symbol_metric" else estimate_gmi)(
            scheme, snr, num_symbols=cfg.num_symbols, seed=seed, taps=cfg.taps)
        return [_row(scheme, metric, snr, est.rate, est.half_width,
                     est.num_symbols, seed)]

    if metric == "fer":
        fer, hw, frames, _ = coded_fer(
            scheme, cfg.codec.rate_bpcu, snr, codec=cfg.codec.family,
            frame_symbols=cfg.frame_symbols, max_frames=cfg.max_frames,
            min_errors=cfg.min_errors, seed=seed)
        return [_row(scheme, "fer", snr, fer, hw, frames, seed)]

    achieved, points = rate_at_fer(
        scheme, snr, fer_target=cfg.fer_target, codec=cfg.codec.family,
        rate_grid=cfg.codec.rate_grid, frame_symbols=cfg.frame_symbols,
        max_frames=cfg.max_frames, min_errors=cfg.min_errors, seed=seed)
    rows = [_row(scheme, "rate_at_fer", snr, achieved, 0.0,
                 sum(p.frames for p in points), seed)]
    for p in sorted(points, key=lambda p: -p.rate):
        rows.append(_row(scheme, f"fer@{p.rate:g}", snr, p.fer, p.half_width,
                         p.frames, seed))
    return rows


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   progress=None) -> str:
    """Run every work item and return the full CSV text.

    Items are keyed by config order; with threads > 1 they complete out of
    order but rows are emitted in key order, so the bytes never depend on
    scheduling.
    """
    items = [(scheme, metric, snr, seed)
             for scheme in cfg.schemes
             for metric in cfg.metrics
             for snr in cfg.snr_db
             for seed in cfg.seeds]
    results = {}
    if threads <= 1:
        for i, item in enumerate(items):
            results[i] = _eval_item(cfg, *item)
            if progress:
                progress(item, results[i])
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            futs = {ex.submit(_eval_item, cfg, *item): i
                    for i, item in enumerate(items)}
            for fut in concurrent.futures.as_completed(futs):
                i = futs[fut]
                results[i] = fut.result()
                if progress:
                    progress(items[i], results[i])
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for i in range(len(items)):
        for row in results[i]:
            buf.write(row + "\n")
    return buf.getvalue()
