"""Declarative experiment configs and the sweep runner behind the CLI.

A config is a YAML mapping (nested key-value with lists) that names one or
more schemes, one or more metrics, a channel, an SNR sweep, and seeds. The
runner expands the cross product scheme x metric x snr x seed into work
items, evaluates them in one unit per (snr, seed) point (every scheme and
metric there; optionally points across threads), and emits CSV rows in
config order so the output bytes are independent of scheduling.

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

import concurrent.futures
import io
from dataclasses import astuple, dataclass

import yaml

from .channel import check_seed, check_taps, sigma_for_peak_snr
from .link import (CODECS, build_coded, check_frame_symbols, coded_fer,
                   rate_at_fer)
from .rates import (SCHEMES, METRICS, check_num_symbols,
                    estimate_rates_per_scheme)

RUN_METRICS = METRICS + ("fer", "rate_at_fer")
CHANNEL_KINDS = ("awgn", "fir_isi")
CSV_HEADER = "scheme,metric,snr_db,rate,half_width,N,seed"


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
            _check(check_taps, "channel.taps", self.taps)
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
            _check(check_seed, "seeds", seed)
        if not 0 <= self.fer_target <= 1:
            raise ConfigError(f"fer_target: need a number in [0, 1], got {self.fer_target}")
        for key in ("frame_symbols", "max_frames", "min_errors"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: need at least 1, got {getattr(self, key)}")
        for scheme in self.schemes:
            _check(check_num_symbols, "num_symbols", scheme, self.num_symbols)
            if self.taps is not None:
                _check(check_num_symbols, "channel.taps", scheme,
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
            _check(check_frame_symbols, "frame_symbols", scheme,
                   self.frame_symbols)
            for key, rate in rates:
                _check(build_coded, key, scheme, rate, self.frame_symbols,
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

    kw = {"schemes": schemes, "metrics": metrics, "snr_db": snr_db}
    if "seeds" in raw:
        kw["seeds"] = tuple(_as_list(raw["seeds"], "seeds"))
        if not all(isinstance(s, int) and not isinstance(s, bool)
                   for s in kw["seeds"]):
            raise ConfigError(f"seeds: expected integers, got {raw['seeds']!r}")

    ch = raw.get("channel", {})
    if not isinstance(ch, dict):
        raise ConfigError("channel: expected a mapping")
    unknown = set(ch) - _CHANNEL_KEYS
    if unknown:
        raise ConfigError(f"channel: unknown field(s) {sorted(unknown)}")
    if "kind" in ch:
        kw["channel_kind"] = str(ch["kind"])
    if "taps" in ch:
        kw["taps"] = _floats(ch["taps"], "channel.taps")

    cd = raw.get("codec")
    if cd is not None:
        if not isinstance(cd, dict):
            raise ConfigError("codec: expected a mapping")
        unknown = set(cd) - _CODEC_KEYS
        if unknown:
            raise ConfigError(f"codec: unknown field(s) {sorted(unknown)}")
        spec = {}
        if "family" in cd:
            spec["family"] = str(cd["family"])
        if "rate" in cd:
            spec["rate_bpcu"] = _float(cd["rate"], "codec.rate")
        if cd.get("rate_grid") is not None:
            spec["rate_grid"] = _floats(cd["rate_grid"], "codec.rate_grid")
        kw["codec"] = CodecSpec(**spec)

    for key in ("num_symbols", "frame_symbols", "max_frames", "min_errors"):
        if key in raw:
            v = raw[key]
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{key}: expected an integer, got {v!r}")
            kw[key] = v
    if "fer_target" in raw:
        kw["fer_target"] = _float(raw["fer_target"], "fer_target")
    out = raw.get("output")
    if out is not None:
        if not isinstance(out, str):
            raise ConfigError(f"output: expected a path, got {out!r}")
        kw["output"] = out
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
    for p in sorted(points, key=lambda p: -p.rate):
        rows.append(_row(scheme, f"fer@{p.rate:g}", snr, p.fer, p.half_width,
                         p.frames, seed))
    return rows


def _eval_point(cfg: ExperimentConfig, snr: float, seed: int) -> list:
    """The rows of every item at one sweep point: entry [i][j] lists the
    rows of scheme cfg.schemes[i] and metric cfg.metrics[j] at (snr, seed).

    The MI/GMI metrics of all schemes come from one
    estimate_rates_per_scheme call, one draw per scheme; the coded items
    then run one after another.
    """
    rate_metrics = tuple(dict.fromkeys(m for m in cfg.metrics if m in METRICS))
    ests = (estimate_rates_per_scheme(cfg.schemes, snr, rate_metrics,
                                      cfg.num_symbols, seed, cfg.taps)
            if rate_metrics else None)
    # a RateEstimate's fields are the CSV columns, in order
    return [[[_row(*astuple(ests[i][m]))] if m in METRICS
             else _coded_rows(cfg, scheme, m, snr, seed)
             for m in cfg.metrics]
            for i, scheme in enumerate(cfg.schemes)]


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   progress=None) -> str:
    """Run every sweep point and return the full CSV text.

    One work unit is one (snr, seed) point of the sweep: _eval_point
    evaluates every scheme and metric there. Points are taken by list
    position, so a value repeated in the config gets rows of its own as it
    got items. Rows are written, and
    progress is called once per item with (scheme, metric, snr, seed) and
    its rows, in config order whatever the scheduling, so the bytes never
    depend on it. Config order puts the scheme and the metric outside the
    SNR, so the first (scheme, metric) pass runs the points and the later
    items read their held rows. With threads > 1 the points run on a pool
    of that many worker threads. One thread runs them on the caller's
    thread, one after another, with progress called between points; run
    on a single worker thread instead, a 1e6-symbol MI/GMI sweep of the
    three schemes peaked about 4 MB higher in resident memory, 72 against
    68 MB (glibc malloc).
    """
    if threads < 1:
        raise ValueError(f"threads: need at least 1 worker thread, got {threads}")
    points = [(snr, seed) for snr in cfg.snr_db for seed in cfg.seeds]
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    done = []  # the rows of each point run so far, as _eval_point gives them
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        run = ex.map if threads > 1 else map
        results = run(lambda p: _eval_point(cfg, *p), points)
        for i, scheme in enumerate(cfg.schemes):
            for j, metric in enumerate(cfg.metrics):
                for p, (snr, seed) in enumerate(points):
                    if p == len(done):
                        done.append(next(results))
                    rows = done[p][i][j]
                    buf.writelines(row + "\n" for row in rows)
                    if progress:
                        progress((scheme, metric, snr, seed), rows)
    return buf.getvalue()
