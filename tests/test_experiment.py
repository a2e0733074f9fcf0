"""Config parsing diagnostics and the sweep runner's output contract."""
import concurrent.futures
import math
import multiprocessing
import os
import threading
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pam6link import experiment
from pam6link.cli import BUNDLED_CONFIGS, _resolve_config, main
from pam6link.experiment import (CSV_HEADER, CodecSpec, ConfigError,
                                 ExperimentConfig, parse_config, run_experiment)
from pam6link.link import build_coded, coded_fer
from pam6link.rates import RateEstimate, estimate_rates
from pinned_dispatch import at_pinned_dispatch
from test_dsp import ISI_PINS

MINIMAL = """
scheme: dm_pam6
metric: symbol_metric
snr_db: [20.0]
num_symbols: 10000
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.schemes == ("dm_pam6",)
    assert cfg.metrics == ("symbol_metric",)
    assert cfg.snr_db == (20.0,)
    assert cfg.seeds == (0,)
    assert cfg.channel_kind == "awgn" and cfg.taps is None


def test_parse_lists_and_channel():
    cfg = parse_config("""
schemes: [cross_qam32, framed_cross_qam32]
metric: [symbol_metric, bit_metric]
snr_db: [20, 21, 22]
seeds: [3, 4]
channel: {kind: fir_isi, taps: [1.0, 0.35]}
""")
    assert len(cfg.schemes) == 2 and len(cfg.metrics) == 2
    assert cfg.snr_db == (20.0, 21.0, 22.0)
    assert cfg.seeds == (3, 4)
    assert cfg.channel_kind == "fir_isi" and cfg.taps == (1.0, 0.35)


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match=r"line 3"):
        parse_config("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20.0\n")


@pytest.mark.parametrize("text,field", [
    ("metric: symbol_metric\nsnr_db: [20]", "scheme: required"),
    ("scheme: dm_pam6\nsnr_db: [20]", "metric: required"),
    ("scheme: dm_pam6\nmetric: symbol_metric", "snr_db: required"),
    ("scheme: pam9\nmetric: symbol_metric\nsnr_db: [20]", "scheme: 'pam9'"),
    ("scheme: dm_pam6\nmetric: ser\nsnr_db: [20]", "metric: 'ser'"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nbogus: 1",
     r"unknown field\(s\) \['bogus'\]"),
    ("scheme: a\nschemes: [b]\nmetric: symbol_metric\nsnr_db: [20]",
     "either 'scheme' or 'schemes'"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: fir_isi}", "channel.taps: required"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: awgn, gain: 2}", r"channel: unknown field\(s\)"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nchannel: []",
     "channel: expected a mapping"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\noutput: {}",
     "output: expected a path"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [20]", "codec: required"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [20]\ncodec: {family: rs}",
     "codec.family: 'rs'"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [20]\ncodec: {turbo: 1}",
     r"codec: unknown field\(s\)"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nnum_symbols: 500",
     "num_symbols: need at least"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nnum_symbols: 1e5",
     "num_symbols: expected an integer"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: [x]",
     "seeds: expected integers"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: hello",
     "snr_db: expected numbers"),
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [20]\n"
     "codec: {family: ldpc, puncture_systematic: true}",
     r"codec: unknown field\(s\) \['puncture_systematic'\]"),
    ("scheme: framed_cross_qam32\nmetric: fer\nsnr_db: [27]\n"
     "channel: {kind: fir_isi, taps: [1.0, 0.35]}\ncodec: {family: ldpc}",
     "channel.kind: fir_isi"),
    ("scheme: cross_qam32\nmetric: rate_at_fer\nsnr_db: [27]\n"
     "channel: {kind: fir_isi, taps: [1.0, 0.35]}\ncodec: {family: ldpc}",
     "channel.kind: fir_isi"),
    ("scheme: cross_qam32\nmetric: bit_metric\nsnr_db: [22.5]\n"
     "channel: {kind: awgn, taps: [1.0, 0.35]}", "channel.taps: only allowed"),
    ("scheme: cross_qam32\nmetric: bit_metric\nsnr_db: [22.5]\n"
     "channel: {taps: [1.0, 0.35]}", "channel.taps: only allowed"),
    # LDPC is the one code family
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [27]\ncodec: {family: bch}",
     r"codec.family: 'bch' not one of \['ldpc'\]"),
    ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [60]\n"
     "codec: {family: none, rate_grid: [1.8]}",
     r"codec.family: 'none' not one of \['ldpc'\]"),
    # frame geometry is checked at parse time, before any code is built
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [27]\n"
     "codec: {family: ldpc, rate: 2.0005}", "codec.rate: .*not realizable"),
    ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [40]\n"
     "codec: {family: ldpc, rate_grid: [2.0, 2.0005]}",
     "codec.rate_grid: .*not realizable"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\n"
     "codec: {family: ldpc, rate: 2.0001}", "codec.rate: .*not realizable"),
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [27]\n"
     "codec: {family: ldpc, rate: 2.6}", r"codec.rate: .*outside \(0, 2.5\)"),
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [27]\n"
     "codec: {family: ldpc}\nframe_symbols: 999", "frame_symbols: .*even"),
    ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [40]\n"
     "codec: {family: ldpc, rate_grid: []}", "codec.rate_grid: need at least"),
    # a null grid is refused, not replaced by the default grid
    ("scheme: dm_pam6\nmetric: rate_at_fer\nsnr_db: [27]\n"
     "codec: {family: ldpc, rate_grid: null}",
     "codec.rate_grid: expected numbers, got None"),
    ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [40]\n"
     "codec: {family: ldpc, rate_grid: [2.496]}",
     "codec.rate_grid: .*fewer than one lifted row"),
    # counts and seeds
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {family: ldpc}\n"
     "max_frames: 0", "max_frames: need at least 1"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {family: ldpc}\n"
     "max_frames: -3", "max_frames: need at least 1"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {family: ldpc}\n"
     "min_errors: 0", "min_errors: need at least 1"),
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [60]\ncodec: {family: ldpc}\n"
     "frame_symbols: 0", "frame_symbols: need at least 1"),
    # sizes have upper bounds, so no run fails mid-way on a huge size
    ("scheme: cross_qam32\nmetric: fer\nsnr_db: [60]\ncodec: {family: ldpc}\n"
     "frame_symbols: 1000000000000000000000000000000",
     "frame_symbols: at most 100000 symbols"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {family: ldpc}\n"
     "frame_symbols: 100001", "frame_symbols: at most 100000 symbols"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "num_symbols: 10000002", "num_symbols: at most 10000000 symbols"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: [-1]",
     r"seeds: -1 outside \[0, 2\*\*64\)"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "seeds: [18446744073709551616]", "seeds: 18446744073709551616 outside"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: []",
     "seeds: need at least one"),
    ("schemes: []\nmetric: symbol_metric\nsnr_db: [20]",
     "scheme: need at least one"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: [.inf]",
     "seeds: expected integers"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: [0.5]",
     "seeds: expected integers"),
    # every sweep point needs a positive finite noise variance
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20, .nan]",
     "snr_db: peak SNR nan dB"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [.inf]\ncodec: {family: ldpc}",
     "snr_db: peak SNR inf dB"),
    # 2D formats send whole points: an odd count would not be simulated
    ("scheme: cross_qam32\nmetric: symbol_metric\nsnr_db: [20]\n"
     "num_symbols: 10001", "num_symbols: cross_qam32 sends 2 symbols"),
    # parsing allocates nothing; a run would detect a trellis of 6**11
    # states over 10**7 uses
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "num_symbols: 10000000\n"
     "channel: {kind: fir_isi, taps: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}",
     "channel.taps: .*branch metrics"),
    # finite taps whose |sum| is not would overflow the noiseless output
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: fir_isi, taps: [1e308, 1e308]}",
     r"channel.taps: sum of \|taps\| overflows"),
    # finite taps whose sum is would overflow the trellis's branch metrics
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: fir_isi, taps: [8.9e307, 8.9e307]}",
     r"channel.taps: sum of \|taps\| overflows the trellis"),
    # the same bound holds at every swept SNR, however high
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [200.0, 2000.0]\n"
     "num_symbols: 10000\nchannel: {kind: fir_isi, taps: [5e99, 5e99]}",
     r"channel.taps: sum of \|taps\| overflows the trellis"),
    # booleans are not numbers
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [true]",
     "snr_db: expected numbers, got \\[True\\]"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nfer_target: true",
     "fer_target: expected a number, got True"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: fir_isi, taps: [true, 0.35]}", "channel.taps: expected numbers"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {rate: true}",
     "codec.rate: expected a number, got True"),
    ("scheme: dm_pam6\nmetric: rate_at_fer\nsnr_db: [27]\n"
     "codec: {rate_grid: [true, 2.0]}", "codec.rate_grid: expected numbers"),
    # a null is unset only where the field may be; elsewhere it is refused
    ("scheme: null\nmetric: symbol_metric\nsnr_db: [20]", "scheme: required"),
    ("schemes: null\nmetric: symbol_metric\nsnr_db: [20]", "scheme: required"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nchannel: null",
     "channel: expected a mapping"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\nseeds: null",
     "seeds: expected integers, got None"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: fir_isi, taps: null}", "channel.taps: expected numbers"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {family: null}",
     "codec.family: 'None' not one of"),
    # every shaped frame keeps a parity bit for its LDPC code
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\ncodec: {rate: 2.574}",
     r"codec.rate: .*gamma in \[0, 1\), got 1.0"),
    # a key given twice in one mapping is refused, naming it and its line
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20.0]\nsnr_db: [30.0]",
     "snr_db: given twice in one mapping, again at line 4"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
     "channel: {kind: awgn, kind: fir_isi, taps: [1.0, 0.35]}",
     "kind: given twice in one mapping, again at line 4"),
    ("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\n"
     "codec:\n  rate: 2.0\n  family: ldpc\n  rate: 1.9",
     "rate: given twice in one mapping, again at line 7"),
    ("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n'snr_db': [30]",
     "snr_db: given twice"),
])
def test_schema_errors_name_the_field(text, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(text)


def test_merged_keys_may_be_overridden():
    # only keys written twice are refused: a key may override a merged one
    cfg = parse_config("scheme: dm_pam6\nmetric: symbol_metric\nsnr_db: [20]\n"
                       "channel: {<<: {kind: awgn}, kind: fir_isi, taps: [1.0, 0.35]}")
    assert cfg.channel_kind == "fir_isi" and cfg.taps == (1.0, 0.35)


def test_seed_override_is_validated():
    import dataclasses

    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="seeds: -1"):
        dataclasses.replace(cfg, seeds=(-1,))


def test_odd_num_symbols_fine_for_1d_scheme():
    cfg = parse_config(MINIMAL.replace("10000", "10001"))
    assert cfg.num_symbols == 10001


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_unset_fields_take_the_dataclass_defaults():
    cfg = parse_config("scheme: dm_pam6\nmetric: fer\nsnr_db: [27]\n"
                       "channel: {}\ncodec: {}\n")
    assert cfg == ExperimentConfig(schemes=("dm_pam6",), metrics=("fer",),
                                   snr_db=(27.0,), codec=CodecSpec())


@pytest.mark.parametrize("metrics", [("fer",), ("symbol_metric",)])
def test_codec_family_checked_by_the_config(metrics):
    # built directly, not parsed: an unknown family is named whatever the
    # metrics, not left for the frame checks to trip over
    with pytest.raises(ConfigError, match="codec.family: 'turbo' not one of"):
        ExperimentConfig(schemes=("cross_qam32",), metrics=metrics,
                         snr_db=(25.0,), codec=CodecSpec(family="turbo"))


def test_nulls_and_numeric_strings():
    cfg = parse_config(MINIMAL + "output: null\ncodec: null\nseeds: 3\n")
    assert cfg.output is None and cfg.codec is None and cfg.seeds == (3,)
    assert parse_config(MINIMAL.replace("[20.0]", "['2e1']")).snr_db == (20.0,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_taps_run_clean_below_the_trellis_bound():
    cfg = parse_config("scheme: dm_pam6\nmetric: symbol_metric\n"
                       "snr_db: [200.0]\nnum_symbols: 10000\n"
                       "channel: {kind: fir_isi, taps: [5e99, 5e99]}")
    assert run_experiment(cfg).count("\n") == 2


def test_two_taps_fit_the_largest_sample():
    cfg = parse_config(MINIMAL.replace("10000", "10000000")
                       + "channel: {kind: fir_isi, taps: [1.0, 0.35]}")
    assert cfg.num_symbols == 10**7 and cfg.taps == (1.0, 0.35)


def test_run_emits_cross_product_in_config_order():
    cfg = parse_config("""
schemes: [cross_qam32, dm_pam6]
metric: [symbol_metric, bit_metric]
snr_db: [20.0, 24.0]
seeds: [1]
num_symbols: 10000
""")
    csv_text = run_experiment(cfg)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    first = lines[1].split(",")
    assert first[0] == "cross_qam32" and first[1] == "symbol_metric"
    assert first[2] == "20.0"
    # scheme is the slowest axis, snr the second-fastest
    assert [l.split(",")[0] for l in lines[1:]] == \
        ["cross_qam32"] * 4 + ["dm_pam6"] * 4
    # float columns parse back exactly and N is the symbol budget
    rate, hw = float(first[3]), float(first[4])
    assert 0.0 < rate < 2.5 and hw > 0
    assert first[5] == "10000" and first[6] == "1"


def test_threading_does_not_change_bytes():
    cfg = parse_config("""
schemes: [cross_qam32, framed_cross_qam32, dm_pam6]
metric: [symbol_metric, bit_metric]
snr_db: [19.0, 23.0]
seeds: [0, 5]
num_symbols: 10000
""")
    a = run_experiment(cfg, threads=1)
    b = run_experiment(cfg, threads=4)
    assert a == b


@pytest.mark.parametrize("threads", [0, -2])
def test_run_experiment_needs_a_thread(threads):
    with pytest.raises(ConfigError, match="threads: need at least 1"):
        run_experiment(parse_config(MINIMAL), threads=threads)


def test_one_thread_runs_items_on_the_caller_between_reports(monkeypatch):
    events, caller = [], threading.get_ident()

    def fake_draws(schemes, snr, metrics, num_symbols, seed, taps):
        assert threading.get_ident() == caller
        events.append(("run", snr))
        return [{m: RateEstimate(s, m, snr, 1.0, 0.5, num_symbols, seed)
                 for m in metrics} for s in schemes]

    monkeypatch.setattr(experiment, "estimate_rates_per_scheme", fake_draws)
    cfg = parse_config(MINIMAL.replace("[20.0]", "[20.0, 21.0, 22.0]"))
    csv = run_experiment(cfg, threads=1,
                         progress=lambda item, rows: events.append(("seen", item[2])))
    assert events == [(kind, snr) for snr in (20.0, 21.0, 22.0)
                      for kind in ("run", "seen")]
    assert csv.splitlines()[1:] == [
        f"dm_pam6,symbol_metric,{snr},1.0,0.5,10000,0"
        for snr in (20.0, 21.0, 22.0)]


MIXED = """
schemes: [dm_pam6, cross_qam32]
metric: [fer, bit_metric]
snr_db: [24.0, 27.0]
seeds: [0, 3]
num_symbols: 10000
codec: {family: ldpc, rate: 2.0}
frame_symbols: 200
max_frames: 4
min_errors: 5
"""


def test_every_unit_runs_on_a_worker_process(monkeypatch, tmp_path):
    """With two workers each unit of both kinds, the 8 coded items and the
    4 points' draws, runs in a process other than the caller's, and the
    rows and progress calls are those of one process, in config order."""
    log, caller = tmp_path / "pids", os.getpid()
    real_fer, real_draws = experiment.coded_fer, experiment.estimate_rates_per_scheme

    def record(kind, fn):
        def wrapper(*args, **kw):
            with open(log, "a") as fh:
                fh.write(f"{kind} {os.getpid()}\n")
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(experiment, "coded_fer", record("fer", real_fer))
    monkeypatch.setattr(experiment, "estimate_rates_per_scheme",
                        record("draw", real_draws))
    cfg = parse_config(MIXED)
    runs = {}
    for threads in (1, 2):
        log.write_text("")
        seen = []
        csv = run_experiment(cfg, threads=threads,
                             progress=lambda item, rows: seen.append((item, rows)))
        runs[threads] = csv, seen, [line.split() for line in log.read_text().splitlines()]
    assert runs[2][:2] == runs[1][:2]
    assert [item for item, _ in runs[2][1]] == [
        (scheme, metric, snr, seed) for scheme in cfg.schemes
        for metric in cfg.metrics for snr in cfg.snr_db for seed in cfg.seeds]
    assert sorted(kind for kind, _ in runs[2][2]) == ["draw"] * 4 + ["fer"] * 8
    assert {int(pid) for _, pid in runs[1][2]} == {caller}
    assert caller not in {int(pid) for _, pid in runs[2][2]}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error,code,says", [
    (ValueError("noise variance must be positive"), 2,
     "error: ValueError: noise variance must be positive"),
    (ConfigError("codec.rate: no frame"), 1, "config error: codec.rate: no frame"),
])
def test_a_unit_failing_on_a_worker_fails_the_run_as_on_the_caller(
        monkeypatch, tmp_path, capsys, error, code, says):
    real_fer = experiment.coded_fer

    def fer(scheme, rate, snr, **kw):
        if scheme == "cross_qam32" and snr == 27.0:
            raise error
        return real_fer(scheme, rate, snr, **kw)

    monkeypatch.setattr(experiment, "coded_fer", fer)
    cfg = tmp_path / "mixed.yaml"
    cfg.write_text(MIXED)
    errs = []
    for threads in ("1", "2"):
        assert main(["run", "--config", str(cfg), "--threads", threads]) == code
        errs.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errs[0] == errs[1] == says + "\n"


@pytest.mark.parametrize("where", ["unit", "progress"])
def test_an_error_cancels_the_units_not_started(monkeypatch, tmp_path, where):
    """The first of 16 coded units, or the progress call after it, fails
    while the other units take 0.5 s each: the units still queued are
    cancelled, not run to the end."""
    log = tmp_path / "ran"
    log.write_text("")

    def rows(cfg, scheme, metric, snr, seed):
        if snr == 10.0 and where == "unit":
            raise ValueError("run failed")
        with open(log, "a") as fh:
            fh.write(f"{snr}\n")
        time.sleep(0.5 * (snr > 10.0))
        return []

    def progress(item, rows):
        raise ValueError("run failed")

    monkeypatch.setattr(experiment, "_coded_rows", rows)
    cfg = parse_config(MINIMAL.replace("symbol_metric", "fer").replace(
        "[20.0]", str([10.0 + k for k in range(16)])) + "codec: {rate: 2.0}\n")
    with pytest.raises(ValueError, match="run failed"):
        run_experiment(cfg, threads=2, progress=progress)
    assert multiprocessing.active_children() == []
    assert len(log.read_text().split()) <= 8


@pytest.mark.parametrize("threads,workers", [(65, None), (100000, None),
                                             (64, 1), (2, 1), (3, 3)])
def test_the_pool_is_bounded_before_any_process_starts(
        monkeypatch, capsys, tmp_path, threads, workers):
    """threads above MAX_WORKERS exits 1 naming threads, and a pool has no
    more workers than units; no process is started to find either out."""
    sizes = []

    def pool(max_workers, mp_context):
        sizes.append(max_workers)
        raise RuntimeError("no pool in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(MINIMAL.replace("[20.0]", "[20.0, 21.0, 22.0]"
                                   if workers == 3 else "[20.0]"))
    got = main(["run", "--config", str(cfg), "--threads", str(threads)])
    if workers is None:
        assert got == 1 and sizes == []
        assert f"threads: need at least 1 and at most 64 worker processes, " \
               f"got {threads}" in capsys.readouterr().err
    else:
        assert got == 2 and sizes == [workers]


@pytest.mark.parametrize("sweep", [
    "schemes: [cross_qam32, dm_pam6]\nsnr_db: [21.0, 24.0]\nseeds: [3, 8]",
    # repeated values: every list position gets rows of its own
    "schemes: [dm_pam6, cross_qam32, dm_pam6]\nsnr_db: [24.0, 21.0, 24.0]\n"
    "seeds: [8, 8]",
], ids=["distinct", "repeated"])
def test_units_write_what_per_item_calls_give(sweep):
    """Rate items sharing a draw and coded items between them write the
    rows separate per-item calls give, in config order, at any threads."""
    cfg = parse_config(sweep + """
metric: [bit_metric, fer, symbol_metric]
num_symbols: 10000
codec: {family: ldpc, rate: 2.0}
frame_symbols: 200
max_frames: 4
min_errors: 5
""")
    want, items = [CSV_HEADER], []
    for scheme in cfg.schemes:
        for metric in cfg.metrics:
            for snr in cfg.snr_db:
                for seed in cfg.seeds:
                    if metric == "fer":
                        fer, hw, n, _ = coded_fer(
                            scheme, 2.0, snr, frame_symbols=200, max_frames=4,
                            min_errors=5, seed=seed)
                    else:
                        est = estimate_rates(scheme, snr, (metric,), 10000,
                                             seed)[metric]
                        fer, hw, n = est.rate, est.half_width, est.num_symbols
                    want.append(",".join(
                        (scheme, metric, repr(snr), repr(fer), repr(hw),
                         str(n), str(seed))))
                    items.append((scheme, metric, snr, seed))
    want = "\n".join(want) + "\n"
    for threads in (1, 2):
        seen = []
        got = run_experiment(cfg, threads=threads,
                             progress=lambda item, rows: seen.append(item))
        assert got == want
        assert seen == items


@pytest.mark.parametrize("sweep", [
    "schemes: [cross_qam32, framed_cross_qam32, dm_pam6]\n"
    "metric: [symbol_metric, bit_metric]\nsnr_db: [19.0, 23.0]\n"
    "seeds: [0, 5]\nchannel: {kind: fir_isi, taps: [1.0, 0.35]}\n"
    "num_symbols: 10000",
    # one tap, one state per row; a scheme and a metric listed twice
    "schemes: [cross_qam32, framed_cross_qam32, dm_pam6, cross_qam32]\n"
    "metric: [symbol_metric, bit_metric, symbol_metric]\n"
    "snr_db: [20.0, 23.0]\nseeds: [0, 3]\n"
    "channel: {kind: fir_isi, taps: [0.9]}\nnum_symbols: 20000",
], ids=["two_taps", "one_tap_repeated"])
def test_isi_units_write_what_per_scheme_calls_give(sweep):
    """On fir_isi the rate items of every scheme at one (snr, seed) share a
    stacked trellis pass, yet write the rows per-scheme calls give, in
    config order, at any threads."""
    cfg = parse_config(sweep)
    want, items = [CSV_HEADER], []
    for scheme in cfg.schemes:
        ests = {(snr, seed): estimate_rates(scheme, snr,
                                            num_symbols=cfg.num_symbols,
                                            seed=seed, taps=cfg.taps)
                for snr in cfg.snr_db for seed in cfg.seeds}
        for metric in cfg.metrics:
            for snr in cfg.snr_db:
                for seed in cfg.seeds:
                    est = ests[snr, seed][metric]
                    want.append(",".join(
                        (scheme, metric, repr(snr), repr(est.rate),
                         repr(est.half_width), str(cfg.num_symbols),
                         str(seed))))
                    items.append((scheme, metric, snr, seed))
    want = "\n".join(want) + "\n"
    for threads in (1, 2):
        seen = []
        got = run_experiment(cfg, threads=threads,
                             progress=lambda item, rows: seen.append(item))
        assert got == want
        assert seen == items


def test_isi_rates_sweep_reproduces_the_pins():
    # the isi_rates benchmark sweep at seed 0, at the pins' dispatch level:
    # the stacked unit's rows are the pinned single-scheme estimates
    csv = at_pinned_dispatch('''
        from pam6link.experiment import parse_config, run_experiment
        result = run_experiment(parse_config("""
        schemes: [cross_qam32, framed_cross_qam32, dm_pam6]
        metric: [symbol_metric, bit_metric]
        snr_db: [22.5]
        seeds: [0]
        channel: {kind: fir_isi, taps: [1.0, 0.35]}
        num_symbols: 10000
        """))
        ''')
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    got = {}
    for scheme, _, _, rate, hw, _, _ in rows:
        got.setdefault(scheme, []).append((float(rate), float(hw)))
    assert got == {s: list(pins) for s, pins in ISI_PINS.items()}


def test_rate_at_fer_rows_include_grid_points():
    cfg = parse_config("""
scheme: framed_cross_qam32
metric: rate_at_fer
snr_db: [40.0]
codec: {family: ldpc, rate_grid: [1.9, 2.0]}
frame_symbols: 200
max_frames: 10
min_errors: 11
""")
    lines = run_experiment(cfg).strip().split("\n")
    metrics = [l.split(",")[1] for l in lines[1:]]
    assert metrics[0] == "rate_at_fer"
    # the scan starts at the top of the grid and stops at the first pass,
    # so the noise-free link probes 2.0 only
    assert metrics[1:] == ["fer@2"]
    top = lines[1].split(",")
    assert float(top[3]) == 2.0
    assert float(lines[2].split(",")[3]) == 0.0


def test_rate_at_fer_is_nan_when_grid_exhausted():
    from pam6link.link import rate_at_fer

    achieved, points = rate_at_fer("framed_cross_qam32", 15.0,
                                   rate_grid=(1.9, 2.0), frame_symbols=200,
                                   max_frames=10, min_errors=2)
    assert math.isnan(achieved)
    # every grid rate was probed, from the top
    assert [p.rate for p in points] == [2.0, 1.9]
    assert all(p.fer > 1e-2 for p in points)


def test_rate_at_fer_sweep_writes_points_no_rate_meets(tmp_path):
    # 18 dB meets no grid rate; the run still writes both points
    config = tmp_path / "no_rate.yaml"
    config.write_text("""
scheme: cross_qam32
metric: rate_at_fer
snr_db: [18.0, 27.0]
codec: {family: ldpc, rate_grid: [1.8, 2.0]}
frame_symbols: 200
max_frames: 20
min_errors: 5
""")
    out = tmp_path / "no_rate.csv"
    assert main(["run", "--config", str(config), "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    summary = [r for r in rows if r[1] == "rate_at_fer"]
    assert [r[2] for r in summary] == ["18.0", "27.0"]
    low = [r for r in rows if r[2] == "18.0"]
    assert [r[1] for r in low] == ["rate_at_fer", "fer@2", "fer@1.8"]
    assert low[0][3:5] == ["nan", "0.0"]
    assert int(low[0][5]) == sum(int(r[5]) for r in low[1:])
    assert float(summary[1][3]) in (1.8, 2.0)


def test_progress_callback_sees_every_item():
    cfg = parse_config(MINIMAL)
    seen = []
    run_experiment(cfg, progress=lambda item, rows: seen.append(item))
    assert seen == [("dm_pam6", "symbol_metric", 20.0, 0)]


def _bundled_text(name):
    return _resolve_config(name)[0]


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_bundled_configs_parse(name):
    cfg = parse_config(_bundled_text(name))
    assert cfg.schemes and cfg.metrics and cfg.snr_db


# every field a config sets, nested ones dotted
FIELDS = ("schemes", "metric", "snr_db", "seeds", "channel", "channel.kind",
          "channel.taps", "num_symbols", "frame_symbols", "codec",
          "codec.family", "codec.rate", "codec.rate_grid", "fer_target",
          "max_frames", "min_errors", "output")
DROP, AS_LIST, AS_MAPPING = object(), object(), object()
EDGES = (-1, 0, 1, 2, 3, 7, 0.5, 2.496, 1e308, -3080.0, 3200.0, 1e-320, 1e307,
         float("nan"), float("inf"), float("-inf"), True, "", "x", "fir_isi",
         "bch", "none", [], [0.0, 1.0], [1.0, float("nan")], [2.0], {}, None)


def _mutate(raw, path, op):
    *parents, key = path.split(".")
    node = raw
    for p in parents:
        if not isinstance(node.get(p), dict):
            node[p] = {}
        node = node[p]
    if op is DROP:
        node.pop(key, None)
    elif op is AS_LIST:
        node[key] = [node.get(key)]
    elif op is AS_MAPPING:
        node[key] = {"value": node.get(key)}
    else:
        node[key] = op


@given(st.sampled_from(BUNDLED_CONFIGS),
       st.lists(st.tuples(st.sampled_from(FIELDS),
                          st.sampled_from((DROP, AS_LIST, AS_MAPPING) + EDGES)),
                min_size=1, max_size=2))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_config_mutants_fail_at_parse_or_build(name, mutations):
    # a mutant of a bundled config is rejected naming a field, or every
    # code its coded metrics ask for builds: nothing can fail mid-run
    raw = yaml.safe_load(_bundled_text(name))
    for path, op in mutations:
        _mutate(raw, path, op)
    try:
        cfg = parse_config(yaml.safe_dump(raw))
    except ConfigError as e:
        assert str(e).split(":")[0] in FIELDS + ("scheme",), str(e)
        return
    rates = []
    if "fer" in cfg.metrics:
        rates.append(cfg.codec.rate_bpcu)
    if "rate_at_fer" in cfg.metrics:
        rates += cfg.codec.rate_grid
    for scheme in cfg.schemes:
        for rate in rates:
            build_coded(scheme, rate, cfg.frame_symbols, cfg.codec.family)
