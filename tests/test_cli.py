"""CLI exit codes, bundled configs, and selfcheck mutation behavior."""
import hashlib
import pathlib

import numpy as np
import pytest

from pam6link import cli, constellation, dsp, experiment, rates, selfcheck
from pam6link.cli import main
from pam6link.fec.ldpc import load_basegraph
from pam6link.rates import SCHEMES, snr_at_rate
from pinned_dispatch import at_pinned_dispatch

TINY = """
scheme: dm_pam6
metric: symbol_metric
snr_db: [20.0]
num_symbols: 10000
seeds: [4]
"""


def test_run_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(TINY)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,metric,snr_db,rate,half_width,N,seed"
    assert len(lines) == 2
    assert lines[1].startswith("dm_pam6,symbol_metric,20.0,")
    assert "wrote 1 rows" in capsys.readouterr().out


def test_run_stdout_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(TINY)
    assert main(["run", "--config", str(cfg), "--seed-override", "9"]) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[1].endswith(",9")


def test_run_threads_reproduce_bytes(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text("""
schemes: [cross_qam32, dm_pam6]
metric: [symbol_metric, bit_metric]
snr_db: [20.0, 24.0]
num_symbols: 10000
""")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--output", str(a),
                 "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--output", str(b),
                 "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
    assert "neither a bundled name" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text("scheme: dm_pam6\nmetric: nope\nsnr_db: [20]\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    coded = "metric: fer\nsnr_db: [20]\n"
    for text, field in [
        ("scheme: dm_pam6\n" + coded + "codec: {family: ldpc}\nfer_target: abc\n",
         "fer_target"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc, rate: fast}\n",
         "codec.rate"),
        ("scheme: dm_pam6\n" + coded + "codec: {family: bch}\n",
         "codec.family: 'bch' not one of ['ldpc']"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: none}\n",
         "codec.family: 'none' not one of ['ldpc']"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc, rate: 2.0005}\n",
         "codec.rate"),
        ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [40]\n"
         "codec: {family: ldpc, rate_grid: [2.0005]}\n", "codec.rate_grid"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc}\n"
         "frame_symbols: 999\n", "frame_symbols"),
        ("scheme: dm_pam6\n" + coded + "codec: {family: ldpc}\nmax_frames: 0\n",
         "max_frames"),
        ("scheme: dm_pam6\n" + coded + "codec: {family: ldpc}\nmax_frames: -3\n",
         "max_frames"),
        ("scheme: dm_pam6\n" + coded + "codec: {family: ldpc}\nmin_errors: 0\n",
         "min_errors"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc}\n"
         "frame_symbols: 0\n", "frame_symbols"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc}\n"
         "frame_symbols: 1000000000000000000000000000000\n", "frame_symbols"),
        (TINY.replace("10000", "10000002"), "num_symbols"),
        (TINY.replace("seeds: [4]", "seeds: [-1]"), "seeds"),
        (TINY.replace("seeds: [4]", "seeds: [18446744073709551616]"), "seeds"),
        (TINY.replace("dm_pam6", "cross_qam32").replace("10000", "10001"),
         "num_symbols"),
        (TINY.replace("[20.0]", "[.nan]"), "snr_db"),
        ("scheme: dm_pam6\nmetric: fer\nsnr_db: [.inf]\ncodec: {family: ldpc}\n",
         "snr_db"),
        # rates the code cannot realize: LDPC lift below 2, more parity
        # than the base graph's rows
        ("scheme: framed_cross_qam32\nmetric: rate_at_fer\nsnr_db: [40]\n"
         "codec: {family: ldpc, rate_grid: [2.0]}\nframe_symbols: 2\n",
         "codec.rate_grid"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc, rate: 1.0}\n",
         "codec.rate"),
        ("scheme: cross_qam32\n" + coded + "codec: {family: ldpc, rate: .inf}\n",
         "codec.rate"),
        ("scheme: dm_pam6\nmetric: rate_at_fer\nsnr_db: [20]\n"
         "codec: {family: ldpc}\nfer_target: .nan\n", "fer_target"),
        (TINY + "channel: {kind: fir_isi, taps: [0.0, 1.0]}\n", "channel.taps"),
        (TINY + "channel: {kind: fir_isi, taps: [1.0, .nan]}\n", "channel.taps"),
        (TINY.replace("10000", "10000000")
         + "channel: {kind: fir_isi, taps: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n",
         "channel.taps"),
        # a repeated key is refused, not resolved to its last value
        (TINY + "seeds: [5]\n", "seeds: given twice"),
    ]:
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 1
        assert field in capsys.readouterr().err
    bad.write_text(TINY)
    assert main(["run", "--config", str(bad), "--seed-override", "-1"]) == 1
    assert "seeds" in capsys.readouterr().err
    for threads in ("0", "-3"):
        assert main(["run", "--config", str(bad), "--threads", threads]) == 1
        assert "threads: need at least 1" in capsys.readouterr().err
    # rates flags are checked as the config fields they fill
    for n in ("0", "10001", "10000002"):
        assert main(["rates", "--scheme", "cross_qam32", "--metric",
                     "bit_metric", "--snr", "22.0", "--num-symbols", n]) == 1
        assert "config error: num_symbols: " in capsys.readouterr().err
    for flags, field in [(["--snr", "nan"], "snr_db: peak SNR nan dB"),
                         (["--snr", "22.0", "--seed", "-1"], "seeds"),
                         (["--snr", "22.0", "--taps", "0", "1"],
                          "channel.taps"),
                         (["--snr", "22.0", "--taps", "1", "inf"],
                          "channel.taps"),
                         (["--snr", "22.0", "--taps", "1e308", "1e308"],
                          "channel.taps: sum of |taps| overflows"),
                         (["--snr", "22.0", "--num-symbols", "10000000",
                           "--taps"] + ["1"] + ["0"] * 11, "channel.taps")]:
        assert main(["rates", "--scheme", "cross_qam32", "--metric",
                     "bit_metric", "--num-symbols", "10000"] + flags) == 1
        assert field in capsys.readouterr().err
    # argparse failures map to the same code
    assert main(["run"]) == 1
    assert main(["bogus-command"]) == 1


@pytest.mark.parametrize("snr", ["-3080", "3200"])
@pytest.mark.parametrize("scheme,metric", [("dm_pam6", "symbol_metric"),
                                           ("cross_qam32", "bit_metric")])
def test_snr_beyond_the_metric_range_exits_1(tmp_path, capsys, snr, scheme, metric):
    # -3080 dB overflowed a squared distance, 3200 dB a scaled one
    err = f"config error: snr_db: peak SNR {float(snr)} dB outside"
    cfg = tmp_path / "extreme.yaml"
    cfg.write_text(f"scheme: {scheme}\nmetric: {metric}\nsnr_db: [{snr}]\n"
                   "num_symbols: 10000\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert err in capsys.readouterr().err
    assert main(["rates", "--scheme", scheme, "--metric", metric,
                 f"--snr={snr}", "--num-symbols", "10000"]) == 1
    assert err in capsys.readouterr().err


def test_runtime_errors_exit_2(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise ValueError("draw failed")

    monkeypatch.setattr(experiment, "estimate_rates_per_scheme", fail)
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(TINY)
    out = tmp_path / "out.csv"
    out.write_text("earlier rows\n")
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert "error: ValueError: draw failed" in capsys.readouterr().err
    # the failed run leaves an existing output file as it was, and makes
    # no new one
    assert out.read_text() == "earlier rows\n"
    new = tmp_path / "new.csv"
    assert main(["run", "--config", str(cfg), "--output", str(new)]) == 2
    assert not new.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("path", ["no/dir/x.csv", "", ".", "x" * 300 + ".csv"],
                         ids=lambda p: "too_long" if len(p) > 255 else None)
def test_unwritable_output_exits_1_before_the_run(tmp_path, capsys, monkeypatch,
                                                 where, path):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: runs.append(a))
    target = str(tmp_path / path) if path else path
    cfg = tmp_path / "tiny.yaml"
    argv = ["run", "--config", str(cfg)]
    if where == "flag":
        cfg.write_text(TINY)
        argv += ["--output", target]
    else:
        cfg.write_text(TINY + f"output: {target!r}\n")
    assert main(argv) == 1
    assert "config error: output: cannot write" in capsys.readouterr().err
    assert runs == []


# sha256 of the bundled configs' CSVs at the pinned dispatch level
# (pinned_dispatch.py): a change that moves any float of these results must
# update the digest and say why
BUNDLED_SHA256 = {
    "awgn_gaps": "563076cef9f5fe5dc02773a7186c446d7e805d636db126b80ffaa51245ac5d51",
    "loopback": "2fcac1a921bf5a29fb7a2eb68d8906417451fbe33cab423dbd64fb5e20048e1b",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SHA256))
def test_bundled_config_csv_digest(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert at_pinned_dispatch(f"""
        from pam6link.cli import main
        result = main(["run", "--config", {name!r}, "--output", {str(out)!r}])
        """) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_SHA256[name]


def test_bundled_config_loopback(tmp_path):
    out = tmp_path / "loop.csv"
    assert main(["run", "--config", "loopback", "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    by_scheme = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "rate_at_fer":
            by_scheme[cells[0]] = float(cells[3])
    # noise-free link: every scheme reaches the top of the grid
    assert by_scheme == {"cross_qam32": 2.1, "framed_cross_qam32": 2.1,
                         "dm_pam6": 2.1}


def test_tables_lists_all_points(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "# cross_qam32: 32 points" in out
    assert "# framed_cross_qam32: 32 points" in out
    assert "# pam6_label: 6 points" in out
    assert main(["tables", "--scheme", "pam6_label"]) == 0
    out = capsys.readouterr().out
    assert out.count("# ") == 1 and len(out.strip().split("\n")) == 1 + 6


@pytest.mark.parametrize("taps", (None, ("1", "0.35")), ids=("awgn", "isi"))
def test_rates_single_point(tmp_path, capsys, taps):
    flags = [] if taps is None else ["--taps", *taps]
    assert main(["rates", "--scheme", "cross_qam32", "--metric", "bit_metric",
                 "--snr", "22.0", "--num-symbols", "10000", "--seed", "3",
                 *flags]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "scheme,metric,snr_db,rate,half_width,N,seed"
    cells = lines[1].split(",")
    assert cells[:3] == ["cross_qam32", "bit_metric", "22.0"]
    assert cells[5:] == ["10000", "3"]
    # the same bytes as run on the matching one-point config
    cfg = tmp_path / "point.yaml"
    cfg.write_text("scheme: cross_qam32\nmetric: bit_metric\nsnr_db: [22.0]\n"
                   "num_symbols: 10000\nseeds: [3]\n"
                   + ("" if taps is None else
                      f"channel: {{kind: fir_isi, taps: [{', '.join(taps)}]}}\n"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == out


GAPS_HEADER = "metric,scheme,snr_crossing_db,gap_vs_cross_db"


def test_gaps_prints_each_crossing_and_its_gap(capsys):
    # each crossing is snr_at_rate's and each gap is taken against
    # cross_qam32 at the same metric, to 4 decimals
    assert main(["gaps", "--num-symbols", "10000", "--seed", "11",
                 "--metric", "symbol_metric"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    snr = {s: snr_at_rate(s, "symbol_metric", 2.0, 10**4, 11) for s in SCHEMES}
    assert lines == [GAPS_HEADER] + [
        f"symbol_metric,{s},{snr[s]:.4f},{snr['cross_qam32'] - snr[s]:.4f}"
        for s in SCHEMES]
    assert lines[1].endswith(",0.0000")
    # without --metric, the symbol metric's rows, then the bit metric's
    assert main(["gaps", "--num-symbols", "10000", "--seed", "11"]) == 0
    both = capsys.readouterr().out.strip().split("\n")
    assert both[:4] == lines
    assert [l.split(",")[:2] for l in both[4:]] == [
        ["bit_metric", s] for s in SCHEMES]


@pytest.mark.parametrize("flags,error", [
    (["--num-symbols", "5"], "num_symbols: "),
    (["--seed", "-1"], "seed: "),
    (["--rate", "nan"], "rate: cross_qam32 symbol_metric: target rate must be a "
                        "number, got nan\n"),
    (["--rate", "3.0"], "rate: ")])
def test_gaps_bad_flag_exits_1_before_any_row(monkeypatch, capsys, flags, error):
    # the size, the seed and a NaN rate are refused before any estimate, and
    # a rate no format reaches in [-5, 60] dB fails its bracket check
    estimates = []
    estimate_rates = rates.estimate_rates
    monkeypatch.setattr(rates, "estimate_rates",
                        lambda *a: estimates.append(a) or estimate_rates(*a))
    assert main(["gaps", "--num-symbols", "10000", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {error}") and err.count("\n") == 1
    assert bool(estimates) == (flags == ["--rate", "3.0"])


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    for name in ("basegraph_file", "gray_framed_cross_qam32", "gray_pam6",
                 "gray_cross_qam32_violations", "demapper_cross_qam32",
                 "demapper_framed_cross_qam32", "demapper_pam6",
                 "ccdm_round_trip", "bcjr_brute_force", "ldpc_round_trip",
                 "pas_round_trip"):
        assert f"{name}" in out
    assert "bch" not in out
    assert "11/11 checks passed" in out
    assert "FAIL" not in out


def _failing_selfcheck(capsys, prefix):
    """Run selfcheck, which must exit 3: its output and its lines starting with prefix."""
    assert main(["selfcheck"]) == 3
    out = capsys.readouterr().out
    return out, [l for l in out.split("\n") if l.startswith(prefix)]


def test_selfcheck_detects_corrupt_basegraph(tmp_path, monkeypatch, capsys):
    import importlib.resources

    good = (importlib.resources.files("pam6link")
            / "fec/data/basegraph_v1.txt").read_text()
    lines = good.strip().split("\n")
    # introduce a 4-cycle: give the first two shift rows (after the comments
    # and the header line) identical shifts in two shared columns
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for i in (header + 1, header + 2):
        row = lines[i].split()
        row[0], row[1] = "5", "7"
        lines[i] = " ".join(row)
    bad = tmp_path / "tampered.txt"
    bad.write_text("\n".join(lines) + "\n")
    # the file still parses: only the structural check can catch the cycle
    tampered = load_basegraph(bad)
    monkeypatch.setattr(selfcheck, "load_basegraph", lambda: tampered)
    out, (line,) = _failing_selfcheck(capsys, "basegraph_file")
    assert "FAIL" in line
    assert "rows 0,1 cols 0,1 close a 4-cycle (shift sum 0)" in line
    assert "10/11 checks passed" in out


def test_selfcheck_detects_tampered_labels(monkeypatch, capsys):
    # swapping two labels breaks the Gray property of the 1D alphabet and
    # the named check must localize it
    tampered = dict(constellation._PAM6_LABELS)
    tampered[2], tampered[3] = tampered[3], tampered[2]
    monkeypatch.setattr(constellation, "_PAM6_LABELS", tampered)
    _, lines = _failing_selfcheck(capsys, "gray_pam6")
    assert lines and "FAIL" in lines[0]


def test_selfcheck_detects_tampered_2d_table(monkeypatch, capsys):
    tampered = dict(constellation._FRAMED_CROSS_QAM32)
    keys = list(tampered)
    tampered[keys[0]], tampered[keys[1]] = tampered[keys[1]], tampered[keys[0]]
    monkeypatch.setattr(constellation, "_FRAMED_CROSS_QAM32", tampered)
    _, lines = _failing_selfcheck(capsys, "gray_framed")
    assert lines and "FAIL" in lines[0]


def test_selfcheck_detects_drifting_posteriors(monkeypatch, capsys):
    # posteriors, MI samples and label halves from a point sum 0.1% high
    # fail every demapper check and no other
    point_sum = constellation._point_sum
    monkeypatch.setattr(constellation, "_point_sum", lambda w, out=None: np.multiply(
        point_sum(w, out), 1.001, out=out))
    out, lines = _failing_selfcheck(capsys, "demapper_")
    assert len(lines) == 3 and all("FAIL" in l for l in lines)
    assert "8/11 checks passed" in out


@pytest.mark.parametrize("metric", ("symbol_metric", "bit_metric"))
def test_selfcheck_detects_drifting_rate_samples(monkeypatch, capsys, metric):
    # MI or GMI samples 0.1% off fail every demapper check and no other
    rate_samples = constellation.rate_samples

    def drifting(*args, **kwargs):
        out = rate_samples(*args, **kwargs)
        out[metric] *= 1.001
        return out

    monkeypatch.setattr(constellation, "rate_samples", drifting)
    out, lines = _failing_selfcheck(capsys, "demapper_")
    assert len(lines) == 3 and all("FAIL" in l for l in lines)
    assert "8/11 checks passed" in out


@pytest.mark.parametrize("edits, passed", (
    # the demapper check holds its own amplitudes too, so its three fail
    ([(constellation, "PEAK_LEVEL", 6)], 7),
    # the demappers read constellation.LEVELS too, and fail with it
    ([(constellation, "LEVELS", (5, 4, 3, 2, 1, 0)),
      (dsp, "LEVELS", (5, 4, 3, 2, 1, 0))], 7),
), ids=("peak_level", "reordered_levels"))
def test_selfcheck_detects_edited_level_table(monkeypatch, capsys, edits, passed):
    # the enumeration oracle holds its own amplitudes, so an edited level
    # table cannot move the detector and its oracle together
    for module, name, value in edits:
        monkeypatch.setattr(module, name, value)
    out, (line,) = _failing_selfcheck(capsys, "bcjr_brute_force")
    assert "FAIL" in line
    assert f"{passed}/11 checks passed" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    import pam6link
    assert pam6link.__version__ in capsys.readouterr().out


def test_version_is_written_once():
    # pyproject.toml reads the package's version rather than repeating it
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "pam6link.__version__"}
