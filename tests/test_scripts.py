"""The committed scripts run, and every benchmark span target still exists."""
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_gen_basegraph_reproduces_the_committed_file(tmp_path):
    out = tmp_path / "basegraph.txt"
    _run_script("gen_basegraph.py", "--out", str(out))
    committed = ROOT / "src" / "pam6link" / "fec" / "data" / "basegraph_v1.txt"
    assert out.read_bytes() == committed.read_bytes()


def test_awgn_gap_study_prints_one_row_per_scheme():
    out = _run_script("awgn_gap_study.py", "--num-symbols", "10000",
                      "--seed", "11", "--metric", "symbol_metric")
    lines = out.strip().split("\n")
    assert lines[0] == "metric,scheme,snr_crossing_db,gap_vs_cross_db"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["symbol_metric", s] for s in
                                     ("cross_qam32", "framed_cross_qam32",
                                      "dm_pam6")]
    assert rows[0][3] == "0.0000"


def test_every_benchmark_span_target_resolves(monkeypatch):
    # the traced benchmark wraps these functions by module and name, so a
    # rename or deletion must show here rather than in the benchmark run
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for span, (module, attr) in spans.TARGETS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
