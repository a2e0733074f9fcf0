"""End-to-end acceptance suite.

Each test pins one gating property of the system at its committed tolerance
and prints a single PASS/FAIL line with the measured value. Monte Carlo
tests fix their seeds, so outcomes are reproducible bit for bit; the
committed numbers are recorded next to each window.

Expensive measurements (the 1e6-symbol SNR crossings and the coded-rate
ordering) are shared through module-scoped fixtures.
"""
import itertools
import math

import numpy as np
import pytest

from pam6link import shaping
from pam6link.cli import main
from pam6link.constellation import build_constellation, check_unit_distance_gray
from pam6link.dsp import bcjr_app, make_trellis
from pam6link.fec import (bch_build, bch_decode, bch_encode, ldpc_build,
                          ldpc_decode, ldpc_encode)
from pam6link.link import rate_at_fer, snr_at_fer
from pam6link.rates import estimate_mi, snr_at_rate

GAP_SEED = 11  # crossings at N=1e6: C 22.6562/23.1250, FC 22.1875/22.3633,
               # DM 22.1875/22.1875 (symbol/bit metric)
ORDER_SEED = 0  # coded ordering at 27.0 dB: DM 2.0, FC 2.0, C 1.9
N_GAP = 10**6
LEVELS = np.arange(6) / 5.0


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def snr_crossings():
    out = {}
    for metric in ("symbol_metric", "bit_metric"):
        for scheme in ("cross_qam32", "framed_cross_qam32", "dm_pam6"):
            out[scheme, metric] = snr_at_rate(
                scheme, metric, 2.0, num_symbols=N_GAP, seed=GAP_SEED)
    return out


def test_symbol_metric_gaps_at_2bpcu(snr_crossings):
    c = snr_crossings["cross_qam32", "symbol_metric"]
    fc = snr_crossings["framed_cross_qam32", "symbol_metric"]
    dm = snr_crossings["dm_pam6", "symbol_metric"]
    g1, g2 = c - fc, c - dm
    ok = 0.25 <= g1 <= 0.55 and 0.25 <= g2 <= 0.55
    _report("symbol-metric SNR gaps at 2.0 bpcu", ok,
            f"cross-framed {g1:.4f} dB, cross-dm {g2:.4f} dB "
            f"(window 0.40 +/- 0.15)")


def test_bit_metric_gaps_at_2bpcu(snr_crossings):
    c = snr_crossings["cross_qam32", "bit_metric"]
    fc = snr_crossings["framed_cross_qam32", "bit_metric"]
    dm = snr_crossings["dm_pam6", "bit_metric"]
    g1, g2 = c - fc, c - dm
    ok = 0.65 <= g1 <= 0.95 and 0.65 <= g2 <= 0.95
    _report("bit-metric SNR gaps at 2.0 bpcu", ok,
            f"cross-framed {g1:.4f} dB, cross-dm {g2:.4f} dB "
            f"(window 0.80 +/- 0.15)")


def test_saturation_rates_at_40db():
    vals = {s: estimate_mi(s, 40.0, num_symbols=N_GAP, seed=GAP_SEED).rate
            for s in ("cross_qam32", "framed_cross_qam32", "dm_pam6")}
    ok = (abs(vals["cross_qam32"] - 2.5) <= 0.01
          and abs(vals["framed_cross_qam32"] - 2.5) <= 0.01
          and abs(vals["dm_pam6"] - 2.585) <= 0.01)
    _report("saturation rates at 40 dB", ok,
            f"cross {vals['cross_qam32']:.4f}, framed "
            f"{vals['framed_cross_qam32']:.4f} (2.5 +/- 0.01), uniform pam6 "
            f"{vals['dm_pam6']:.4f} (2.585 +/- 0.01)")


def test_matcher_rate_and_exact_round_trips():
    comp = shaping.Composition.near_uniform(1000)
    assert comp.counts == (334, 333, 333)
    k = shaping.ccdm_input_length(comp)
    assert k == comp.multinomial().bit_length() - 1
    rate = k / comp.n
    rng = np.random.default_rng(GAP_SEED)
    bad = 0
    for _ in range(10**4):
        d = rng.integers(0, 2, size=k).astype(np.uint8)
        a = shaping.ccdm_encode(d, comp)
        if not np.array_equal(shaping.ccdm_decode(a, comp), d):
            bad += 1
    ok = 1.565 <= rate <= 1.585 and bad == 0
    _report("matcher rate and round trips", ok,
            f"k/n = {rate} (window [1.565, 1.585]), "
            f"{10**4 - bad}/10000 exact round trips")


def _enumerated_app(y, taps, noise_var):
    """Posterior oracle by summing the likelihood of every symbol sequence."""
    t_len = y.size
    q = 6
    memory = len(taps) - 1
    seqs = np.array(list(itertools.product(range(q), repeat=t_len)), dtype=np.int64)
    padded = np.hstack([np.zeros((seqs.shape[0], memory), dtype=np.int64), seqs])
    means = np.zeros((seqs.shape[0], t_len))
    for i in range(memory + 1):
        means += taps[i] * LEVELS[padded[:, memory - i : memory - i + t_len]]
    ll = (-0.5 / noise_var) * ((y[None, :] - means) ** 2).sum(axis=1)
    out = np.full((t_len, q), -np.inf)
    for t in range(t_len):
        for s in range(q):
            sel = ll[seqs[:, t] == s]
            m = sel.max()
            out[t, s] = m + np.log(np.exp(sel - m).sum())
    return out - np.logaddexp.reduce(out, axis=1, keepdims=True)


def test_trellis_posteriors_match_enumeration():
    rng = np.random.default_rng(GAP_SEED)
    worst = 0.0
    for _ in range(100):
        memory = int(rng.integers(1, 3))
        t_len = int(rng.integers(2, 8))
        taps = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, size=memory)])
        sym = rng.integers(0, 6, size=t_len)
        clean = np.convolve(LEVELS[sym], taps)[:t_len]
        nv = float(rng.uniform(0.02, 0.3)) ** 2
        y = clean + math.sqrt(nv) * rng.standard_normal(t_len)
        got = bcjr_app(y, make_trellis(taps, LEVELS), nv)
        ref = _enumerated_app(y, taps, nv)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    ok = worst <= 1e-9
    _report("trellis posteriors vs enumeration", ok,
            f"max |log-posterior error| = {worst:.3e} over 100 instances "
            f"(tolerance 1e-9)")


def test_label_tables_gray_properties():
    v_fc = len(check_unit_distance_gray(build_constellation("framed_cross_qam32")))
    v_pam = len(check_unit_distance_gray(build_constellation("pam6_label")))
    v_c = len(check_unit_distance_gray(build_constellation("cross_qam32")))
    ok = v_fc == 0 and v_pam == 0 and v_c >= 1
    _report("label-table unit-distance properties", ok,
            f"framed {v_fc} violations, pam6 {v_pam} violations "
            f"(want 0), cross {v_c} violations (want >= 1)")


@pytest.fixture(scope="module")
def coded_rates():
    out = {}
    for scheme in ("dm_pam6", "framed_cross_qam32", "cross_qam32"):
        rate, _ = rate_at_fer(scheme, 27.0, fer_target=1e-2,
                              rate_grid=(1.8, 1.9, 2.0, 2.1),
                              frame_symbols=1000, max_frames=1000,
                              min_errors=100, seed=ORDER_SEED)
        out[scheme] = rate
    return out


def test_coded_rate_ordering_at_fer_1e2(coded_rates):
    dm, fc, c = (coded_rates["dm_pam6"], coded_rates["framed_cross_qam32"],
                 coded_rates["cross_qam32"])
    ok = dm >= fc > c
    _report("coded achieved-rate ordering at FER 1e-2", ok,
            f"dm {dm} >= framed {fc} > cross {c} bpcu "
            f"(27 dB peak SNR, 1000-frame budget)")


def test_framed_vs_cross_coded_snr_gap():
    fc = snr_at_fer("framed_cross_qam32", 2.0, fer_target=1e-2,
                    frame_symbols=1000, frames=1000, seed=ORDER_SEED)
    c = snr_at_fer("cross_qam32", 2.0, fer_target=1e-2,
                   frame_symbols=1000, frames=1000, seed=ORDER_SEED)
    gap = c - fc
    ok = 0.15 <= gap <= 0.9
    _report("coded SNR gap framed vs cross at 2.0 bpcu", ok,
            f"{gap:.3f} dB at FER 1e-2 (window [0.15, 0.9])")


def test_codec_sanity():
    # noiseless LDPC identity on both committed geometries
    ldpc_ok = True
    for n, k in ((2500, 2000), (3000, 2426)):
        code = ldpc_build(n, k / n)
        u = np.random.default_rng(0).integers(0, 2, size=k).astype(np.uint8)
        llr = (1.0 - 2.0 * ldpc_encode(u, code)) * 6.0
        got, conv, _ = ldpc_decode(llr, code)
        ldpc_ok &= bool(conv) and np.array_equal(got, u)

    # exhaustive weight <= t at the smallest field
    small = bch_build(15, 2, m=4)
    data = np.random.default_rng(1).integers(0, 2, size=small.systematic_length)
    cw = bch_encode(data.astype(np.uint8), small)
    n_ex = 0
    exhaustive_ok = True
    for w in range(small.t + 1):
        for pos in itertools.combinations(range(small.length), w):
            word = cw.copy()
            word[list(pos)] ^= 1
            got, ok = bch_decode(word, small)
            exhaustive_ok &= ok and np.array_equal(got, data)
            n_ex += 1

    # random weight-t trials at the full mother length
    big = bch_build(4095, 5)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 2, size=big.systematic_length).astype(np.uint8)
    cw = bch_encode(data, big)
    n_rand_ok = 0
    for _ in range(1000):
        word = cw.copy()
        word[rng.choice(big.length, size=big.t, replace=False)] ^= 1
        got, ok = bch_decode(word, big)
        n_rand_ok += int(ok and np.array_equal(got, data))

    ok = ldpc_ok and exhaustive_ok and n_rand_ok == 1000
    _report("codec sanity", ok,
            f"ldpc noiseless identity {ldpc_ok}, bch exhaustive "
            f"{n_ex} patterns at (15,2), random {n_rand_ok}/1000 at 4095")


def test_bundled_config_determinism(tmp_path):
    outs = []
    for i, threads in enumerate((1, 4, 1, 4)):
        p = tmp_path / f"run{i}.csv"
        assert main(["run", "--config", "loopback", "--output", str(p),
                     "--threads", str(threads)]) == 0
        outs.append(p.read_bytes())
    ok = len(set(outs)) == 1
    _report("bundled-config determinism", ok,
            f"4 runs (threads 1/4/1/4) produced "
            f"{len(set(outs))} distinct byte stream(s)")
