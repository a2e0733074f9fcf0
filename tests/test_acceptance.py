"""End-to-end acceptance suite.

Each test pins one gating property of the system at its committed tolerance
and prints a single PASS/FAIL line with the measured value. Monte Carlo
tests fix their seeds, so outcomes are reproducible bit for bit; the
committed numbers are recorded next to each window.

Expensive measurements (the 1e6-symbol SNR crossings and the coded-rate
ordering) are shared through module-scoped fixtures.
"""
import hashlib
import itertools
import math

import numpy as np
import pytest

from pam6link import shaping
from pam6link.cli import main
from pam6link.constellation import build_constellation, check_unit_distance_gray
from pam6link.dsp import bcjr_app, make_trellis
from pam6link.fec import ldpc_build, ldpc_decode, ldpc_encode
from pam6link.link import snr_at_fer
from pam6link.rates import estimate_mi, matcher_rate_loss, snr_at_rate

GAP_SEED = 11  # crossings at N=1e6: C 22.6852/23.1246, FC 22.1883/22.3520,
               # DM 22.1754/22.1833 (symbol/bit metric, each the midpoint
               # of a bracket under 1e-3 dB wide)
ORDER_SEED = 0  # coded ordering at 27.0 dB: DM 2.0, FC 2.0, C 1.9
# sha256 of the bundled coded_ordering CSV (seed ORDER_SEED): a change that
# moves any of its floats must update the digest and say why
CODED_ORDERING_SHA256 = (
    "3d7bf8572aa50884066e779821c7a6ddc242cebeb294bf4eeae656c8499caa91")
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


def _lse(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _quadrature_rates(scheme, snr_db, nodes=32):
    """(MI, GMI) per 1D use on peak-limited AWGN by Gauss-Hermite quadrature.

    Each axis of the noise takes the nodes sqrt(2 nv) t_k with weights
    w_k / sqrt(pi), a product rule over both axes for the 2D formats. The
    log-sum-exps run over every point of the table, independent of the
    library's demapper kernels.
    """
    c = build_constellation("pam6_label" if scheme == "dm_pam6" else scheme)
    d, m = c.dimension, c.num_points
    x = LEVELS[c.points]  # (M, d) amplitudes, peak 1
    nv = 10.0 ** (-snr_db / 10.0)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    noise = np.stack(np.meshgrid(*[t] * d, indexing="ij"), -1).reshape(-1, d)
    noise *= math.sqrt(2.0 * nv)
    wts = np.prod(np.stack(np.meshgrid(*[w] * d, indexing="ij"), -1)
                  .reshape(-1, d), axis=1) / math.pi ** (d / 2)
    # logm[i, k, j]: log-likelihood of point j for sent point i, noise node k
    diff = x[:, None, None, :] + noise[None, :, None, :] - x[None, None, :, :]
    logm = -(diff ** 2).sum(axis=-1) / (2.0 * nv)
    total = _lse(logm, 2)
    sent = logm[np.arange(m), :, np.arange(m)]
    mi = math.log2(m) + (wts @ (sent - total).T).mean() / math.log(2.0)
    penalty = 0.0
    for b in range(c.bits_per_point):
        same = c.labels[:, b][:, None] == c.labels[:, b][None, :]  # (i, j)
        part = _lse(np.where(same[:, None, :], logm, -np.inf), 2)
        penalty += (wts @ (total - part).T).mean() / math.log(2.0)
    return mi / d, (math.log2(m) - penalty) / d


def test_crossings_match_quadrature(snr_crossings):
    # each rate rises with SNR, so a quadrature rate below the target 0.02 dB
    # under the crossing and above it 0.02 dB over places the quadrature
    # crossing within 0.02 dB of the Monte Carlo one
    ok, rows = True, []
    for (scheme, metric), x in snr_crossings.items():
        want = 2.0 + (matcher_rate_loss() if scheme == "dm_pam6" else 0.0)
        k = 0 if metric == "symbol_metric" else 1
        lo = _quadrature_rates(scheme, x - 0.02)[k]
        hi = _quadrature_rates(scheme, x + 0.02)[k]
        ok &= lo < want < hi
        rows.append(f"{scheme}/{metric} {x:.4f} dB: {lo:.4f} < {want:.4f} "
                     f"< {hi:.4f}")
    _report("crossings within 0.02 dB of quadrature", ok, "; ".join(rows))


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
        got = bcjr_app(y[None], make_trellis(taps), nv)[0]
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
def coded_rates(tmp_path_factory):
    # the bundled coded_ordering sweep, run once: its achieved rates are
    # its rate_at_fer rows
    out = tmp_path_factory.mktemp("coded") / "coded_ordering.csv"
    assert main(["run", "--config", "coded_ordering", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CODED_ORDERING_SHA256
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    return {scheme: float(rate)
            for scheme, metric, _, rate, *_ in rows if metric == "rate_at_fer"}


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
        code = ldpc_build(n, k)
        u = np.random.default_rng(0).integers(0, 2, size=k).astype(np.uint8)
        llr = (1.0 - 2.0 * ldpc_encode(u, code)) * 6.0
        got, conv, _ = ldpc_decode(llr, code)
        ldpc_ok &= bool(conv) and np.array_equal(got, u)
    _report("codec sanity", ldpc_ok, f"ldpc noiseless identity {ldpc_ok}")


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
