"""Built-in oracle suite behind the ``selfcheck`` CLI subcommand.

Each check is small, seeded, and independent; together they catch the
failure modes that silently corrupt results: a damaged packaged base graph,
a tampered label table, a demapper whose LLRs, posteriors or MI/GMI samples
drift from a log-sum-exp over every point, a broken matcher round trip, a
shaped frame whose signs no longer carry (parity, extra data bits), or a
detector that no longer agrees with exhaustive enumeration. Check names
are stable so failures can be grepped and individual suites rerun.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import constellation as cst
from . import shaping
from .dsp import bcjr_app, make_trellis
from .fec.ldpc import ldpc_build, ldpc_decode, ldpc_encode, load_basegraph


def _check_basegraph():
    """Parse the packaged base-graph file and re-verify its structural contract."""
    where = "packaged basegraph_v1.txt"
    try:
        bg = load_basegraph()
    except (ValueError, OSError) as e:
        return False, f"{where}: {e}"
    s = bg.shifts
    ncols = bg.kb + bg.mb
    for r1 in range(bg.mb):
        for r2 in range(r1 + 1, bg.mb):
            both = [c for c in range(ncols) if s[r1, c] >= 0 and s[r2, c] >= 0]
            for i, c1 in enumerate(both):
                for c2 in both[i + 1:]:
                    delta = int(s[r1, c1] - s[r1, c2] + s[r2, c2] - s[r2, c1])
                    if delta == 0 or abs(delta) >= bg.zmin:
                        return False, (
                            f"{where}: rows {r1},{r2} cols {c1},{c2} close a "
                            f"4-cycle (shift sum {delta}) for lifts >= {bg.zmin}")
    return True, f"kb={bg.kb} mb={bg.mb} zmin={bg.zmin} v{bg.version}, 4-cycle free"


def _check_gray(name, expect_violations):
    c = cst.build_constellation(name)
    viol = cst.check_unit_distance_gray(c)
    if expect_violations:
        ok = len(viol) >= 1
        return ok, (f"{len(viol)} unit-distance label violations (wanted >= 1)"
                    if ok else "labeling is Gray but must not be")
    ok = len(viol) == 0
    if ok:
        return True, "unit-distance Gray, 0 violations"
    p1, p2 = viol[0][:2]
    return False, f"{len(viol)} violations, first at points {p1} / {p2}"


def _check_demapper(name):
    """Bit LLRs, posteriors and MI/GMI samples of a seeded block against
    np.logaddexp.reduce over every point. At this noise many LLRs exceed 40
    nats, where forming one label half as total minus the other would lose
    every digit."""
    c = cst.build_constellation(name)
    nv = 1e-3
    rng = np.random.default_rng(12)
    idx = rng.integers(0, c.num_points, size=64)
    y = cst.normalize(c.points[idx].ravel()) + np.sqrt(nv) * rng.standard_normal(
        idx.size * c.dimension)
    d2 = ((y.reshape(-1, 1, c.dimension) - cst.normalize(c.points)) ** 2).sum(axis=-1)
    logm = -d2 / (2.0 * nv)
    log_post = logm - np.logaddexp.reduce(logm, axis=1, keepdims=True)
    ref = np.stack([np.logaddexp.reduce(logm[:, c.labels[:, j] == 0], axis=1)
                    - np.logaddexp.reduce(logm[:, c.labels[:, j] == 1], axis=1)
                    for j in range(c.bits_per_point)], axis=1)
    llr = cst.bit_llrs(y, c, nv).reshape(ref.shape)
    llr_err = float(np.max(np.abs(llr - ref) / (1.0 + np.abs(ref))))
    post_err = float(np.max(np.abs(cst.symbol_posteriors(y, c, nv)
                                   - np.exp(log_post))))
    # the samples the MI and GMI estimates average: log2 of the sent point's
    # posterior, and the sent label's penalty over the log-sum-exp LLRs
    smp = cst.rate_samples(idx, c, ("symbol_metric", "bit_metric"), y, nv)
    mi_err = float(np.max(np.abs(
        smp["symbol_metric"] - log_post[np.arange(idx.size), idx] / np.log(2.0))))
    penalty = np.logaddexp(0.0, -(1.0 - 2.0 * c.labels[idx]) * ref) / np.log(2.0)
    gmi_err = float(np.max(np.abs(smp["bit_metric"] - penalty.sum(axis=1))))
    ok = max(llr_err, post_err, mi_err, gmi_err) <= 1e-9
    return ok, (f"LLRs up to {np.max(np.abs(ref)):.0f} nats, max relative LLR "
                f"error {llr_err:.1e}, max posterior error {post_err:.1e}, "
                f"max MI/GMI sample errors {mi_err:.1e}/{gmi_err:.1e}")


def _check_ccdm():
    comp = shaping.Composition.near_uniform(1000)
    k = shaping.ccdm_input_length(comp)
    if not 1.565 <= k / 1000 <= 1.585:
        return False, f"matcher rate {k / 1000:.4f} outside [1.565, 1.585]"
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = rng.integers(0, 2, size=k).astype(np.uint8)
        a = shaping.ccdm_encode(d, comp)
        counts = np.bincount(a, minlength=3)
        if tuple(counts) != comp.counts:
            return False, f"composition {tuple(counts)} != {comp.counts}"
        if not np.array_equal(shaping.ccdm_decode(a, comp), d):
            return False, "round trip mismatch"
    return True, f"k={k}, 100 round trips exact"


def _check_bcjr():
    rng = np.random.default_rng(7)
    taps = np.array([1.0, 0.35])
    tr = make_trellis(taps)
    nv = 0.05
    x = rng.integers(0, 6, size=6)
    y = np.convolve(x / 5.0, taps)[: len(x)] + 0.1 * rng.standard_normal(len(x))
    app = bcjr_app(y[None], tr, nv)[0]
    # exhaustive-enumeration posterior with the same level-0 history start
    logp = np.full((len(x), 6), -np.inf)
    for seq in itertools.product(range(6), repeat=len(x)):
        z = np.convolve(np.array(seq) / 5.0, taps)[: len(x)]
        ll = -np.sum((y - z) ** 2) / (2 * nv)
        for t, v in enumerate(seq):
            logp[t, v] = np.logaddexp(logp[t, v], ll)
    logp -= np.max(logp, axis=1, keepdims=True)
    ref = logp - np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    err = float(np.max(np.abs(np.exp(app) - np.exp(ref))))
    ok = err < 1e-9
    return ok, f"max |posterior - enumeration| = {err:.2e}"


def _check_ldpc():
    rng = np.random.default_rng(5)
    code = ldpc_build(2500, 2000)
    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
    cw = ldpc_encode(u, code)
    llrs = (1.0 - 2.0 * cw.astype(np.float64)) * 8.0
    got, conv, _ = ldpc_decode(llrs, code)
    ok = conv and np.array_equal(got, u)
    return ok, "noiseless encode/decode identity" if ok else "decode mismatch"


def _check_pas():
    """Noiseless gamma = 0.426 shaped frame against the definition of
    sign-bit shaping, and its round trip. Frames map through pam6_label, so
    it must keep levels 0-2 on sign 0 and give v and 5 - v one pair. A
    second frame is encoded before the first is decoded, so pas_decode
    inverts the matcher rather than reading its record of the last frame."""
    labels = cst.build_constellation("pam6_label").labels
    if labels[:3, 0].any() or not np.array_equal(labels[:, 1:], labels[::-1, 1:]):
        return False, "pam6_label must put levels 0-2 on sign 0 and v, 5 - v on one pair"
    n, g = 1000, 426
    comp = shaping.Composition.near_uniform(n)
    k = shaping.ccdm_input_length(comp)
    code = ldpc_build(3 * n, 2 * n + g)
    d, d_next = np.random.default_rng(6).integers(0, 2, size=(2, k + g)).astype(np.uint8)
    x = shaping.pas_encode(d, comp, code)
    if not np.array_equal(np.minimum(x, 5 - x), shaping.ccdm_encode(d[:k], comp)):
        return False, "levels do not fold onto the matcher's amplitudes"
    s = (x >= 3).astype(np.uint8)
    u = np.concatenate([labels[x, 1:].ravel(), d[k:]])
    if not (np.array_equal(s[: n - g], ldpc_encode(u, code)[code.k:])
            and np.array_equal(s[n - g:], d[k:])):
        return False, "signs are not (parity, extra data bits)"
    shaping.pas_encode(d_next, comp, code)
    got, ok = shaping.pas_decode((1.0 - 2.0 * labels[x]) * 8.0, comp, code)
    ok = ok and np.array_equal(got, d)
    return ok, f"k={k} + g={g} bits, noiseless round trip" if ok else "decode mismatch"


CHECKS = (
    ("basegraph_file", _check_basegraph),
    ("gray_framed_cross_qam32", lambda: _check_gray("framed_cross_qam32", False)),
    ("gray_pam6", lambda: _check_gray("pam6_label", False)),
    ("gray_cross_qam32_violations", lambda: _check_gray("cross_qam32", True)),
    ("demapper_cross_qam32", lambda: _check_demapper("cross_qam32")),
    ("demapper_framed_cross_qam32", lambda: _check_demapper("framed_cross_qam32")),
    ("demapper_pam6", lambda: _check_demapper("pam6_label")),
    ("ccdm_round_trip", _check_ccdm),
    ("bcjr_brute_force", _check_bcjr),
    ("ldpc_round_trip", _check_ldpc),
    ("pas_round_trip", _check_pas),
)


def run_selfcheck():
    """Run every check; returns [(name, ok, detail)].

    A check that raises is reported as failed with the exception text, so
    one broken table cannot take down the whole report.
    """
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # noqa: BLE001 -- report, never crash the suite
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append((name, bool(ok), detail))
    return results
