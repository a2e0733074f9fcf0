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


def first_four_cycle(shifts, zmin):
    """The first two rows and columns of a shift table (-1 = no block) that
    close a 4-cycle at some lift >= zmin (a shift sum of 0 or of magnitude
    >= zmin), named with their sum; None when no quad does."""
    for (r1, a), (r2, b) in itertools.combinations(enumerate(shifts), 2):
        both = [c for c in range(len(a)) if a[c] >= 0 and b[c] >= 0]
        for c1, c2 in itertools.combinations(both, 2):
            delta = int(a[c1] - a[c2] + b[c2] - b[c1])
            if delta == 0 or abs(delta) >= zmin:
                return f"rows {r1},{r2} cols {c1},{c2} close a 4-cycle (shift sum {delta})"
    return None


def _check_basegraph():
    """Parse the packaged base-graph file and re-verify its structural contract."""
    where = "packaged basegraph_v1.txt"
    try:
        bg = load_basegraph()
    except (ValueError, OSError) as e:
        return False, f"{where}: {e}"
    cycle = first_four_cycle(bg.shifts, bg.zmin)
    if cycle:
        return False, f"{where}: {cycle} for lifts >= {bg.zmin}"
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


def pointwise_app(y, c, noise_var):
    """Demapper oracle: the (groups, points) log posteriors and (groups,
    bits) LLRs of y's groups of c.dimension samples, each label half summed
    on its own by np.logaddexp.reduce over every point. The amplitudes
    c.points / 5 are held here, as enumerated_app holds its levels."""
    amps = c.points / 5.0
    y = np.asarray(y, dtype=np.float64).reshape(-1, c.dimension)
    # logm[j, g]: log-likelihood of point j for group g
    logm = -((y - amps[:, None]) ** 2).sum(axis=-1) / (2.0 * noise_var)
    log_post = logm - np.logaddexp.reduce(logm, axis=0)
    llrs = np.stack([np.logaddexp.reduce(logm[c.labels[:, j] == 0], axis=0)
                     - np.logaddexp.reduce(logm[c.labels[:, j] == 1], axis=0)
                     for j in range(c.bits_per_point)], axis=1)
    return log_post.T, llrs


def pointwise_rate_samples(idx, c, log_post, llrs):
    """(MI, GMI) samples of sent points idx from pointwise_app's output:
    log2 of the sent point's posterior, and the sent label's penalty
    sum_j logaddexp(0, -(1 - 2 b_j) LLR_j) / ln 2."""
    mi = log_post[np.arange(len(idx)), idx] / np.log(2.0)
    penalty = np.logaddexp(0.0, -(1.0 - 2.0 * c.labels[idx]) * llrs) / np.log(2.0)
    return mi, penalty.sum(axis=1)


def _check_demapper(name):
    """Bit LLRs, posteriors and MI/GMI samples of a seeded block against
    pointwise_app, at a noise where many LLRs exceed 40 nats."""
    c = cst.build_constellation(name)
    nv = 1e-3
    rng = np.random.default_rng(12)
    idx = rng.integers(0, c.num_points, size=64)
    y = (c.points / 5.0)[idx].ravel() + np.sqrt(nv) * rng.standard_normal(
        idx.size * c.dimension)
    log_post, ref = pointwise_app(y, c, nv)
    llr = cst.bit_llrs(y, c, nv).reshape(ref.shape)
    llr_err = float(np.max(np.abs(llr - ref) / (1.0 + np.abs(ref))))
    post_err = float(np.max(np.abs(cst.symbol_posteriors(y, c, nv)
                                   - np.exp(log_post))))
    smp = cst.rate_samples(idx, c, ("symbol_metric", "bit_metric"), y, nv)
    mi_ref, gmi_ref = pointwise_rate_samples(idx, c, log_post, ref)
    mi_err = float(np.max(np.abs(smp["symbol_metric"] - mi_ref)))
    gmi_err = float(np.max(np.abs(smp["bit_metric"] - gmi_ref)))
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


def enumerated_app(y, taps, noise_var):
    """Exhaustive-enumeration oracle for the BCJR detector.

    Sums the likelihood of every one of the 6**T level sequences of the T
    uses in y, each sent through the FIR taps from a level-0 history as
    bcjr_app starts, and returns the (T, 6) normalized log posteriors of
    each use's level: a max-shifted log-sum-exp, per use and level, over
    the sequences that send that level there. Time and memory grow as
    6**T, so T stays below about 8. The amplitudes 0, 0.2, ..., 1 are held
    here rather than read from constellation's tables, so an edited level
    table moves the detector but not its oracle and fails loudly.
    """
    y = np.asarray(y, dtype=np.float64)
    levels = np.arange(6) / 5.0
    q, t_len = levels.size, y.size
    # sequences are the cells of a (q,) * t_len grid, whose axis t is the
    # level of use t: amps[t] is that level's amplitude, broadcast over it
    amps = [levels.reshape((q,) + (1,) * (t_len - 1 - t)) for t in range(t_len)]
    ll = np.zeros((q,) * t_len)
    for t in range(t_len):
        mean = sum(tap * (amps[t - i] if i <= t else levels[0])
                   for i, tap in enumerate(taps))
        ll = ll - (y[t] - mean) ** 2 / (2.0 * noise_var)
    out = np.empty((t_len, q))
    for t in range(t_len):
        per_level = np.moveaxis(ll, t, 0).reshape(q, -1)
        mx = per_level.max(axis=1, keepdims=True)
        out[t] = (mx + np.log(np.exp(per_level - mx).sum(axis=1, keepdims=True)))[:, 0]
    return out - np.logaddexp.reduce(out, axis=1, keepdims=True)


def gathered_app(y, tr, noise_var):
    """The (B, T, 6) log posteriors of bcjr_app on the (B, T) samples y,
    gathered from the blocks it hands over."""
    out = np.full(np.shape(y) + (6,), np.nan)

    def consume(t0, post):
        out[:, t0:t0 + post.shape[1]] = post

    bcjr_app(y, tr, noise_var, consume)
    return out


def _check_bcjr():
    rng = np.random.default_rng(7)
    taps = np.array([1.0, 0.35])
    nv = 0.05
    x = rng.integers(0, 6, size=6)
    y = np.convolve(x / 5.0, taps)[: len(x)] + 0.1 * rng.standard_normal(len(x))
    app = gathered_app(y[None], make_trellis(taps), nv)[0]
    err = float(np.max(np.abs(np.exp(app) - np.exp(enumerated_app(y, taps, nv)))))
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
