"""Coded-frame plumbing: build bookkeeping, round trips, FER extremes."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pam6link.channel import philox, sigma_for_peak_snr, transmit
from pam6link.constellation import normalize
from pam6link.link import (build_coded, coded_fer, decode_frame, encode_frame,
                           snr_at_fer)
from pam6link.shaping import Composition, ccdm_input_length

ALL_SCHEMES = ("cross_qam32", "framed_cross_qam32", "dm_pam6")


def test_build_qam_ldpc_bookkeeping():
    cs = build_coded("cross_qam32", 2.0, 1000, "ldpc")
    assert cs.data_bits == 2000
    assert cs.ldpc.n == 2500 and cs.ldpc.k == 2000


def test_build_dm_ldpc_bookkeeping():
    cs = build_coded("dm_pam6", 2.0, 1000, "ldpc")
    assert cs.comp.n == 1000
    assert ccdm_input_length(cs.comp) == 1574
    # 2000 data bits: 1574 through the matcher, 426 on the sign bits
    assert cs.data_bits == 2000
    assert cs.ldpc.n == 3000 and cs.ldpc.k == 2 * 1000 + 426


def test_build_rejects_unrealizable_rates():
    with pytest.raises(ValueError, match="not realizable"):
        build_coded("cross_qam32", 2.0005, 1000, "ldpc")
    with pytest.raises(ValueError, match="not realizable"):
        build_coded("dm_pam6", 2.0001, 1000, "ldpc")
    with pytest.raises(ValueError, match="even number"):
        build_coded("cross_qam32", 2.0, 999, "ldpc")
    for codec in ("turbo", "bch", "none"):
        with pytest.raises(ValueError, match="unknown codec"):
            build_coded("cross_qam32", 2.0, 200, codec)
    with pytest.raises(ValueError, match="unknown scheme"):
        build_coded("pam8", 2.0, 1000, "ldpc")


def test_built_frames_carry_their_rate():
    for scheme in ALL_SCHEMES:
        for rate in (1.8, 1.9, 2.0, 2.1):
            assert build_coded(scheme, rate, 1000, "ldpc").data_bits == \
                round(rate * 1000)
    with pytest.raises(ValueError, match="need at least 1 symbol"):
        build_coded("dm_pam6", 2.0, 0, "ldpc")
    with pytest.raises(ValueError, match="gamma in"):
        build_coded("dm_pam6", 2.6, 1000, "ldpc")
    with pytest.raises(ValueError, match="outside \\(0, 2.5\\)"):
        build_coded("cross_qam32", 2.5, 1000, "ldpc")


def test_threads_share_built_frames():
    # a library caller's threads share the memoized frames: with more threads
    # than cores and a short switch interval, each FER equals a serial run
    jobs = [(scheme, seed) for scheme in ALL_SCHEMES for seed in range(4)]

    def fer(job):
        scheme, seed = job
        return coded_fer(scheme, 2.0, 26.0, 200, 20, 20, seed)

    serial = [fer(job) for job in jobs]
    build_coded.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            threaded = list(pool.map(fer, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_build_coded_takes_one_call_form():
    # positional arguments only and no defaults: the memo cannot hold one
    # frame under two keys
    with pytest.raises(TypeError):
        build_coded("cross_qam32", 2.0, frame_symbols=200, codec="ldpc")
    with pytest.raises(TypeError):
        build_coded("cross_qam32", 2.0)


def test_built_codes_are_shared_and_read_only():
    cs = build_coded("cross_qam32", 2.0, 200, "ldpc")
    assert build_coded("cross_qam32", 2.0, 200, "ldpc") is cs
    for a in (cs.ldpc.check_vars, cs.ldpc.var_slots, cs.constellation.labels,
              build_coded("dm_pam6", 2.0, 200, "ldpc").ldpc.check_vars):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_coded_fer_needs_a_frame_and_an_error_budget():
    for max_frames, min_errors in ((0, 10), (-3, 10), (10, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            coded_fer("cross_qam32", 2.0, 30.0, frame_symbols=200,
                      max_frames=max_frames, min_errors=min_errors)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_frame_round_trip_clean(scheme):
    cs = build_coded(scheme, 2.0, 200, "ldpc")
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, size=cs.data_bits).astype(np.uint8)
    levels = encode_frame(cs, data)
    assert levels.size == 200
    assert levels.min() >= 0 and levels.max() <= 5
    y = levels / 5.0  # noiseless line signal
    got, ok = decode_frame(cs, y, noise_var=1e-4)
    assert ok and np.array_equal(got, data)


@pytest.mark.parametrize("rate", (1.8, 1.9, 2.0, 2.1))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_grid_frames_round_trip_at_60db(scheme, rate):
    # every frame the bundled coded sweeps send: 1000 symbols at each
    # rate_at_fer grid rate, through the channel at a clean SNR
    cs = build_coded(scheme, rate, 1000, "ldpc")
    data = np.random.default_rng(0).integers(0, 2, cs.data_bits, dtype=np.uint8)
    levels = encode_frame(cs, data)
    assert levels.size == 1000
    noise_var = sigma_for_peak_snr(60.0)
    y = transmit(normalize(levels), noise_var, philox(0, 0))
    got, ok = decode_frame(cs, y, noise_var)
    assert ok and np.array_equal(got, data)


def test_shaped_frame_without_parity_is_refused():
    # gamma = 1 would leave every sign bit to data and no parity to code
    k_dm = ccdm_input_length(Composition.near_uniform(200))
    with pytest.raises(ValueError, match=r"gamma in \[0, 1\), got 1.0"):
        build_coded("dm_pam6", (k_dm + 200) / 200, 200, "ldpc")


def test_dm_frame_symbol_composition():
    cs = build_coded("dm_pam6", 2.0, 1000, "ldpc")
    data = np.random.default_rng(2).integers(0, 2, size=cs.data_bits)
    levels = encode_frame(cs, data.astype(np.uint8))
    # folding x -> 5-x restores the matcher's fixed amplitude composition
    amps = np.minimum(levels, 5 - levels)
    counts = np.bincount(amps, minlength=3)
    assert sorted(counts.tolist()) == sorted(cs.comp.counts)


def test_encode_frame_length_check():
    cs = build_coded("cross_qam32", 2.0, 200, "ldpc")
    with pytest.raises(ValueError, match="data bits"):
        encode_frame(cs, np.zeros(7, dtype=np.uint8))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_encode_frame_refuses_non_bits(scheme):
    cs = build_coded(scheme, 2.0, 200, "ldpc")
    # a uint8 cast would read 256 and -256 as 0 and 0.7 as 0
    for bad in (2, 256, -256, 0.7):
        data = np.zeros(cs.data_bits, dtype=np.asarray(bad).dtype)
        data[5] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            encode_frame(cs, data)


def test_fer_extremes():
    fer, hw, frames, errors = coded_fer(
        "framed_cross_qam32", 2.0, 40.0, frame_symbols=500,
        max_frames=20, min_errors=21)
    assert fer == 0.0 and errors == 0 and frames == 20 and hw > 0
    fer, _, frames, errors = coded_fer(
        "framed_cross_qam32", 2.0, 10.0, frame_symbols=500,
        max_frames=20, min_errors=21)
    assert fer == 1.0 and errors == 20


@pytest.mark.parametrize("snr_db,errors", [(60.0, 0), (10.0, 5)])
def test_fer_half_width_is_wilson_at_the_edges(snr_db, errors):
    # 0 or 5 errors in 5 frames: the Wilson score half width is
    # 1.96 * sqrt(z^2 / 4n^2) / (1 + z^2 / n) ~ 0.217 at both edges
    fer, hw, frames, errs = coded_fer("framed_cross_qam32", 2.0, snr_db,
                                      frame_symbols=200, max_frames=5,
                                      min_errors=6)
    assert frames == 5 and errs == errors and fer == errors / 5
    zn = 1.96**2 / 5
    assert hw == pytest.approx(1.96 * np.sqrt(zn / 20) / (1 + zn), rel=1e-12)
    assert 0.21 < hw < 0.22


def test_fer_stops_at_min_errors():
    _, _, frames, errors = coded_fer("cross_qam32", 2.0, 10.0,
                                     frame_symbols=500, max_frames=100,
                                     min_errors=5)
    assert errors == 5 and frames == 5


def test_fer_seed_determinism():
    a = coded_fer("dm_pam6", 2.0, 26.5, frame_symbols=500, max_frames=30,
                  min_errors=31, seed=3)
    b = coded_fer("dm_pam6", 2.0, 26.5, frame_symbols=500, max_frames=30,
                  min_errors=31, seed=3)
    assert a == b


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_one_seed_drives_noise_and_data(scheme):
    # frame i: data from philox(seed, 2i + 1), noise from stream 2i
    seed, snr_db, frames = 3, 24.0, 12
    _, _, n, errors = coded_fer(scheme, 2.0, snr_db, frame_symbols=200,
                                max_frames=frames, min_errors=frames + 1,
                                seed=seed)
    cs = build_coded(scheme, 2.0, 200, "ldpc")
    noise_var = sigma_for_peak_snr(snr_db)
    by_hand = 0
    for i in range(frames):
        data = philox(seed, 2 * i + 1).integers(0, 2, cs.data_bits,
                                                dtype=np.uint8)
        y = transmit(normalize(encode_frame(cs, data)), noise_var,
                     philox(seed, 2 * i))
        got, ok = decode_frame(cs, y, noise_var)
        by_hand += not ok or got is None or not np.array_equal(got, data)
    assert n == frames and errors == by_hand
    assert 0 < by_hand < frames


def test_snr_at_fer_brackets_target():
    snr = snr_at_fer("framed_cross_qam32", 2.0, fer_target=0.1,
                     frame_symbols=500, frames=60, seed=0)
    assert 20.0 < snr < 32.0
    below, _, _, _ = coded_fer("framed_cross_qam32", 2.0, snr - 0.5,
                               frame_symbols=500, max_frames=60, min_errors=61)
    above, _, _, _ = coded_fer("framed_cross_qam32", 2.0, snr + 0.5,
                               frame_symbols=500, max_frames=60, min_errors=61)
    assert below > 0.1 > above


def test_snr_at_fer_early_stop_keeps_the_crossing():
    # probes stop once errors / frames > fer_target is settled; the values
    # are those of probes that ran all their frames
    assert snr_at_fer("framed_cross_qam32", 2.0, fer_target=0.1,
                      frame_symbols=500, frames=60, seed=0) == 25.244140625
    assert snr_at_fer("dm_pam6", 2.0, fer_target=0.1,
                      frame_symbols=500, frames=60, seed=1) == 25.595703125


def test_snr_at_fer_rejects_a_target_met_at_the_low_end():
    # no FER exceeds 1.0, so the crossing lies at or below 15 dB
    with pytest.raises(ValueError, match=r"\[15.0, 35.0\] holds no crossing: "
                       r"it lies at or below 15.0"):
        snr_at_fer("framed_cross_qam32", 2.0, fer_target=1.0,
                   frame_symbols=500, frames=5)


def test_every_small_frame_builds_or_raises_value_error():
    # every data-bit count of every short frame, where the lift and parity
    # limits bind: a frame builds, carrying the bits its rate asks for, or
    # build_coded raises ValueError
    for fs in range(2, 25, 2):
        for k in range(1, fs // 2 * 5):
            try:
                cs = build_coded("cross_qam32", k / fs, fs, "ldpc")
            except ValueError:
                continue
            assert cs.data_bits == k
    for fs in range(1, 31):
        k_dm = ccdm_input_length(Composition.near_uniform(fs))
        for g in range(fs + 1):
            try:
                cs = build_coded("dm_pam6", (k_dm + g) / fs, fs, "ldpc")
            except ValueError:
                continue
            assert cs.data_bits == k_dm + g
