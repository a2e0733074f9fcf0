"""End-to-end coded frames: source bits -> levels -> channel -> decoded bits.

Three formats share the PAM-6 wire alphabet:

  cross_qam32 / framed_cross_qam32: coded bits are scrambled, mapped five at
  a time onto 2D points (two consecutive levels). LDPC decoding is
  bit-metric from the 2D demapper; BCH decoding is hard-decision.

  dm_pam6: sign-bit shaping. A fixed-composition matcher produces ternary
  amplitudes; their pair labels plus extra data bits form the systematic
  input of the FEC, whose parity (plus those extra bits) selects the upper
  or lower half of the alphabet per symbol. Transmitted levels therefore
  carry the code's systematic AND parity bits positionally, so nothing is
  scrambled (bit flips would break the amplitude composition). With no
  parity (gamma = 1, or codec none) the code is None and every sign bit
  carries data.

The transmission rate grid is realizable exactly: for 2D formats
rate * frame_symbols is the LDPC dimension; for dm_pam6 the sign-bit
fraction gamma = rate - k/n must give an integer gamma * n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import shaping
from .channel import ChannelSpec, peak_snr_db, philox, sigma_for_peak_snr, transmit
from .constellation import (
    Constellation,
    bit_llrs,
    build_constellation,
    map_bits,
    normalize,
    symbol_posteriors,
)
from .fec import (
    bch_build,
    bch_decode,
    bch_encode,
    ldpc_build,
    ldpc_decode,
    ldpc_encode,
)
from .fec.scramble import adapt_llrs, scramble
from .rates import bisect

SCRAMBLE_SEED = 0xC0DEC
CODECS = ("ldpc", "bch", "none")


@dataclass(frozen=True)
class CodedScheme:
    """A scheme bound to a code rate and frame geometry, ready to run."""
    scheme: str
    rate_bpcu: float
    frame_symbols: int
    codec: str
    constellation: Constellation = field(repr=False)
    data_bits: int = 0
    gamma: float = 0.0
    comp: shaping.Composition = field(repr=False, default=None)
    ldpc: object = field(repr=False, default=None)
    bch: object = field(repr=False, default=None)


def build_coded(
    scheme: str,
    rate_bpcu: float,
    frame_symbols: int = 1000,
    codec: str = "ldpc",
) -> CodedScheme:
    """Resolve a (scheme, rate) request into concrete codes and tables."""
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r}; expected one of {CODECS}")
    if scheme in ("cross_qam32", "framed_cross_qam32"):
        c = build_constellation(scheme)
        if frame_symbols % 2:
            raise ValueError("2D formats need an even number of frame symbols")
        n_coded = frame_symbols // 2 * 5
        if codec == "none":
            k = n_coded
        else:
            k_exact = rate_bpcu * frame_symbols
            k = int(round(k_exact))
            if abs(k - k_exact) > 1e-9:
                raise ValueError(
                    f"rate {rate_bpcu} bpcu not realizable: needs "
                    f"{k_exact} data bits in a {frame_symbols}-symbol frame"
                )
            if not 0 < k < n_coded:
                raise ValueError(f"rate {rate_bpcu} bpcu outside (0, 2.5)")
        ldpc = bch = None
        if codec == "ldpc":
            ldpc = ldpc_build(n_coded, k / n_coded)
        elif codec == "bch":
            # BCH dimensions move in steps of the parity-per-error cost;
            # take the strongest t whose dimension still reaches k
            code = None
            for t in range(1, 200):
                cand = bch_build(n_coded, t)
                if cand.systematic_length < k:
                    break
                code = cand
            if code is None:
                raise ValueError(f"no BCH code of length {n_coded} reaches k={k}")
            bch = code
            k = code.systematic_length
        return CodedScheme(
            scheme=scheme, rate_bpcu=k / frame_symbols if codec != "none" else 2.5,
            frame_symbols=frame_symbols, codec=codec, constellation=c,
            data_bits=k, ldpc=ldpc, bch=bch,
        )
    if scheme == "dm_pam6":
        c = build_constellation("pam6_label")
        n = frame_symbols
        comp = shaping.Composition.near_uniform(n)
        k_dm = shaping.ccdm_input_length(comp)
        if codec == "none":
            gamma = 1.0
            g = n
            ldpc = None
        elif codec == "ldpc":
            gamma_exact = rate_bpcu - k_dm / n
            g = int(round(gamma_exact * n))
            if abs(g - gamma_exact * n) > 1e-6:
                raise ValueError(
                    f"rate {rate_bpcu} bpcu not realizable: gamma*n = "
                    f"{gamma_exact * n} must be an integer"
                )
            if not 0 <= g <= n:
                raise ValueError(
                    f"rate {rate_bpcu} bpcu needs gamma in [0, 1], got {g / n}"
                )
            gamma = g / n
            if g == n:
                ldpc = None
            else:
                ldpc = ldpc_build(3 * n, (2 * n + g) / (3 * n))
        else:
            raise ValueError("dm_pam6 supports codecs 'ldpc' and 'none' only")
        return CodedScheme(
            scheme=scheme,
            rate_bpcu=k_dm / n + gamma if codec != "none" else k_dm / n + 1.0,
            frame_symbols=n, codec=codec, constellation=c,
            data_bits=k_dm + g, gamma=gamma, comp=comp, ldpc=ldpc,
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def encode_frame(cs: CodedScheme, data: np.ndarray) -> np.ndarray:
    """Source bits -> PAM-6 levels for one frame."""
    data = np.asarray(data, dtype=np.uint8).ravel()
    if data.size != cs.data_bits:
        raise ValueError(f"expected {cs.data_bits} data bits, got {data.size}")
    if cs.scheme == "dm_pam6":
        return shaping.pas_encode(data, cs.comp, cs.ldpc)
    if cs.codec == "ldpc":
        coded = ldpc_encode(data, cs.ldpc)
    elif cs.codec == "bch":
        coded = bch_encode(data, cs.bch)
    else:
        coded = data
    return map_bits(scramble(coded, SCRAMBLE_SEED), cs.constellation)


def decode_frame(cs: CodedScheme, received: np.ndarray, noise_var: float):
    """Noisy samples -> (data_bits, ok) for one frame."""
    y = np.asarray(received, dtype=np.float64).ravel()
    if cs.scheme == "dm_pam6":
        llrs = bit_llrs(y, cs.constellation, noise_var).reshape(-1, 3)
        return shaping.pas_decode(llrs, cs.comp, cs.ldpc)
    if cs.codec == "ldpc":
        llr = adapt_llrs(bit_llrs(y, cs.constellation, noise_var), SCRAMBLE_SEED)
        bits, converged, _ = ldpc_decode(llr, cs.ldpc)
        return bits, bool(converged)
    # hard decisions on 2D points, then algebraic or no decoding
    post = symbol_posteriors(y, cs.constellation, noise_var)
    pts = np.argmax(post, axis=1)
    hard = cs.constellation.labels[pts].ravel().astype(np.uint8)
    hard = scramble(hard, SCRAMBLE_SEED)
    if cs.codec == "bch":
        return bch_decode(hard, cs.bch)
    return hard, True


def coded_fer(
    scheme: str,
    rate_bpcu: float,
    channel: ChannelSpec,
    codec: str = "ldpc",
    frame_symbols: int = 1000,
    max_frames: int = 1000,
    min_errors: int = 100,
    seed: int = 0,
):
    """Monte Carlo frame error rate of a coded scheme on a channel.

    Frames use independent Philox substreams keyed by the frame index, so
    a run is reproducible regardless of scheduling. Stops at min_errors
    frame errors or max_frames frames. Returns (fer, half_width, frames,
    errors); a frame errs when any decoded data bit is wrong or the
    decoder flags failure.
    """
    cs = build_coded(scheme, rate_bpcu, frame_symbols, codec)
    errors = 0
    frames = 0
    for i in range(max_frames):
        data = philox(seed, 2 * i + 1).integers(0, 2, cs.data_bits, dtype=np.uint8)
        levels = encode_frame(cs, data)
        y = transmit(normalize(levels), channel, stream=2 * i)
        got, ok = decode_frame(cs, y, channel.noise_var)
        frames += 1
        if not ok or got is None or not np.array_equal(
            np.asarray(got, dtype=np.uint8), data
        ):
            errors += 1
        if errors >= min_errors:
            break
    fer = errors / frames
    # Wilson score interval: stays honest at 0 or all errors
    zn = 1.96**2 / frames
    hw = 1.96 * math.sqrt(fer * (1 - fer) / frames + zn / (4 * frames)) / (1 + zn)
    return fer, hw, frames, errors


def snr_at_fer(
    scheme: str,
    rate_bpcu: float,
    fer_target: float = 1e-2,
    codec: str = "ldpc",
    frame_symbols: int = 1000,
    frames: int = 1000,
    seed: int = 0,
    lo_db: float = 15.0,
    hi_db: float = 35.0,
):
    """Peak SNR (dB) where the coded FER crosses fer_target.

    Bisection with common random numbers; FER is monotone non-increasing
    in SNR for a fixed seed, so the crossing is well defined up to the
    Monte Carlo resolution of `frames`.
    """

    def fer_at(snr_db):
        chan = ChannelSpec(kind="awgn", noise_var=sigma_for_peak_snr(snr_db), seed=seed)
        fer, _, _, _ = coded_fer(
            scheme, rate_bpcu, chan, codec=codec, frame_symbols=frame_symbols,
            max_frames=frames, min_errors=frames + 1, seed=seed,
        )
        return fer

    f_lo, f_hi = fer_at(lo_db), fer_at(hi_db)
    if f_lo < fer_target:
        raise ValueError(f"FER already below target at {lo_db} dB")
    if f_hi > fer_target:
        raise ValueError(f"FER above target even at {hi_db} dB")
    _, lo, hi = bisect(lambda snr: fer_at(snr) > fer_target, lo_db, hi_db, 0.02)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FerPoint:
    rate: float
    snr_db: float
    fer: float
    half_width: float
    frames: int
    errors: int


def rate_at_fer(
    scheme: str,
    channel: ChannelSpec,
    fer_target: float = 1e-2,
    codec: str = "ldpc",
    rate_grid=(1.80, 1.90, 2.00, 2.10),
    frame_symbols: int = 1000,
    max_frames: int = 1000,
    min_errors: int = 100,
    seed: int = 0,
):
    """Largest grid rate whose coded FER meets fer_target on the channel.

    Scans the grid from the top; each point runs until min_errors frame
    errors or max_frames frames (whichever first), so clearly failing
    rates abort early. Returns (achieved_rate, [FerPoint...]); raises if
    no grid rate meets the target.
    """
    points = []
    for rate in sorted(rate_grid, reverse=True):
        fer, hw, frames, errors = coded_fer(
            scheme, rate, channel, codec=codec, frame_symbols=frame_symbols,
            max_frames=max_frames, min_errors=min_errors, seed=seed,
        )
        points.append(FerPoint(rate=rate, snr_db=peak_snr_db(channel), fer=fer,
                               half_width=hw, frames=frames, errors=errors))
        if fer <= fer_target:
            return rate, points
    raise ValueError(
        f"no rate in {sorted(rate_grid)} meets FER {fer_target} for {scheme}"
    )
