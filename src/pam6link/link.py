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
`frame_data_bits` checks this without building a code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import shaping
from .channel import philox, sigma_for_peak_snr, transmit
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
from .fec.bch import field_degree
from .fec.ldpc import load_basegraph, rate_match
from .fec.scramble import adapt_llrs, scramble
from .rates import SCHEMES, bisect

SCRAMBLE_SEED = 0xC0DEC
CODECS = ("ldpc", "bch", "none")
SNR_BRACKET_DB = (15.0, 35.0)  # peak SNRs snr_at_fer searches between
MAX_FRAME_SYMBOLS = 10**5  # largest frame; the dm_pam6 matcher size grows
                           # with factorial(frame_symbols)


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


def check_frame_symbols(scheme: str, frame_symbols: int) -> None:
    """Raise ValueError unless a frame of `scheme` can span frame_symbols
    uses, in [1, MAX_FRAME_SYMBOLS]."""
    if frame_symbols < 1:
        raise ValueError(f"need at least 1 symbol per frame, got {frame_symbols}")
    if frame_symbols > MAX_FRAME_SYMBOLS:
        raise ValueError(
            f"at most {MAX_FRAME_SYMBOLS} symbols per frame, got {frame_symbols}")
    if scheme != "dm_pam6" and frame_symbols % 2:
        raise ValueError(
            f"2D formats need an even number of frame symbols, got {frame_symbols}")


def frame_data_bits(
    scheme: str,
    rate_bpcu: float,
    frame_symbols: int = 1000,
    codec: str = "ldpc",
) -> int:
    """Data bits one frame carries at rate_bpcu; checks, builds no code.

    2D formats: k = rate_bpcu * frame_symbols must be an integer in (0, n)
    for the n = 5 * frame_symbols / 2 coded bits (codec none carries all
    n; BCH needs k <= n - m for field degree m, later rounded down to a
    code dimension). dm_pam6: the matcher's k_dm bits plus g = (rate_bpcu
    - k_dm / n) * n data sign bits, g an integer in [0, n] (n with codec
    none). LDPC codes must pass fec.ldpc.rate_match. Raises ValueError for
    anything a frame cannot realize.
    """
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r}; expected one of {CODECS}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    check_frame_symbols(scheme, frame_symbols)
    if scheme == "dm_pam6":
        if codec == "bch":
            raise ValueError("dm_pam6 supports codecs 'ldpc' and 'none' only")
        n = frame_symbols
        k_dm = shaping.ccdm_input_length(shaping.Composition.near_uniform(n))
        if codec == "none":
            return k_dm + n
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
        if g < n:
            rate_match(load_basegraph(), 3 * n, 2 * n + g)
        return k_dm + g
    n_coded = frame_symbols // 2 * 5
    if codec == "none":
        return n_coded
    k_exact = rate_bpcu * frame_symbols
    k = int(round(k_exact))
    if abs(k - k_exact) > 1e-9:
        raise ValueError(
            f"rate {rate_bpcu} bpcu not realizable: needs "
            f"{k_exact} data bits in a {frame_symbols}-symbol frame"
        )
    if not 0 < k < n_coded:
        raise ValueError(f"rate {rate_bpcu} bpcu outside (0, 2.5)")
    if codec == "ldpc":
        rate_match(load_basegraph(), n_coded, k)
    elif k > n_coded - field_degree(n_coded):
        raise ValueError(f"no BCH code of length {n_coded} reaches k={k}")
    return k


def build_coded(
    scheme: str,
    rate_bpcu: float,
    frame_symbols: int = 1000,
    codec: str = "ldpc",
) -> CodedScheme:
    """Resolve a (scheme, rate) request into concrete codes and tables."""
    k = frame_data_bits(scheme, rate_bpcu, frame_symbols, codec)
    if scheme == "dm_pam6":
        n = frame_symbols
        comp = shaping.Composition.near_uniform(n)
        k_dm = shaping.ccdm_input_length(comp)
        g = k - k_dm
        ldpc = None if g == n else ldpc_build(3 * n, (2 * n + g) / (3 * n))
        return CodedScheme(
            scheme=scheme, rate_bpcu=k_dm / n + g / n, frame_symbols=n,
            codec=codec, constellation=build_constellation("pam6_label"),
            data_bits=k, gamma=g / n, comp=comp, ldpc=ldpc,
        )
    n_coded = frame_symbols // 2 * 5
    ldpc = bch = None
    if codec == "ldpc":
        ldpc = ldpc_build(n_coded, k / n_coded)
    elif codec == "bch":
        # BCH dimensions move in steps of the parity-per-error cost;
        # take the strongest t whose dimension still reaches k
        # (frame_data_bits has checked that t = 1 does)
        for t in range(1, 200):
            try:
                cand = bch_build(n_coded, t)
            except ValueError:  # t beyond the field, or no data bits left
                break
            if cand.systematic_length < k:
                break
            bch = cand
        k = bch.systematic_length
    return CodedScheme(
        scheme=scheme, rate_bpcu=k / frame_symbols, frame_symbols=frame_symbols,
        codec=codec, constellation=build_constellation(scheme),
        data_bits=k, ldpc=ldpc, bch=bch,
    )


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
    snr_db: float,
    codec: str = "ldpc",
    frame_symbols: int = 1000,
    max_frames: int = 1000,
    min_errors: int = 100,
    seed: int = 0,
):
    """Monte Carlo frame error rate of a coded scheme on AWGN at a peak SNR.

    Frame i draws its noise from Philox stream 2i and its data from stream
    2i + 1, both keyed by seed, so a run is reproducible regardless of
    scheduling. Stops at min_errors frame errors or max_frames frames.
    Returns (fer, half_width, frames, errors); a frame errs when any
    decoded data bit is wrong or the decoder flags failure.
    """
    if max_frames < 1 or min_errors < 1:
        raise ValueError(
            f"max_frames and min_errors must be at least 1, got {max_frames} "
            f"and {min_errors}")
    noise_var = sigma_for_peak_snr(snr_db)
    cs = build_coded(scheme, rate_bpcu, frame_symbols, codec)
    errors = 0
    frames = 0
    for i in range(max_frames):
        data = philox(seed, 2 * i + 1).integers(0, 2, cs.data_bits, dtype=np.uint8)
        levels = encode_frame(cs, data)
        y = transmit(normalize(levels), noise_var, seed, stream=2 * i)
        got, ok = decode_frame(cs, y, noise_var)
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
):
    """Peak SNR (dB) where the coded FER crosses fer_target.

    Bisection over SNR_BRACKET_DB with common random numbers; FER is
    monotone non-increasing in SNR for a fixed seed, so the crossing is
    well defined up to the Monte Carlo resolution of `frames`. A probe
    asks only whether errors / frames > fer_target, so it stops at the
    smallest error count for which that holds: the verdicts, and so the
    result, are those of probes that run all `frames`.
    """
    stop = next((e for e in range(1, frames + 1) if e / frames > fer_target),
                frames + 1)

    def fer_at(snr_db):
        _, _, _, errors = coded_fer(
            scheme, rate_bpcu, snr_db, codec=codec, frame_symbols=frame_symbols,
            max_frames=frames, min_errors=stop, seed=seed,
        )
        return errors / frames

    lo_db, hi_db = SNR_BRACKET_DB
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
    snr_db: float,
    fer_target: float = 1e-2,
    codec: str = "ldpc",
    rate_grid=(1.80, 1.90, 2.00, 2.10),
    frame_symbols: int = 1000,
    max_frames: int = 1000,
    min_errors: int = 100,
    seed: int = 0,
):
    """Largest grid rate whose coded FER meets fer_target at a peak SNR.

    Scans the grid from the top; each point runs until min_errors frame
    errors or max_frames frames (whichever first), so clearly failing
    rates abort early. Returns (achieved_rate, [FerPoint...]); raises if
    no grid rate meets the target.
    """
    points = []
    for rate in sorted(rate_grid, reverse=True):
        fer, hw, frames, errors = coded_fer(
            scheme, rate, snr_db, codec=codec, frame_symbols=frame_symbols,
            max_frames=max_frames, min_errors=min_errors, seed=seed,
        )
        points.append(FerPoint(rate=rate, snr_db=snr_db, fer=fer,
                               half_width=hw, frames=frames, errors=errors))
        if fer <= fer_target:
            return rate, points
    raise ValueError(
        f"no rate in {sorted(rate_grid)} meets FER {fer_target} for {scheme}"
    )
