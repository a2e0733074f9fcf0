"""End-to-end coded frames: source bits -> levels -> channel -> decoded bits.

Three formats share the PAM-6 wire alphabet:

  cross_qam32 / framed_cross_qam32: LDPC-coded bits are scrambled, mapped
  five at a time onto 2D points (two consecutive levels), and decoded
  bit-metric from the 2D demapper.

  dm_pam6: sign-bit shaping. A fixed-composition matcher produces ternary
  amplitudes; their pair labels plus extra data bits form the systematic
  input of the LDPC code, whose parity (plus those extra bits) selects the
  upper or lower half of the alphabet per symbol. Transmitted levels
  therefore carry the code's systematic AND parity bits positionally, so
  nothing is scrambled (bit flips would break the amplitude composition).

The transmission rate grid is realizable exactly: for 2D formats
rate * frame_symbols is the LDPC dimension; for dm_pam6 the sign-bit
fraction gamma = rate - k/n must give an integer gamma * n in [0, n): at
least one sign bit carries parity.
`build_coded` is the one place that checks this, by building the frame.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import shaping
from .channel import philox, sigma_for_peak_snr, transmit
from .constellation import Constellation, bit_llrs, map_bits, normalize
from .fec import ldpc_build, ldpc_decode, ldpc_encode
from .fec.scramble import adapt_llrs, scramble
from .rates import bisect, constellation_for

CODECS = ("ldpc",)
SNR_BRACKET_DB = (15.0, 35.0)  # peak SNRs snr_at_fer searches between
MAX_FRAME_SYMBOLS = 10**5  # largest frame; the dm_pam6 matcher size grows
                           # with factorial(frame_symbols)


@dataclass(frozen=True)
class CodedScheme:
    """A scheme bound to a code rate and frame geometry, ready to run."""
    scheme: str
    constellation: Constellation = field(repr=False)
    data_bits: int = 0
    comp: shaping.Composition = field(repr=False, default=None)
    ldpc: object = field(repr=False, default=None)


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


@functools.lru_cache(maxsize=16)
def build_coded(scheme: str, rate_bpcu: float, frame_symbols: int, codec: str,
                /) -> CodedScheme:
    """Resolve a (scheme, rate) request into the LDPC-coded frame it sends:
    the one place that decides what a frame carries.

    2D formats: k = rate_bpcu * frame_symbols must be an integer in (0, n)
    for the n = 5 * frame_symbols / 2 coded bits.
    dm_pam6: the matcher's k_dm bits plus g = (rate_bpcu - k_dm / n) * n
    data sign bits, g an integer in [0, n), so that parity is left.
    Raises ValueError for anything a frame cannot realize, code limits
    included, and for any codec but "ldpc". Memoized, and the codes'
    arrays are read-only.
    """
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r}; expected one of {CODECS}")
    constellation = constellation_for(scheme)
    check_frame_symbols(scheme, frame_symbols)
    if scheme == "dm_pam6":
        n = frame_symbols
        comp = shaping.Composition.near_uniform(n)
        k_dm = shaping.ccdm_input_length(comp)
        gamma_exact = rate_bpcu - k_dm / n
        g = int(round(gamma_exact * n))
        if abs(g - gamma_exact * n) > 1e-6:
            raise ValueError(
                f"rate {rate_bpcu} bpcu not realizable: gamma*n = "
                f"{gamma_exact * n} must be an integer"
            )
        if not 0 <= g < n:
            raise ValueError(
                f"rate {rate_bpcu} bpcu needs gamma in [0, 1), got {g / n}"
            )
        ldpc = ldpc_build(3 * n, 2 * n + g)
        return CodedScheme(scheme=scheme, constellation=constellation,
                           data_bits=k_dm + g, comp=comp, ldpc=ldpc)
    n_coded = frame_symbols // 2 * 5
    k_exact = rate_bpcu * frame_symbols
    k = int(round(k_exact))
    if abs(k - k_exact) > 1e-9:
        raise ValueError(
            f"rate {rate_bpcu} bpcu not realizable: needs "
            f"{k_exact} data bits in a {frame_symbols}-symbol frame"
        )
    if not 0 < k < n_coded:
        raise ValueError(f"rate {rate_bpcu} bpcu outside (0, 2.5)")
    return CodedScheme(scheme=scheme, constellation=constellation,
                       data_bits=k, ldpc=ldpc_build(n_coded, k))


def encode_frame(cs: CodedScheme, data: np.ndarray) -> np.ndarray:
    """Source bits -> PAM-6 levels for one frame. Raises ValueError unless
    data holds cs.data_bits entries, each 0 or 1."""
    data = shaping.as_bits(data, "frame data")
    if data.size != cs.data_bits:
        raise ValueError(f"expected {cs.data_bits} data bits, got {data.size}")
    if cs.scheme == "dm_pam6":
        return shaping.pas_encode(data, cs.comp, cs.ldpc)
    coded = ldpc_encode(data, cs.ldpc)
    return map_bits(scramble(coded), cs.constellation)


def decode_frame(cs: CodedScheme, received: np.ndarray, noise_var: float):
    """Noisy samples -> (data_bits, ok) for one frame."""
    y = np.asarray(received, dtype=np.float64).ravel()
    if cs.scheme == "dm_pam6":
        llrs = bit_llrs(y, cs.constellation, noise_var).reshape(-1, 3)
        return shaping.pas_decode(llrs, cs.comp, cs.ldpc)
    llr = adapt_llrs(bit_llrs(y, cs.constellation, noise_var))
    bits, converged, _ = ldpc_decode(llr, cs.ldpc)
    return bits, bool(converged)


def coded_fer(
    scheme: str,
    rate_bpcu: float,
    snr_db: float,
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
    cs = build_coded(scheme, rate_bpcu, frame_symbols, "ldpc")
    if max_frames < 1 or min_errors < 1:
        raise ValueError(
            f"max_frames and min_errors must be at least 1, got {max_frames} "
            f"and {min_errors}")
    noise_var = sigma_for_peak_snr(snr_db)
    errors = 0
    frames = 0
    for i in range(max_frames):
        data = philox(seed, 2 * i + 1).integers(0, 2, cs.data_bits, dtype=np.uint8)
        levels = encode_frame(cs, data)
        y = transmit(normalize(levels), noise_var, philox(seed, 2 * i))
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
    frame_symbols: int = 1000,
    frames: int = 1000,
    seed: int = 0,
):
    """Peak SNR (dB) where the coded FER crosses fer_target.

    Bisection over SNR_BRACKET_DB with common random numbers; FER is
    monotone non-increasing in SNR for a fixed seed, so the crossing is
    well defined up to the Monte Carlo resolution of `frames`; the result
    is the midpoint of a bracket narrowed to under 0.02 dB. Raises
    ValueError unless the FER exceeds fer_target at the bracket's low end
    and does not at its high end. A probe asks only whether errors /
    frames > fer_target, so it stops at the smallest error count for which
    that holds: the verdicts, and so the result, are those of probes that
    run all `frames`.
    """
    stop = next((e for e in range(1, frames + 1) if e / frames > fer_target),
                frames + 1)

    def fer_at(snr_db):
        _, _, _, errors = coded_fer(
            scheme, rate_bpcu, snr_db, frame_symbols=frame_symbols,
            max_frames=frames, min_errors=stop, seed=seed,
        )
        return errors / frames

    return bisect(lambda snr: fer_at(snr) > fer_target, *SNR_BRACKET_DB, 0.02)


@dataclass(frozen=True)
class FerPoint:
    rate: float
    fer: float
    half_width: float
    frames: int


def rate_at_fer(
    scheme: str,
    snr_db: float,
    fer_target: float = 1e-2,
    rate_grid=(1.80, 1.90, 2.00, 2.10),
    frame_symbols: int = 1000,
    max_frames: int = 1000,
    min_errors: int = 100,
    seed: int = 0,
):
    """Largest grid rate whose coded FER meets fer_target at a peak SNR.

    Scans the grid from the top; each point runs until min_errors frame
    errors or max_frames frames (whichever first), so clearly failing
    rates abort early. Returns (achieved_rate, [FerPoint...]), with
    achieved_rate nan when no grid rate meets the target. Each rate
    reported is the one a frame carries, data bits over frame symbols.
    """
    points = []
    for rate in sorted(rate_grid, reverse=True):
        cs = build_coded(scheme, rate, frame_symbols, "ldpc")
        fer, hw, frames, _ = coded_fer(scheme, rate, snr_db, frame_symbols,
                                       max_frames, min_errors, seed)
        carried = cs.data_bits / frame_symbols
        points.append(FerPoint(rate=carried, fer=fer, half_width=hw,
                               frames=frames))
        if fer <= fer_target:
            return carried, points
    return math.nan, points
