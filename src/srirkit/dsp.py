"""Foundational DSP primitives: STFT/ISTFT, cross-correlation, onset
detection, fractional-delay impulses and direct-sound energy normalization.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from .errors import DegenerateInputError, NoOnsetError
from .signals import BinauralIr, StftFrames

#: Onset threshold relative to the global peak, in dB. A common
#: room-acoustics convention that tolerates measurement noise floors.
ONSET_THRESHOLD_DB = -20.0


def _hann_periodic(n: int) -> np.ndarray:
    # Periodic Hann: exact constant-overlap-add for hop = n / k, k >= 2.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(samples: np.ndarray, sample_rate: float, window_size: int, hop: int) -> StftFrames:
    """Hann-windowed short-time Fourier transform along the last axis.

    Frame i covers samples ``[i*hop, i*hop + window_size)``; no padding is
    applied, so every frame lies fully inside the signal.

    Parameters
    ----------
    samples : ndarray, shape (..., n)
        Gives frames of shape (..., n_frames, n_bins).
    sample_rate : float
    window_size : int
        Power of two, <= signal length.
    hop : int
        Must divide window_size with window_size // hop >= 2 (COLA for Hann).
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[-1]
    if window_size < 2 or (window_size & (window_size - 1)) != 0:
        raise ValueError(f"window_size must be a power of two, got {window_size}")
    if window_size > n:
        raise ValueError(f"window_size {window_size} exceeds signal length {n}")
    if hop <= 0 or window_size % hop != 0 or window_size // hop < 2:
        raise ValueError(
            f"hop {hop} is not COLA-valid for window {window_size}"
            " (must divide it with at least 2x overlap)"
        )

    window = _hann_periodic(window_size)
    n_frames = 1 + (n - window_size) // hop
    starts = np.arange(n_frames) * hop
    frames = samples[..., starts[:, None] + np.arange(window_size)] * window
    values = np.fft.rfft(frames, axis=-1)
    return StftFrames(values, window_size, hop, sample_rate)


def istft(frames: StftFrames) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`stft`, shape ``(..., n)``.

    Applies the Hann window a second time on synthesis and divides by the
    accumulated squared window, which reconstructs the input exactly
    wherever window coverage is complete (the COLA-valid interior) and
    behaves gracefully when the frames were modified. Every output sample
    sums its frames in ascending frame order.
    """
    window_size, hop = frames.window_size, frames.hop
    if hop <= 0 or window_size % hop != 0 or window_size // hop < 2:
        raise ValueError("frames carry a non-COLA window/hop combination")

    window = _hann_periodic(window_size)
    n_frames, overlap = frames.frame_count, window_size // hop
    chunks = np.fft.irfft(frames.values, n=window_size, axis=-1)
    chunks *= window
    # Frame i's sub-block j lands on output block i + j; running j downwards
    # adds each output block's frames in ascending order.
    sub_blocks = chunks.reshape(*chunks.shape[:-1], overlap, hop)
    acc = np.zeros((*chunks.shape[:-2], n_frames + overlap - 1, hop))
    wsum = np.zeros(acc.shape[-2:])
    window_sq = (window * window).reshape(overlap, hop)
    for j in range(overlap - 1, -1, -1):
        acc[..., j : j + n_frames, :] += sub_blocks[..., j, :]
        wsum[j : j + n_frames] += window_sq[j]
    np.divide(acc, wsum, out=acc, where=wsum > 1e-12)
    return acc.reshape(*acc.shape[:-2], -1)


def cola_interior(frames: StftFrames) -> slice:
    """Sample range (into the istft output) with complete window coverage."""
    start = frames.window_size - frames.hop
    stop = frames.frame_count * frames.hop
    return slice(start, stop)


def cross_correlate(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """Raw (unnormalized) cross-correlation over lags ``-max_lag..+max_lag``.

    ``a`` and ``b`` are 1-D arrays of one length. The value at lag tau is
    ``sum_n a[n] * b[n + tau]``: if ``b`` is ``a`` delayed by d samples, the
    peak sits at lag +d. Raw values are returned because peak location is
    normalization-invariant; the coefficient form lives in the IACC metric.
    """
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need two 1-D arrays of one length, got {a.shape} and {b.shape}")
    if not 0 <= max_lag < a.size:
        raise ValueError(f"max_lag must be in [0, {a.size - 1}], got {max_lag}")
    full = sps.correlate(b, a, mode="full", method="auto")
    center = a.size - 1
    return full[center - max_lag : center + max_lag + 1]


def refine_peaks(corr: np.ndarray) -> np.ndarray:
    """Peak positions along the last axis, refined by 3-point parabolic
    interpolation; a peak at either end or on a flat neighborhood keeps its
    integer position."""
    peaks = np.argmax(corr, axis=-1)
    idx = np.indices(peaks.shape)
    interior = (peaks > 0) & (peaks < corr.shape[-1] - 1)
    safe = np.where(interior, peaks, 1)
    y0 = corr[(*idx, safe - 1)]
    y1 = corr[(*idx, safe)]
    y2 = corr[(*idx, safe + 1)]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > 0.0, 0.5 * (y0 - y2) / denom, 0.0)
    delta = np.clip(np.nan_to_num(delta), -1.0, 1.0)
    return peaks + np.where(interior, delta, 0.0)


#: Half-width of the windowed-sinc interpolator used for fractional delays
#: (support is 2 * half + 1 taps).
FRACTIONAL_DELAY_HALF = 16
_KAISER_BETA = 8.6
_KAISER_NORM = np.i0(_KAISER_BETA)
#: Arrivals whose kernels are built at once: about 34k taps, which fit a 2 MB L2 cache.
_IMPULSE_BLOCK = 1024


def impulse_fits(delays_samples, length: int) -> np.ndarray:
    """True where a fractional impulse's whole interpolator support lies
    inside a buffer of ``length`` samples."""
    base = np.floor(np.asarray(delays_samples, dtype=np.float64))
    return (base >= FRACTIONAL_DELAY_HALF) & (base + FRACTIONAL_DELAY_HALF < length)


def place_fractional_impulses(out: np.ndarray, delays_samples: np.ndarray,
                              amplitudes: np.ndarray) -> int:
    """Accumulate band-limited impulses at fractional sample positions.

    Each impulse is a Kaiser-windowed sinc with the window tracking the sinc
    peak, so arrival times stay sub-sample exact and an integer delay
    reduces to an exact unit impulse. ``out`` (C-contiguous) is (n,) with
    ``amplitudes`` (k,), or (channels, n) with ``amplitudes`` (channels, k).
    ``delays`` is (k,), shared by every channel so each arrival's kernel is
    built once, or (channels, k), one set of arrival times per channel.
    Arrivals that do not fit (:func:`impulse_fits`) are dropped before any
    kernel is built; the return value counts them. Kernels are built in
    bounded blocks of arrivals; each output sample sums them in order.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    delays = np.asarray(delays_samples, dtype=np.float64)
    half, n = FRACTIONAL_DELAY_HALF, out.shape[-1]
    fits = impulse_fits(delays, n)
    amps = np.asarray(amplitudes, dtype=np.float64)
    # Where each amplitude's channel starts in the flattened buffer.
    starts = np.broadcast_to(np.arange(0, out.size, n).reshape(*out.shape[:-1], 1), amps.shape)
    delays, amps, starts = delays[fits], amps[..., fits], starts[..., fits]
    offsets = np.arange(-half, half + 1)
    for first in range(0, delays.size, _IMPULSE_BLOCK):
        block = slice(first, first + _IMPULSE_BLOCK)
        base = np.floor(delays[block]).astype(np.int64)
        v = offsets[None, :] - (delays[block] - base)[:, None]
        arg = 1.0 - (v / half) ** 2
        window = np.where(arg > 0.0, np.i0(_KAISER_BETA * np.sqrt(np.maximum(arg, 0.0))), 0.0)
        kernels = np.sinc(v) * (window / _KAISER_NORM)
        # One flat index: np.add.at runs 5x faster on it than on (row, column) pairs.
        idx = starts[..., block, None] + base[:, None] + offsets
        np.add.at(out.reshape(-1), idx.ravel(), (kernels * amps[..., block, None]).ravel())
    return int(fits.size - np.count_nonzero(fits))


def detect_onset(brir: BinauralIr) -> int:
    """Index of the earliest arrival in either channel.

    First sample whose magnitude exceeds ``ONSET_THRESHOLD_DB`` relative to
    the global peak magnitude across both channels.
    """
    mags = np.abs(brir.samples)
    peak = mags.max()
    if peak <= 0.0:
        raise NoOnsetError("all-zero input has no onset")
    threshold = peak * 10.0 ** (ONSET_THRESHOLD_DB / 20.0)
    hits = np.nonzero((mags >= threshold).any(axis=0))[0]
    return int(hits[0])


def direct_segment(brir: BinauralIr, duration_s: float = 2.5e-3) -> tuple[int, int]:
    """Onset index and exclusive end of the direct-sound segment."""
    onset = detect_onset(brir)
    seg_len = int(round(duration_s * brir.sample_rate))
    if onset + seg_len > len(brir):
        raise ValueError(
            f"signal too short: need {seg_len} samples after onset {onset}, "
            f"have {len(brir) - onset}"
        )
    return onset, onset + seg_len


def normalize_direct_energy(brir: BinauralIr) -> BinauralIr:
    """Scale both channels so the 2.5 ms direct-sound segment has unit joint RMS.

    The RMS is taken jointly over both channels' samples in the segment
    starting at the onset; per-channel normalization would destroy the ILD.
    """
    start, stop = direct_segment(brir)
    seg = brir.samples[:, start:stop]
    rms = float(np.sqrt(np.mean(seg * seg)))
    if rms <= 0.0:
        raise DegenerateInputError("direct segment carries no energy")
    return brir.scaled(1.0 / rms)
