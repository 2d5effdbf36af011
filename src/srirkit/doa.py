"""Direction-of-arrival estimation: per-sample TDOA least squares (the SDM
front end), broadband band-limited pseudo-intensity vectors, and
time-frequency intensity analysis with diffuseness (the SIRR front end).

All estimators emit directions pointing from the array toward the source.
Pseudo-intensity estimates derive particle velocity as the negative of the
(x, y, z) channels (see :mod:`srirkit.arrays`), so the active intensity
points along propagation and the DOA is its negation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .arrays import MicArrayGeometry
from .dsp import SPEED_OF_SOUND, refine_peaks
from .filterbanks import _sosfiltfilt, bandpass_sos
from .grids import _check_count, _check_unit
from .signals import FoaSignal, MultichannelIr, StftFrames

_DEGENERATE_NORM = 1e-9
#: Product frames one TDOA lag chunk holds: 2 MB, in whole groups of 8 blocks.
_FRAME_CHUNK = 250_000
_LAG_BLOCK = 32  # outputs per block of the TDOA lag product


@dataclass(frozen=True)
class DoaTrajectory:
    """Per-sample unit directions aligned 1:1 with a pressure signal."""

    directions: np.ndarray  # (n, 3); zeros where invalid
    valid: np.ndarray  # (n,) bool

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if dirs.ndim != 2 or dirs.shape[1] != 3:
            raise ValueError(f"directions must be (n, 3), got {dirs.shape}")
        if valid.shape != (dirs.shape[0],):
            raise ValueError("validity mask must match direction count")
        _check_unit(dirs[valid])
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return int(self.directions.shape[0])


@dataclass(frozen=True)
class TfDoaField:
    """Per (frame, bin) direction and diffuseness, tied to an STFT layout."""

    directions: np.ndarray  # (frames, bins, 3)
    psi: np.ndarray  # (frames, bins) in [0, 1]
    window_size: int
    hop: int
    sample_rate: float

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.float64)
        if dirs.ndim != 3 or dirs.shape[2] != 3:
            raise ValueError(f"directions must be (frames, bins, 3), got {dirs.shape}")
        if psi.shape != dirs.shape[:2]:
            raise ValueError("psi shape must match directions")
        if not np.all((psi >= 0) & (psi <= 1)):  # also false for NaN
            raise ValueError("psi must lie in [0, 1]")
        _check_unit(dirs.reshape(-1, 3))
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "psi", psi)


def tdoa_ls_doa(srir: MultichannelIr, geometry: MicArrayGeometry,
                window_size: int) -> DoaTrajectory:
    """Per-sample DOA from pairwise TDOAs solved in least squares.

    A ``window_size``-sample Hann window centered on each sample
    (zero-padded at the edges) windows plain (unweighted) cross-correlations
    for every capsule pair. Only the lags a pair can reach are computed: the
    blocked product series ``x_i(t) x_j(t + tau)`` times banded Toeplitz
    matrices of the lag FIRs, one batched matrix product per pair; the peak
    lags are parabolic-refined and the overdetermined system
    ``(r_i - r_j) . u = c * tau_ij`` is solved for the direction ``u``.
    Samples whose solution norm is degenerate (all-zero TDOAs, silent
    windows) are masked invalid rather than fabricated.
    """
    if srir.channel_count != geometry.capsule_count:
        raise ValueError(
            f"SRIR channel count {srir.channel_count} does not match geometry "
            f"({geometry.capsule_count} capsules)"
        )
    _check_count("window_size", window_size, 2)
    n = len(srir)
    if window_size >= n:
        raise ValueError(f"window_size {window_size} must be smaller than the SRIR ({n})")

    rate = srir.sample_rate
    c = SPEED_OF_SOUND
    data = srir.samples
    peak = np.abs(data).max()
    if peak > 0:
        # Gain-normalize so the degenerate-solution threshold below is
        # effectively invariant to positive scaling of the input.
        data = data / peak
    n_ch = data.shape[0]

    pairs = list(itertools.combinations(range(n_ch), 2))
    baselines = np.array([geometry.positions[i] - geometry.positions[j] for i, j in pairs])
    solver = np.linalg.pinv(baselines)  # (3, n_pairs)

    # Per-pair lag bound: propagation across the baseline plus refinement slack.
    max_lags = np.ceil(np.linalg.norm(baselines, axis=1) / c * rate).astype(int) + 2
    max_lags = np.minimum(max_lags, window_size - 1)

    half = window_size // 2
    block, reach = _LAG_BLOCK, int(max_lags.max())
    # Whole groups of 8 blocks: OpenBLAS sums a product's row tail in another order.
    n_blocks, span = 8 * -(-n // (8 * block)), block + window_size - 1
    # Sample s's window covers rows[:, reach + s : reach + s + window_size]; the
    # rows run on to the last block's end, with `reach` zeros more on both sides.
    rows = np.pad(data, ((0, 0), (half + reach,
                                  n_blocks * block - n + window_size - half - 1 + reach)))
    taper = np.hanning(window_size)

    # The windowed correlation at lag tau is the product series
    # x_i(t) x_j(t + tau) through the FIR taper[m] * taper[m + tau]; on blocks
    # of outputs it is the banded Toeplitz matrix toeplitz[reach + tau, r + m, r],
    # and lagged[c, reach + tau, b] is capsule c's block b shifted by tau.
    firs = taper * sliding_window_view(np.pad(taper, reach), window_size)
    r = np.arange(block)[:, None]
    toeplitz = np.zeros((2 * reach + 1, span, block))
    toeplitz[:, r + np.arange(window_size), r] = firs[:, None, :]
    size = rows.itemsize
    lagged = as_strided(rows, (n_ch, 2 * reach + 1, n_blocks, span),
                        (rows.strides[0], size, block * size, size), writeable=False)
    # Window energies: the capsules' squares through the lag-0 FIR; zero only if every term is.
    energies = (as_strided(np.sum(rows[:, reach:] ** 2, axis=0), (n_blocks, span),
                           (block * size, size)) @ toeplitz[reach]).reshape(-1)[:n]

    tdoas = np.empty((n_blocks * block, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        ml = max_lags[p]
        kept = slice(reach - ml, reach + ml + 1)
        per_chunk = 8 * max(1, _FRAME_CHUNK // (8 * (2 * ml + 1) * span))
        for start in range(0, n_blocks, per_chunk):
            stop = start + per_chunk
            lags = np.matmul(lagged[i, reach, start:stop] * lagged[j, kept, start:stop],
                             toeplitz[kept])
            lags = np.ascontiguousarray(lags.transpose(1, 2, 0)).reshape(-1, 2 * ml + 1)
            tdoas[start * block : stop * block, p] = (refine_peaks(lags) - ml) / rate

    slowness = (c * tdoas @ solver.T)[:n]  # (n, 3)
    norms = np.linalg.norm(slowness, axis=1)
    valid = (norms > _DEGENERATE_NORM) & (energies > 0.0)
    directions = np.zeros((n, 3))
    directions[valid] = slowness[valid] / norms[valid, None]
    return DoaTrajectory(directions, valid)


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered Hann-weighted moving average along the last axis."""
    kernel = np.hanning(window + 2)[1:-1]
    kernel /= kernel.sum()
    pad = [(0, 0)] * (values.ndim - 1) + [(window // 2, window - 1 - window // 2)]
    padded = np.pad(values, pad, mode="constant")
    out = np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="valid"), -1, padded)
    return out


def piv_broadband_doa(foa: FoaSignal, window_size: int, band_low: float,
                      band_high: float) -> DoaTrajectory:
    """Per-sample DOA from band-limited pseudo-intensity vectors.

    All four channels are zero-phase band-passed to
    ``[band_low, band_high]``, the instantaneous intensity ``p * v`` is
    smoothed over ``window_size`` samples, and its negation is
    normalized into a toward-source direction. Zero-intensity samples are
    masked invalid.
    """
    _check_count("window_size", window_size)
    filtered = _sosfiltfilt(bandpass_sos(band_low, band_high, foa.sample_rate), foa.samples)
    velocity = -filtered[1:]  # particle velocity is the negated x, y, z

    intensity = filtered[0] * velocity  # (3, n), points away from source
    intensity = _smooth(intensity, window_size)

    norms = np.linalg.norm(intensity, axis=0)
    valid = norms > _DEGENERATE_NORM * norms.max()
    directions = np.zeros((len(foa), 3))
    directions[valid] = (-intensity[:, valid] / norms[valid]).T
    return DoaTrajectory(directions, valid)


def tf_piv_analysis(frames: StftFrames, averaging_frames: int = 8) -> TfDoaField:
    """Per-bin direction and diffuseness from time-frequency intensity.

    ``frames`` holds the w, x, y, z transforms, shape (4, frames, bins).
    Intensity and energy density are averaged over time with an exponential
    moving average of effective length ``averaging_frames``. Diffuseness is
    ``1 - |<I>| / <E>`` with channel scaling such that a single plane wave
    reaches exactly 0 and a zero-velocity field exactly 1; values are
    clamped to [0, 1]. Bins with no usable intensity keep a frontal
    placeholder direction.
    """
    if frames.values.shape[:-2] != (4,):
        raise ValueError(f"need (4, frames, bins) w, x, y, z frames, got {frames.values.shape}")
    _check_count("averaging_frames", averaging_frames)

    wv = frames.values[0]
    xyz = np.stack(frames.values[1:], axis=2)  # (t, f, 3)
    # Mic-convention product; physical intensity is its negation, and the
    # toward-source DOA negates that again.
    intensity = np.real(np.conj(wv)[:, :, None] * xyz)
    energy = 0.5 * (np.abs(wv) ** 2 + np.sum(np.abs(xyz) ** 2, axis=2))

    alpha = 1.0 / averaging_frames
    avg_i, avg_e = intensity.copy(), energy.copy()
    for t in range(1, intensity.shape[0]):
        avg_i[t] = alpha * intensity[t] + (1.0 - alpha) * avg_i[t - 1]
        avg_e[t] = alpha * energy[t] + (1.0 - alpha) * avg_e[t - 1]

    norms = np.linalg.norm(avg_i, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = 1.0 - norms / avg_e
    psi = np.clip(np.nan_to_num(psi, nan=1.0, posinf=1.0, neginf=1.0), 0.0, 1.0)

    directions = np.zeros_like(avg_i)
    directions[..., 0] = 1.0  # frontal placeholder for degenerate bins
    usable = norms > 0.0
    directions[usable] = avg_i[usable] / norms[usable, None]
    return TfDoaField(directions, psi, frames.window_size, frames.hop, frames.sample_rate)

