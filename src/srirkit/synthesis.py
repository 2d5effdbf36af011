"""Resynthesis back end: sample-to-loudspeaker mapping (SDM), direct/diffuse
time-frequency synthesis (SIRR), decorrelation, and binaural rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .doa import DoaTrajectory, TfDoaField
from .dsp import istft
from .errors import MissingHrirError
from .grids import LoudspeakerGrid, nearest_directions
from .hrir import HrirSet
from .signals import BinauralIr, MonoIr, StftFrames
from .vbap import vbap_gain_table

DECORRELATOR_TAPS = 1024
#: Largest angle between a loudspeaker and the HRIR that renders it.
MAX_HRIR_ANGLE_DEG = 1.0
_FRONTAL = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class VirtualLoudspeakerSignals:
    """One signal per grid direction, channel-major (n_speakers, n_samples)."""

    grid: LoudspeakerGrid
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(f"samples must be (speakers, samples), got {samples.shape}")
        if samples.shape[0] != len(self.grid):
            raise ValueError(
                f"signal count {samples.shape[0]} != grid size {len(self.grid)}"
            )
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be > 0")
        object.__setattr__(self, "samples", samples)


def sdm_synthesize(pressure: MonoIr, trajectory: DoaTrajectory,
                   grid: LoudspeakerGrid, k: int = 1) -> VirtualLoudspeakerSignals:
    """Assign every pressure sample to its k nearest grid directions.

    With k=1 each sample lands whole on a single loudspeaker (the
    one-image-source-per-sample model, bit-exact). With k>1 the sample is
    split with inverse-angle amplitude weights normalized so per-sample
    energy is preserved. Samples with an invalid DOA inherit the most
    recent valid assignment, or the grid direction nearest frontal when no
    valid sample has occurred yet.
    """
    n = len(pressure)
    if len(trajectory) != n:
        raise ValueError(
            f"trajectory length {len(trajectory)} does not match pressure ({n})"
        )

    frontal_idx = int(nearest_directions(_FRONTAL[None, :], grid.directions)[0][0, 0])
    top, angles = nearest_directions(trajectory.directions, grid.directions, k)
    with np.errstate(divide="ignore"):
        weights = 1.0 / angles
    exact = ~np.isfinite(weights)
    has_exact = exact.any(axis=1)
    weights[has_exact] = exact[has_exact].astype(float)
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)  # exactly 1 for k=1

    # Invalid samples take the picks of the most recent valid one, or the
    # frontal loudspeaker alone before the first.
    fill_from = _forward_fill(np.where(trajectory.valid, np.arange(n), -1), -1)
    top, weights = top[fill_from], weights[fill_from]
    top[fill_from < 0] = frontal_idx
    weights[fill_from < 0] = np.eye(1, k)
    out = np.zeros((len(grid), n))
    np.add.at(out, (top, np.arange(n)[:, None]), weights * pressure.samples[:, None])
    return VirtualLoudspeakerSignals(grid, out, pressure.sample_rate)


def _forward_fill(values: np.ndarray, initial) -> np.ndarray:
    """Replace negative entries with the most recent non-negative one;
    entries before the first non-negative value take ``initial``."""
    mask = values >= 0
    idx = np.where(mask, np.arange(values.size), 0)
    np.maximum.accumulate(idx, out=idx)
    filled = values[idx]
    first_valid = np.argmax(mask) if mask.any() else values.size
    filled[:first_valid] = initial
    return filled


def decorrelation_kernel(seed: int, channel_index: int,
                         taps: int = DECORRELATOR_TAPS) -> np.ndarray:
    """Deterministic unit-magnitude random-phase FIR, unit tap energy."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, int(channel_index)])
    bins = taps // 2 + 1
    phases = rng.uniform(0.0, 2.0 * np.pi, bins)
    phases[0] = 0.0  # DC and Nyquist must stay real
    phases[-1] = 0.0
    return np.fft.irfft(np.exp(1j * phases), n=taps)


def sirr_tf_streams(pressure_frames: StftFrames, field: TfDoaField,
                    grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pre-decorrelation direct and diffuse streams in the TF domain.

    Returns ``(direct_tf, diffuse_tf)``: the VBAP-panned per-speaker direct
    frames, shape (speakers, frames, bins), and the single diffuse stream
    every speaker shares (already scaled by 1/sqrt(L)), shape
    (frames, bins). Per bin,
    ``sum_ls |direct_tf|^2 + L * |diffuse_tf|^2 == |P|^2``.
    """
    if not field.matches(pressure_frames):
        raise ValueError("field metadata does not match the pressure frames")
    n_speakers = len(grid)
    values = pressure_frames.values  # (t, f)
    n_frames, n_bins = values.shape

    flat_dirs = field.directions.reshape(-1, 3)
    speaker_idx, gains = vbap_gain_table(flat_dirs, grid)  # (tf, 3) each

    direct_amp = (np.sqrt(1.0 - field.psi) * values).reshape(-1)  # (tf,)
    direct_tf = np.zeros((n_speakers, n_frames * n_bins), dtype=np.complex128)
    cells = np.arange(n_frames * n_bins)
    for slot in range(3):
        np.add.at(direct_tf, (speaker_idx[:, slot], cells), gains[:, slot] * direct_amp)
    direct_tf = direct_tf.reshape(n_speakers, n_frames, n_bins)

    diffuse_tf = np.sqrt(field.psi) * values / np.sqrt(n_speakers)
    return direct_tf, diffuse_tf


def sirr_synthesize(pressure_frames: StftFrames, field: TfDoaField,
                    grid: LoudspeakerGrid, seed: int = 0) -> VirtualLoudspeakerSignals:
    """Direct/diffuse time-frequency synthesis.

    Per bin, an amplitude sqrt(1 - psi) * P is panned with VBAP at the bin
    direction and sqrt(psi) * P is spread to all loudspeakers with equal
    energy weights (1/sqrt(L)). Each loudspeaker's diffuse stream runs
    through its own energy-preserving decorrelator before the streams are
    summed and inverse-transformed; per-bin direct plus diffuse energy
    equals the input bin energy exactly before decorrelation.
    """
    direct_tf, diffuse_tf = sirr_tf_streams(pressure_frames, field, grid)
    layout = (field.window_size, field.hop, field.sample_rate)
    diffuse_td = istft(StftFrames(diffuse_tf, *layout))
    direct_td = istft(StftFrames(direct_tf, *layout))  # (speakers, time)
    del direct_tf  # free the complex stream before the convolution
    out = np.pad(direct_td, ((0, 0), (0, DECORRELATOR_TAPS - 1)))
    if np.any(diffuse_td):
        kernels = np.stack([decorrelation_kernel(seed, ls) for ls in range(len(grid))])
        out += sps.fftconvolve(diffuse_td[None, :], kernels, mode="full", axes=-1)
    return VirtualLoudspeakerSignals(grid, out, field.sample_rate)


def binaural_render(vls: VirtualLoudspeakerSignals, hrirs: HrirSet) -> BinauralIr:
    """Convolve every loudspeaker signal with its matching HRIR pair and sum.

    Every grid direction must have an HRIR within ``MAX_HRIR_ANGLE_DEG``;
    offenders are reported together. Summation runs in ascending
    loudspeaker order for bit-exact reproducibility.
    """
    if vls.sample_rate != hrirs.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: signals {vls.sample_rate}, HRIRs {hrirs.sample_rate}"
        )
    matches, angles = nearest_directions(vls.grid.directions, hrirs.directions)
    matches = matches[:, 0]
    offenders = np.nonzero(np.degrees(angles[:, 0]) > MAX_HRIR_ANGLE_DEG)[0]
    if offenders.size:
        raise MissingHrirError(offenders.tolist())

    left = sps.fftconvolve(vls.samples, hrirs.left[matches], mode="full", axes=1)
    right = sps.fftconvolve(vls.samples, hrirs.right[matches], mode="full", axes=1)
    return BinauralIr(np.stack([np.sum(left, axis=0), np.sum(right, axis=0)]), vls.sample_rate)
