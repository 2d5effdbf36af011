"""Resynthesis back end: sample-to-loudspeaker mapping (SDM), direct/diffuse
time-frequency synthesis (SIRR), decorrelation, and binaural rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sps

from .doa import DoaTrajectory, TfDoaField
from .dsp import istft, stft
from .errors import MissingHrirError
from .grids import LoudspeakerGrid, nearest_directions
from .hrir import HrirSet
from .signals import BinauralIr, MonoIr, StftFrames
from .vbap import vbap_gain_table
from .wavio import check_sample_rate

DECORRELATOR_TAPS = 1024
#: Largest angle between a loudspeaker and the HRIR that renders it.
MAX_HRIR_ANGLE_DEG = 1.0
_FRONTAL = np.array([1.0, 0.0, 0.0])
#: An SDM assignment is scattered while k * taps <= this x its loudspeaker
#: count. The scatter's cost grows with k * taps, the frequency-domain sum's with
#: the count; on 60-960 directions they crossed at 1.1-2.1 x the count.
_SCATTER_TAPS_PER_SPEAKER = 1.5
#: Loudspeakers that SIRR and the frequency-domain binaural sum transform at once.
_SPEAKER_BLOCK = 16


@dataclass(frozen=True)
class VirtualLoudspeakerSignals:
    """One signal per grid direction, channel-major (n_speakers, n_samples)."""

    grid: LoudspeakerGrid
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] != len(self.grid):
            raise ValueError(f"samples must be ({len(self.grid)}, n), got {samples.shape}")
        check_sample_rate(self.sample_rate)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The signals of loudspeakers ``start:stop``."""
        return self.samples[start:stop]


@dataclass(frozen=True)
class SampleAssignment:
    """SDM output: pressure sample i plays ``samples[i, j]`` on loudspeaker
    ``speakers[i, j]``; both arrays are (n_samples, k)."""

    grid: LoudspeakerGrid
    speakers: np.ndarray
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        speakers = np.asarray(self.speakers, dtype=np.intp)
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or speakers.shape != samples.shape:
            raise ValueError(f"speakers/samples must be (n, k): {speakers.shape}/{samples.shape}")
        if speakers.size and not 0 <= speakers.min() <= speakers.max() < len(self.grid):
            raise ValueError("speaker indices out of range")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        check_sample_rate(self.sample_rate)
        object.__setattr__(self, "speakers", speakers)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The dense signals of loudspeakers ``start:stop``, (speakers, n)."""
        hit = (self.speakers >= start) & (self.speakers < stop)
        out = np.zeros((min(stop, len(self.grid)) - start, len(self)))
        np.add.at(out, (self.speakers[hit] - start, np.nonzero(hit)[0]), self.samples[hit])
        return out


def sdm_synthesize(pressure: MonoIr, trajectory: DoaTrajectory,
                   grid: LoudspeakerGrid, k: int = 1) -> SampleAssignment:
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
        raise ValueError(f"trajectory length {len(trajectory)} does not match pressure ({n})")

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
    fill_from = np.maximum.accumulate(np.where(trajectory.valid, np.arange(n), -1))
    top, weights = top[fill_from], weights[fill_from]
    top[fill_from < 0] = frontal_idx
    weights[fill_from < 0] = np.eye(1, k)
    return SampleAssignment(grid, top, weights * pressure.samples[:, None], pressure.sample_rate)


def decorrelation_kernel(seed: int, channel_index: int) -> np.ndarray:
    """Deterministic unit-magnitude random-phase FIR of ``DECORRELATOR_TAPS``
    taps, unit tap energy."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, int(channel_index)])
    bins = DECORRELATOR_TAPS // 2 + 1
    phases = rng.uniform(0.0, 2.0 * np.pi, bins)
    phases[0] = 0.0  # DC and Nyquist must stay real
    phases[-1] = 0.0
    return np.fft.irfft(np.exp(1j * phases), n=DECORRELATOR_TAPS)


def sirr_tf_streams(pressure: MonoIr, field: TfDoaField,
                    grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-decorrelation direct and diffuse streams in the TF domain.

    ``pressure`` is transformed with the field's own STFT layout; its rate
    and its (frames, bins) must match the field's. Returns ``(speakers,
    direct, diffuse_tf)``: each bin's VBAP triangle and its complex direct
    amplitudes, both (frames, bins, 3), and the diffuse stream every speaker
    shares (scaled by 1/sqrt(L)), shape (frames, bins). Per bin,
    ``sum |direct|^2 + L * |diffuse_tf|^2 == |P|^2``.
    """
    if pressure.sample_rate != field.sample_rate:
        raise ValueError(f"sample-rate mismatch: {pressure.sample_rate} vs {field.sample_rate}")
    values = stft(pressure.samples, pressure.sample_rate, field.window_size, field.hop).values
    if values.shape != field.psi.shape:
        raise ValueError(f"pressure frames {values.shape} do not match field {field.psi.shape}")
    speakers, gains = vbap_gain_table(field.directions.reshape(-1, 3), grid)  # (tf, 3) each
    direct = gains.reshape(*values.shape, 3) * (np.sqrt(1.0 - field.psi) * values)[..., None]
    diffuse_tf = np.sqrt(field.psi) * values / np.sqrt(len(grid))
    return speakers.reshape(*values.shape, 3), direct, diffuse_tf


def sirr_synthesize(pressure: MonoIr, field: TfDoaField,
                    grid: LoudspeakerGrid, seed: int = 0) -> VirtualLoudspeakerSignals:
    """Direct/diffuse time-frequency synthesis.

    Per bin, an amplitude sqrt(1 - psi) * P is panned with VBAP at the bin
    direction and sqrt(psi) * P is spread to all loudspeakers with equal
    energy weights (1/sqrt(L)). Each loudspeaker's diffuse stream runs
    through its own energy-preserving decorrelator before the streams are
    summed and inverse-transformed; per-bin direct plus diffuse energy
    equals the input bin energy exactly before decorrelation. Both streams
    are rendered a block of loudspeakers at a time.
    """
    speakers, direct, diffuse_tf = sirr_tf_streams(pressure, field, grid)
    layout = (field.window_size, field.hop, field.sample_rate)
    diffuse_td = istft(StftFrames(diffuse_tf, *layout))
    has_diffuse = np.any(diffuse_td)
    out = np.zeros((len(grid), diffuse_td.size + DECORRELATOR_TAPS - 1))
    for start in range(0, len(grid), _SPEAKER_BLOCK):
        rows = np.zeros((min(_SPEAKER_BLOCK, len(grid) - start), *diffuse_tf.shape), complex)
        hit = (speakers >= start) & (speakers < start + len(rows))
        # A grid triangle has three distinct loudspeakers, so each cell is set once.
        rows[(speakers[hit] - start, *np.nonzero(hit)[:2])] = direct[hit]
        block = out[start : start + len(rows)]
        block[:, : diffuse_td.size] = istft(StftFrames(rows, *layout))
        if has_diffuse:
            kernels = np.stack([decorrelation_kernel(seed, ls)
                                for ls in range(start, start + len(rows))])
            block += sps.fftconvolve(diffuse_td[None, :], kernels, mode="full", axes=-1)
    return VirtualLoudspeakerSignals(grid, out, field.sample_rate)


def binaural_render(vls: VirtualLoudspeakerSignals | SampleAssignment,
                    hrirs: HrirSet) -> BinauralIr:
    """Convolve every loudspeaker signal with its matching HRIR pair and sum.

    Every grid direction must have an HRIR within ``MAX_HRIR_ANGLE_DEG``;
    offenders are reported together. A ``SampleAssignment`` with few k * taps
    per loudspeaker is scattered straight to the ears, one HRIR tap at a time
    (a time-varying FIR); dense signals, and the other assignments, are
    summed over loudspeaker blocks in the frequency domain.
    """
    if vls.sample_rate != hrirs.sample_rate:
        raise ValueError(f"sample-rate mismatch: {vls.sample_rate} vs HRIRs {hrirs.sample_rate}")
    matches, angles = nearest_directions(vls.grid.directions, hrirs.directions)
    matches = matches[:, 0]
    offenders = np.nonzero(np.degrees(angles[:, 0]) > MAX_HRIR_ANGLE_DEG)[0]
    if offenders.size:
        raise MissingHrirError(offenders.tolist())

    ears = np.stack([hrirs.left[matches], hrirs.right[matches]])  # (2, speakers, taps)
    taps = ears.shape[2]
    n = len(vls)
    if isinstance(vls, SampleAssignment) and (
            vls.samples.shape[1] * taps <= _SCATTER_TAPS_PER_SPEAKER * len(vls.grid)):
        by_tap = np.ascontiguousarray(ears.transpose(0, 2, 1))  # (2, taps, speakers)
        out = np.zeros((2, n + taps - 1))
        for j in range(taps):
            out[:, j : j + n] += np.einsum("nk,enk->en", vls.samples, by_tap[:, j][:, vls.speakers])
        return BinauralIr(out, vls.sample_rate)
    nfft = sp_fft.next_fast_len(n + taps - 1, real=True)
    spectrum = np.zeros((2, nfft // 2 + 1), complex)
    for start in range(0, len(vls.grid), _SPEAKER_BLOCK):
        stop = start + _SPEAKER_BLOCK
        spectrum += np.einsum("sf,esf->ef", sp_fft.rfft(vls.rows(start, stop), nfft),
                              sp_fft.rfft(ears[:, start:stop], nfft))
    return BinauralIr(sp_fft.irfft(spectrum, nfft)[:, : n + taps - 1], vls.sample_rate)
