"""Resynthesis back end: sample-to-loudspeaker mapping (SDM), direct/diffuse
time-frequency synthesis (SIRR), decorrelation, and binaural rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .doa import DoaTrajectory, TfDoaField
from .dsp import _frame_render, _hann_periodic, _window_sum, fft_convolve, istft, stft
from .errors import MissingHrirError
from .grids import LoudspeakerGrid, _check_count, _check_indices, nearest_directions
from .hrir import HrirSet
from .signals import BinauralIr, MonoIr, StftFrames
from .vbap import vbap_gain_table
from .wavio import check_sample_rate

DECORRELATOR_TAPS = 1024
#: Largest angle between a loudspeaker and the HRIR that renders it.
MAX_HRIR_ANGLE_DEG = 1.0
_FRONTAL = np.array([1.0, 0.0, 0.0])
#: Loudspeakers that :meth:`SirrStreams.rows` takes at once.
_SPEAKER_BLOCK = 16


@dataclass(frozen=True)
class SampleAssignment:
    """SDM output: pressure sample i plays ``samples[i, j]`` on loudspeaker
    ``speakers[i, j]``; both arrays are (n_samples, k)."""

    grid: LoudspeakerGrid
    speakers: np.ndarray
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        speakers = _check_indices("speakers", self.speakers, len(self.grid))
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or speakers.shape != samples.shape or not samples.shape[1]:
            raise ValueError(f"speakers/samples must be (n, k), k >= 1: "
                             f"{speakers.shape}/{samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        check_sample_rate(self.sample_rate)
        object.__setattr__(self, "speakers", speakers)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def rows(self) -> np.ndarray:
        """Every loudspeaker's dense signal, (speakers, n); repeated picks add up."""
        out = np.zeros((len(self.grid), len(self)))
        np.add.at(out, (self.speakers, np.arange(len(self))[:, None]), self.samples)
        return out

    def _segments(self, f0: int, f1: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_frame_render`'s keys and segments of blocks f0:f1 of ``size`` samples."""
        t0, t1 = f0 * size, min(f1 * size, len(self))
        block, offset = np.divmod(np.arange(t0, t1), size)
        keys = self.speakers[t0:t1] + len(self.grid) * block[:, None]
        pairs, cell = np.unique(keys.ravel(), return_inverse=True)
        signals = np.zeros((len(pairs), size))
        # A sample may pick a loudspeaker twice; its picks add up, as in rows.
        np.add.at(signals, (cell.reshape(keys.shape), offset[:, None]), self.samples[t0:t1])
        return pairs, signals


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


def decorrelation_kernel(seed: int, channel_index: int | range) -> np.ndarray:
    """Deterministic unit-magnitude random-phase FIR of ``DECORRELATOR_TAPS``
    taps, unit tap energy. A sequence of channel indices gives their kernels,
    (channels, taps), through one batched transform: each with its own bytes.
    ``seed`` must lie in [0, 2**32), and channel indices be integers >= 0."""
    _check_count("seed", seed, 0, 2**32 - 1)
    channels = _check_indices("channel_index", channel_index)
    phases = np.stack([np.random.default_rng([int(seed), int(ls)]).uniform(
        0.0, 2.0 * np.pi, DECORRELATOR_TAPS // 2 + 1) for ls in channels.reshape(-1)])
    phases[:, [0, -1]] = 0.0  # DC and Nyquist must stay real
    kernels = np.fft.irfft(np.exp(1j * phases), n=DECORRELATOR_TAPS)
    return kernels.reshape(*channels.shape, DECORRELATOR_TAPS)


@dataclass(frozen=True)
class SirrStreams:
    """SIRR output in the STFT layout of its (frames, bins) ``diffuse`` bins:
    per bin, the VBAP triangle ``speakers`` and its complex direct amplitudes
    ``samples``, both (frames, bins, 3), and the diffuse bin, played by
    loudspeaker l through ``decorrelation_kernel(seed, l)``."""

    grid: LoudspeakerGrid
    speakers: np.ndarray
    samples: np.ndarray
    diffuse: StftFrames
    seed: int

    def __post_init__(self):
        if not isinstance(self.diffuse, StftFrames):
            raise ValueError(f"diffuse must be an StftFrames, got {type(self.diffuse).__name__}")
        speakers = _check_indices("speakers", self.speakers, len(self.grid))
        samples = np.asarray(self.samples, dtype=np.complex128)
        shape = self.diffuse.values.shape
        if len(shape) != 2 or not speakers.shape == samples.shape == (*shape, 3):
            raise ValueError("speakers, samples and diffuse do not share one STFT layout")
        if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(self.diffuse.values))):
            raise ValueError("direct amplitudes and diffuse bins must be finite")
        _check_count("seed", self.seed, 0, 2**32 - 1)
        if np.any(np.diff(np.sort(speakers, axis=-1)) == 0):  # each bin's cells are set once
            raise ValueError("speakers must be three distinct loudspeakers per bin")
        object.__setattr__(self, "speakers", speakers)
        object.__setattr__(self, "samples", samples)

    @property
    def sample_rate(self) -> float:
        return self.diffuse.sample_rate

    def __len__(self) -> int:
        layout = self.diffuse
        return (layout.frame_count - 1) * layout.hop + layout.window_size + DECORRELATOR_TAPS - 1

    def rows(self) -> np.ndarray:
        """Every loudspeaker's signal, (speakers, len(self)), written
        ``_SPEAKER_BLOCK`` loudspeakers at a time."""
        count, diffuse = len(self.grid), istft(self.diffuse)
        out = np.zeros((count, len(self)))
        for first in range(0, count, _SPEAKER_BLOCK):
            last = min(first + _SPEAKER_BLOCK, count)
            values = np.zeros((last - first, *self.diffuse.values.shape), complex)
            hit = (self.speakers >= first) & (self.speakers < last)
            values[(self.speakers[hit] - first, *np.nonzero(hit)[:2])] = self.samples[hit]
            out[first:last, : diffuse.size] = istft(replace(self.diffuse, values=values))
            out[first:last] += fft_convolve(diffuse,
                                            decorrelation_kernel(self.seed, range(first, last)))
        return out

    def _segments(self, f0: int, f1: int, divisor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_frame_render`'s keys and segments of STFT frames f0:f1: each pair's
        inverse transform times the Hann window over :func:`istft`'s ``divisor``."""
        bins, size, hop = self.samples.shape[1], self.diffuse.window_size, self.diffuse.hop
        count = len(self.grid)
        keys = self.speakers[f0:f1] + count * np.arange(f0, f1)[:, None, None]
        pairs, cell = np.unique(keys.ravel(), return_inverse=True)
        values = np.zeros((len(pairs), bins), complex)
        values[cell.reshape(keys.shape), np.arange(bins)[:, None]] = self.samples[f0:f1]
        signals = np.fft.irfft(values, size)
        signals *= _hann_periodic(size) / divisor[pairs[:, None] // count * hop + np.arange(size)]
        return pairs, signals


def sirr_synthesize(pressure: MonoIr, field: TfDoaField,
                    grid: LoudspeakerGrid, seed: int = 0) -> SirrStreams:
    """Direct/diffuse time-frequency synthesis.

    ``pressure`` is transformed in the field's STFT layout, whose rate and
    (frames, bins) it must match. Per bin, sqrt(1 - psi) * P is panned with
    VBAP at the bin direction and sqrt(psi) * P / sqrt(L) is the diffuse bin
    every loudspeaker plays through its own energy-preserving decorrelator:
    ``sum |samples|^2 + L * |diffuse|^2 == |P|^2`` per bin before decorrelation.
    """
    if pressure.sample_rate != field.sample_rate:
        raise ValueError(f"sample-rate mismatch: {pressure.sample_rate} vs {field.sample_rate}")
    frames = stft(pressure.samples, pressure.sample_rate, field.window_size, field.hop)
    values = frames.values
    if values.shape != field.psi.shape:
        raise ValueError(f"pressure frames {values.shape} do not match field {field.psi.shape}")
    speakers, gains = vbap_gain_table(field.directions.reshape(-1, 3), grid)  # (tf, 3) each
    direct = gains.reshape(*values.shape, 3) * (np.sqrt(1.0 - field.psi) * values)[..., None]
    diffuse = replace(frames, values=np.sqrt(field.psi) * values / np.sqrt(len(grid)))
    return SirrStreams(grid, speakers.reshape(*values.shape, 3), direct, diffuse, seed)


def binaural_render(vls: SirrStreams | SampleAssignment, hrirs: HrirSet) -> BinauralIr:
    """Convolve every loudspeaker signal with its matching HRIR pair and sum.

    Every grid direction must have an HRIR within ``MAX_HRIR_ANGLE_DEG``;
    offenders are reported together. :func:`_frame_render` renders SIRR's
    direct stream in its STFT frames and an assignment in blocks of half the
    HRIR length; SIRR's diffuse bins are transformed back once and go through
    one filter per ear, each HRIR convolved with its decorrelator, summed:
    one frame whose keys are the loudspeakers and whose segments their kernels.
    """
    if vls.sample_rate != hrirs.sample_rate:
        raise ValueError(f"sample-rate mismatch: {vls.sample_rate} vs HRIRs {hrirs.sample_rate}")
    matches, angles = nearest_directions(vls.grid.directions, hrirs.directions)
    matches = matches[:, 0]
    offenders = np.nonzero(np.degrees(angles[:, 0]) > MAX_HRIR_ANGLE_DEG)[0]
    if offenders.size:
        raise MissingHrirError(offenders.tolist())

    ears = np.stack([hrirs.left[matches], hrirs.right[matches]])  # (2, speakers, taps)
    n = len(vls) + ears.shape[2] - 1
    if isinstance(vls, SirrStreams):
        (frames, bins), size, hop = vls.samples.shape[:2], vls.diffuse.window_size, vls.diffuse.hop
        divisor = _window_sum(size, hop, frames)
        out = _frame_render(lambda f0, f1: vls._segments(f0, f1, divisor), ears, frames, size,
                            hop, 3 * bins, n)
        if np.any(vls.diffuse.values):  # sum_l h_l * (x * d_l) == x * (sum_l h_l * d_l)
            count = len(vls.grid)
            kernels = decorrelation_kernel(vls.seed, range(count))
            filters = _frame_render(lambda f0, f1: (np.arange(count), kernels), ears, 1,
                                    DECORRELATOR_TAPS, DECORRELATOR_TAPS, count,
                                    DECORRELATOR_TAPS + ears.shape[2] - 1)
            out += fft_convolve(istft(vls.diffuse), filters)
    else:
        # A block's pairs grow with its size up to L, each pair's transform with size
        # + taps. At 128 taps 32-64 tied as the fastest of 16-128 on the benchmark's
        # SDM; at 512 taps on 20-60 loudspeakers 256 took a third of 64's time.
        size = -(-ears.shape[2] // 2)
        out = _frame_render(lambda f0, f1: vls._segments(f0, f1, size), ears,
                            -(-len(vls) // size), size, size, vls.samples.shape[1] * size, n)
    return BinauralIr(out, vls.sample_rate)

