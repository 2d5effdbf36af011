"""Core signal containers.

All containers are immutable after construction and hold float64 sample
data; operations elsewhere in the package treat them as values and never
mutate the underlying arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_samples(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample array, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("signal must contain at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains non-finite samples")
    return arr


@dataclass(frozen=True)
class MonoIr:
    """Single-channel impulse response (or any sampled signal)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def scaled(self, gain: float) -> "MonoIr":
        return MonoIr(self.samples * float(gain), self.sample_rate)


@dataclass(frozen=True)
class MultichannelIr:
    """One impulse response per microphone capsule, sharing rate and length.

    ``geometry_id`` optionally names the :class:`~srirkit.arrays.MicArrayGeometry`
    the channels were captured with; when set, ``capsule_count`` must match.
    """

    channels: tuple
    geometry_id: str | None = None

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("MultichannelIr needs at least one channel")
        rate = chans[0].sample_rate
        length = len(chans[0])
        for ch in chans[1:]:
            if ch.sample_rate != rate:
                raise ValueError("all channels must share one sample rate")
            if len(ch) != length:
                raise ValueError("all channels must share one length")
        object.__setattr__(self, "channels", chans)

    def __len__(self) -> int:
        return len(self.channels[0])

    @property
    def sample_rate(self) -> float:
        return self.channels[0].sample_rate

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def as_matrix(self) -> np.ndarray:
        """Channel-major (n_channels, n_samples) copy of the sample data."""
        return np.stack([ch.samples for ch in self.channels])


@dataclass(frozen=True)
class BinauralIr:
    """Left/right impulse response pair (a BRIR once rendered)."""

    left: MonoIr
    right: MonoIr

    def __post_init__(self):
        if self.left.sample_rate != self.right.sample_rate:
            raise ValueError("left/right sample rates differ")
        if len(self.left) != len(self.right):
            raise ValueError("left/right lengths differ")

    def __len__(self) -> int:
        return len(self.left)

    @property
    def sample_rate(self) -> float:
        return self.left.sample_rate

    def as_matrix(self) -> np.ndarray:
        return np.stack([self.left.samples, self.right.samples])


@dataclass(frozen=True)
class StftFrames:
    """Complex STFT frames, shape (..., n_frames, n_bins).

    Leading axes index channels that share one layout. ``n_bins`` equals
    ``window_size // 2 + 1`` (one-sided spectrum); frame i covers samples
    ``[i * hop, i * hop + window_size)`` of the source signal.
    """

    values: np.ndarray
    window_size: int
    hop: int
    sample_rate: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim < 2:
            raise ValueError(f"frames must be at least 2-D, got shape {vals.shape}")
        if vals.shape[-1] != self.window_size // 2 + 1:
            raise ValueError(
                f"bin count {vals.shape[-1]} does not match window size "
                f"{self.window_size} (expected {self.window_size // 2 + 1})"
            )
        if not (0 < self.hop <= self.window_size):
            raise ValueError("hop must satisfy 0 < hop <= window_size")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be > 0")
        object.__setattr__(self, "values", vals)

    @property
    def frame_count(self) -> int:
        return int(self.values.shape[-2])

    @property
    def bin_count(self) -> int:
        return int(self.values.shape[-1])
