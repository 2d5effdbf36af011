"""Core signal containers.

Every container holds one validated float64 ``samples`` array and one
``sample_rate``: (n,) for :class:`MonoIr`, (channels, n) for the
multichannel ones. They are immutable after construction; operations
elsewhere in the package treat them as values and never mutate the
underlying arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _check_count
from .wavio import check_sample_rate


@dataclass(frozen=True)
class _Signal:
    """Validation and the operations every container shares."""

    samples: np.ndarray
    sample_rate: float

    _NDIM = 1  # dimensions of ``samples``
    _CHANNELS = None  # fixed channel count, if the class has one

    def __post_init__(self):
        arr = np.require(self.samples, np.float64, "C")  # no copy for C-ordered float64
        name = type(self).__name__
        if arr.ndim != self._NDIM:
            raise ValueError(f"{name} needs a {self._NDIM}-D sample array, got shape {arr.shape}")
        if self._CHANNELS is not None and arr.shape[0] != self._CHANNELS:
            raise ValueError(f"{name} needs {self._CHANNELS} channels, got {arr.shape[0]}")
        if arr.size < 1:
            raise ValueError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal contains non-finite samples")
        check_sample_rate(self.sample_rate)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.shape[-1])

    def scaled(self, gain: float):
        """The same signal times ``gain``, of the caller's own type."""
        return type(self)(self.samples * float(gain), self.sample_rate)


class MonoIr(_Signal):
    """Single-channel impulse response (or any sampled signal), shape (n,)."""


class MultichannelIr(_Signal):
    """One impulse response per channel (e.g. per microphone capsule),
    shape (channels, n): every channel shares one rate and one length."""

    _NDIM = 2

    @property
    def channel_count(self) -> int:
        return int(self.samples.shape[0])


def _row(index: int) -> property:
    """Channel ``index`` as a read-only MonoIr view of that row (no copy)."""
    return property(lambda self: MonoIr(self.samples[index], self.sample_rate))


class BinauralIr(MultichannelIr):
    """Left/right impulse response pair (a BRIR once rendered), shape (2, n)."""

    _CHANNELS = 2
    left, right = _row(0), _row(1)


class FoaSignal(MultichannelIr):
    """First-order (W, X, Y, Z) signal set, shape (4, n); see
    :mod:`srirkit.arrays` for the sign convention."""

    _CHANNELS = 4
    w, x, y, z = _row(0), _row(1), _row(2), _row(3)


def _check_stft_layout(window_size: int, hop: int) -> None:
    """The layout rule of every STFT here: ``window_size`` and ``hop`` are
    integers and ``hop`` divides ``window_size`` at least twice, so the
    periodic Hann window overlap-adds to a constant."""
    _check_count("window_size", window_size, 0)
    _check_count("hop", hop, 0)
    if hop <= 0 or window_size % hop or window_size // hop < 2:
        raise ValueError(f"hop {hop} must divide window_size {window_size} at least twice")


@dataclass(frozen=True)
class StftFrames:
    """Complex STFT frames, shape (..., n_frames, n_bins).

    Leading axes index channels that share one layout. ``n_bins`` equals
    ``window_size // 2 + 1`` (one-sided spectrum); frame i covers samples
    ``[i * hop, i * hop + window_size)`` of the source signal; ``hop`` divides
    ``window_size`` at least twice.
    """

    values: np.ndarray
    window_size: int
    hop: int
    sample_rate: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim < 2:
            raise ValueError(f"frames must be at least 2-D, got shape {vals.shape}")
        _check_stft_layout(self.window_size, self.hop)
        if vals.shape[-1] != self.window_size // 2 + 1:
            raise ValueError(
                f"bin count {vals.shape[-1]} does not match window size "
                f"{self.window_size} (expected {self.window_size // 2 + 1})"
            )
        check_sample_rate(self.sample_rate)
        object.__setattr__(self, "values", vals)

    @property
    def frame_count(self) -> int:
        return int(self.values.shape[-2])
