"""Head-related impulse response sets: container, loaders, and a synthetic
spherical-head model used wherever measured HRIRs are unavailable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import FRACTIONAL_DELAY_HALF, SPEED_OF_SOUND, place_fractional_impulses
from .grids import _unit_rows, direction_from_azel, nearest_directions
from . import wavio

#: Directions closer than this (dot product above 1 - 1e-12) count as duplicates.
_DISTINCT_ANGLE = np.arccos(1.0 - 1e-12)


@dataclass(frozen=True)
class HrirSet:
    """One left/right impulse response pair per unit direction."""

    directions: np.ndarray  # (n, 3)
    left: np.ndarray  # (n, taps)
    right: np.ndarray  # (n, taps)
    sample_rate: float

    def __post_init__(self):
        dirs = _unit_rows(self.directions)
        left = np.asarray(self.left, dtype=np.float64)
        right = np.asarray(self.right, dtype=np.float64)
        n = len(dirs)
        if left.shape != right.shape or left.ndim != 2 or left.shape[0] != n or left.shape[1] < 1:
            raise ValueError(f"left/right arrays must be (n, taps) with n = {n} "
                             f"directions and taps >= 1, got {left.shape} and {right.shape}")
        if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
            raise ValueError("HRIR taps must be finite")
        wavio.check_sample_rate(self.sample_rate)
        # Duplicate directions would make nearest-direction lookups ambiguous;
        # each direction's second-nearest is its closest other direction.
        if len(dirs) > 1 and nearest_directions(dirs, dirs, k=2)[1][:, 1].min() < _DISTINCT_ANGLE:
            raise ValueError("HRIR directions must be distinct")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __len__(self) -> int:
        return int(self.directions.shape[0])

    @property
    def length(self) -> int:
        return int(self.left.shape[1])


_EAR_AXIS_LEFT = np.array([0.0, 1.0, 0.0])
#: Sound's transit time across the 87.5 mm radius of the spherical head (s),
#: and the broadband gain of an ear facing away from the source.
_HEAD_TRANSIT_S = 0.0875 / SPEED_OF_SOUND
_SHADOW_FLOOR = 0.3


def _woodworth_delay(cos_theta: np.ndarray) -> np.ndarray:
    """Arrival-time offset of one ear relative to the head center (seconds)."""
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    ipsi = -_HEAD_TRANSIT_S * np.clip(cos_theta, 0.0, None)
    contra = _HEAD_TRANSIT_S * (theta - np.pi / 2.0)
    return np.where(cos_theta >= 0.0, ipsi, contra)


def spherical_head_hrir_set(directions: np.ndarray, sample_rate: float = 48000.0) -> HrirSet:
    """Synthetic HRIRs from a rigid-sphere delay/shadow approximation.

    Each ear receives a band-limited impulse at the Woodworth arrival time
    with a broadband gain that falls smoothly from 1 (source at the ear)
    to ``_SHADOW_FLOOR`` (source opposite the ear). Left/right symmetric, so
    frontal sources produce near-zero ITD and ILD. The responses are 128
    taps long, or as long as the latest impulse needs at high rates. This
    is deliberately a stand-in for a measured dataset: adequate for
    validating pipelines, not for listening.
    """
    dirs = _unit_rows(directions)
    wavio.check_sample_rate(sample_rate)
    # The ipsilateral ear leads the head centre by up to _HEAD_TRANSIT_S;
    # at low rates the base delay grows so that arrival stays a sample clear
    # of the interpolator's half-width instead of being dropped.
    base_delay_s = max(0.8e-3, (FRACTIONAL_DELAY_HALF + 1) / sample_rate + _HEAD_TRANSIT_S)

    cos_theta = np.stack([dirs @ _EAR_AXIS_LEFT, dirs @ -_EAR_AXIS_LEFT])  # (ears, n)
    delays = (base_delay_s + _woodworth_delay(cos_theta)) * sample_rate
    gains = _SHADOW_FLOOR + (1.0 - _SHADOW_FLOOR) * 0.5 * (1.0 + cos_theta)
    length = max(128, int(np.floor(delays.max())) + FRACTIONAL_DELAY_HALF + 1)
    banks = np.zeros((delays.size, length))
    place_fractional_impulses(banks, delays.reshape(-1, 1), gains.reshape(-1, 1))
    left, right = banks.reshape(2, -1, length)
    return HrirSet(dirs, left, right, sample_rate)


def _read_index(index_path) -> tuple[Path, list[list[str]], np.ndarray]:
    """The index CSV's path, its rows (comments and blank lines dropped) and
    their unit directions."""
    index_path = Path(index_path)
    rows = []
    with index_path.open(newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"{index_path}: line {reader.line_num}: need azimuth and "
                                 f"elevation columns, got {row}")
            rows.append([cell.strip() for cell in row])
    if not rows:
        raise ValueError(f"{index_path}: empty HRIR index")
    directions = np.array(
        [direction_from_azel(float(r[0]), float(r[1])) for r in rows]
    )
    return index_path, rows, directions


def interleaved_hrir_set(index_path, data: np.ndarray, sample_rate: float) -> HrirSet:
    """HRIRs from an index CSV of ``azimuth,elevation`` rows in channel order
    and the (channels, taps) ``data`` of one interleaved multichannel WAV,
    already read: direction i occupies channels 2i (left) and 2i+1 (right)."""
    index_path, rows, directions = _read_index(index_path)
    if data.shape[0] != 2 * len(rows):
        raise ValueError(
            f"{index_path}: expected {2 * len(rows)} WAV channels for "
            f"{len(rows)} directions, found {data.shape[0]}"
        )
    return HrirSet(directions, data[0::2], data[1::2], sample_rate)


def load_hrir_set(index_path) -> HrirSet:
    """Load HRIRs from an index CSV of ``azimuth,elevation,filename`` rows,
    one per-direction stereo WAV each, with filenames relative to the index
    file's directory. For one interleaved multichannel WAV, see
    :func:`interleaved_hrir_set`.
    """
    index_path, rows, directions = _read_index(index_path)
    lefts, rights, rate = [], [], None
    for r in rows:
        if len(r) < 3:
            raise ValueError(f"{index_path}: rows need a filename column")
        data, this_rate = wavio.read_wav(index_path.parent / r[2])
        if data.shape[0] != 2:
            raise ValueError(f"{r[2]}: HRIR files must be stereo")
        if rate is None:
            rate = this_rate
        elif this_rate != rate:
            raise ValueError(f"{r[2]}: sample rate {this_rate} != {rate}")
        lefts.append(data[0])
        rights.append(data[1])
    lengths = {arr.size for arr in lefts}
    if len(lengths) != 1:
        raise ValueError(f"{index_path}: HRIR lengths differ: {sorted(lengths)}")
    return HrirSet(directions, np.stack(lefts), np.stack(rights), rate)
