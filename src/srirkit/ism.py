"""Shoebox image-source simulator used as the ground-truth oracle.

Reflections are frequency- and angle-independent (one coefficient per wall),
with no air absorption: the simulator exists to give the analysis and
synthesis stages scenes with exactly known geometry, not to be a room
acoustics product. Arrival times are sub-sample exact via windowed-sinc
fractional delays. A render whose direct (order-0) arrival does not fit
raises :class:`~srirkit.errors.LostDirectPathError`; later arrivals that do
not fit are dropped and counted in a ``TruncatedResponseWarning``. Files
belong to :mod:`srirkit.cli`: it reads and writes scene files and writes
the image list as CSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .arrays import MicArrayGeometry, builtin_array
from .dsp import (FRACTIONAL_DELAY_HALF, SPEED_OF_SOUND, _frame_render, impulse_fits,
                  place_fractional_impulses)
from .errors import LostDirectPathError, TruncatedResponseWarning
from .grids import _check_count, nearest_directions
from .hrir import HrirSet
from .signals import BinauralIr, FoaSignal, MultichannelIr


@dataclass(frozen=True)
class ShoeboxRoom:
    """Axis-aligned room with per-wall reflection coefficients.

    ``reflection_coefficients`` order: (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz).
    """

    dimensions: np.ndarray
    reflection_coefficients: np.ndarray
    max_order: int = 10

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        coeffs = np.asarray(self.reflection_coefficients, dtype=np.float64)
        # Positive tests throughout: NaN fails every comparison, so it cannot pass.
        if dims.shape != (3,) or not np.all((dims > 0) & np.isfinite(dims)):
            raise ValueError(f"dimensions must be three positive finite lengths, got {dims}")
        if coeffs.shape != (6,) or not np.all((coeffs >= 0) & (coeffs <= 1)):
            raise ValueError(f"reflection_coefficients must be six values in [0, 1], got {coeffs}")
        _check_count("max_order", self.max_order, 0)
        object.__setattr__(self, "max_order", int(self.max_order))
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "reflection_coefficients", coeffs)


@dataclass(frozen=True)
class Scene:
    """A source and a receiver array inside a shoebox room.

    ``receiver`` is the microphone array centred on ``receiver_origin``
    (om6 unless given).
    """

    room: ShoeboxRoom
    source: np.ndarray
    receiver_origin: np.ndarray
    receiver: MicArrayGeometry = field(default_factory=lambda: builtin_array("om6"))

    def __post_init__(self):
        points = []
        for name in ("source", "receiver_origin"):
            try:
                p = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
            if p.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {p.shape}")
            if not np.all((p > 0) & (p < self.room.dimensions)):
                raise ValueError(f"{name} must lie strictly inside the room, got {p}")
            points.append(p)
        src, origin = points
        if np.allclose(src, origin):
            raise ValueError("source must differ from receiver_origin")
        if not isinstance(self.receiver, MicArrayGeometry):
            raise ValueError(
                f"receiver must be a MicArrayGeometry, got {type(self.receiver).__name__}"
            )
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "receiver_origin", origin)


@dataclass(frozen=True)
class ImageSourceList:
    """Mirror images sorted by arrival time at the receiver origin."""

    positions: np.ndarray  # (k, 3) meters
    amplitudes: np.ndarray  # (k,) wall product / distance
    delays: np.ndarray  # (k,) seconds
    directions: np.ndarray  # (k, 3) unit, receiver -> image
    orders: np.ndarray  # (k,) reflection counts
    receiver_origin: np.ndarray

    def __len__(self) -> int:
        return int(self.delays.size)

    @property
    def wall_products(self) -> np.ndarray:
        """Accumulated wall coefficients (amplitude with the 1/r removed)."""
        return self.amplitudes * self.delays * SPEED_OF_SOUND


def _axis_images(source_coord: float, length: float, max_order: int) -> tuple:
    """Per-axis image coordinates with wall-hit counts, order <= max_order."""
    coords, hits0, hits1, orders = [], [], [], []
    m_range = max_order // 2 + 2
    for m in range(-m_range, m_range + 1):
        for p in (0, 1):
            order = abs(m - p) + abs(m)
            if order > max_order:
                continue
            coords.append((1 - 2 * p) * source_coord + 2.0 * m * length)
            hits0.append(abs(m - p))
            hits1.append(abs(m))
            orders.append(order)
    return (np.array(coords), np.array(hits0), np.array(hits1), np.array(orders))


def enumerate_images(scene: Scene) -> ImageSourceList:
    """All mirror images of the source up to the room's max_order.

    Amplitude is the product of the wall coefficients along the reflection
    path divided by the travel distance; the direct path has order 0.
    """
    room = scene.room
    per_axis = [
        _axis_images(scene.source[a], room.dimensions[a], room.max_order)
        for a in range(3)
    ]
    cx, h0x, h1x, ox = per_axis[0]
    cy, h0y, h1y, oy = per_axis[1]
    cz, h0z, h1z, oz = per_axis[2]

    order = ox[:, None, None] + oy[None, :, None] + oz[None, None, :]
    keep = order <= room.max_order
    ix, iy, iz = np.nonzero(keep)

    positions = np.stack([cx[ix], cy[iy], cz[iz]], axis=1)
    beta = room.reflection_coefficients
    wall_product = (
        beta[0] ** h0x[ix] * beta[1] ** h1x[ix]
        * beta[2] ** h0y[iy] * beta[3] ** h1y[iy]
        * beta[4] ** h0z[iz] * beta[5] ** h1z[iz]
    )
    offsets = positions - scene.receiver_origin
    distances = np.linalg.norm(offsets, axis=1)
    delays = distances / SPEED_OF_SOUND
    amplitudes = wall_product / distances
    directions = offsets / distances[:, None]
    orders = order[keep]

    sorting = np.lexsort((orders, delays))
    return ImageSourceList(
        positions=positions[sorting],
        amplitudes=amplitudes[sorting],
        delays=delays[sorting],
        directions=directions[sorting],
        orders=orders[sorting],
        receiver_origin=scene.receiver_origin.copy(),
    )


def _require_direct(images: ImageSourceList, delays_samples: np.ndarray,
                    length: int, where: str) -> None:
    """Raise unless the direct arrival fits in every row; ``{}`` in ``where`` names the row."""
    direct = np.atleast_2d(delays_samples)[:, images.orders == 0]
    lost = np.nonzero(~impulse_fits(direct, length).all(axis=1))[0]
    if lost.size:
        raise LostDirectPathError(
            f"direct path lost while rendering {where.format(lost[0])}: it arrives at "
            f"sample {direct[lost[0], 0]:.1f}, too close to an end of the {length}-sample buffer"
        )


def _warn_truncated(count: int, where: str) -> None:
    if count:
        warnings.warn(
            f"{count} image arrivals truncated while rendering {where}",
            TruncatedResponseWarning,
            stacklevel=3,
        )


def render_array_srir(images: ImageSourceList, geometry: MicArrayGeometry,
                      sample_rate: float, length: int) -> MultichannelIr:
    """Open-array SRIR: per capsule, every image lands at its exact
    distance-derived fractional delay with a 1/r amplitude."""
    capsules = (images.receiver_origin + geometry.positions)[:, None]
    dist = np.linalg.norm(images.positions - capsules, axis=2)  # (capsules, k)
    delays = dist / SPEED_OF_SOUND * sample_rate
    _require_direct(images, delays, length, "array SRIR capsule {}")
    out = np.zeros((geometry.capsule_count, length))
    truncated = place_fractional_impulses(out, delays, images.wall_products / dist,
                                          _polynomial=True)
    _warn_truncated(truncated, "array SRIR")
    return MultichannelIr(out, sample_rate)


def render_foa_srir(images: ImageSourceList, sample_rate: float, length: int) -> FoaSignal:
    """Ideal coincident first-order receiver at the origin (sn3d-mic).

    w collects each image's pressure impulse; x, y, z weight it by the
    toward-image direction components.
    """
    delays = images.delays * sample_rate
    _require_direct(images, delays, length, "FOA SRIR")
    # One (4, k) amplitude matrix, so each arrival's kernel is built once.
    amps = images.amplitudes * np.vstack([np.ones(len(images)), images.directions.T])
    out = np.zeros((4, length))
    truncated = place_fractional_impulses(out, delays, amps)
    _warn_truncated(truncated, "FOA SRIR")
    return FoaSignal(out, sample_rate)


def render_reference_brir(images: ImageSourceList, hrirs: HrirSet,
                          sample_rate: float, length: int) -> BinauralIr:
    """Nearest-HRIR reference rendering.

    Each image contributes its amplitude at its fractional delay through the
    HRIR pair closest to its direction; the result is the sum, with length
    ``length + hrir_taps - 1``. It is rendered on the frame renderer that
    ``binaural_render`` uses, at a hop of 4 * taps samples: an arrival goes
    whole into the segment of its HRIR direction in the frame where its
    support starts, at its delay less the frame's start, which is exact.
    """
    if hrirs.sample_rate != sample_rate:
        raise ValueError(
            f"HRIR sample rate {hrirs.sample_rate} != render rate {sample_rate}"
        )
    matches = nearest_directions(images.directions, hrirs.directions)[0][:, 0]
    delays = images.delays * sample_rate
    _require_direct(images, delays, length, "reference BRIR")
    fits = impulse_fits(delays, length)
    used, row = np.unique(matches[fits], return_inverse=True)
    hop = 4 * hrirs.length
    size = hop + 2 * FRACTIONAL_DELAY_HALF + 1  # a frame's arrivals' whole support
    frame = (np.floor(delays[fits]).astype(np.int64) - FRACTIONAL_DELAY_HALF) // hop
    order = np.argsort(frame, kind="stable")
    frame, row = frame[order], row[order]
    delays, amplitudes = delays[fits][order] - frame * hop, images.amplitudes[fits][order]

    def segments(f0, f1):  # each (frame, direction) key's arrivals, placed at once
        sel = slice(*np.searchsorted(frame, (f0, f1)))
        keys, cell = np.unique(frame[sel] * used.size + row[sel], return_inverse=True)
        signals = np.zeros((keys.size, size))
        place_fractional_impulses(signals, delays[sel], amplitudes[sel], rows=cell, _polynomial=True)
        return keys, signals

    ears = _frame_render(segments, np.stack([hrirs.left[used], hrirs.right[used]]),
                         -(-length // hop), size, hop, used.size, length + hrirs.length - 1)
    _warn_truncated(fits.size - np.count_nonzero(fits), "reference BRIR")
    return BinauralIr(ears, sample_rate)
