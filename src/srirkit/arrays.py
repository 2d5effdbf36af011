"""Microphone array geometries and first-order encoding from open arrays.

The first-order signal convention used throughout the package ("sn3d-mic"):
w is the omnidirectional pressure; x, y, z are dipole components with unit
on-axis gain (SN3D weighting), oriented so a source on the +X axis produces
an x channel in phase with w. Particle velocity is proportional to the
NEGATIVE of (x, y, z), so the acoustic intensity w * v points away from the
source and direction-of-arrival estimates negate it to point toward the
source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGeometryError
from .signals import FoaSignal, MultichannelIr

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
#: Corner of the roll-off that bounds the dipole integration's low-frequency gain.
_ENCODER_HIGHPASS_HZ = 50.0


@dataclass(frozen=True)
class MicArrayGeometry:
    """Capsule positions in meters, centered on the array origin."""

    positions: np.ndarray
    center_index: int | None = None
    name: str = "custom"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {pos.shape}")
        if pos.shape[0] < 4:
            raise ValueError("need at least 4 capsules for 3-D DOA")
        centered = pos - pos.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 3:
            raise ValueError("capsule positions are coplanar; 3-D DOA impossible")
        if np.linalg.norm(pos.mean(axis=0)) > 1e-3:
            raise ValueError("capsule centroid must lie within 1 mm of the origin")
        if self.center_index is not None and not (0 <= self.center_index < pos.shape[0]):
            raise ValueError(f"center_index {self.center_index} out of range")
        object.__setattr__(self, "positions", pos)

    @property
    def capsule_count(self) -> int:
        return int(self.positions.shape[0])


def _om6_positions(spacing: float = 0.1) -> np.ndarray:
    half = spacing / 2.0
    return np.array(
        [
            [half, 0.0, 0.0],
            [-half, 0.0, 0.0],
            [0.0, half, 0.0],
            [0.0, -half, 0.0],
            [0.0, 0.0, half],
            [0.0, 0.0, -half],
        ]
    )


def _pentakis_dodecahedron(radius: float) -> np.ndarray:
    # 12 icosahedron + 20 dodecahedron vertices, all pushed to the sphere.
    # Antipodally symmetric, so the centroid is exactly at the origin.
    g = _GOLDEN
    ico = []
    for a in (-1.0, 1.0):
        for b in (-g, g):
            ico += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    dod = [[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)]
    for a in (-1.0 / g, 1.0 / g):
        for b in (-g, g):
            dod += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    pts = np.array(ico + dod)
    return radius * pts / np.linalg.norm(pts, axis=1, keepdims=True)


def builtin_array(name: str) -> MicArrayGeometry:
    """Named built-in geometries.

    ``om6``: six omni capsules at +/-50 mm on each axis (100 mm spacing),
    usable for TDOA up to roughly 2.4 kHz. ``sphere32``: 32 capsules on a
    42 mm sphere in a near-uniform pentakis-dodecahedron layout, treated as
    an open array (no scattering model).
    """
    if name == "om6":
        return MicArrayGeometry(
            positions=_om6_positions(),
            name="om6",
        )
    if name == "sphere32":
        pos = _pentakis_dodecahedron(0.042)
        return MicArrayGeometry(
            positions=pos,
            name="sphere32",
        )
    raise KeyError(f"unknown built-in array {name!r} (available: om6, sphere32)")


def _axis_pairs(geometry: MicArrayGeometry) -> list[tuple[int, int, float]]:
    """(plus, minus, spacing) per axis for arrays with opposing capsules."""
    pos = geometry.positions
    pairs = []
    for axis in range(3):
        on = pos[:, axis]
        off = np.delete(pos, axis, axis=1)
        candidates = np.nonzero(
            (np.abs(off).max(axis=1) < 1e-6) & (np.abs(on) > 1e-4)
        )[0]
        plus = [i for i in candidates if on[i] > 0]
        minus = [i for i in candidates if on[i] < 0]
        if len(plus) != 1 or len(minus) != 1:
            raise UnsupportedGeometryError(
                f"no opposing capsule pair on axis {axis}; "
                "gradient encoding needs an om6-like layout"
            )
        i_plus, i_minus = plus[0], minus[0]
        if abs(on[i_plus] + on[i_minus]) > 1e-6:
            raise UnsupportedGeometryError(f"axis-{axis} pair is not symmetric")
        pairs.append((i_plus, i_minus, float(on[i_plus] - on[i_minus])))
    return pairs


def encode_foa_open_array(srir: MultichannelIr, geometry: MicArrayGeometry) -> FoaSignal:
    """First-order encoding from an open array with opposing axis pairs.

    W is the center capsule when the geometry declares one, otherwise the
    average of all capsules. Each dipole is the difference of the opposing
    pair, integrated in the frequency domain (c / (j*omega*d)) so that a
    plane wave from +X yields an x channel in phase with w. A smooth
    second-order roll-off below ``_ENCODER_HIGHPASS_HZ`` bounds the noise
    amplification of the integration; the encoding is only meaningful below
    the array's aliasing frequency.
    """
    if srir.channel_count != geometry.capsule_count:
        raise ValueError(
            f"SRIR has {srir.channel_count} channels but geometry has "
            f"{geometry.capsule_count} capsules"
        )
    pairs = _axis_pairs(geometry)
    data = srir.samples
    rate = srir.sample_rate
    n = data.shape[1]

    if geometry.center_index is not None:
        w = data[geometry.center_index]
    else:
        w = data.mean(axis=0)

    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / rate)
    taper = freqs**2 / (freqs**2 + _ENCODER_HIGHPASS_HZ**2)

    dipoles = []
    for i_plus, i_minus, spacing in pairs:
        diff = data[i_plus] - data[i_minus]
        spectrum = np.fft.rfft(diff, n=nfft)
        gain = np.zeros_like(spectrum)
        gain[1:] = 343.0 / (2j * np.pi * freqs[1:] * spacing) * taper[1:]
        dipoles.append(np.fft.irfft(spectrum * gain, n=nfft)[:n])

    return FoaSignal(np.stack([w, *dipoles]), rate)
