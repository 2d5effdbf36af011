"""Microphone array geometries and the first-order signal convention.

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

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class MicArrayGeometry:
    """Capsule positions in meters, centered on the array origin."""

    positions: np.ndarray
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
        object.__setattr__(self, "positions", pos)

    @property
    def capsule_count(self) -> int:
        return int(self.positions.shape[0])


#: om6's capsules, +/-50 mm on each axis; a tuple, so each geometry gets its own array.
_OM6_POSITIONS = ((0.05, 0.0, 0.0), (-0.05, 0.0, 0.0), (0.0, 0.05, 0.0),
                  (0.0, -0.05, 0.0), (0.0, 0.0, 0.05), (0.0, 0.0, -0.05))


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
        return MicArrayGeometry(positions=_OM6_POSITIONS, name="om6")
    if name == "sphere32":
        pos = _pentakis_dodecahedron(0.042)
        return MicArrayGeometry(
            positions=pos,
            name="sphere32",
        )
    raise KeyError(f"unknown built-in array {name!r} (available: om6, sphere32)")
