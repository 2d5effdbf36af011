"""Canonical presets: the critical-listening-room scene batch.

The room preset is a 6.2 x 5.6 x 3.4 m shoebox with uniform wall
coefficients fitted (by decay-time bisection against the simulator, not
measured) so the rendered mid-band T30 lands near 0.25 s. The six source
placements cover the azimuth/elevation layout used for the evaluation
scenes: front center through upper back left, at 2.00 m (1.92 m when
elevated).
"""

from __future__ import annotations

import numpy as np

from .arrays import MicArrayGeometry, builtin_array
from .grids import direction_from_azel
from .ism import Scene, ShoeboxRoom

APL_ROOM_DIMENSIONS = (6.2, 5.6, 3.4)
#: Fitted, not measured; see module docstring.
APL_ROOM_REFLECTION = 0.7266
#: Receiver placed off-center at listening height to avoid degenerate
#: image-source symmetries.
APL_RECEIVER_ORIGIN = (3.3, 2.6, 1.275)

#: name -> (azimuth_deg, elevation_deg, distance_m). Azimuth counts
#: counterclockwise from the front (+X), so +90 is to the left.
SCENE_POSITIONS = {
    "front_center": (0.0, 0.0, 2.0),
    "front_left": (30.0, 0.0, 2.0),
    "side_left": (90.0, 0.0, 2.0),
    "back_left": (135.0, 0.0, 2.0),
    "upper_front_left": (45.0, 45.0, 1.92),
    "upper_back_left": (135.0, 45.0, 1.92),
}

DEFAULT_SAMPLE_RATE = 48000.0
DEFAULT_GRID_SIZE = 240


def scene(name: str, receiver: MicArrayGeometry | None = None, max_order: int = 30) -> Scene:
    """One of the six preset source positions in the preset room, heard by
    ``receiver`` (om6 unless given)."""
    if name not in SCENE_POSITIONS:
        raise KeyError(
            f"unknown scene {name!r} (available: {', '.join(SCENE_POSITIONS)})"
        )
    az, el, dist = SCENE_POSITIONS[name]
    origin = np.asarray(APL_RECEIVER_ORIGIN)
    return Scene(
        room=ShoeboxRoom(dimensions=np.array(APL_ROOM_DIMENSIONS),
                         reflection_coefficients=np.full(6, APL_ROOM_REFLECTION),
                         max_order=max_order),
        source=origin + dist * direction_from_azel(az, el),
        receiver_origin=origin,
        receiver=om6() if receiver is None else receiver,
    )


def om6():
    return builtin_array("om6")


def standard_conditions(grid, hrirs, seed: int = 0) -> tuple:
    """The canonical system-condition set for comparison runs.

    Covers the evaluated system families: TDOA-driven sample mapping on the
    six-capsule open array, broadband-intensity DOA with and without a
    dedicated pressure signal, and time-frequency direct/diffuse synthesis.
    Array-on-sphere conditions use the same open-array TDOA model (no
    rigid-sphere scattering correction).
    """
    from .pipelines import SystemCondition

    common = dict(grid=grid, hrirs=hrirs, seed=seed)
    return (
        SystemCondition(id="sdm-6om1", analysis="tdoa",
                        pressure_source="channel-average", **common),
        SystemCondition(id="sdm-piv", analysis="piv-broadband",
                        pressure_source="zeroth-order", **common),
        SystemCondition(id="sdm-piv-omni", analysis="piv-broadband",
                        pressure_source="channel-average", **common),
        SystemCondition(id="sirr", analysis="tf-piv",
                        pressure_source="zeroth-order", **common),
    )
