"""Vector base amplitude panning over triangulated loudspeaker grids."""

from __future__ import annotations

import numpy as np

from .grids import LoudspeakerGrid, _check_unit

_NEGATIVE_GAIN_TOL = -1e-6


def _best_triangles(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """For each direction pick the hull triangle whose gains are most inside.

    Returns (triangle_index, raw_gains) with shapes (n,) and (n, 3). The
    max-of-min-gain selection doubles as the re-search across adjacent
    triangles when a candidate produces negative gains.
    """
    inv = grid.triangle_basis_inverses  # (m, 3, 3)
    best_idx = np.empty(directions.shape[0], dtype=np.intp)
    best_gains = np.empty((directions.shape[0], 3))
    chunk = max(1, int(4_000_000 / max(1, inv.shape[0])))
    for start in range(0, directions.shape[0], chunk):
        block = directions[start : start + chunk]  # (b, 3)
        gains = np.einsum("mij,bj->bmi", inv, block)  # (b, m, 3)
        min_gain = gains.min(axis=2)  # (b, m)
        pick = np.argmax(min_gain, axis=1)
        rows = np.arange(block.shape[0])
        best_idx[start : start + chunk] = pick
        best_gains[start : start + chunk] = gains[rows, pick]
    return best_idx, best_gains


def vbap_gain_table(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pan each unit direction onto the grid triangle that encloses it.

    Returns (speaker_indices, gains), both shaped (n, 3); gains are clipped
    at zero and unit-normalized per row. Raises ``ValueError`` for a row
    that is not a unit vector, or that no triangle encloses (the grid does
    not cover the sphere).
    """
    dirs = _check_unit(directions, tol=1e-6)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    tri_idx, raw = _best_triangles(dirs, grid)
    uncovered = np.nonzero(raw.min(axis=1) < _NEGATIVE_GAIN_TOL)[0]
    if uncovered.size:
        row = uncovered[0]
        raise ValueError(
            f"no triangle encloses direction {dirs[row]} (best gains {raw[row]}); "
            "grid does not cover the sphere"
        )
    gains = np.clip(raw, 0.0, None)
    return grid.triangles[tri_idx], gains / np.linalg.norm(gains, axis=1, keepdims=True)
