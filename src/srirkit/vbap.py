"""Vector base amplitude panning over triangulated loudspeaker grids."""

from __future__ import annotations

import numpy as np

from .grids import LoudspeakerGrid, _unit_rows, nearest_directions

_NEGATIVE_GAIN_TOL = -1e-6
#: A nearest-vertex triangle with all raw gains at least this encloses its
#: direction strictly; other rows (edge near-ties, misses) take the full search.
_LOCAL_MIN_GAIN = 1e-9
#: (direction, triangle) pairs either search evaluates at once, bounding memory.
_BLOCK_ENTRIES = 1_000_000


def _best_triangles(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Search every triangle: for each direction, the one whose smallest raw
    gain is largest, as (triangle_index (n,), raw_gains (n, 3))."""
    inv = grid.triangle_basis_inverses  # (m, 3, 3)
    best_idx, best_gains = np.empty(len(directions), dtype=np.intp), np.empty((len(directions), 3))
    chunk = max(1, _BLOCK_ENTRIES // max(1, inv.shape[0]))
    for start in range(0, directions.shape[0], chunk):
        gains = np.einsum("mij,bj->bmi", inv, directions[start : start + chunk])  # (b, m, 3)
        pick = np.argmax(gains.min(axis=2), axis=1)
        best_idx[start : start + chunk] = pick
        best_gains[start : start + chunk] = gains[np.arange(pick.size), pick]
    return best_idx, best_gains


def _enclosing_triangles(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_best_triangles`, searching first only the triangles around each
    direction's nearest vertex; same (triangle_index, raw_gains) bits."""
    near = nearest_directions(directions, grid.directions)[0][:, 0]
    tri_idx, raw = np.empty(len(directions), dtype=np.intp), np.empty((len(directions), 3))
    rows = max(1, _BLOCK_ENTRIES // (9 * grid.vertex_triangles.shape[1]))
    for start in range(0, directions.shape[0], rows):
        part = slice(start, start + rows)
        candidates = grid.vertex_triangles[near[part]]  # (b, w)
        bases = grid.triangle_basis_inverses[candidates]  # (b, w, 3, 3)
        gains = np.einsum("bwij,bj->bwi", bases, directions[part])
        min_gain = np.where(candidates >= 0, gains.min(axis=2), -np.inf)
        pick = np.argmax(min_gain, axis=1)  # rows ascend, so ties keep the lower index
        block = np.arange(pick.size)
        tri_idx[part], raw[part] = candidates[block, pick], gains[block, pick]
    redo = raw.min(axis=1) < _LOCAL_MIN_GAIN
    tri_idx[redo], raw[redo] = _best_triangles(directions[redo], grid)
    return tri_idx, raw


def vbap_gain_table(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pan each unit direction onto the grid triangle that encloses it.

    Returns (speaker_indices, gains), both shaped (n, 3); gains are clipped
    at zero and unit-normalized per row. Raises ``ValueError`` for a row
    that is not a unit vector, or that no triangle encloses (the grid does
    not cover the sphere).
    """
    dirs = _unit_rows(directions)
    tri_idx, raw = _enclosing_triangles(dirs, grid)
    uncovered = np.nonzero(raw.min(axis=1) < _NEGATIVE_GAIN_TOL)[0]
    if uncovered.size:
        row = uncovered[0]
        raise ValueError(
            f"no triangle encloses direction {dirs[row]} (best gains {raw[row]}); "
            "grid does not cover the sphere"
        )
    gains = np.clip(raw, 0.0, None)
    return grid.triangles[tri_idx], gains / np.linalg.norm(gains, axis=1, keepdims=True)
