"""Virtual loudspeaker grids: construction, triangulation, direction queries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
#: Smallest oriented plane offset, i.e. |det| of the VBAP basis, of a triangle.
_DEGENERATE_DET = 1e-9

#: Dot products per block in :func:`nearest_directions` (8 MB). Blocks near
#: 32 MiB would raise glibc's mmap threshold when freed, keeping later arrays
#: on the heap (about 38 MB more peak RSS on the canonical scene).
_NEAREST_BLOCK_ENTRIES = 1_000_000


def _check_unit(directions, tol: float = 1e-9) -> np.ndarray:
    """``directions`` as a float (n, 3) array; raises unless every row has a
    finite norm within ``tol`` of 1."""
    dirs = np.asarray(directions, dtype=np.float64)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"directions must be (n, 3), got {dirs.shape}")
    norms = np.linalg.norm(dirs, axis=1)
    if not np.all(np.abs(norms - 1.0) <= tol):  # also false for NaN and inf
        raise ValueError("directions must be unit vectors")
    return dirs


def _unit_rows(directions) -> np.ndarray:
    """``directions`` rescaled to unit length; each row must be within 1e-6 of it."""
    dirs = _check_unit(directions, tol=1e-6)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@dataclass(frozen=True)
class LoudspeakerGrid:
    """Unit directions plus a convex-hull triangulation covering the sphere."""

    directions: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        dirs = _check_unit(self.directions)
        if dirs.shape[0] < 4:
            raise ValueError("a grid needs at least 4 directions")
        tris = np.asarray(self.triangles, dtype=np.intp)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {tris.shape}")
        if tris.min() < 0 or tris.max() >= dirs.shape[0]:
            raise ValueError("triangle indices out of range")
        # Orient each facet outward by the vertex centroid; the origin must lie strictly inside.
        # The oriented offset is |det| of the VBAP basis, so it also rejects repeats and slivers.
        corners = dirs[tris]
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        offsets = np.einsum("ij,ij->i", normals, corners[:, 0])
        centroid_side = normals @ dirs.mean(axis=0)
        flip = centroid_side > offsets
        offsets = np.where(flip, -offsets, offsets)
        bad = np.nonzero(offsets < _DEGENERATE_DET)[0]
        if bad.size:
            t = bad[0]
            raise ValueError(
                f"triangle {t} {tris[t].tolist()} is degenerate or does not enclose the "
                f"origin (oriented determinant {offsets[t]:.3g} < {_DEGENERATE_DET})"
            )
        # A hole (which the origin test misses) or a fold leaves an edge in one or three triangles.
        edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        pairs, counts = np.unique(edges, axis=0, return_counts=True)
        if np.any(counts != 2):
            raise ValueError(f"edge {pairs[counts != 2][0].tolist()} is not shared by exactly "
                             "two triangles; the triangulation does not cover the sphere")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "triangles", tris)

    def __len__(self) -> int:
        return int(self.directions.shape[0])

    @cached_property
    def triangle_basis_inverses(self) -> np.ndarray:
        """Per-triangle inverse of the loudspeaker basis, shape (m, 3, 3).

        ``inv[t] @ direction`` yields the raw VBAP gains for triangle t.
        """
        bases = self.directions[self.triangles].transpose(0, 2, 1)  # columns = speakers
        return np.linalg.inv(bases)

    @cached_property
    def vertex_triangles(self) -> np.ndarray:
        """Triangles touching each vertex, (V, w): ascending per row, -1 padded."""
        vertex = self.triangles.ravel()
        order = np.argsort(vertex, kind="stable")  # triangles stay ascending per vertex
        counts = np.bincount(vertex, minlength=len(self))
        table = np.full((len(self), counts.max()), -1, dtype=np.intp)
        slot = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
        table[vertex[order], slot] = order // 3
        return table


def grid_from_directions(directions: np.ndarray) -> LoudspeakerGrid:
    """Triangulate arbitrary unit directions by their convex hull."""
    dirs = _unit_rows(directions)
    hull = ConvexHull(dirs)
    return LoudspeakerGrid(dirs, hull.simplices)


def fibonacci_grid(n: int) -> LoudspeakerGrid:
    """Near-uniform grid of n directions on the golden-angle spiral."""
    if n < 4:
        raise ValueError(f"need at least 4 directions, got {n}")
    i = np.arange(n)
    z = (2.0 * i + 1.0) / n - 1.0
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = i * _GOLDEN_ANGLE
    dirs = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return grid_from_directions(dirs)


def nearest_directions(queries: np.ndarray, table: np.ndarray,
                       k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The k ``table`` directions closest in angle to each query.

    Returns ``(indices, angles)``, both (n, k), nearest first, angles in
    radians. Closeness is the largest dot product; ties go to the lower
    table index, so symmetric layouts resolve deterministically. Inputs are
    taken as unit vectors unchecked; dot products are formed in row blocks,
    so memory stays bounded for dense tables.
    """
    queries = np.asarray(queries, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
    if not 1 <= k <= table.shape[0]:
        raise ValueError(f"k must be in [1, {table.shape[0]}], got {k}")
    indices = np.empty((queries.shape[0], k), dtype=np.intp)
    dots = np.empty((queries.shape[0], k))
    rows = max(1, _NEAREST_BLOCK_ENTRIES // table.shape[0])
    for start in range(0, queries.shape[0], rows):
        block = queries[start : start + rows] @ table.T
        if k == 1:
            idx = np.argmax(block, axis=1)[:, None]
        else:
            idx = np.argpartition(block, -k, axis=1)[:, -k:]
            # argpartition splits a tie at the k-th largest dot arbitrarily;
            # rows with such a tie are redone by a stable sort.
            kth = np.take_along_axis(block, idx, axis=1).min(axis=1, keepdims=True)
            tied = np.count_nonzero(block >= kth, axis=1) > k
            idx[tied] = np.argsort(-block[tied], axis=1, kind="stable")[:, :k]
            top = np.take_along_axis(block, idx, axis=1)
            idx = np.take_along_axis(idx, np.lexsort((idx, -top)), axis=1)
        indices[start : start + rows] = idx
        dots[start : start + rows] = np.take_along_axis(block, idx, axis=1)
    return indices, np.arccos(np.clip(dots, -1.0, 1.0))


def load_grid_csv(path) -> LoudspeakerGrid:
    """Grid from a CSV of unit vectors (x,y,z) or (azimuth_deg, elevation_deg).

    Lines starting with ``#`` are comments. Row format is detected from the
    column count and must be consistent across the file.
    """
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p for p in line.replace(",", " ").split() if p]
        rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError(f"{path}: no grid rows found")
    widths = {len(r) for r in rows}
    if widths == {3}:
        dirs = np.asarray(rows)
    elif widths == {2}:
        dirs = direction_from_azel([r[0] for r in rows], [r[1] for r in rows])
    else:
        raise ValueError(f"{path}: rows must have 2 or 3 columns, got widths {sorted(widths)}")
    return grid_from_directions(dirs)


def save_grid_csv(grid: LoudspeakerGrid, path) -> None:
    lines = ["# x,y,z"]
    for d in grid.directions:
        lines.append(f"{d[0]:.12f},{d[1]:.12f},{d[2]:.12f}")
    Path(path).write_text("\n".join(lines) + "\n")


def direction_from_azel(azimuth_deg, elevation_deg) -> np.ndarray:
    """Unit vectors, shape (..., 3), for azimuths (counterclockwise from +X
    toward +Y) and elevations in degrees, scalars or arrays alike."""
    az, el = np.radians(azimuth_deg), np.radians(elevation_deg)
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)
