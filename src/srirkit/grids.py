"""Virtual loudspeaker grids: construction, triangulation, direction queries."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
#: Smallest oriented plane offset, i.e. |det| of the VBAP basis, of a triangle.
_DEGENERATE_DET = 1e-9
#: Distance past a hull facet's plane up to which a direction counts as on it.
_HULL_TOL = 1e-12

#: Dot products per block in :func:`nearest_directions` (8 MB). Blocks near
#: 32 MiB would raise glibc's mmap threshold when freed, keeping later arrays
#: on the heap (about 38 MB more peak RSS on the canonical scene).
_NEAREST_BLOCK_ENTRIES = 1_000_000


def _check_count(name: str, value, least: int = 1, most: float = math.inf) -> None:
    """Raises unless ``value`` is an integer, not a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not least <= value <= most:
        bound = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_indices(name: str, values, count: float = math.inf) -> np.ndarray:
    """``values`` as intp indices; raises unless their dtype is an integer one
    (not a float or bool) and each lies in [0, count)."""
    array = np.asarray(values)
    # A bool among ints converts to an int, so a sequence's own items are read.
    items = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    dtype = "bool" if any(isinstance(v, (bool, np.bool_)) for v in items) else array.dtype
    if dtype == "bool" or array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer indices, not {dtype}")
    outside = (array < 0) | (array >= count)
    if outside.any():
        raise ValueError(f"{name} must lie in [0, {count}), got {array[outside][0]}")
    return array.astype(np.intp, copy=False)


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
        unused = np.setdiff1d(np.arange(len(dirs)), tris)
        if unused.size:  # a repeated direction, say, which the hull leaves out
            raise ValueError(f"direction {unused[0]} lies in no triangle")
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
    """Triangulate arbitrary unit directions by their convex hull. The
    triangles come in one canonical order: each one's vertices ascending,
    then the triangles ascending."""
    dirs = _unit_rows(directions)
    triangles = np.sort(_hull_triangles(dirs), axis=1)
    return LoudspeakerGrid(dirs, triangles[np.lexsort(triangles.T[::-1])])


def _hull_triangles(points: np.ndarray) -> np.ndarray:
    """The convex hull facets of ``points`` (n, 3), as (m, 3) vertex indices.

    Quickhull (Barber et al. 1996): from a tetrahedron of extreme points,
    the farthest point beyond a facet replaces every facet it sees by a fan
    from it to their horizon, and the points beyond those facets go to the
    new ones. A point within ``_HULL_TOL`` of the hull, a repeat say, is
    left out.
    """
    n = len(points)
    if n < 4:
        raise ValueError(f"cannot triangulate: need at least 4 directions, got {n}")
    a, b = 0, int(np.argmax(np.linalg.norm(points - points[0], axis=1)))
    c = int(np.argmax(np.linalg.norm(np.cross(points - points[a], points[b] - points[a]), axis=1)))
    normal = np.cross(points[b] - points[a], points[c] - points[a])
    height = (points - points[a]) @ normal / max(np.linalg.norm(normal), 1e-300)
    d = int(np.argmax(np.abs(height)))
    if abs(height[d]) <= _HULL_TOL:
        raise ValueError("cannot triangulate: the directions lie on one plane")
    xyz, none = points.tolist(), np.empty(0, dtype=np.intp)
    verts, planes, links, beyond, pending = [], [], [], [], []  # links[f][e]: across edge e

    def fan(tail, head, apexes, candidates):
        """New facets (i, j, k), counterclockwise seen from outside. Each
        candidate goes to the one it lies farthest beyond, farthest last."""
        first = len(verts)
        for i, j, k in zip(tail, head, apexes):
            (ix, iy, iz), (jx, jy, jz), (kx, ky, kz) = xyz[i], xyz[j], xyz[k]
            ux, uy, uz, vx, vy, vz = jx - ix, jy - iy, jz - iz, kx - ix, ky - iy, kz - iz
            nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            norm = math.sqrt(nx * nx + ny * ny + nz * nz) or 1.0  # degenerate: beyond no point
            planes.append((nx / norm, ny / norm, nz / norm, (nx * ix + ny * iy + nz * iz) / norm))
            verts.append((i, j, k))
            links.append([-1, -1, -1])
            beyond.append(none)
        new = list(range(first, len(verts)))
        if not candidates.size:
            return new
        eq = np.array(planes[first:])
        dist = points[candidates] @ eq[:, :3].T - eq[:, 3]
        best = np.argmax(dist, axis=1)
        reach = dist[np.arange(len(best)), best]
        keep = reach > _HULL_TOL
        order = np.lexsort((reach[keep], best[keep]))  # by facet, then nearest to farthest
        kept = candidates[keep][order]
        ends = np.cumsum(np.bincount(best[keep], minlength=len(new))).tolist()
        for f, lo, hi in zip(new, [0] + ends, ends):
            if hi > lo:
                beyond[f] = kept[lo:hi]
                pending.append(f)
        return new

    first, second = (c, b) if height[d] > 0 else (b, c)  # facet a, first, second faces away from d
    tetra = fan([a, first, second, a], [first, a, first, second], [second, d, d, d],
                np.setdiff1d(np.arange(n), (a, b, c, d)))
    edges = {(verts[f][e], verts[f][e - 2]): f for f in tetra for e in range(3)}
    for f in tetra:
        links[f] = [edges[verts[f][e - 2], verts[f][e]] for e in range(3)]
    while pending:
        f = pending.pop()
        if planes[f] is None:  # seen by an earlier apex
            continue
        apex = int(beyond[f][-1])
        px, py, pz = xyz[apex]
        visible, seen, horizon = [f], {f: True}, []
        for g in visible:  # grows while it is walked: the facets apex sees
            planes[g] = None
            for e, h in enumerate(links[g]):
                if h not in seen:
                    nx, ny, nz, off = planes[h]
                    seen[h] = nx * px + ny * py + nz * pz - off > _HULL_TOL
                    if seen[h]:
                        visible.append(h)
                if not seen[h]:
                    horizon.append((verts[g][e], verts[g][e - 2], h))
        tail, head, across = zip(*horizon)
        rest = np.concatenate([beyond[g] for g in visible])
        new = fan(tail, head, [apex] * len(tail), rest[rest != apex])
        starts, ends = dict(zip(tail, new)), dict(zip(head, new))
        for g, i, j, h in zip(new, tail, head, across):
            links[g][:] = h, starts[j], ends[i]
            links[h][verts[h].index(j)] = g  # h's edge j -> i
    return np.array([v for v, plane in zip(verts, planes) if plane is not None], dtype=np.intp)


def fibonacci_grid(n: int) -> LoudspeakerGrid:
    """Near-uniform grid of n >= 4 directions on the golden-angle spiral."""
    _check_count("n", n, 4)
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
    so memory stays bounded for dense tables. Each block takes k argmax
    passes, masking every pick with -inf, so the cost grows with k: on 240
    directions an argpartition would win past about k = 40.
    """
    queries = np.asarray(queries, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
    _check_count("k", k, 1, table.shape[0])
    indices = np.empty((queries.shape[0], k), dtype=np.intp)
    dots = np.empty((queries.shape[0], k))
    rows = max(1, _NEAREST_BLOCK_ENTRIES // table.shape[0])
    for start in range(0, queries.shape[0], rows):
        block = queries[start : start + rows] @ table.T
        picked = np.arange(len(block))
        for j in range(k):  # argmax takes the lowest index of a tie: a stable order
            idx = indices[start : start + rows, j] = np.argmax(block, axis=1)
            dots[start : start + rows, j] = block[picked, idx]
            block[picked, idx] = -np.inf
        del block  # else it stays alive while the next block is formed
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
