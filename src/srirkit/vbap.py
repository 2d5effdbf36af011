"""Vector base amplitude panning over triangulated loudspeaker grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .grids import LoudspeakerGrid, _check_unit

_NEGATIVE_GAIN_TOL = -1e-6
_DEGENERATE_DET = 1e-9


@dataclass(frozen=True)
class VbapGains:
    """Sparse loudspeaker gains (at most three entries, unit 2-norm)."""

    gains: dict

    def __post_init__(self):
        g = {int(i): float(v) for i, v in self.gains.items()}
        if not 1 <= len(g) <= 3:
            raise ValueError("VBAP gains must touch 1..3 loudspeakers")
        if any(v < 0 for v in g.values()):
            raise ValueError("VBAP gains must be non-negative")
        norm = float(np.sqrt(sum(v * v for v in g.values())))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"gain vector norm {norm} != 1")
        object.__setattr__(self, "gains", g)


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


def _clip_normalize(raw: np.ndarray) -> np.ndarray:
    """Gains clipped at zero and unit-normalized per row (all-zero rows stay zero)."""
    gains = np.clip(raw, 0.0, None)
    gnorm = np.linalg.norm(gains, axis=1, keepdims=True)
    return np.divide(gains, gnorm, out=np.zeros_like(gains), where=gnorm > 0)


def vbap_gains(direction, grid: LoudspeakerGrid) -> VbapGains:
    """Gains of the triplet enclosing ``direction``, clipped and unit-normalized."""
    u = _check_unit([direction], tol=1e-6)[0]
    u = u / np.linalg.norm(u)

    tri_idx, raw = _best_triangles(u[None, :], grid)
    t = int(tri_idx[0])
    if abs(grid.triangle_determinants[t]) < _DEGENERATE_DET:
        raise NumericalDegeneracyError(
            f"triangle {t} {tuple(grid.triangles[t])} is numerically degenerate"
        )
    if raw.min() < _NEGATIVE_GAIN_TOL:
        raise ValueError(
            f"no triangle encloses direction {u} (best gains {raw[0]}); "
            "grid does not cover the sphere"
        )
    gains = _clip_normalize(raw)[0]
    # Drop numerically-zero entries so vertex hits stay single-speaker.
    return VbapGains({int(s): float(v) for s, v in zip(grid.triangles[t], gains) if v > 1e-12})


def vbap_gain_table(directions: np.ndarray, grid: LoudspeakerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized panning for many directions.

    Returns (speaker_indices, gains), both shaped (n, 3); gains are clipped
    at zero and unit-normalized per row.
    """
    dirs = np.asarray(directions, dtype=np.float64)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.divide(dirs, norms, out=np.zeros_like(dirs), where=norms > 0)
    tri_idx, raw = _best_triangles(dirs, grid)
    return grid.triangles[tri_idx], _clip_normalize(raw)
