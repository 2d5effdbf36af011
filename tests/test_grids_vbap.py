from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srirkit import grids
from srirkit.errors import NumericalDegeneracyError
from srirkit.grids import (
    LoudspeakerGrid,
    angular_distance,
    fibonacci_grid,
    grid_from_directions,
    load_grid_csv,
    nearest_direction,
    nearest_directions,
    save_grid_csv,
)
from srirkit.vbap import VbapGains, vbap_gain_table, vbap_gains


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _ray_hits_triangle(u, a, b, c):
    """Moller-Trumbore ray/triangle test from the origin (oracle)."""
    eps = 1e-12
    e1, e2 = b - a, c - a
    p = np.cross(u, e2)
    det = e1 @ p
    if abs(det) < eps:
        return False
    t = -a  # origin - a... ray origin is (0,0,0): T = O - a = -a
    uu = (t @ p) / det
    if uu < -1e-9 or uu > 1 + 1e-9:
        return False
    q = np.cross(t, e1)
    vv = (u @ q) / det
    if vv < -1e-9 or uu + vv > 1 + 1e-9:
        return False
    dist = (e2 @ q) / det
    return dist > eps


class TestFibonacciGrid:
    def test_directions_unit_norm(self):
        grid = fibonacci_grid(50)
        assert np.abs(np.linalg.norm(grid.directions, axis=1) - 1.0).max() < 1e-9

    def test_hull_membership_brute_force(self, rng):
        grid = fibonacci_grid(64)
        tris = grid.directions[grid.triangles]
        for _ in range(1000):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            hit = any(_ray_hits_triangle(u, *tri) for tri in tris)
            assert hit, f"direction {u} not covered by any hull triangle"

    def test_directions_distinct(self):
        grid = fibonacci_grid(40)
        gram = grid.directions @ grid.directions.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() < 1.0 - 1e-12  # min pairwise angle > 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_grid(3)

    def test_nan_direction_rejected(self):
        grid = fibonacci_grid(8)
        dirs = grid.directions.copy()
        dirs[2] = np.nan
        with pytest.raises(ValueError, match="unit vectors"):
            LoudspeakerGrid(dirs, grid.triangles)


class TestVbap:
    def test_grid_vertex_gets_unit_gain(self):
        grid = fibonacci_grid(32)
        g = vbap_gains(grid.directions[7], grid)
        assert g.gains == {7: pytest.approx(1.0, abs=1e-9)}

    def test_arc_midpoint_splits_equally(self):
        grid = fibonacci_grid(32)
        i, j = grid.triangles[0][:2]
        mid = grid.directions[i] + grid.directions[j]
        mid /= np.linalg.norm(mid)
        g = vbap_gains(mid, grid)
        assert set(g.gains) <= {int(i), int(j)}
        assert g.gains[int(i)] == pytest.approx(g.gains[int(j)], abs=1e-9)

    def test_matches_direct_linear_solve(self, rng):
        grid = fibonacci_grid(48)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            got = vbap_gains(u, grid)
            speakers = sorted(got.gains)
            basis = grid.directions[speakers].T
            if len(speakers) < 3:
                # boundary case: augment with the enclosing triangle
                continue
            raw = np.linalg.solve(basis, u)
            raw = np.clip(raw, 0.0, None)
            raw /= np.linalg.norm(raw)
            for s, expected in zip(speakers, raw):
                assert got.gains[s] == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_gains_nonnegative_unit_norm(self, seed):
        grid = fibonacci_grid(24)
        gen = np.random.default_rng(seed)
        u = gen.normal(size=3)
        u /= np.linalg.norm(u)
        g = vbap_gains(u, grid)
        vec = list(g.gains.values())
        assert all(v >= 0 for v in vec)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_reconstructed_direction_matches(self, rng):
        grid = fibonacci_grid(64)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            g = vbap_gains(u, grid)
            recon = np.zeros(3)
            for s, v in g.gains.items():
                recon += v * grid.directions[s]
            recon /= np.linalg.norm(recon)
            assert angular_distance(recon, u) < 1e-6

    def test_rotation_consistency(self, rng):
        grid = fibonacci_grid(48)
        rot = _random_rotation(rng)
        rotated = grid_from_directions(grid.directions @ rot.T)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            g = vbap_gains(u, grid)
            g_rot = vbap_gains(rot @ u, rotated)
            assert set(g_rot.gains) == set(g.gains)
            for s, v in g.gains.items():
                assert g_rot.gains[s] == pytest.approx(v, abs=1e-9)

    def test_gain_table_matches_single_queries(self, rng):
        grid = fibonacci_grid(32)
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, gains = vbap_gain_table(dirs, grid)
        for row in range(40):
            single = vbap_gains(dirs[row], grid)
            table = {
                int(s): g for s, g in zip(idx[row], gains[row]) if g > 0
            }
            assert set(table) == set(single.gains)
            for s, v in single.gains.items():
                assert table[s] == pytest.approx(v, abs=1e-9)

    def test_degenerate_triangle_reported(self):
        dirs = fibonacci_grid(16).directions
        tris = fibonacci_grid(16).triangles.copy()
        tris[0] = [0, 0, 1]  # degenerate triplet
        with pytest.raises(ValueError):
            LoudspeakerGrid(dirs, tris)

    def test_vbap_gains_validation(self):
        with pytest.raises(ValueError):
            VbapGains({0: 0.5, 1: 0.5})  # not unit norm
        with pytest.raises(ValueError):
            VbapGains({0: -1.0})
        with pytest.raises(ValueError):
            VbapGains({0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5})


class TestNearestDirection:
    def test_grid_point_maps_to_itself(self):
        grid = fibonacci_grid(30)
        assert nearest_direction(grid.directions[13], grid, k=1) == [13]

    def test_k_equal_size_is_angle_sorted_permutation(self, rng):
        grid = fibonacci_grid(20)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        order = nearest_direction(u, grid, k=20)
        assert sorted(order) == list(range(20))
        angles = [angular_distance(u, grid.directions[i]) for i in order]
        assert np.all(np.diff(angles) >= -1e-12)

    def test_k3_matches_brute_force(self, rng):
        grid = fibonacci_grid(40)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            got = nearest_direction(u, grid, k=3)
            angles = [angular_distance(u, d) for d in grid.directions]
            expected = list(np.argsort(angles, kind="stable")[:3])
            assert got == expected

    def test_commutes_with_rotation(self, rng):
        grid = fibonacci_grid(36)
        rot = _random_rotation(rng)
        rotated = grid_from_directions(grid.directions @ rot.T)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert nearest_direction(u, grid, 1) == nearest_direction(rot @ u, rotated, 1)

    def test_k_range_checked(self):
        grid = fibonacci_grid(10)
        with pytest.raises(ValueError):
            nearest_direction(grid.directions[0], grid, k=0)
        with pytest.raises(ValueError):
            nearest_direction(grid.directions[0], grid, k=11)


class TestNearestDirections:
    # A ring at azimuth +-45 and +-135 degrees, then the two poles.
    C = np.sqrt(0.5)
    RING = np.array([[C, C, 0.0], [C, -C, 0.0], [-C, C, 0.0], [-C, -C, 0.0],
                     [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])

    def test_exact_ties_go_to_the_lower_index(self):
        front = np.array([[1.0, 0.0, 0.0]])
        idx, angles = nearest_directions(front, self.RING, k=1)
        assert idx.tolist() == [[0]]
        assert angles[0, 0] == pytest.approx(np.pi / 4, abs=1e-12)
        idx, _ = nearest_directions(front, self.RING, k=2)
        assert idx.tolist() == [[0, 1]]
        idx, _ = nearest_directions(front, self.RING, k=4)
        assert idx.tolist() == [[0, 1, 4, 5]]  # poles (dot 0) before the back pair
        # Four ring entries tie for second place; the lower two are taken.
        idx, _ = nearest_directions(np.array([[0.0, 0.0, 1.0]]), self.RING, k=3)
        assert idx.tolist() == [[4, 0, 1]]

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 9),
        n=st.integers(1, 12),
        block=st.integers(1, 30),
    )
    def test_matches_stable_argsort_across_blocks(self, data, m, n, block):
        # Integer components make every dot product exact, so ties are
        # exact (and frequent) whatever order the product is summed in.
        vec = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        table = np.array(data.draw(st.lists(vec, min_size=m, max_size=m)), dtype=float)
        queries = np.array(data.draw(st.lists(vec, min_size=n, max_size=n)), dtype=float)
        k = data.draw(st.integers(1, m))
        with mock.patch.object(grids, "_NEAREST_BLOCK_ENTRIES", block):
            idx, angles = nearest_directions(queries, table, k)
        dots = queries @ table.T
        expected = np.argsort(-dots, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(idx, expected)
        np.testing.assert_array_equal(
            angles, np.arccos(np.clip(np.take_along_axis(dots, expected, 1), -1.0, 1.0))
        )


class TestGridIo:
    def test_csv_round_trip_xyz(self, tmp_path):
        grid = fibonacci_grid(12)
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        back = load_grid_csv(path)
        assert np.abs(back.directions - grid.directions).max() < 1e-9

    def test_csv_azimuth_elevation(self, tmp_path):
        path = tmp_path / "azel.csv"
        path.write_text("# az el\n0,0\n90,0\n180,0\n-90,0\n0,90\n0,-90\n")
        grid = load_grid_csv(path)
        assert len(grid) == 6
        assert np.allclose(grid.directions[0], [1, 0, 0], atol=1e-12)
        assert np.allclose(grid.directions[1], [0, 1, 0], atol=1e-12)
        assert np.allclose(grid.directions[4], [0, 0, 1], atol=1e-12)

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)
