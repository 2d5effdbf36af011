import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from srirkit import grids, vbap
from srirkit.grids import (
    LoudspeakerGrid,
    direction_from_azel,
    fibonacci_grid,
    grid_from_directions,
    load_grid_csv,
    nearest_directions,
    save_grid_csv,
)
from srirkit.vbap import _best_triangles, _enclosing_triangles, vbap_gain_table


def angular_distance(a, b) -> float:
    """Angle in radians between two unit vectors."""
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


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

    @pytest.mark.parametrize("n", [10.5, True])
    def test_count_must_be_an_integer(self, n):
        """10.5 built an 11-direction grid from a 10.5-point spiral."""
        with pytest.raises(ValueError, match=f"n must be an integer >= 4, got {n}"):
            fibonacci_grid(n)

    @pytest.mark.parametrize("dirs", [np.eye(3), np.vstack([np.eye(2, 3), -np.eye(2, 3)])],
                             ids=["three", "one-plane"])
    def test_directions_qhull_cannot_triangulate_rejected(self, dirs):
        with pytest.raises(ValueError, match="cannot triangulate"):
            grid_from_directions(dirs)

    def test_repeated_direction_rejected(self):
        """The hull leaves a repeat out of every triangle, where k > 1 SDM
        would split samples between the two copies."""
        dirs = fibonacci_grid(8).directions
        with pytest.raises(ValueError, match="lies in no triangle"):
            grid_from_directions(np.vstack([dirs, dirs[3]]))

    def test_direction_in_no_triangle_rejected(self):
        extra = np.full((1, 3), 1.0 / np.sqrt(3.0))
        with pytest.raises(ValueError, match="direction 6 lies in no triangle"):
            LoudspeakerGrid(np.vstack([_OCTAHEDRON, extra]), _OCTAHEDRON_FACES)

    def test_nan_direction_rejected(self):
        grid = fibonacci_grid(8)
        dirs = grid.directions.copy()
        dirs[2] = np.nan
        with pytest.raises(ValueError, match="unit vectors"):
            LoudspeakerGrid(dirs, grid.triangles)


def _canonical(triangles):
    """Triangles with ascending vertices, in ascending order."""
    triangles = np.sort(np.asarray(triangles), axis=1)
    return triangles[np.lexsort(triangles.T[::-1])]


def _random_directions(seed, n):
    dirs = np.random.default_rng(seed).normal(size=(n, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


class TestHull:
    @pytest.mark.parametrize("n", [8, 12, 33, 240, 2000])
    def test_fibonacci_grid_is_qhulls_triangulation(self, n):
        grid = fibonacci_grid(n)
        assert np.array_equal(grid.triangles, _canonical(ConvexHull(grid.directions).simplices))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_directions_give_qhulls_triangles(self, seed):
        dirs = _random_directions(seed, 5 + 37 * seed)
        assert np.array_equal(_canonical(grids._hull_triangles(dirs)),
                              _canonical(ConvexHull(dirs).simplices))

    def test_triangles_do_not_depend_on_the_order_of_the_directions(self):
        dirs = _random_directions(7, 300)
        perm = np.random.default_rng(8).permutation(len(dirs))
        relabelled = perm[grid_from_directions(dirs[perm]).triangles]  # back to dirs' indices
        assert np.array_equal(_canonical(relabelled), grid_from_directions(dirs).triangles)

    @pytest.mark.parametrize("dirs", [
        np.vstack([np.eye(3), -np.eye(3)]),
        np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) / np.sqrt(3.0),
        np.array([direction_from_azel(az, el) for el in (-45.0, 0.0, 45.0)
                  for az in range(0, 360, 30)] + [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
    ], ids=["octahedron", "cube", "rings"])
    def test_cocircular_directions_triangulate(self, dirs):
        """Four or more directions on one circle leave a choice of diagonals;
        any choice makes a valid grid that uses every direction."""
        grid = grid_from_directions(dirs)
        assert len(grid.triangles) == 2 * len(dirs) - 4
        assert np.unique(grid.triangles).size == len(dirs)


# +x, +y, +z, -x, -y, -z
_OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])
_OCTAHEDRON_FACES = [[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2],
                     [0, 5, 1], [1, 5, 3], [3, 5, 4], [4, 5, 0]]


def _row_gains(idx, gains, row):
    """One table row as {speaker: gain}, without numerically-zero entries."""
    return {int(s): float(g) for s, g in zip(idx[row], gains[row]) if g > 1e-12}


class TestVbap:
    def test_grid_vertex_gets_unit_gain(self):
        grid = fibonacci_grid(32)
        idx, gains = vbap_gain_table(grid.directions[7:8], grid)
        assert _row_gains(idx, gains, 0) == {7: pytest.approx(1.0, abs=1e-9)}

    def test_arc_midpoint_splits_equally(self):
        grid = fibonacci_grid(32)
        i, j = grid.triangles[0][:2]
        mid = grid.directions[i] + grid.directions[j]
        mid /= np.linalg.norm(mid)
        g = _row_gains(*vbap_gain_table(mid[None, :], grid), 0)
        assert set(g) <= {int(i), int(j)}
        assert g[int(i)] == pytest.approx(g[int(j)], abs=1e-9)

    def test_matches_direct_linear_solve(self, rng):
        grid = fibonacci_grid(48)
        dirs = rng.normal(size=(25, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, gains = vbap_gain_table(dirs, grid)
        for row, u in enumerate(dirs):
            raw = np.linalg.solve(grid.directions[idx[row]].T, u)
            raw = np.clip(raw, 0.0, None)
            raw /= np.linalg.norm(raw)
            np.testing.assert_allclose(gains[row], raw, rtol=0, atol=1e-9)

    @staticmethod
    def _hull_grid_and_queries(n, seed, random_queries):
        """A hull grid on n random directions, queried at random directions,
        every vertex and every edge midpoint."""
        gen = np.random.default_rng(seed)
        dirs = gen.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        hull = ConvexHull(dirs)
        # The origin must lie inside the hull, clear of every face.
        assume(np.all(hull.equations[:, 3] < 0))
        assume(np.abs(np.linalg.det(dirs[hull.simplices])).min() > 1e-6)
        grid = grid_from_directions(dirs)
        edges = grid.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        mids = grid.directions[edges[:, 0]] + grid.directions[edges[:, 1]]
        queries = np.vstack([gen.normal(size=(random_queries, 3)), grid.directions, mids])
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        return grid, queries

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 60), seed=st.integers(0, 2**32 - 1))
    def test_gains_on_random_hull_grids(self, n, seed):
        grid, queries = self._hull_grid_and_queries(n, seed, 30)
        idx, gains = vbap_gain_table(queries, grid)
        assert np.all(gains >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(gains, axis=1), 1.0, rtol=0, atol=1e-12)
        triangles = {tuple(sorted(t)) for t in grid.triangles.tolist()}
        assert all(tuple(sorted(r)) in triangles for r in idx.tolist())
        recon = np.einsum("ni,nij->nj", gains, grid.directions[idx])
        angles = np.arctan2(np.linalg.norm(np.cross(recon, queries), axis=1),
                            np.einsum("ij,ij->i", recon, queries))
        assert angles.max() < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 60), seed=st.integers(0, 2**32 - 1))
    def test_nearest_vertex_search_matches_full_search(self, n, seed):
        """Same triangles and raw gain bits as testing every triangle, also
        at vertices and edge midpoints, where the nearest vertex's triangles
        nearly tie."""
        grid, queries = self._hull_grid_and_queries(n, seed, 300)
        unit = queries / np.linalg.norm(queries, axis=1, keepdims=True)  # as the table does
        tri, raw = _enclosing_triangles(unit, grid)
        full_tri, full_raw = _best_triangles(unit, grid)
        assert np.array_equal(tri, full_tri)
        assert np.array_equal(raw, full_raw)
        idx, gains = vbap_gain_table(queries, grid)
        clipped = np.clip(full_raw, 0.0, None)
        assert np.array_equal(idx, grid.triangles[full_tri])
        assert np.array_equal(gains, clipped / np.linalg.norm(clipped, axis=1, keepdims=True))

    def test_vertex_triangles_table(self):
        grid = fibonacci_grid(40)
        table = grid.vertex_triangles
        assert table.shape[0] == len(grid)
        for v, row in enumerate(table):
            touching = np.nonzero((grid.triangles == v).any(axis=1))[0]
            assert row[: touching.size].tolist() == touching.tolist()
            assert np.all(row[touching.size :] == -1)

    @staticmethod
    def _ring_grid():
        """Five 72-direction elevation rings plus both poles; each pole
        touches 72 triangles, so every vertex-triangle row is 72 wide."""
        az, el = np.meshgrid(np.arange(72) * 5.0, [-60.0, -30.0, 0.0, 30.0, 60.0])
        dirs = [direction_from_azel(a, e) for a, e in zip(az.ravel(), el.ravel())]
        poles = [direction_from_azel(0.0, 90.0), direction_from_azel(0.0, -90.0)]
        return grid_from_directions(np.array(dirs + poles))

    def test_nearest_vertex_search_on_high_valence_grid(self, rng, monkeypatch):
        grid = self._ring_grid()
        assert grid.vertex_triangles.shape[1] == 72
        edges = grid.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        mids = grid.directions[edges[:, 0]] + grid.directions[edges[:, 1]]
        queries = np.vstack([rng.normal(size=(2000, 3)), grid.directions, mids])
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        full_tri, full_raw = _best_triangles(queries, grid)
        for entries in (vbap._BLOCK_ENTRIES, 9 * 72 * 7):  # default; seven rows a block
            monkeypatch.setattr(vbap, "_BLOCK_ENTRIES", entries)
            tri, raw = _enclosing_triangles(queries, grid)
            assert np.array_equal(tri, full_tri)
            assert np.array_equal(raw, full_raw)

    def test_nearest_vertex_search_memory_bounded(self, rng):
        """20,000 directions on the 72-wide ring grid; one (n, w, 3, 3) block
        of triangle bases for all of them would hold about 100 MB."""
        grid = self._ring_grid()
        grid.triangle_basis_inverses, grid.vertex_triangles  # cached before measuring
        queries = rng.normal(size=(20000, 3))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            _enclosing_triangles(queries, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_reconstructed_direction_matches(self, rng):
        grid = fibonacci_grid(64)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, gains = vbap_gain_table(dirs, grid)
        for row, u in enumerate(dirs):
            recon = gains[row] @ grid.directions[idx[row]]
            recon /= np.linalg.norm(recon)
            assert angular_distance(recon, u) < 1e-6

    def test_rotation_consistency(self, rng):
        grid = fibonacci_grid(48)
        rot = _random_rotation(rng)
        rotated = grid_from_directions(grid.directions @ rot.T)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        table = vbap_gain_table(dirs, grid)
        table_rot = vbap_gain_table(dirs @ rot.T, rotated)
        for row in range(20):
            g = _row_gains(*table, row)
            g_rot = _row_gains(*table_rot, row)
            assert set(g_rot) == set(g)
            for s, v in g.items():
                assert g_rot[s] == pytest.approx(v, abs=1e-9)

    def test_uncovered_direction_raises(self):
        with mock.patch.object(LoudspeakerGrid, "__post_init__", lambda self: None):
            grid = LoudspeakerGrid(_OCTAHEDRON, np.array(_OCTAHEDRON_FACES[:4]))  # upper faces only
        vbap_gain_table([[0.0, 0.6, 0.8]], grid)
        with pytest.raises(ValueError, match="does not cover the sphere"):
            vbap_gain_table([[0.0, 0.6, 0.8], [0.0, 0.0, -1.0]], grid)

    def test_non_unit_direction_rejected(self):
        grid = fibonacci_grid(12)
        for bad in ([[0.0, 0.0, 0.0]], [[2.0, 0.0, 0.0]], [[np.nan, 0.0, 1.0]]):
            with pytest.raises(ValueError, match="unit vectors"):
                vbap_gain_table(bad, grid)

    def test_open_or_folded_triangulation_rejected(self):
        """Every edge must border exactly two triangles: the octahedron's
        upper faces pass the origin test but leave the lower hemisphere bare."""
        with pytest.raises(ValueError, match=r"edge \[0, 1\] is not shared by exactly two"):
            LoudspeakerGrid(_OCTAHEDRON, _OCTAHEDRON_FACES[:4])
        with pytest.raises(ValueError, match="does not cover the sphere"):
            LoudspeakerGrid(_OCTAHEDRON, _OCTAHEDRON_FACES + _OCTAHEDRON_FACES[:1])
        LoudspeakerGrid(_OCTAHEDRON, _OCTAHEDRON_FACES)

    def test_degenerate_triangle_reported(self):
        dirs = fibonacci_grid(16).directions
        tris = fibonacci_grid(16).triangles.copy()
        tris[0] = [0, 0, 1]  # repeated vertex: determinant 0
        with pytest.raises(ValueError, match="degenerate"):
            LoudspeakerGrid(dirs, tris)
        # A sliver next to -x: determinant 3e-10, below the 1e-9 bound.
        sliver = np.array([-1.0, 0.0, -3e-10])
        dirs = np.vstack([_OCTAHEDRON, sliver / np.linalg.norm(sliver)])
        with pytest.raises(ValueError, match=r"triangle 8 \[0, 1, 6\] is degenerate"):
            LoudspeakerGrid(dirs, _OCTAHEDRON_FACES + [[0, 1, 6]])


def _nearest(u, grid, k):
    """``nearest_directions`` for one query, as a list of grid indices."""
    return nearest_directions(np.asarray(u)[None, :], grid.directions, k)[0][0].tolist()


class TestNearestDirection:
    def test_grid_point_maps_to_itself(self):
        grid = fibonacci_grid(30)
        assert _nearest(grid.directions[13], grid, k=1) == [13]

    def test_k_equal_size_is_angle_sorted_permutation(self, rng):
        grid = fibonacci_grid(20)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        order = _nearest(u, grid, k=20)
        assert sorted(order) == list(range(20))
        angles = [angular_distance(u, grid.directions[i]) for i in order]
        assert np.all(np.diff(angles) >= -1e-12)

    def test_k3_matches_brute_force(self, rng):
        grid = fibonacci_grid(40)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            got = _nearest(u, grid, k=3)
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
            assert _nearest(u, grid, 1) == _nearest(rot @ u, rotated, 1)

    def test_k_range_checked(self):
        grid = fibonacci_grid(10)
        with pytest.raises(ValueError):
            _nearest(grid.directions[0], grid, k=0)
        with pytest.raises(ValueError):
            _nearest(grid.directions[0], grid, k=11)


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

    @pytest.mark.parametrize("k", [2.5, True, 0, 7])
    def test_k_must_be_an_integer_within_the_table(self, k):
        """2.5 raised a bare TypeError from np.empty, and True counted as 1."""
        with pytest.raises(ValueError, match=rf"k must be an integer in \[1, 6\], got {k!r}"):
            nearest_directions(np.array([[1.0, 0.0, 0.0]]), self.RING, k)

    def test_zero_queries_and_grid_hits_on_a_dense_grid(self):
        """k = 3 on 240 directions: a zero query (an invalid DOA sample) ties
        every direction and takes the first three, a query on a grid
        direction takes it first, and both follow the stable order. Only the
        dot block is masked; neither input is written."""
        table = fibonacci_grid(240).directions
        queries = np.concatenate([np.zeros((2, 3)), table[::7], -table[5:6]])
        unchanged = queries.copy(), table.copy()
        idx, angles = nearest_directions(queries, table, k=3)
        dots = queries @ table.T
        expected = np.argsort(-dots, axis=1, kind="stable")[:, :3]
        np.testing.assert_array_equal(idx, expected)
        np.testing.assert_array_equal(
            angles, np.arccos(np.clip(np.take_along_axis(dots, expected, 1), -1.0, 1.0)))
        assert idx[:2].tolist() == [[0, 1, 2]] * 2
        np.testing.assert_array_equal(idx[2:-1, 0], np.arange(0, 240, 7))
        np.testing.assert_array_equal(queries, unchanged[0])
        np.testing.assert_array_equal(table, unchanged[1])

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


    def test_k1_holds_one_block_at_a_time(self, rng):
        """19,767 queries on 240 directions: about 8 MB of dot products per
        block, and the previous block is freed before the next is formed."""
        table = fibonacci_grid(240).directions
        queries = rng.normal(size=(19767, 3))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        block_bytes = grids._NEAREST_BLOCK_ENTRIES // len(table) * len(table) * 8
        tracemalloc.start()
        try:
            nearest_directions(queries, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes


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

    def test_azel_on_arrays_is_the_stacked_scalar_calls(self, rng):
        az = rng.uniform(-180.0, 180.0, size=(4, 5))
        el = rng.uniform(-90.0, 90.0, size=(4, 5))
        stacked = np.array([[direction_from_azel(a, e) for a, e in zip(ra, re)]
                            for ra, re in zip(az, el)])
        assert np.array_equal(direction_from_azel(az, el), stacked)
        assert direction_from_azel(30.0, 10.0).shape == (3,)

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)
