import numpy as np
import pytest

from srirkit.arrays import MicArrayGeometry, builtin_array
from srirkit.signals import FoaSignal

FS = 48000.0


class TestBuiltinArrays:
    def test_om6_positions(self):
        geom = builtin_array("om6")
        expected = {
            (0.05, 0.0, 0.0), (-0.05, 0.0, 0.0),
            (0.0, 0.05, 0.0), (0.0, -0.05, 0.0),
            (0.0, 0.0, 0.05), (0.0, 0.0, -0.05),
        }
        got = {tuple(np.round(p, 9)) for p in geom.positions}
        assert got == expected

    def test_sphere32_radius(self):
        geom = builtin_array("sphere32")
        radii = np.linalg.norm(geom.positions, axis=1)
        assert geom.capsule_count == 32
        assert np.all(np.abs(radii - 0.042) < 1e-9)

    @pytest.mark.parametrize("name", ["om6", "sphere32"])
    def test_centroid_at_origin(self, name):
        geom = builtin_array(name)
        assert np.linalg.norm(geom.positions.mean(axis=0)) < 1e-3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_array("nope")

    def test_geometry_validation(self):
        with pytest.raises(ValueError):  # coplanar
            MicArrayGeometry(
                positions=[[0.05, 0, 0], [-0.05, 0, 0], [0, 0.05, 0], [0, -0.05, 0]],
            )
        with pytest.raises(ValueError):  # off-center
            MicArrayGeometry(
                positions=[[0.06, 0, 0], [-0.04, 0, 0], [0, 0.05, 0],
                           [0, -0.05, 0], [0, 0, 0.05], [0, 0, -0.05]],
            )


def test_foa_signal_validation():
    data = np.arange(64.0).reshape(4, 16)
    foa = FoaSignal(data, FS)
    for i, ch in enumerate((foa.w, foa.x, foa.y, foa.z)):
        assert np.shares_memory(ch.samples, foa.samples)
        assert np.array_equal(ch.samples, data[i])
        assert ch.sample_rate == FS
    for shape in [(3, 16), (5, 16), (16,), (4, 0), (1, 4, 16)]:
        with pytest.raises(ValueError):
            FoaSignal(np.zeros(shape), FS)
