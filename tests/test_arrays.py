import numpy as np
import pytest

from srirkit.arrays import MicArrayGeometry, builtin_array, encode_foa_open_array
from srirkit.doa import DoaConfig, piv_broadband_doa
from srirkit.errors import UnsupportedGeometryError
from srirkit.signals import FoaSignal, MultichannelIr

FS = 48000.0
C = 343.0


def _plane_wave_srir(geometry, direction, waveform, n, base_delay_s=0.02):
    """Per-capsule copies of `waveform(t)` with exact geometric delays.

    Arrival time at capsule r is base - (r . u) / c for a source toward u.
    """
    t = np.arange(n) / FS
    channels = []
    for pos in geometry.positions:
        delay = base_delay_s - float(pos @ direction) / C
        channels.append(waveform(t - delay))
    return MultichannelIr(np.stack(channels), FS)


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
        assert geom.center_index is None
        assert geom.aliasing_frequency == pytest.approx(2400.0)

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
                labels=("a", "b", "c", "d"),
                aliasing_frequency=2400.0,
            )
        with pytest.raises(ValueError):  # off-center
            MicArrayGeometry(
                positions=[[0.06, 0, 0], [-0.04, 0, 0], [0, 0.05, 0],
                           [0, -0.05, 0], [0, 0, 0.05], [0, 0, -0.05]],
                labels=tuple("abcdef"),
                aliasing_frequency=2400.0,
            )


class TestFoaEncoding:
    def test_silence_encodes_to_silence(self):
        geom = builtin_array("om6")
        srir = MultichannelIr(np.zeros((6, 512)), FS)
        foa = encode_foa_open_array(srir, geom)
        for ch in (foa.w, foa.x, foa.y, foa.z):
            assert np.abs(ch.samples).max() < 1e-12

    def test_plane_wave_from_x_in_phase(self):
        geom = builtin_array("om6")
        freq = 500.0
        envelope = lambda t: np.sin(2 * np.pi * freq * t) * (t > 0.001) * (t < 0.07)
        srir = _plane_wave_srir(geom, np.array([1.0, 0.0, 0.0]), envelope, 4096)
        foa = encode_foa_open_array(srir, geom)
        mid = slice(1000, 3000)
        w, x = foa.w.samples[mid], foa.x.samples[mid]
        corr = np.dot(w, x) / np.sqrt(np.dot(w, w) * np.dot(x, x))
        assert corr > 0.98  # in phase, not inverted
        for off_axis in (foa.y, foa.z):
            ratio = np.sum(off_axis.samples[mid] ** 2) / np.sum(x**2)
            assert ratio < 10.0 ** (-20.0 / 10.0)  # >= 20 dB below the x dipole

    def test_piv_doa_of_encoded_pulse_within_5_degrees(self):
        geom = builtin_array("om6")
        direction = np.array([0.5, 0.5, np.sqrt(0.5)])
        freq = 1000.0
        base_delay_s = 0.02
        burst = lambda t: np.sin(2 * np.pi * freq * t) * np.exp(-0.5 * (t / 2e-3) ** 2)
        srir = _plane_wave_srir(geom, direction, burst, 4096, base_delay_s)
        foa = encode_foa_open_array(srir, geom)
        traj = piv_broadband_doa(foa, DoaConfig())
        idx = int(base_delay_s * FS)
        assert traj.valid[idx]
        err = np.degrees(np.arccos(np.clip(traj.directions[idx] @ direction, -1, 1)))
        assert err < 5.0

    def test_encoding_is_linear(self, rng):
        geom = builtin_array("om6")
        a = MultichannelIr(rng.normal(size=(6, 512)), FS)
        b = MultichannelIr(rng.normal(size=(6, 512)), FS)
        ab = MultichannelIr(a.samples + b.samples, FS)
        fa, fb, fab = (encode_foa_open_array(m, geom) for m in (a, b, ab))
        for ch in "wxyz":
            lhs = getattr(fab, ch).samples
            rhs = getattr(fa, ch).samples + getattr(fb, ch).samples
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_sphere_geometry_unsupported(self):
        geom = builtin_array("sphere32")
        srir = MultichannelIr(np.zeros((32, 64)), FS)
        with pytest.raises(UnsupportedGeometryError):
            encode_foa_open_array(srir, geom)

    def test_channel_count_checked(self):
        geom = builtin_array("om6")
        srir = MultichannelIr(np.zeros((4, 64)), FS)
        with pytest.raises(ValueError):
            encode_foa_open_array(srir, geom)


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
