import numpy as np
import pytest

from srirkit.arrays import builtin_array
from srirkit.doa import (
    DoaTrajectory,
    TfDoaField,
    piv_broadband_doa,
    tdoa_ls_doa,
    tf_piv_analysis,
)
from srirkit.dsp import stft
from srirkit.grids import direction_from_azel
from srirkit.signals import FoaSignal, MultichannelIr

FS = 48000.0
C = 343.0
WINDOW = 64  # samples; the TDOA window and the intensity smoothing length
BAND = (200.0, 2400.0)  # Hz, the piv-broadband band


def _sinc_pulse(t, width=2e-4):
    return np.sinc(t / width) * np.exp(-0.5 * (t / (4 * width)) ** 2)


def _plane_wave_srir(geometry, direction, n=4000, base_s=0.02, waveform=_sinc_pulse):
    t = np.arange(n) / FS
    channels = []
    for pos in geometry.positions:
        delay = base_s - float(pos @ direction) / C
        channels.append(waveform(t - delay))
    return MultichannelIr(np.stack(channels), FS)


def _plane_wave_foa(direction, n=4000, base_s=0.02, waveform=_sinc_pulse):
    t = np.arange(n) / FS
    p = waveform(t - base_s)
    return FoaSignal(np.stack([p, direction[0] * p, direction[1] * p, direction[2] * p]), FS)


def _angle_deg(a, b):
    return np.degrees(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


class TestTdoaLsDoa:
    def test_identical_channels_masked_invalid(self, rng):
        sig = rng.normal(size=2000)
        srir = MultichannelIr(np.tile(sig, (6, 1)), FS)
        traj = tdoa_ls_doa(srir, builtin_array("om6"), WINDOW)
        assert not traj.valid.any()

    @pytest.mark.parametrize("azimuth,expected", [
        (0.0, (1.0, 0.0, 0.0)),
        (90.0, (0.0, 1.0, 0.0)),
    ])
    def test_plane_wave_azimuth(self, azimuth, expected):
        geom = builtin_array("om6")
        direction = direction_from_azel(azimuth, 0.0)
        # Analytic oracle: at azimuth 0 the +X capsule leads -X by
        # 0.1 m / 343 m/s = 0.2915 ms.
        srir = _plane_wave_srir(geom, direction)
        lead = (srir.samples[1].argmax() - srir.samples[0].argmax()) / FS
        if azimuth == 0.0:
            assert lead * 1e3 == pytest.approx(0.2915, abs=0.05)
        traj = tdoa_ls_doa(srir, geom, WINDOW)
        idx = int(0.02 * FS)
        assert traj.valid[idx]
        assert _angle_deg(traj.directions[idx], np.asarray(expected)) < 2.0

    def test_scale_invariance(self, rng):
        geom = builtin_array("om6")
        srir = _plane_wave_srir(geom, direction_from_azel(40.0, 10.0))
        scaled = srir.scaled(7.5)
        a = tdoa_ls_doa(srir, geom, WINDOW)
        b = tdoa_ls_doa(scaled, geom, WINDOW)
        assert np.array_equal(a.valid, b.valid)
        assert np.allclose(a.directions[a.valid], b.directions[b.valid], atol=1e-9)

    def test_common_delay_invariance(self):
        geom = builtin_array("om6")
        srir = _plane_wave_srir(geom, direction_from_azel(-30.0, 0.0))
        shift = 64
        delayed = MultichannelIr(np.roll(srir.samples, shift, axis=1), FS)
        a = tdoa_ls_doa(srir, geom, WINDOW)
        b = tdoa_ls_doa(delayed, geom, WINDOW)
        idx = int(0.02 * FS)
        assert np.allclose(
            a.directions[idx], b.directions[idx + shift], atol=1e-6
        )

    def test_rotation_equivariance(self):
        geom = builtin_array("om6")
        u = direction_from_azel(25.0, 15.0)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        idx = int(0.02 * FS)
        a = tdoa_ls_doa(_plane_wave_srir(geom, u), geom, WINDOW)
        b = tdoa_ls_doa(_plane_wave_srir(geom, rot @ u), geom, WINDOW)
        assert _angle_deg(rot @ a.directions[idx], b.directions[idx]) < 2.0

    def test_window_too_large_rejected(self):
        geom = builtin_array("om6")
        srir = MultichannelIr(np.ones((6, 32)), FS)
        with pytest.raises(ValueError):
            tdoa_ls_doa(srir, geom, WINDOW)

    def test_all_valid_directions_unit_norm(self, rng):
        geom = builtin_array("om6")
        srir = MultichannelIr(rng.normal(size=(6, 1500)), FS)
        traj = tdoa_ls_doa(srir, geom, WINDOW)
        norms = np.linalg.norm(traj.directions[traj.valid], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_sphere32_geometry_supported(self):
        geom = builtin_array("sphere32")
        u = direction_from_azel(30.0, 0.0)
        srir = _plane_wave_srir(geom, u, n=1600, base_s=0.01)
        traj = tdoa_ls_doa(srir, geom, window_size=32)
        idx = int(0.01 * FS)
        assert traj.valid[idx]
        assert _angle_deg(traj.directions[idx], u) < 2.0


class TestPivBroadbandDoa:
    def test_w_only_masked_invalid(self, rng):
        n = 2000
        foa = FoaSignal(np.vstack([rng.normal(size=n), np.zeros((3, n))]), FS)
        traj = piv_broadband_doa(foa, WINDOW, *BAND)
        assert not traj.valid.any()

    def test_ideal_plane_wave_within_1_degree(self):
        u = direction_from_azel(65.0, -20.0)
        foa = _plane_wave_foa(u)
        traj = piv_broadband_doa(foa, WINDOW, *BAND)
        idx = int(0.02 * FS)
        window = slice(idx - 16, idx + 16)
        assert traj.valid[window].all()
        for d in traj.directions[window]:
            assert _angle_deg(d, u) < 1.0

    def test_band_limit_rejects_out_of_band_interference(self):
        u_pulse = direction_from_azel(0.0, 0.0)
        u_tone = direction_from_azel(180.0, 0.0)
        n = 4000
        t = np.arange(n) / FS
        pulse = np.sin(2 * np.pi * 1000.0 * (t - 0.02)) * np.exp(
            -0.5 * ((t - 0.02) / 2e-3) ** 2
        )
        tone = 0.8 * np.sin(2 * np.pi * 8000.0 * t)  # above the 2400 Hz band
        foa = FoaSignal(np.stack([
            pulse + tone,
            u_pulse[0] * pulse + u_tone[0] * tone,
            u_pulse[1] * pulse + u_tone[1] * tone,
            u_pulse[2] * pulse + u_tone[2] * tone,
        ]), FS)
        traj = piv_broadband_doa(foa, WINDOW, *BAND)
        idx = int(0.02 * FS)
        assert traj.valid[idx]
        assert _angle_deg(traj.directions[idx], u_pulse) < 2.0

    def test_scale_invariance(self):
        u = direction_from_azel(120.0, 30.0)
        foa = _plane_wave_foa(u)
        scaled = foa.scaled(3.0)
        a = piv_broadband_doa(foa, WINDOW, *BAND)
        b = piv_broadband_doa(scaled, WINDOW, *BAND)
        assert np.array_equal(a.valid, b.valid)
        assert np.allclose(a.directions[a.valid], b.directions[b.valid], atol=1e-9)

    def test_band_above_nyquist_rejected(self):
        foa = _plane_wave_foa(direction_from_azel(0, 0))
        with pytest.raises(ValueError):
            piv_broadband_doa(foa, WINDOW, 200.0, 30000.0)


def _stationary_plane_wave_frames(direction, rng, n=8192, window=256):
    sig = rng.normal(size=n)
    scales = np.array([1.0, direction[0], direction[1], direction[2]])
    return stft(scales[:, None] * sig, FS, window, window // 2)


class TestTfPivAnalysis:
    def test_plane_wave_low_diffuseness(self, rng):
        u = direction_from_azel(140.0, 20.0)
        frames = _stationary_plane_wave_frames(u, rng)
        field = tf_piv_analysis(frames, averaging_frames=1)
        w = frames.values[0]
        occupied = np.abs(w) >= 0.01 * np.abs(w).max()
        assert field.psi[occupied].max() < 0.05
        dirs = field.directions[occupied]
        worst = np.degrees(
            np.arccos(np.clip(dirs @ u, -1.0, 1.0))
        ).max()
        assert worst < 1.0

    def test_default_averaging_plane_wave(self, rng):
        u = direction_from_azel(-45.0, 0.0)
        frames = _stationary_plane_wave_frames(u, rng)
        field = tf_piv_analysis(frames, averaging_frames=8)
        w = frames.values[0]
        occupied = np.abs(w[16:]) >= 0.01 * np.abs(w).max()
        assert np.median(field.psi[16:][occupied]) < 0.05

    def test_w_only_fully_diffuse(self, rng):
        foa = np.zeros((4, 4096))
        foa[0] = rng.normal(size=4096)
        frames = stft(foa, FS, 256, 128)
        field = tf_piv_analysis(frames)
        w = frames.values[0]
        occupied = np.abs(w) >= 0.01 * np.abs(w).max()
        assert np.all(field.psi[occupied] == 1.0)

    def test_diffuse_superposition_high_psi(self, rng):
        # Dense superposition of short plane-wave bursts from uniform random
        # directions (a late-reverb-tail stand-in). The estimator's finite-
        # averaging bias floors psi near 1 - 0.65 / sqrt(M_eff): Monte-Carlo
        # gives ~0.82 at 8-frame EMA and crosses 0.9 by 32 frames.
        n, window, burst = 49152, 256, 256
        w_sig = np.zeros(n)
        xyz_sig = np.zeros((3, n))
        taper = np.hanning(burst)
        for _ in range(4500):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            start = rng.integers(0, n - burst)
            sig = rng.normal(size=burst) * taper
            w_sig[start : start + burst] += sig
            xyz_sig[:, start : start + burst] += u[:, None] * sig
        frames = stft(np.vstack([w_sig, xyz_sig]), FS, window, window // 2)
        field8 = tf_piv_analysis(frames, averaging_frames=8)
        assert np.median(field8.psi[16:]) > 0.8
        field32 = tf_piv_analysis(frames, averaging_frames=32)
        assert np.median(field32.psi[64:]) > 0.9

    def test_mixed_field_diffuseness_tracks_power_ratio(self):
        # For a plane wave plus an isotropic diffuse field, theory gives
        # psi = P_diffuse / P_total per bin; both components are constructed
        # separately, so the expected value is known exactly.
        rng = np.random.default_rng(31415)
        n, window, burst = 49152, 256, 256
        taper = np.hanning(burst)

        def diffuse_field(power_scale):
            w = np.zeros(n)
            xyz = np.zeros((3, n))
            for _ in range(4500):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                start = rng.integers(0, n - burst)
                sig = rng.normal(size=burst) * taper
                w[start : start + burst] += sig
                xyz[:, start : start + burst] += u[:, None] * sig
            norm = power_scale / np.sqrt(np.mean(w**2))
            return w * norm, xyz * norm

        u_dir = np.array([0.6, 0.64, 0.48])
        u_dir /= np.linalg.norm(u_dir)
        for ratio in (1.0, 3.0):  # diffuse-to-direct power
            s = rng.normal(size=n)
            w_f, xyz_f = diffuse_field(np.sqrt(ratio))
            foa = np.vstack([s + w_f, u_dir[:, None] * s + xyz_f])
            field = tf_piv_analysis(stft(foa, FS, window, window // 2), averaging_frames=32)
            e_direct = np.mean(
                np.abs(stft(s, FS, window, window // 2).values[64:]) ** 2, axis=0
            )
            e_diffuse = np.mean(
                np.abs(stft(w_f, FS, window, window // 2).values[64:]) ** 2, axis=0
            )
            psi_theory = e_diffuse / (e_direct + e_diffuse)
            psi_est = np.median(field.psi[64:], axis=0)
            assert np.median(np.abs(psi_est - psi_theory)) < 0.05
            assert abs(np.median(psi_est) - np.median(psi_theory)) < 0.03

    def test_metadata_mismatch_rejected(self, rng):
        for shape in ((4096,), (3, 4096), (5, 4096), (2, 4, 4096)):
            with pytest.raises(ValueError):
                tf_piv_analysis(stft(rng.normal(size=shape), FS, 256, 128))

    def test_psi_bounds_and_unit_directions(self, rng):
        field = tf_piv_analysis(stft(rng.normal(size=(4, 4096)), FS, 256, 128))
        assert field.psi.min() >= 0.0 and field.psi.max() <= 1.0
        norms = np.linalg.norm(field.directions, axis=2)
        assert np.abs(norms - 1.0).max() < 1e-9


def test_trajectory_csv_round_trip(tmp_path, rng):
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    valid = rng.uniform(size=20) > 0.3
    dirs[~valid] = 0.0
    traj = DoaTrajectory(dirs, valid)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "sample,x,y,z,valid"
    assert len(rows) == 21


def test_field_validation():
    with pytest.raises(ValueError):
        TfDoaField(np.zeros((2, 3, 3)), np.zeros((2, 3)), 64, 32, FS)  # zero dirs
    dirs = np.zeros((2, 3, 3))
    dirs[..., 0] = 1.0
    with pytest.raises(ValueError):
        TfDoaField(dirs, np.full((2, 3), 1.5), 64, 32, FS)  # psi out of range


def test_nan_is_neither_a_unit_direction_nor_a_diffuseness():
    dirs = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="unit vectors"):
        DoaTrajectory(dirs, np.array([True, True]))
    DoaTrajectory(dirs, np.array([True, False]))  # an invalid row is not checked
    field_dirs = np.zeros((2, 3, 3))
    field_dirs[..., 0] = 1.0
    psi = np.zeros((2, 3))
    field_dirs[1, 2] = np.nan
    with pytest.raises(ValueError, match="unit vectors"):
        TfDoaField(field_dirs, psi, 64, 32, FS)
    field_dirs[1, 2] = [1.0, 0.0, 0.0]
    psi[0, 1] = np.nan
    with pytest.raises(ValueError, match="psi"):
        TfDoaField(field_dirs, psi, 64, 32, FS)
