import hashlib
import itertools
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from srirkit import doa
from srirkit.arrays import builtin_array
from srirkit.doa import (
    DoaTrajectory,
    TfDoaField,
    piv_broadband_doa,
    tdoa_ls_doa,
    tf_piv_analysis,
)
from srirkit.dsp import refine_peaks, stft
from srirkit.errors import TruncatedResponseWarning
from srirkit.grids import direction_from_azel, fibonacci_grid, nearest_directions
from srirkit.ism import enumerate_images, render_array_srir
from srirkit.presets import om6, scene
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


@pytest.fixture(scope="module")
def front_left_srir():
    """The canonical om6 SRIR: front_left, 48 kHz, 0.4 s, max_order 30."""
    sc = scene("front_left", receiver=om6(), max_order=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        return render_array_srir(enumerate_images(sc), sc.receiver, FS, int(0.4 * FS))


def _frame_fft_tdoa_doa(srir, geometry, window_size):
    """The earlier form of tdoa_ls_doa: a zero-padded FFT of every windowed
    frame, all lags of every pair, then the kept lags cut out."""
    n, rate = len(srir), srir.sample_rate
    data = srir.samples / np.abs(srir.samples).max()
    pairs = list(itertools.combinations(range(data.shape[0]), 2))
    baselines = np.array([geometry.positions[i] - geometry.positions[j] for i, j in pairs])
    max_lags = np.ceil(np.linalg.norm(baselines, axis=1) / C * rate).astype(int) + 2
    half, nfft = window_size // 2, 2 * window_size
    padded = np.pad(data, ((0, 0), (half, window_size - half)))
    tdoas, energies = np.empty((n, len(pairs))), np.empty(n)
    chunk = int(2_000_000 / (data.shape[0] * window_size))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        frames = np.lib.stride_tricks.sliding_window_view(
            padded[:, start : stop + window_size - 1], window_size, axis=1
        ) * np.hanning(window_size)
        energies[start:stop] = np.sum(frames * frames, axis=(0, 2))
        spectra = np.fft.rfft(frames, n=nfft, axis=2)
        for p, (i, j) in enumerate(pairs):
            corr = np.fft.irfft(np.conj(spectra[i]) * spectra[j], n=nfft, axis=1)
            ml = max_lags[p]
            lags = np.concatenate([corr[:, nfft - ml :], corr[:, : ml + 1]], axis=1)
            tdoas[start:stop, p] = (refine_peaks(lags) - ml) / rate
    return _solve(baselines, tdoas, energies)


def _fir_tdoa_doa(srir, geometry, window_size):
    """The per-lag form of tdoa_ls_doa: each kept lag's product series
    x_i(t) x_j(t + tau) through its taper FIR by one np.convolve."""
    n, rate = len(srir), srir.sample_rate
    data = srir.samples / np.abs(srir.samples).max()
    pairs = list(itertools.combinations(range(data.shape[0]), 2))
    baselines = np.array([geometry.positions[i] - geometry.positions[j] for i, j in pairs])
    max_lags = np.ceil(np.linalg.norm(baselines, axis=1) / C * rate).astype(int) + 2
    max_lags = np.minimum(max_lags, window_size - 1)
    half = window_size // 2
    padded = np.pad(data, ((0, 0), (half, window_size - half - 1)))
    taper = np.hanning(window_size)
    energies = np.empty(n)
    for start in range(0, n, 512):
        frames = np.lib.stride_tricks.sliding_window_view(
            padded[:, start : start + 512 + window_size - 1], window_size, axis=1
        ) * taper
        energies[start : start + 512] = np.sum(frames * frames, axis=(0, 2))
    width = padded.shape[1]
    tdoas = np.empty((n, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        ml = max_lags[p]
        lags = np.empty((n, 2 * ml + 1))
        for lag in range(-ml, ml + 1):
            k = abs(lag)
            lo, hi = (k, 0) if lag < 0 else (0, k)
            product = padded[i, lo : width - hi] * padded[j, hi : width - lo]
            fir = (taper[: window_size - k] * taper[k:])[::-1]
            lags[:, lag + ml] = np.convolve(product, fir, mode="valid")
        tdoas[:, p] = (refine_peaks(lags) - ml) / rate
    return _solve(baselines, tdoas, energies)


def _solve(baselines, tdoas, energies):
    slowness = (np.linalg.pinv(baselines) @ (C * tdoas.T)).T
    norms = np.linalg.norm(slowness, axis=1)
    valid = (norms > 1e-9) & (energies > 0.0)
    directions = np.zeros((len(tdoas), 3))
    directions[valid] = slowness[valid] / norms[valid, None]
    return directions, valid


#: (samples of the canonical SRIR, array, window) for the oracle comparison;
#: None takes them all, "plane-wave" is a sphere32 plane wave instead. The
#: direct sound reaches the canonical array at sample 258.
_FIR_CASES = {
    "canonical": (None, "om6", WINDOW),
    "window-31": ((0, 3000), "om6", 31),
    "window-33": ((0, 3000), "om6", 33),
    "window-65": ((0, 3000), "om6", 65),
    "window-8-clips-max-lags": ((0, 3000), "om6", 8),
    "n-70": ((250, 320), "om6", WINDOW),
    "n-not-a-block-multiple": ((0, 2017), "om6", WINDOW),
    "sphere32-plane-wave": ("plane-wave", "sphere32", 32),
}


class TestTdoaLsDoa:
    def test_matches_the_frame_fft_form(self, front_left_srir):
        """Only the kept lags, as blocked Toeplitz products, give the
        frame-FFT result: the same valid mask, and the same directions
        wherever the channel-average pressure that SDM plays them on is
        non-zero."""
        traj = tdoa_ls_doa(front_left_srir, om6(), WINDOW)
        directions, valid = _frame_fft_tdoa_doa(front_left_srir, om6(), WINDOW)
        assert np.array_equal(traj.valid, valid)
        heard = front_left_srir.samples.mean(axis=0) != 0.0
        assert np.abs(traj.directions - directions)[heard].max() <= 1e-12

    @pytest.mark.parametrize("case", list(_FIR_CASES))
    def test_matches_the_per_lag_fir_form(self, front_left_srir, case):
        """The blocked Toeplitz product sums each window in another order
        than one np.convolve per lag: the same valid mask, the same
        directions to 1e-12 wherever the channel-average pressure is
        non-zero, and the same nearest of 240 directions at every sample."""
        cut, array, window = _FIR_CASES[case]
        geometry = builtin_array(array)
        if cut is None:
            srir = front_left_srir
        elif cut == "plane-wave":
            srir = _plane_wave_srir(geometry, direction_from_azel(30.0, 20.0), n=1600,
                                    base_s=0.01)
        else:
            srir = MultichannelIr(front_left_srir.samples[:, slice(*cut)], FS)
        traj = tdoa_ls_doa(srir, geometry, window)
        directions, valid = _fir_tdoa_doa(srir, geometry, window)
        assert valid.any()
        assert np.array_equal(traj.valid, valid)
        heard = srir.samples.mean(axis=0) != 0.0
        assert np.abs(traj.directions - directions)[heard].max() <= 1e-12
        table = fibonacci_grid(240).directions
        assert np.array_equal(nearest_directions(traj.directions, table)[0],
                              nearest_directions(directions, table)[0])

    def test_memory_is_bounded(self, front_left_srir):
        """6 x 19,200 samples: 97 MB when every frame was transformed, and
        14.4 MB with one np.convolve per lag into a pair's whole (n, lags)
        array; a chunk's lag products held beside that array read about
        20 MB."""
        tracemalloc.start()
        try:
            tdoa_ls_doa(front_left_srir, om6(), WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert peak < 16e6

    def test_energy_chunk_leaves_the_trajectory_bytes(self, front_left_srir, monkeypatch):
        """The lag products eight blocks at a time (the least chunk, which
        1, 9,405 and 26,125 elements all give) and over the whole signal at
        once give the trajectory of the default chunks (72 and 24 of the 96
        blocks for the widest pairs), byte for byte; the silence before the
        direct sound keeps some samples invalid."""
        srir = MultichannelIr(front_left_srir.samples[:, :3000], FS)
        base = tdoa_ls_doa(srir, om6(), WINDOW)
        assert not base.valid.all()
        for elements in (1, 3 * 33 * 95, 11 * 25 * 95, srir.samples.size * WINDOW):
            monkeypatch.setattr(doa, "_FRAME_CHUNK", elements)
            traj = tdoa_ls_doa(srir, om6(), WINDOW)
            assert traj.directions.tobytes() == base.directions.tobytes()
            assert traj.valid.tobytes() == base.valid.tobytes()

    def test_trajectory_bytes_do_not_depend_on_blas_threads(self, front_left_srir, tmp_path,
                                                            blas_env):
        """The lag products run through BLAS; one thread and two give the
        canonical trajectory the same bytes."""
        path = tmp_path / "srir.npy"
        np.save(path, front_left_srir.samples)
        script = (
            "import hashlib, sys, numpy as np\n"
            "from srirkit.doa import tdoa_ls_doa\n"
            "from srirkit.presets import om6\n"
            "from srirkit.signals import MultichannelIr\n"
            f"traj = tdoa_ls_doa(MultichannelIr(np.load(sys.argv[1]), {FS}), om6(), {WINDOW})\n"
            "print(hashlib.sha256(traj.directions.tobytes() + traj.valid.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in (1, 2):
            run = subprocess.run([sys.executable, "-c", script, str(path)], env=blas_env(threads),
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.append(run.stdout.strip())
        traj = tdoa_ls_doa(front_left_srir, om6(), WINDOW)
        here = hashlib.sha256(traj.directions.tobytes() + traj.valid.tobytes()).hexdigest()
        assert digests == [here, here]

    @pytest.mark.parametrize("coretype", ["Haswell", "Nehalem"])
    def test_byte_checks_hold_on_forced_blas_kernels(self, coretype, blas_env):
        """OpenBLAS's Haswell kernel (also taken on Zen) and its pre-AVX
        Nehalem one sum a product's row tail in another order: the chunk and
        thread byte checks above, rerun in a child forced onto each kernel."""
        checks = [f"{__file__}::TestTdoaLsDoa::test_energy_chunk_leaves_the_trajectory_bytes",
                  f"{__file__}::TestTdoaLsDoa::test_trajectory_bytes_do_not_depend_on_blas_threads"]
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              *checks], env=blas_env(1, coretype), capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stdout[-3000:]

    @pytest.mark.parametrize("window_size", [0, -3, 1, 3.5])
    def test_window_must_be_an_integer_of_at_least_2(self, window_size):
        """These died inside numpy: a negative index (0, -3), an IndexError
        in refine_peaks (1) and a TypeError from np.pad (3.5)."""
        srir = MultichannelIr(np.ones((6, 200)), FS)
        with pytest.raises(ValueError, match=f"window_size must be an integer >= 2, "
                                             f"got {window_size}"):
            tdoa_ls_doa(srir, om6(), window_size)

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

    @pytest.mark.parametrize("n", [2, 15])
    def test_fifteen_samples_or_fewer_rejected(self, n):
        foa = FoaSignal(np.ones((4, n)), FS)
        with pytest.raises(ValueError, match="more than 15 samples"):
            piv_broadband_doa(foa, 4, *BAND)
        assert len(piv_broadband_doa(FoaSignal(np.ones((4, 16)), FS), 4, *BAND)) == 16

    def test_band_above_nyquist_rejected(self):
        foa = _plane_wave_foa(direction_from_azel(0, 0))
        with pytest.raises(ValueError):
            piv_broadband_doa(foa, WINDOW, 200.0, 30000.0)

    @pytest.mark.parametrize("window_size", [2.5, True, 0, -1])
    def test_window_must_be_an_integer_of_at_least_1(self, window_size):
        """2.5 and 0 died inside numpy (pad_width's type, a negative index),
        and True smoothed over one sample."""
        foa = _plane_wave_foa(direction_from_azel(0, 0))
        with pytest.raises(ValueError, match=f"window_size must be an integer >= 1, "
                                             f"got {window_size!r}"):
            piv_broadband_doa(foa, window_size, *BAND)


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

    @pytest.mark.parametrize("averaging_frames", [2.5, True, 0])
    def test_averaging_frames_must_be_an_integer_of_at_least_1(self, rng, averaging_frames):
        """2.5 averaged with an EMA weight of 0.4, and True counted as 1."""
        frames = _stationary_plane_wave_frames(direction_from_azel(0, 0), rng, n=2048)
        with pytest.raises(ValueError, match=f"averaging_frames must be an integer >= 1, "
                                             f"got {averaging_frames!r}"):
            tf_piv_analysis(frames, averaging_frames)

    def test_metadata_mismatch_rejected(self, rng):
        for shape in ((4096,), (3, 4096), (5, 4096), (2, 4, 4096)):
            with pytest.raises(ValueError):
                tf_piv_analysis(stft(rng.normal(size=shape), FS, 256, 128))

    def test_psi_bounds_and_unit_directions(self, rng):
        field = tf_piv_analysis(stft(rng.normal(size=(4, 4096)), FS, 256, 128))
        assert field.psi.min() >= 0.0 and field.psi.max() <= 1.0
        norms = np.linalg.norm(field.directions, axis=2)
        assert np.abs(norms - 1.0).max() < 1e-9


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
