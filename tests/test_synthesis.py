import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from srirkit import synthesis
from srirkit.doa import DoaTrajectory, TfDoaField
from srirkit.dsp import istft, stft
from srirkit.errors import MissingHrirError
from srirkit.grids import LoudspeakerGrid, fibonacci_grid, grid_from_directions
from srirkit.hrir import HrirSet, spherical_head_hrir_set
from srirkit.signals import MonoIr, StftFrames
from srirkit.synthesis import (
    DECORRELATOR_TAPS,
    SampleAssignment,
    VirtualLoudspeakerSignals,
    binaural_render,
    decorrelation_kernel,
    sdm_synthesize,
    sirr_synthesize,
    sirr_tf_streams,
)
from srirkit.vbap import vbap_gain_table

FS = 48000.0


def _random_trajectory(rng, n, invalid_fraction=0.0):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    valid = rng.uniform(size=n) >= invalid_fraction
    dirs[~valid] = 0.0
    return DoaTrajectory(dirs, valid)


class TestSdmSynthesize:
    def test_impulse_at_grid_vertex_lands_whole(self):
        grid = fibonacci_grid(24)
        n = 64
        pressure = MonoIr(np.zeros(n) + np.eye(1, n, 10)[0], FS)
        dirs = np.tile(grid.directions[5], (n, 1))
        traj = DoaTrajectory(dirs, np.ones(n, bool))
        signals = sdm_synthesize(pressure, traj, grid, k=1).dense()
        assert signals[5, 10] == 1.0
        total = signals.copy()
        total[5, 10] = 0.0
        assert np.all(total == 0.0)

    def test_per_sample_energy_exact_k1(self, rng):
        grid = fibonacci_grid(16)
        n = 500
        pressure = MonoIr(rng.normal(size=n), FS)
        traj = _random_trajectory(rng, n, invalid_fraction=0.2)
        signals = sdm_synthesize(pressure, traj, grid, k=1).dense()
        # bit-level: each sample appears verbatim on exactly one speaker
        nonzero_counts = np.count_nonzero(signals, axis=0)
        assert np.all(nonzero_counts <= 1)
        col_sum = signals.sum(axis=0)
        assert np.array_equal(col_sum, pressure.samples)
        assert np.array_equal(
            np.sum(signals**2, axis=0), pressure.samples**2
        )

    def test_invalid_samples_inherit_previous_assignment(self):
        grid = fibonacci_grid(16)
        n = 12
        dirs = np.zeros((n, 3))
        valid = np.zeros(n, bool)
        dirs[4] = grid.directions[9]
        valid[4] = True
        traj = DoaTrajectory(dirs, valid)
        pressure = MonoIr(np.ones(n), FS)
        signals = sdm_synthesize(pressure, traj, grid, k=1).dense()
        # after sample 4 everything inherits speaker 9
        assert np.all(signals[9, 4:] == 1.0)
        # before the first valid sample, the frontal speaker carries it
        frontal = int(np.argmax(grid.directions @ np.array([1.0, 0.0, 0.0])))
        assert np.all(signals[frontal, :4] == 1.0)

    def test_length_mismatch_rejected(self, rng):
        grid = fibonacci_grid(8)
        with pytest.raises(ValueError):
            sdm_synthesize(
                MonoIr(np.ones(10), FS), _random_trajectory(rng, 9), grid
            )

    def test_assignment_validated(self):
        grid = fibonacci_grid(8)
        speakers = np.zeros((4, 2), dtype=np.intp)
        with pytest.raises(ValueError, match="must be \\(n, k\\)"):
            SampleAssignment(grid, speakers, np.zeros((4, 3)), FS)
        with pytest.raises(ValueError, match="out of range"):
            SampleAssignment(grid, speakers + 8, np.zeros((4, 2)), FS)
        with pytest.raises(ValueError, match="out of range"):
            SampleAssignment(grid, speakers - 1, np.zeros((4, 2)), FS)
        with pytest.raises(ValueError, match="finite"):
            SampleAssignment(grid, speakers, np.full((4, 2), np.nan), FS)
        for rate in (0.0, 44100.5):
            with pytest.raises(ValueError, match="sample rate"):
                SampleAssignment(grid, speakers, np.zeros((4, 2)), rate)

    def test_deterministic(self, rng):
        grid = fibonacci_grid(16)
        n = 200
        pressure = MonoIr(rng.normal(size=n), FS)
        traj = _random_trajectory(rng, n, invalid_fraction=0.1)
        a = sdm_synthesize(pressure, traj, grid, k=2)
        b = sdm_synthesize(pressure, traj, grid, k=2)
        assert np.array_equal(a.dense(), b.dense())


def _smooth_field(rng, frames, bins, window_size, hop):
    """Direction field varying slowly over time, random psi."""
    base = rng.normal(size=3)
    base /= np.linalg.norm(base)
    dirs = np.tile(base, (frames, bins, 1))
    psi = np.clip(rng.uniform(0.0, 1.0, size=(frames, bins)), 0.0, 1.0)
    return TfDoaField(dirs, psi, window_size, hop, FS)


class TestSirrSynthesize:
    def _framed_noise(self, rng, n=8192, window=256):
        sig = rng.normal(size=n)
        sig[: window] = 0.0
        sig[-window:] = 0.0
        return sig, stft(sig, FS, window, window // 2)

    def test_loudspeaker_signals_validated(self):
        grid = fibonacci_grid(8)
        with pytest.raises(ValueError, match="samples must be"):
            VirtualLoudspeakerSignals(grid, np.zeros((7, 4)), FS)
        for rate in (0.0, 44100.5):
            with pytest.raises(ValueError, match="sample rate"):
                VirtualLoudspeakerSignals(grid, np.zeros((8, 4)), rate)

    def test_psi_zero_matches_pure_vbap_pan(self, rng):
        grid = fibonacci_grid(12)
        sig, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, np.zeros((t, f)), 128, 64, FS)
        vls = sirr_synthesize(frames, field, grid, seed=3)

        # no diffuse tail beyond the istft length
        time_len = (t - 1) * 64 + 128
        assert np.all(vls.samples[:, time_len:] == 0.0)

        # expected: per-bin VBAP pan, one gain-table row per bin
        idx, gains = vbap_gain_table(dirs.reshape(-1, 3), grid)
        idx, gains = idx.reshape(t, f, 3), gains.reshape(t, f, 3)
        expected_tf = np.zeros((len(grid), t, f), dtype=complex)
        for ti in range(t):
            for fi in range(f):
                for s, g in zip(idx[ti, fi], gains[ti, fi]):
                    expected_tf[s, ti, fi] += g * frames.values[ti, fi]
        for s in range(len(grid)):
            expected = istft(StftFrames(expected_tf[s], 128, 64, FS))
            assert np.abs(vls.samples[s, :time_len] - expected).max() < 1e-6

    def test_uncovered_grid_raises_instead_of_silence(self, rng):
        # An octahedron's four upper faces leave the lower hemisphere bare;
        # the grid is built past the constructor, which refuses it.
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        with mock.patch.object(LoudspeakerGrid, "__post_init__", lambda self: None):
            upper = np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2]])
            grid = LoudspeakerGrid(octahedron, upper)
        _, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        down = np.broadcast_to([0.0, 0.0, -1.0], (t, f, 3))
        field = TfDoaField(down, np.zeros((t, f)), 128, 64, FS)
        with pytest.raises(ValueError, match="does not cover the sphere"):
            sirr_synthesize(frames, field, grid)

    def test_blocked_direct_stream_matches_dense_build(self, rng):
        """37 loudspeakers, not a multiple of the block: the output equals one
        dense (speakers, frames, bins) direct stream's render, bit for bit."""
        grid = fibonacci_grid(37)
        _, frames = self._framed_noise(rng, n=4096, window=128)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, rng.uniform(size=(t, f)), 128, 64, FS)
        speakers, direct, diffuse_tf = sirr_tf_streams(frames, field, grid)
        dense = np.zeros((len(grid), t, f), dtype=complex)
        dense[speakers, np.arange(t)[:, None, None], np.arange(f)[:, None]] = direct
        assert len(np.unique(speakers)) == len(grid)
        expected = np.pad(istft(StftFrames(dense, 128, 64, FS)),
                          ((0, 0), (0, DECORRELATOR_TAPS - 1)))
        kernels = np.stack([decorrelation_kernel(5, ls) for ls in range(len(grid))])
        diffuse_td = istft(StftFrames(diffuse_tf, 128, 64, FS))
        expected += sps.fftconvolve(diffuse_td[None, :], kernels, mode="full", axes=-1)
        assert np.array_equal(sirr_synthesize(frames, field, grid, seed=5).samples, expected)

    def test_decorrelation_memory_is_bounded_by_the_output(self, rng):
        """240 loudspeakers x 19,200 samples with a diffuse stream: the
        decorrelators run one loudspeaker block at a time, so the peak stays
        below twice the output (one (240, ~20k) spectrum alone is as large)."""
        grid = fibonacci_grid(240)
        frames = stft(rng.normal(size=19200), FS, 64, 32)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, rng.uniform(size=(t, f)), 64, 32, FS)
        tracemalloc.start()
        try:
            vls = sirr_synthesize(frames, field, grid, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * vls.samples.nbytes

    def test_psi_one_output_ignores_directions(self, rng):
        grid = fibonacci_grid(12)
        _, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        ones = np.ones((t, f))
        dirs_a = rng.normal(size=(t, f, 3))
        dirs_a /= np.linalg.norm(dirs_a, axis=2, keepdims=True)
        dirs_b = rng.normal(size=(t, f, 3))
        dirs_b /= np.linalg.norm(dirs_b, axis=2, keepdims=True)
        a = sirr_synthesize(frames, TfDoaField(dirs_a, ones, 128, 64, FS), grid, seed=1)
        b = sirr_synthesize(frames, TfDoaField(dirs_b, ones, 128, 64, FS), grid, seed=1)
        assert np.array_equal(a.samples, b.samples)  # direct stream is zero

    def test_per_bin_energy_split_exact(self, rng):
        grid = fibonacci_grid(20)
        _, frames = self._framed_noise(rng)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        psi = np.clip(rng.uniform(size=(t, f)), 0, 1)
        field = TfDoaField(dirs, psi, frames.window_size, frames.hop, FS)
        _, direct, diffuse_tf = sirr_tf_streams(frames, field, grid)
        total = np.sum(np.abs(direct) ** 2, axis=-1) + len(grid) * np.abs(diffuse_tf) ** 2
        reference = np.abs(frames.values) ** 2
        scale = reference.max()
        assert np.abs(total - reference).max() / scale < 1e-6

    def test_broadband_energy_preserved_smooth_field(self, rng):
        grid = fibonacci_grid(24)
        sig, frames = self._framed_noise(rng)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, frames.window_size, frames.hop)
        vls = sirr_synthesize(frames, field, grid, seed=9)
        ratio_db = 10 * np.log10(np.sum(vls.samples**2) / np.sum(sig**2))
        assert abs(ratio_db) < 0.5

    def test_metadata_mismatch_rejected(self, rng):
        grid = fibonacci_grid(8)
        _, frames = self._framed_noise(rng, n=2048, window=128)
        bad = _smooth_field(rng, 3, 5, 64, 32)
        with pytest.raises(ValueError):
            sirr_synthesize(frames, bad, grid, seed=0)

    def test_seed_determinism(self, rng):
        grid = fibonacci_grid(8)
        _, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, 128, 64)
        a = sirr_synthesize(frames, field, grid, seed=42)
        b = sirr_synthesize(frames, field, grid, seed=42)
        c = sirr_synthesize(frames, field, grid, seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 8), speakers=st.integers(8, 40))
def test_sdm_per_sample_energy_property(seed, k, speakers):
    """For any k, sum over loudspeakers of each sample's squared signal is
    the squared pressure, on randomly rotated grids, with invalid samples
    (leading ones included) and DOAs exactly on a grid direction."""
    gen = np.random.default_rng(seed)
    rotation = np.linalg.qr(gen.normal(size=(3, 3)))[0]
    grid = grid_from_directions(fibonacci_grid(speakers).directions @ rotation.T)
    n = 200
    traj = _random_trajectory(gen, n, invalid_fraction=gen.uniform(0.0, 0.5))
    on_grid = gen.uniform(size=n) < 0.1
    dirs = traj.directions.copy()
    dirs[on_grid] = grid.directions[gen.integers(len(grid), size=on_grid.sum())]
    traj = DoaTrajectory(dirs, traj.valid | on_grid)
    pressure = MonoIr(gen.normal(size=n), FS)
    signals = sdm_synthesize(pressure, traj, grid, k=k).dense()
    energy = np.sum(signals**2, axis=0)
    assert np.abs(energy - pressure.samples**2).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), speakers=st.integers(8, 60), k=st.integers(1, 4),
       taps=st.integers(8, 64))
def test_binaural_render_forms_match_direct_convolution_property(seed, speakers, k, taps):
    """An SDM assignment, scattered or summed in the frequency domain over its
    dense form, and the frequency-domain sum of its dense signals all equal a
    per-loudspeaker np.convolve sum; HRIRs are listed in shuffled order, so
    each loudspeaker must find its own pair."""
    gen = np.random.default_rng(seed)
    grid = fibonacci_grid(speakers)
    n = int(gen.integers(1, 300))
    assignment = sdm_synthesize(MonoIr(gen.normal(size=n), FS),
                                _random_trajectory(gen, n, invalid_fraction=0.2), grid, k=k)
    ears = gen.normal(size=(2, speakers, taps))
    order = gen.permutation(speakers)
    hrirs = HrirSet(grid.directions[order], ears[0, order], ears[1, order], FS)

    signals = assignment.dense()
    expected = np.zeros((2, n + taps - 1))
    for s in range(speakers):
        for e in range(2):
            expected[e] += np.convolve(signals[s], ears[e, s])
    renders = [binaural_render(VirtualLoudspeakerSignals(grid, signals, FS), hrirs).samples]
    for ratio in (np.inf, 0.0):  # always scatter, never scatter
        with mock.patch.object(synthesis, "_SCATTER_TAPS_PER_SPEAKER", ratio):
            renders.append(binaural_render(assignment, hrirs).samples)
    tol = 1e-12 * np.abs(expected).max()
    for render in renders:
        assert np.abs(render - expected).max() <= tol
    assert np.abs(renders[1] - renders[2]).max() <= tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), speakers=st.integers(8, 40))
def test_sirr_per_bin_energy_split_property(seed, speakers):
    """sum |direct|^2 + L |diffuse|^2 == |P|^2 in every bin, for random
    directions and psi (exact 0 and 1 included)."""
    gen = np.random.default_rng(seed)
    frames = stft(gen.normal(size=1024), FS, 64, 32)
    t, f = frames.values.shape
    dirs = gen.normal(size=(t, f, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    psi = gen.uniform(size=(t, f))
    psi[gen.uniform(size=(t, f)) < 0.2] = 0.0
    psi[gen.uniform(size=(t, f)) < 0.2] = 1.0
    grid = fibonacci_grid(speakers)
    _, direct, diffuse_tf = sirr_tf_streams(frames, TfDoaField(dirs, psi, 64, 32, FS), grid)
    total = np.sum(np.abs(direct) ** 2, axis=-1) + len(grid) * np.abs(diffuse_tf) ** 2
    reference = np.abs(frames.values) ** 2
    assert np.abs(total - reference).max() <= 1e-12 * reference.max()


class TestDecorrelate:
    def test_zero_in_zero_out(self, rng):
        frames = stft(np.zeros(2048), FS, 128, 64)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, 128, 64)
        vls = sirr_synthesize(frames, field, fibonacci_grid(8), seed=0)
        assert np.all(vls.samples == 0.0)

    def test_energy_preserved_on_white_noise(self, rng):
        from scipy import signal as sps

        x = rng.normal(size=24000)
        kernel = decorrelation_kernel(seed=1, channel_index=4)
        out = sps.fftconvolve(x, kernel, mode="full")
        ratio_db = 10 * np.log10(np.sum(out**2) / np.sum(x**2))
        assert abs(ratio_db) < 0.1
        assert kernel.shape == (DECORRELATOR_TAPS,)

    def test_channels_decorrelated(self, rng):
        from scipy import signal as sps

        x = rng.normal(size=24000)
        a = sps.fftconvolve(x, decorrelation_kernel(seed=5, channel_index=0), mode="full")
        b = sps.fftconvolve(x, decorrelation_kernel(seed=5, channel_index=1), mode="full")
        energy = np.sqrt(np.sum(a**2) * np.sum(b**2))
        peak = np.abs(sps.correlate(a, b, mode="full")).max()
        assert peak / energy < 0.3

    def test_deterministic_in_seed_and_channel(self):
        a = decorrelation_kernel(seed=7, channel_index=2)
        b = decorrelation_kernel(seed=7, channel_index=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, decorrelation_kernel(seed=7, channel_index=3))
        assert not np.array_equal(a, decorrelation_kernel(seed=8, channel_index=2))


class TestBinauralRender:
    def _setup(self, n_speakers=16, n=256):
        grid = fibonacci_grid(n_speakers)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        return grid, hrirs

    def test_single_delta_channel_reproduces_hrir(self):
        grid, hrirs = self._setup()
        samples = np.zeros((len(grid), 64))
        samples[3, 0] = 1.0
        vls = VirtualLoudspeakerSignals(grid, samples, FS)
        brir = binaural_render(vls, hrirs)
        assert np.allclose(brir.left.samples[:128], hrirs.left[3], atol=1e-12)
        assert np.allclose(brir.right.samples[:128], hrirs.right[3], atol=1e-12)

    def test_linearity(self, rng):
        grid, hrirs = self._setup()
        a = rng.normal(size=(len(grid), 100))
        b = rng.normal(size=(len(grid), 100))
        render = lambda s: binaural_render(VirtualLoudspeakerSignals(grid, s, FS), hrirs)
        out_ab = render(a + b)
        out_a, out_b = render(a), render(b)
        assert np.abs(
            out_ab.left.samples - out_a.left.samples - out_b.left.samples
        ).max() < 1e-10

    def test_two_delta_channels_sum_exactly(self):
        grid, hrirs = self._setup()
        samples = np.zeros((len(grid), 64))
        samples[2, 5] = 1.0
        samples[9, 11] = -0.5
        vls = VirtualLoudspeakerSignals(grid, samples, FS)
        brir = binaural_render(vls, hrirs)
        expected_l = np.zeros(64 + 128 - 1)
        expected_l[5 : 5 + 128] += hrirs.left[2]
        expected_l[11 : 11 + 128] += -0.5 * hrirs.left[9]
        assert np.abs(brir.left.samples - expected_l).max() < 1e-12

    def test_time_shift_commutes(self, rng):
        grid, hrirs = self._setup()
        sig = rng.normal(size=(len(grid), 80))
        shifted = np.concatenate([np.zeros((len(grid), 7)), sig], axis=1)
        render = lambda s: binaural_render(VirtualLoudspeakerSignals(grid, s, FS), hrirs)
        base = render(sig)
        moved = render(shifted)
        # FFT-based convolution at the longer length rounds differently, so
        # the shift equivalence holds to float precision rather than bitwise.
        assert np.abs(moved.left.samples[:7]).max() < 1e-12
        assert np.abs(
            moved.left.samples[7 : 7 + len(base.left)] - base.left.samples
        ).max() < 1e-12

    def test_missing_hrir_reported(self):
        grid = fibonacci_grid(32)
        sparse = spherical_head_hrir_set(fibonacci_grid(6).directions, sample_rate=FS)
        vls = VirtualLoudspeakerSignals(grid, np.zeros((32, 16)), FS)
        with pytest.raises(MissingHrirError) as info:
            binaural_render(vls, sparse)
        assert len(info.value.offenders) > 0

    def test_rate_mismatch_rejected(self):
        grid, _ = self._setup()
        hrirs44 = spherical_head_hrir_set(grid.directions, sample_rate=44100.0)
        vls = VirtualLoudspeakerSignals(grid, np.zeros((len(grid), 16)), FS)
        with pytest.raises(ValueError):
            binaural_render(vls, hrirs44)

    def test_scatter_memory_bounded(self, rng, monkeypatch):
        """The k=8 scatter over 19,200 samples works tap by tap; a gathered
        (2, n, k, taps) block of HRIR rows would need about 350 MB."""
        monkeypatch.setattr(synthesis, "_SCATTER_TAPS_PER_SPEAKER", np.inf)  # scatter k=8
        grid = fibonacci_grid(240)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        n, k = 19200, 8
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(n, k)),
                                      rng.normal(size=(n, k)), FS)
        tracemalloc.start()
        try:
            binaural_render(assignment, hrirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @pytest.mark.parametrize("speakers, k, densified", [(240, 1, False), (240, 3, True),
                                                        (960, 8, False), (64, 1, True)])
    def test_assignment_path_follows_k_times_taps(self, rng, monkeypatch, speakers, k,
                                                  densified):
        """128-tap HRIRs: an assignment is scattered while k * 128 is at most
        1.5 x the loudspeaker count, and summed over its dense form past it."""
        grid = fibonacci_grid(speakers)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        n = 500
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(n, k)),
                                      rng.normal(size=(n, k)), FS)
        calls = []
        dense = SampleAssignment.dense
        monkeypatch.setattr(SampleAssignment, "dense", lambda a: calls.append(1) or dense(a))
        brir = binaural_render(assignment, hrirs).samples
        assert bool(calls) == densified
        monkeypatch.setattr(SampleAssignment, "dense", dense)
        other = binaural_render(VirtualLoudspeakerSignals(grid, assignment.dense(), FS), hrirs)
        assert np.abs(brir - other.samples).max() <= 1e-12 * np.abs(brir).max()
