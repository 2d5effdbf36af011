import hashlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from srirkit import dsp, synthesis
from srirkit.doa import DoaTrajectory, TfDoaField
from srirkit.dsp import istft, stft
from srirkit.errors import MissingHrirError
from srirkit.grids import LoudspeakerGrid, fibonacci_grid, grid_from_directions
from srirkit.hrir import HrirSet, spherical_head_hrir_set
from srirkit.signals import MonoIr, StftFrames
from srirkit.synthesis import (
    DECORRELATOR_TAPS,
    SampleAssignment,
    SirrStreams,
    binaural_render,
    decorrelation_kernel,
    sdm_synthesize,
    sirr_synthesize,
)
from srirkit.vbap import vbap_gain_table

FS = 48000.0


def _fftconvolve_sum(ears, signals):
    """The (2, n + taps - 1) oracle of an HRIR sum: SciPy's fftconvolve of
    every (rows, n) signal row with its ear's HRIR of the (2, rows, taps)
    ``ears``, summed over the rows."""
    return np.stack([sps.fftconvolve(signals, ear, axes=-1).sum(axis=0) for ear in ears])


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
        signals = sdm_synthesize(pressure, traj, grid, k=1).rows()
        assert signals[5, 10] == 1.0
        total = signals.copy()
        total[5, 10] = 0.0
        assert np.all(total == 0.0)

    def test_per_sample_energy_exact_k1(self, rng):
        grid = fibonacci_grid(16)
        n = 500
        pressure = MonoIr(rng.normal(size=n), FS)
        traj = _random_trajectory(rng, n, invalid_fraction=0.2)
        signals = sdm_synthesize(pressure, traj, grid, k=1).rows()
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
        signals = sdm_synthesize(pressure, traj, grid, k=1).rows()
        # after sample 4 everything inherits speaker 9
        assert np.all(signals[9, 4:] == 1.0)
        # before the first valid sample, the frontal speaker carries it
        frontal = int(np.argmax(grid.directions @ np.array([1.0, 0.0, 0.0])))
        assert np.all(signals[frontal, :4] == 1.0)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_must_be_an_integer(self, rng, k):
        """k = 2.5 raised a bare TypeError inside nearest_directions, and True
        counted as 1."""
        traj = _random_trajectory(rng, 50)
        with pytest.raises(ValueError, match=rf"k must be an integer in \[1, 16\], got {k!r}"):
            sdm_synthesize(MonoIr(rng.normal(size=50), FS), traj, fibonacci_grid(16), k=k)

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
        with pytest.raises(ValueError, match=r"speakers must lie in \[0, 8\), got 8"):
            SampleAssignment(grid, speakers + 8, np.zeros((4, 2)), FS)
        with pytest.raises(ValueError, match=r"speakers must lie in \[0, 8\), got -1"):
            SampleAssignment(grid, speakers - 1, np.zeros((4, 2)), FS)
        with pytest.raises(ValueError, match="finite"):
            SampleAssignment(grid, speakers, np.full((4, 2), np.nan), FS)
        for rate in (0.0, 44100.5):
            with pytest.raises(ValueError, match="sample rate"):
                SampleAssignment(grid, speakers, np.zeros((4, 2)), rate)

    def test_speaker_columns_validated(self):
        """No picks (k = 0) used to pass and end in a ZeroDivisionError in the
        render, and a non-integer index was truncated (1.7 played on
        loudspeaker 1): both are refused, naming the field."""
        grid = fibonacci_grid(8)
        with pytest.raises(ValueError, match=r"speakers/samples must be \(n, k\), k >= 1"):
            SampleAssignment(grid, np.zeros((4, 0), np.intp), np.zeros((4, 0)), FS)
        for index in (1.7, 2.0):
            with pytest.raises(ValueError, match="speakers must be integer indices"):
                SampleAssignment(grid, np.full((4, 1), index), np.ones((4, 1)), FS)

    def test_deterministic(self, rng):
        grid = fibonacci_grid(16)
        n = 200
        pressure = MonoIr(rng.normal(size=n), FS)
        traj = _random_trajectory(rng, n, invalid_fraction=0.1)
        a = sdm_synthesize(pressure, traj, grid, k=2)
        b = sdm_synthesize(pressure, traj, grid, k=2)
        assert np.array_equal(a.rows(), b.rows())


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
        return MonoIr(sig, FS), stft(sig, FS, window, window // 2)

    def test_loudspeaker_signals_validated(self):
        """Direct streams whose (frames, bins) differ from the diffuse bins',
        or whose bins lack three loudspeakers, and a 3-D ``diffuse``, are
        refused; the diffuse bins' layout and rate are StftFrames'."""
        grid = fibonacci_grid(8)
        speakers, direct = np.zeros((5, 33, 3), np.intp), np.zeros((5, 33, 3), complex)
        for bad in ((speakers[:, :, :2], direct, np.zeros((5, 33))),
                    (speakers[:4], direct[:4], np.zeros((5, 33))),
                    (speakers[:, :17], direct[:, :17], np.zeros((5, 33))),
                    (speakers[None], direct[None], np.zeros((1, 5, 33)))):
            with pytest.raises(ValueError, match="do not share one STFT layout"):
                SirrStreams(grid, *bad[:2], StftFrames(bad[2], 64, 32, FS), 0)
        for rate in (0.0, 44100.5):
            with pytest.raises(ValueError, match="sample rate"):
                SirrStreams(grid, speakers, direct, StftFrames(np.zeros((5, 33)), 64, 32, rate), 0)

    def test_streams_accept_array_likes_and_need_three_amplitudes_per_bin(self, rng):
        """Nested lists are converted as a SampleAssignment's are (they raised
        AttributeError on ``.shape``), and (frames, bins) direct amplitudes are
        refused for their shape, not as repeated loudspeakers."""
        grid = fibonacci_grid(8)
        speakers = np.broadcast_to(np.arange(3), (5, 33, 3))
        direct = rng.normal(size=(5, 33, 3)) + 1j * rng.normal(size=(5, 33, 3))
        diffuse = rng.normal(size=(5, 33)) + 1j * rng.normal(size=(5, 33))
        vls = SirrStreams(grid, speakers.tolist(), direct.tolist(),
                          StftFrames(diffuse.tolist(), 64, 32, FS), 0)
        assert vls.speakers.dtype == np.intp and vls.samples.shape == (5, 33, 3)
        assert np.array_equal(vls.samples, direct) and np.array_equal(vls.diffuse.values, diffuse)
        assert np.array_equal(vls.rows(), SirrStreams(grid, speakers, direct,
                                                       StftFrames(diffuse, 64, 32, FS), 0).rows())
        with pytest.raises(ValueError, match="do not share one STFT layout"):
            SirrStreams(grid, speakers[..., 0], direct[..., 0], StftFrames(diffuse, 64, 32, FS), 0)

    def test_stream_indices_and_values_validated(self):
        """As a SampleAssignment's: a loudspeaker outside the grid, or a
        non-finite amplitude or diffuse bin, is rejected."""
        grid = fibonacci_grid(24)
        speakers, direct = np.zeros((5, 33, 3), np.intp), np.ones((5, 33, 3), complex)
        diffuse = StftFrames(np.zeros((5, 33), complex), 64, 32, FS)
        for index in (99, 24, -1):
            bad = speakers.copy()
            bad[2, 7, 1] = index
            with pytest.raises(ValueError, match=rf"speakers must lie in \[0, 24\), got {index}"):
                SirrStreams(grid, bad, direct, diffuse, 0)
        for value in (np.nan, np.inf):
            bad_direct, bad_diffuse = direct.copy(), diffuse.values.copy()
            bad_direct[1, 3, 0], bad_diffuse[2, 7] = value, value
            for args in ((bad_direct, diffuse), (direct, replace(diffuse, values=bad_diffuse))):
                with pytest.raises(ValueError, match="finite"):
                    SirrStreams(grid, speakers, *args, 0)
        with pytest.raises(ValueError, match="speakers must be integer indices"):
            SirrStreams(grid, speakers + 0.5, direct, diffuse, 0)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2.5, True])
    def test_seed_checked_when_the_streams_are_built(self, seed):
        """These seeds built streams and failed only when rendered, or (2.5,
        True) played the kernels of a truncated seed."""
        grid, shape = fibonacci_grid(8), (5, 33)
        speakers = np.broadcast_to(np.arange(3), (*shape, 3))
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 4294967295\]"):
            SirrStreams(grid, speakers, np.ones((*shape, 3)),
                        StftFrames(np.ones(shape), 64, 32, FS), seed)

    def test_repeated_bin_speakers_rejected(self, rng):
        """A bin's loudspeakers (0, 0, 0) with random amplitudes used to render
        as the third amplitude alone: a VBAP triangle's three loudspeakers are
        distinct, so a repeat in any bin is refused."""
        grid = fibonacci_grid(24)
        speakers = np.broadcast_to(np.arange(3), (5, 33, 3)).copy()
        direct = rng.normal(size=(5, 33, 3)) + 1j * rng.normal(size=(5, 33, 3))
        diffuse = StftFrames(np.zeros((5, 33)), 64, 32, FS)
        SirrStreams(grid, speakers, direct, diffuse, 0)
        for repeat in ((0, 0, 0), (4, 9, 4)):
            bad = speakers.copy()
            bad[3, 20] = repeat
            with pytest.raises(ValueError, match="speakers must be three distinct"):
                SirrStreams(grid, bad, direct, diffuse, 0)

    def test_diffuse_must_be_stft_frames(self):
        """A plain (frames, bins) array, the form ``diffuse`` took before it
        carried its layout, raised AttributeError on ``.values``."""
        grid, shape = fibonacci_grid(8), (5, 33)
        for diffuse in (np.zeros(shape), None):
            with pytest.raises(ValueError, match="diffuse must be an StftFrames, got"):
                SirrStreams(grid, np.zeros((*shape, 3), int), np.zeros((*shape, 3)), diffuse, 0)

    def test_psi_zero_matches_pure_vbap_pan(self, rng):
        grid = fibonacci_grid(12)
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, np.zeros((t, f)), 128, 64, FS)
        signals = sirr_synthesize(pressure, field, grid, seed=3).rows()

        # no diffuse tail beyond the istft length
        time_len = (t - 1) * 64 + 128
        assert np.all(signals[:, time_len:] == 0.0)

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
            assert np.abs(signals[s, :time_len] - expected).max() < 1e-6

    def test_uncovered_grid_raises_instead_of_silence(self, rng):
        # An octahedron's four upper faces leave the lower hemisphere bare;
        # the grid is built past the constructor, which refuses it.
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        with mock.patch.object(LoudspeakerGrid, "__post_init__", lambda self: None):
            upper = np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2]])
            grid = LoudspeakerGrid(octahedron, upper)
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        down = np.broadcast_to([0.0, 0.0, -1.0], (t, f, 3))
        field = TfDoaField(down, np.zeros((t, f)), 128, 64, FS)
        with pytest.raises(ValueError, match="does not cover the sphere"):
            sirr_synthesize(pressure, field, grid)

    def test_blocked_direct_stream_matches_dense_build(self, rng):
        """37 loudspeakers, not a multiple of the block: the output equals one
        dense (speakers, frames, bins) direct stream's render, bit for bit."""
        grid = fibonacci_grid(37)
        pressure, frames = self._framed_noise(rng, n=4096, window=128)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, rng.uniform(size=(t, f)), 128, 64, FS)
        vls = sirr_synthesize(pressure, field, grid, seed=5)
        speakers, direct, diffuse_tf = vls.speakers, vls.samples, vls.diffuse
        dense = np.zeros((len(grid), t, f), dtype=complex)
        dense[speakers, np.arange(t)[:, None, None], np.arange(f)[:, None]] = direct
        assert len(np.unique(speakers)) == len(grid)
        expected = np.pad(istft(StftFrames(dense, 128, 64, FS)),
                          ((0, 0), (0, DECORRELATOR_TAPS - 1)))
        kernels = np.stack([decorrelation_kernel(5, ls) for ls in range(len(grid))])
        diffuse_td = istft(StftFrames(diffuse_tf.values, 128, 64, FS))
        expected += sps.fftconvolve(diffuse_td[None, :], kernels, mode="full", axes=-1)
        assert np.array_equal(vls.rows(), expected)

    def test_decorrelation_memory_is_bounded_by_the_output(self, rng):
        """240 loudspeakers x 19,200 samples with a diffuse stream: writing
        the signals out runs the decorrelators one loudspeaker block at a
        time, so the peak stays below twice the output (one (240, ~20k)
        spectrum alone is as large)."""
        grid = fibonacci_grid(240)
        pressure = MonoIr(rng.normal(size=19200), FS)
        t, f = stft(pressure.samples, FS, 64, 32).values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        field = TfDoaField(dirs, rng.uniform(size=(t, f)), 64, 32, FS)
        vls = sirr_synthesize(pressure, field, grid, seed=0)
        tracemalloc.start()
        try:
            signals = vls.rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * signals.nbytes

    def test_psi_one_output_ignores_directions(self, rng):
        grid = fibonacci_grid(12)
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        ones = np.ones((t, f))
        dirs_a = rng.normal(size=(t, f, 3))
        dirs_a /= np.linalg.norm(dirs_a, axis=2, keepdims=True)
        dirs_b = rng.normal(size=(t, f, 3))
        dirs_b /= np.linalg.norm(dirs_b, axis=2, keepdims=True)
        a = sirr_synthesize(pressure, TfDoaField(dirs_a, ones, 128, 64, FS), grid, seed=1)
        b = sirr_synthesize(pressure, TfDoaField(dirs_b, ones, 128, 64, FS), grid, seed=1)
        assert np.array_equal(a.rows(), b.rows())  # no direct stream

    def test_per_bin_energy_split_exact(self, rng):
        grid = fibonacci_grid(20)
        pressure, frames = self._framed_noise(rng)
        t, f = frames.values.shape
        dirs = rng.normal(size=(t, f, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        psi = np.clip(rng.uniform(size=(t, f)), 0, 1)
        field = TfDoaField(dirs, psi, frames.window_size, frames.hop, FS)
        vls = sirr_synthesize(pressure, field, grid)
        total = np.sum(np.abs(vls.samples) ** 2, axis=-1) \
            + len(grid) * np.abs(vls.diffuse.values) ** 2
        reference = np.abs(frames.values) ** 2
        scale = reference.max()
        assert np.abs(total - reference).max() / scale < 1e-6

    def test_broadband_energy_preserved_smooth_field(self, rng):
        grid = fibonacci_grid(24)
        pressure, frames = self._framed_noise(rng)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, frames.window_size, frames.hop)
        vls = sirr_synthesize(pressure, field, grid, seed=9)
        signals = vls.rows()
        ratio_db = 10 * np.log10(np.sum(signals**2) / np.sum(pressure.samples**2))
        assert abs(ratio_db) < 0.5

    def test_metadata_mismatch_rejected(self, rng):
        grid = fibonacci_grid(8)
        pressure, _ = self._framed_noise(rng, n=2048, window=128)
        bad = _smooth_field(rng, 3, 5, 64, 32)
        with pytest.raises(ValueError, match="do not match field"):
            sirr_synthesize(pressure, bad, grid, seed=0)

    def test_field_layout_must_be_integers(self, rng):
        """A field with a float hop reached numpy's indexing (IndexError)."""
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        field = _smooth_field(rng, *frames.values.shape, 128, 64.0)
        with pytest.raises(ValueError, match="hop must be an integer"):
            sirr_synthesize(pressure, field, fibonacci_grid(8))

    def test_rate_mismatch_rejected(self, rng):
        grid = fibonacci_grid(8)
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, 128, 64)
        with pytest.raises(ValueError, match="sample-rate mismatch"):
            sirr_synthesize(MonoIr(pressure.samples, 44100.0), field, grid, seed=0)

    def test_seed_determinism(self, rng):
        grid = fibonacci_grid(8)
        pressure, frames = self._framed_noise(rng, n=2048, window=128)
        t, f = frames.values.shape
        field = _smooth_field(rng, t, f, 128, 64)
        a = sirr_synthesize(pressure, field, grid, seed=42)
        b = sirr_synthesize(pressure, field, grid, seed=42)
        c = sirr_synthesize(pressure, field, grid, seed=43)
        assert np.array_equal(a.rows(), b.rows())
        assert not np.array_equal(a.rows(), c.rows())


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
    signals = sdm_synthesize(pressure, traj, grid, k=k).rows()
    energy = np.sum(signals**2, axis=0)
    assert np.abs(energy - pressure.samples**2).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), speakers=st.integers(8, 60), k=st.integers(1, 4),
       taps=st.one_of(st.integers(8, 64), st.integers(240, 300)))
def test_binaural_render_forms_match_direct_convolution_property(seed, speakers, k, taps):
    """An SDM assignment's render equals a per-loudspeaker np.convolve sum
    of its dense signals, with HRIRs of 8-64 and 240-300 taps;
    HRIRs are listed in shuffled order, so each loudspeaker must find its
    own pair."""
    gen = np.random.default_rng(seed)
    grid = fibonacci_grid(speakers)
    n = int(gen.integers(1, 300))
    assignment = sdm_synthesize(MonoIr(gen.normal(size=n), FS),
                                _random_trajectory(gen, n, invalid_fraction=0.2), grid, k=k)
    ears = gen.normal(size=(2, speakers, taps))
    order = gen.permutation(speakers)
    hrirs = HrirSet(grid.directions[order], ears[0, order], ears[1, order], FS)

    signals = assignment.rows()
    expected = np.zeros((2, n + taps - 1))
    for s in range(speakers):
        for e in range(2):
            expected[e] += np.convolve(signals[s], ears[e, s])
    tol = 1e-12 * np.abs(expected).max()
    assert np.abs(binaural_render(assignment, hrirs).samples - expected).max() <= tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), speakers=st.integers(8, 40))
def test_sirr_per_bin_energy_split_property(seed, speakers):
    """sum |direct|^2 + L |diffuse|^2 == |P|^2 in every bin, for random
    directions and psi (exact 0 and 1 included)."""
    gen = np.random.default_rng(seed)
    pressure = MonoIr(gen.normal(size=1024), FS)
    frames = stft(pressure.samples, FS, 64, 32)
    t, f = frames.values.shape
    dirs = gen.normal(size=(t, f, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    psi = gen.uniform(size=(t, f))
    psi[gen.uniform(size=(t, f)) < 0.2] = 0.0
    psi[gen.uniform(size=(t, f)) < 0.2] = 1.0
    grid = fibonacci_grid(speakers)
    vls = sirr_synthesize(pressure, TfDoaField(dirs, psi, 64, 32, FS), grid)
    total = np.sum(np.abs(vls.samples) ** 2, axis=-1) + len(grid) * np.abs(vls.diffuse.values) ** 2
    reference = np.abs(frames.values) ** 2
    assert np.abs(total - reference).max() <= 1e-12 * reference.max()


class TestDecorrelate:
    def test_zero_in_zero_out(self, rng):
        pressure = MonoIr(np.zeros(2048), FS)
        t, f = stft(pressure.samples, FS, 128, 64).values.shape
        field = _smooth_field(rng, t, f, 128, 64)
        vls = sirr_synthesize(pressure, field, fibonacci_grid(8), seed=0)
        assert np.all(vls.rows() == 0.0)

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

    @pytest.mark.parametrize("start, stop", [(0, 240), (224, 237)])
    def test_batched_kernels_keep_the_bytes_of_one_kernel_each(self, start, stop):
        """All 240 of a render's kernels, and a partial 16-loudspeaker block:
        one batched transform gives the bytes each kernel built alone had."""
        def alone(seed, channel):
            rng = np.random.default_rng([seed, channel])
            phases = rng.uniform(0.0, 2.0 * np.pi, DECORRELATOR_TAPS // 2 + 1)
            phases[0] = phases[-1] = 0.0
            return np.fft.irfft(np.exp(1j * phases), n=DECORRELATOR_TAPS)

        expected = np.stack([alone(11, ls) for ls in range(start, stop)])
        assert np.array_equal(decorrelation_kernel(11, range(start, stop)), expected)
        assert np.array_equal(np.stack([decorrelation_kernel(11, ls)
                                        for ls in range(start, stop)]), expected)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected(self, seed):
        """The seed was masked to 32 bits, so 2**32 gave seed 0's kernels."""
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 4294967295\]"):
            decorrelation_kernel(seed, 0)

    @pytest.mark.parametrize("seed", [2.7, True, np.True_, "3"],
                             ids=["2.7", "True", "np.True_", "str"])
    def test_seed_must_be_an_integer(self, seed):
        """int() truncated 2.7 to seed 2's kernel, and True played seed 1's."""
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 4294967295\]"):
            decorrelation_kernel(seed, 3)

    def test_numpy_integer_seeds_keep_the_bytes(self):
        expected = decorrelation_kernel(2**32 - 1, range(3))
        for seed in (np.uint32(2**32 - 1), np.int64(2**32 - 1)):
            assert np.array_equal(decorrelation_kernel(seed, range(3)), expected)

    @pytest.mark.parametrize("channels, message", [
        ((0, 2.7), "be integer indices"), ((0, True), "be integer indices"),
        (np.array([0.5, 1.5]), "be integer indices"), (True, "be integer indices"),
        (-1, r"lie in \[0, inf\), got -1")], ids=["2.7", "True", "float-array", "bool", "-1"])
    def test_channel_indices_must_be_integers(self, channels, message):
        """(0, 2.7) played channel 2's kernel, (0, True) channel 1's, a float
        array was truncated, and -1 died in numpy naming no argument."""
        with pytest.raises(ValueError, match=f"channel_index must {message}"):
            decorrelation_kernel(3, channels)

    def test_integer_channel_indices_keep_the_bytes(self):
        expected = decorrelation_kernel(3, range(2, 5))
        for channels in ([2, 3, 4], np.array([2, 3, 4], np.uint16), (np.int64(2), 3, 4)):
            assert np.array_equal(decorrelation_kernel(3, channels), expected)
        assert np.array_equal(decorrelation_kernel(3, np.int32(4)), expected[2])

    def test_deterministic_in_seed_and_channel(self):
        a = decorrelation_kernel(seed=7, channel_index=2)
        b = decorrelation_kernel(seed=7, channel_index=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, decorrelation_kernel(seed=7, channel_index=3))
        assert not np.array_equal(a, decorrelation_kernel(seed=8, channel_index=2))


def _sirr_inputs(rng, n=19200, psi=None, window=64):
    """A noise pressure signal and a random field over its frames at a hop of
    half the window; 19,200 samples and 64-sample windows give the canonical
    SIRR size, 599 x 33 bins. ``psi`` is random unless given."""
    pressure = MonoIr(rng.normal(size=n), FS)
    t, f = stft(pressure.samples, FS, window, window // 2).values.shape
    dirs = rng.normal(size=(t, f, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    psi = rng.uniform(size=(t, f)) if psi is None else np.full((t, f), psi)
    return pressure, TfDoaField(dirs, psi, window, window // 2, FS)


def _every_speaker(grid, signals):
    """An assignment that plays the (speakers, n) ``signals``: every sample
    on every loudspeaker, so rendering it densifies the signals as given."""
    n = signals.shape[1]
    return SampleAssignment(grid, np.tile(np.arange(len(grid)), (n, 1)), signals.T, FS)


class TestBinauralRender:
    def _setup(self, n_speakers=16, n=256):
        grid = fibonacci_grid(n_speakers)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        return grid, hrirs

    def test_single_delta_channel_reproduces_hrir(self):
        grid, hrirs = self._setup()
        samples = np.zeros((len(grid), 64))
        samples[3, 0] = 1.0
        brir = binaural_render(_every_speaker(grid, samples), hrirs)
        assert np.allclose(brir.left.samples[:128], hrirs.left[3], atol=1e-12)
        assert np.allclose(brir.right.samples[:128], hrirs.right[3], atol=1e-12)

    def test_linearity(self, rng):
        grid, hrirs = self._setup()
        a = rng.normal(size=(len(grid), 100))
        b = rng.normal(size=(len(grid), 100))
        render = lambda s: binaural_render(_every_speaker(grid, s), hrirs)
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
        brir = binaural_render(_every_speaker(grid, samples), hrirs)
        expected_l = np.zeros(64 + 128 - 1)
        expected_l[5 : 5 + 128] += hrirs.left[2]
        expected_l[11 : 11 + 128] += -0.5 * hrirs.left[9]
        assert np.abs(brir.left.samples - expected_l).max() < 1e-12

    def test_time_shift_commutes(self, rng):
        grid, hrirs = self._setup()
        sig = rng.normal(size=(len(grid), 80))
        shifted = np.concatenate([np.zeros((len(grid), 7)), sig], axis=1)
        render = lambda s: binaural_render(_every_speaker(grid, s), hrirs)
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
        vls = _every_speaker(grid, np.zeros((32, 16)))
        with pytest.raises(MissingHrirError) as info:
            binaural_render(vls, sparse)
        assert len(info.value.offenders) > 0

    def test_rate_mismatch_rejected(self):
        grid, _ = self._setup()
        hrirs44 = spherical_head_hrir_set(grid.directions, sample_rate=44100.0)
        vls = _every_speaker(grid, np.zeros((len(grid), 16)))
        with pytest.raises(ValueError):
            binaural_render(vls, hrirs44)

    def test_blocked_sum_matches_one_sum_over_all_loudspeakers(self, rng):
        """100 loudspeakers, so the last block is partial."""
        grid, hrirs = self._setup(n_speakers=100)
        signals = rng.normal(size=(100, 3000))
        nfft = 3000 + 128 - 1
        spectrum = np.einsum("sf,esf->ef", np.fft.rfft(signals, nfft),
                             np.fft.rfft(np.stack([hrirs.left, hrirs.right]), nfft))
        expected = np.fft.irfft(spectrum, nfft)
        brir = binaural_render(_every_speaker(grid, signals), hrirs).samples
        assert np.abs(brir - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_dense_memory_bounded(self, rng):
        """SIRR at canonical size is rendered from its streams: its 240
        signals of 20,223 samples took 119 MB when every loudspeaker's
        spectrum was live at once. k=3 and k=8 assignments over 19,200
        samples are rendered a chunk of sample blocks at a time: 50 MB when
        an assignment was densified whole first."""
        grid = fibonacci_grid(240)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        n = 19200
        for vls in (sirr_synthesize(*_sirr_inputs(rng), grid, seed=0),
                    *(SampleAssignment(grid, rng.integers(len(grid), size=(n, k)),
                                       rng.normal(size=(n, k)), FS) for k in (3, 8))):
            tracemalloc.start()
            try:
                binaural_render(vls, hrirs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20e6, type(vls).__name__

    def test_scatter_memory_bounded(self, rng):
        """A k=8 assignment over 19,200 samples on 960 loudspeakers is scattered
        into its (block, loudspeaker) pairs one chunk of blocks at a time;
        gathered whole, its (n, k, 2 * taps) HRIR rows would take 315 MB."""
        grid = fibonacci_grid(960)
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

    @pytest.mark.parametrize("speakers, taps, k", [(20, 512, 1), (40, 128, 1), (60, 1, 3),
                                                   (160, 512, 1), (240, 128, 8),
                                                   (240, 300, 2), (960, 128, 8)])
    def test_assignment_render_matches_hrir_sum_of_its_rows(self, rng, speakers, taps, k):
        """2,500 samples, several chunks of blocks for every k, with HRIRs of
        1-512 taps: the render equals SciPy's fftconvolve of the assignment's
        dense signals, summed, to 1e-12 of its peak."""
        grid = fibonacci_grid(speakers)
        n = 2500
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(n, k)),
                                      rng.normal(size=(n, k)), FS)
        ears = rng.normal(size=(2, speakers, taps))
        brir = binaural_render(assignment, HrirSet(grid.directions, ears[0], ears[1], FS))
        expected = _fftconvolve_sum(ears, assignment.rows())
        assert brir.samples.shape == expected.shape == (2, n + taps - 1)
        assert np.abs(brir.samples - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("speakers, k, densified", [(960, 1, False), (960, 3, False)])
    def test_long_hrir_assignment_path_follows_k_times_taps(self, rng, monkeypatch, speakers,
                                                            k, densified):
        """512-tap HRIRs on a dense grid: an assignment is rendered from its
        samples, never densified loudspeaker by loudspeaker, and equals
        SciPy's fftconvolve of its dense signals, summed."""
        grid = fibonacci_grid(speakers)
        hrirs = HrirSet(grid.directions, rng.normal(size=(speakers, 512)),
                        rng.normal(size=(speakers, 512)), FS)
        n = 2500
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(n, k)),
                                      rng.normal(size=(n, k)), FS)
        calls = []
        rows = SampleAssignment.rows
        monkeypatch.setattr(SampleAssignment, "rows",
                            lambda a: calls.append(1) or rows(a))
        brir = binaural_render(assignment, hrirs).samples
        assert bool(calls) == densified
        monkeypatch.setattr(SampleAssignment, "rows", rows)
        dense = assignment.rows()
        other = _fftconvolve_sum(np.stack([hrirs.left, hrirs.right]), dense)
        assert np.abs(brir - other).max() <= 1e-12 * np.abs(brir).max()

    def test_repeated_picks_add_up(self, rng):
        """Every sample picks one loudspeaker twice (k = 2): the render plays
        both picks, the bytes of a k = 1 assignment of their sums."""
        grid, hrirs = self._setup()
        n = 500
        speakers = np.repeat(rng.integers(len(grid), size=(n, 1)), 2, axis=1)
        samples = rng.normal(size=(n, 2))
        twice = SampleAssignment(grid, speakers, samples, FS)
        once = SampleAssignment(grid, speakers[:, :1], samples.sum(axis=1, keepdims=True), FS)
        assert np.array_equal(binaural_render(twice, hrirs).samples,
                              binaural_render(once, hrirs).samples)

    @pytest.mark.parametrize("budget", [1, 2**62], ids=["one-block", "all-blocks"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, rng, monkeypatch, budget):
        """A k = 3 assignment rendered one sample block per chunk, and every
        block in one, gives the bytes of the default chunks."""
        grid = fibonacci_grid(240)
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(6000, 3)),
                                      rng.normal(size=(6000, 3)), FS)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        expected = binaural_render(assignment, hrirs).samples
        monkeypatch.setattr(dsp, "_TIME_BLOCK_BYTES", budget)
        assert np.array_equal(binaural_render(assignment, hrirs).samples, expected)

    def test_bytes_do_not_depend_on_blas_threads(self, rng, tmp_path, blas_env):
        """A k = 3 assignment's render in fresh interpreters with
        OPENBLAS_NUM_THREADS 1 and 2: the bytes of this process's render."""
        grid = fibonacci_grid(240)
        assignment = SampleAssignment(grid, rng.integers(len(grid), size=(6000, 3)),
                                      rng.normal(size=(6000, 3)), FS)
        _assert_render_bytes_across_blas_threads(
            blas_env, tmp_path, assignment,
            dict(speakers=assignment.speakers, samples=assignment.samples),
            f"SampleAssignment(grid, d['speakers'], d['samples'], {FS})")


def _assert_render_bytes_across_blas_threads(blas_env, tmp_path, vls, arrays, build):
    """The render of ``vls`` on a 240-loudspeaker grid, rebuilt as the source
    ``build`` from the saved ``arrays`` in fresh interpreters on 1 and 2 BLAS
    threads (``blas_env``), has the bytes of this process's render."""
    path = tmp_path / "vls.npz"
    np.savez(path, **arrays)
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from srirkit.grids import fibonacci_grid\n"
        "from srirkit.hrir import spherical_head_hrir_set\n"
        "from srirkit.signals import StftFrames\n"
        "from srirkit.synthesis import SampleAssignment, SirrStreams, binaural_render\n"
        "grid, d = fibonacci_grid(240), np.load(sys.argv[1])\n"
        f"vls = {build}\n"
        f"hrirs = spherical_head_hrir_set(grid.directions, sample_rate={FS})\n"
        "print(hashlib.sha256(binaural_render(vls, hrirs).samples.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in (1, 2):
        run = subprocess.run([sys.executable, "-c", script, str(path)], env=blas_env(threads),
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(run.stdout.strip())
    grid = fibonacci_grid(240)
    brir = binaural_render(vls, spherical_head_hrir_set(grid.directions, sample_rate=FS))
    here = hashlib.sha256(brir.samples.tobytes()).hexdigest()
    assert digests == [here, here]


class TestSirrRender:
    """binaural_render of SIRR streams against the HRIR sum of the signals
    they write out."""

    @pytest.mark.parametrize("psi", [None, 0.0, 1.0])
    @pytest.mark.parametrize("taps", [1, 128, 300])
    def test_render_matches_hrir_sum_of_the_written_signals(self, rng, taps, psi):
        """6,000 samples through windows of 8, 64 and 256 samples (hop W/2)
        on 40 and 240 loudspeakers (a partial and a whole loudspeaker block),
        with HRIRs of 1-300 taps: the frame-by-frame render agrees with
        SciPy's fftconvolve of the written-out signals, summed, to 1e-14 of
        its peak."""
        for window in (8, 64, 256):
            for speakers in (40, 240):
                grid = fibonacci_grid(speakers)
                vls = sirr_synthesize(*_sirr_inputs(rng, 6000, psi, window), grid, seed=7)
                ears = rng.normal(size=(2, len(grid), taps))
                hrirs = HrirSet(grid.directions, ears[0], ears[1], FS)
                brir = binaural_render(vls, hrirs).samples
                expected = _fftconvolve_sum(ears, vls.rows())
                assert brir.shape == expected.shape == (2, len(vls) + taps - 1)
                assert np.abs(brir - expected).max() <= 1e-14 * np.abs(expected).max(), \
                    (window, speakers)

    @pytest.mark.parametrize("budget", [1, 2**62], ids=["one-frame", "all-frames"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, rng, monkeypatch, budget):
        """One frame per chunk, and every frame in one, give the bytes of the
        default chunks, with the direct stream alone (psi = 0) and with a
        diffuse stream, whose filter is one frame in any chunk size."""
        grid = fibonacci_grid(240)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        for psi in (0.0, None):
            vls = sirr_synthesize(*_sirr_inputs(rng, 6000, psi), grid, seed=7)
            expected = binaural_render(vls, hrirs).samples
            with monkeypatch.context() as patch:
                patch.setattr(dsp, "_TIME_BLOCK_BYTES", budget)
                assert np.array_equal(binaural_render(vls, hrirs).samples, expected), psi

    def test_bytes_do_not_depend_on_blas_threads(self, rng, tmp_path, blas_env):
        """The render, diffuse filter included, in fresh interpreters with
        OPENBLAS_NUM_THREADS 1 and 2: the bytes of this process's render."""
        grid = fibonacci_grid(240)
        vls = sirr_synthesize(*_sirr_inputs(rng, 6000), grid, seed=7)
        _assert_render_bytes_across_blas_threads(
            blas_env, tmp_path, vls,
            dict(speakers=vls.speakers, samples=vls.samples, diffuse=vls.diffuse.values),
            "SirrStreams(grid, d['speakers'], d['samples'], "
            f"StftFrames(d['diffuse'], 64, 32, {FS}), 7)")

    def test_direct_rows_are_slices_of_the_full_istft(self, rng):
        """Without a diffuse stream (psi = 0) the written-out signals are one
        full-length istft of the dense direct stream, byte for byte."""
        grid = fibonacci_grid(37)
        vls = sirr_synthesize(*_sirr_inputs(rng, 4000, 0.0), grid)
        t, f = vls.samples.shape[:2]
        dense = np.zeros((len(grid), t, f), dtype=complex)
        dense[vls.speakers, np.arange(t)[:, None, None], np.arange(f)[:, None]] = vls.samples
        full = np.pad(istft(StftFrames(dense, 64, 32, FS)), ((0, 0), (0, DECORRELATOR_TAPS - 1)))
        assert full.shape[1] == len(vls)
        assert np.array_equal(vls.rows(), full)

    def test_synthesis_and_render_memory_bounded(self, rng):
        """Canonical size (240 loudspeakers, 599 x 33 bins): SIRR keeps its
        streams and the render never writes out the 240 x 20,223 signals
        (38.8 MB alone)."""
        grid = fibonacci_grid(240)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        pressure, field = _sirr_inputs(rng)
        tracemalloc.start()
        try:
            binaural_render(sirr_synthesize(pressure, field, grid, seed=0), hrirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
