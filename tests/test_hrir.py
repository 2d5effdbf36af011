import tracemalloc

import numpy as np
import pytest

from srirkit import hrir as hrir_module
from srirkit import wavio
from srirkit.dsp import place_fractional_impulses
from srirkit.grids import fibonacci_grid, nearest_directions
from srirkit.hrir import HrirSet, interleaved_hrir_set, load_hrir_set, spherical_head_hrir_set

FS = 48000.0


class TestSphericalHeadModel:
    def test_shape_and_rate(self):
        dirs = fibonacci_grid(16).directions
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        assert len(hrirs) == 16
        assert hrirs.length == 128
        assert hrirs.sample_rate == FS

    def test_left_source_leads_and_louder_left(self):
        dirs = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        left_peak = int(np.argmax(np.abs(hrirs.left[0])))
        right_peak = int(np.argmax(np.abs(hrirs.right[0])))
        assert left_peak < right_peak  # source at +Y reaches the left ear first
        assert np.abs(hrirs.left[0]).max() > np.abs(hrirs.right[0]).max()

    def test_left_right_mirror_symmetry(self):
        dirs = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        assert np.allclose(hrirs.left[0], hrirs.right[1], atol=1e-12)
        assert np.allclose(hrirs.right[0], hrirs.left[1], atol=1e-12)

    def test_frontal_symmetric(self):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        for i in range(2):
            assert np.allclose(hrirs.left[i], hrirs.right[i], atol=1e-12)

    def test_nearest_index(self):
        dirs = fibonacci_grid(32).directions
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        picks = [0, 7, 31]
        idx, _ = nearest_directions(dirs[picks], hrirs.directions)
        assert idx[:, 0].tolist() == picks

    @pytest.mark.parametrize("rate", [16000.0, 24000.0, 44100.0])
    def test_every_ear_row_carries_its_impulse(self, rate):
        # below about 31 kHz the ipsilateral arrival used to fall before the
        # interpolator's half-width and was dropped, leaving a silent ear
        hrirs = spherical_head_hrir_set(fibonacci_grid(240).directions, sample_rate=rate)
        assert np.all(np.abs(hrirs.left).max(axis=1) > 0)
        assert np.all(np.abs(hrirs.right).max(axis=1) > 0)

    def test_bank_is_one_placement_equal_to_per_row_placement(self, monkeypatch):
        calls = []

        def recording(out, delays, amplitudes):
            calls.append((np.copy(delays), np.copy(amplitudes)))
            return place_fractional_impulses(out, delays, amplitudes)

        monkeypatch.setattr(hrir_module, "place_fractional_impulses", recording)
        hrirs = spherical_head_hrir_set(fibonacci_grid(240).directions, sample_rate=24000.0)
        assert len(calls) == 1
        delays, amplitudes = calls[0]
        rows = np.concatenate([hrirs.left, hrirs.right])
        assert delays.shape == amplitudes.shape == (rows.shape[0], 1)
        for row, row_delays, row_amps in zip(rows, delays, amplitudes):
            single = np.zeros(hrirs.length)
            assert place_fractional_impulses(single, row_delays, row_amps) == 0
            np.testing.assert_array_equal(row, single)

    @pytest.mark.parametrize("bad_row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    def test_direction_that_is_not_a_unit_vector_rejected(self, bad_row):
        with pytest.raises(ValueError, match="unit vectors"):
            spherical_head_hrir_set(np.array([[1.0, 0.0, 0.0], bad_row]), sample_rate=FS)

    @pytest.mark.parametrize("rate", [FS, 176400.0, 192000.0])
    def test_length_holds_the_latest_impulse(self, rate):
        # 128 taps at 48 kHz; at high rates the contralateral arrival lies past
        # sample 128 and the set grows to hold it
        hrirs = spherical_head_hrir_set(fibonacci_grid(240).directions, sample_rate=rate)
        assert np.all(np.abs(hrirs.left).max(axis=1) > 0)
        assert np.all(np.abs(hrirs.right).max(axis=1) > 0)
        assert (hrirs.length == 128) == (rate == FS)

    def test_rate_checked_before_it_is_used(self):
        """A rate of 0 raised ZeroDivisionError from the base-delay formula."""
        with pytest.raises(ValueError, match="whole number"):
            spherical_head_hrir_set(np.eye(3), sample_rate=0.0)


class TestHrirSetValidation:
    def test_duplicate_directions_rejected(self):
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            HrirSet(dirs, np.zeros((2, 8)), np.zeros((2, 8)), FS)

    def test_dense_set_builds_in_bounded_memory(self):
        # A duplicate check through the full n x n Gram matrix needs 2.3 GB here.
        dirs = fibonacci_grid(12000).directions
        taps = np.zeros((len(dirs), 128))
        tracemalloc.start()
        try:
            HrirSet(dirs, taps, taps, FS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 300e6

    def test_nan_direction_rejected(self):
        dirs = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="unit vectors"):
            HrirSet(dirs, np.zeros((2, 8)), np.zeros((2, 8)), FS)

    def test_shape_mismatch_rejected(self):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            HrirSet(dirs, np.zeros((2, 8)), np.zeros((3, 8)), FS)

    @pytest.mark.parametrize("taps", [np.zeros(2), np.zeros((2, 0))])
    def test_taps_must_be_a_nonempty_n_by_taps_array(self, taps):
        """A 1-D or a 0-tap set was accepted, and binaural_render then failed
        with an IndexError or a ZeroDivisionError."""
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(n, taps\) with n = 2 directions and taps >= 1"):
            HrirSet(dirs, taps, taps, FS)

    @pytest.mark.parametrize("rate", [44100.5, 0.0, float("nan")])
    def test_rate_must_be_a_positive_whole_number(self, rate):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="whole number"):
            HrirSet(dirs, np.zeros((2, 8)), np.zeros((2, 8)), rate)



class TestLoaders:
    def _reference_set(self, n=6):
        # distinct, easily recomputed directions on the horizontal plane + poles
        az = [0.0, 60.0, 120.0, 180.0, -120.0, -60.0][:n]
        el = [0.0] * n
        rows = list(zip(az, el))
        dirs = np.array([
            [np.cos(np.radians(a)), np.sin(np.radians(a)), 0.0] for a, _ in rows
        ])
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        return rows, hrirs

    def test_per_file_layout(self, tmp_path):
        rows, hrirs = self._reference_set()
        lines = ["# azimuth_deg, elevation_deg, filename"]
        for i, (a, e) in enumerate(rows):
            name = f"hrir_{i:02d}.wav"
            wavio.write_wav(
                tmp_path / name,
                np.stack([hrirs.left[i], hrirs.right[i]]),
                int(FS),
            )
            lines.append(f"{a},{e},{name}")
        index = tmp_path / "index.csv"
        index.write_text("\n".join(lines) + "\n")

        loaded = load_hrir_set(index)
        assert len(loaded) == len(rows)
        assert loaded.sample_rate == FS
        assert np.abs(loaded.directions - hrirs.directions).max() < 1e-9
        assert np.abs(loaded.left - hrirs.left).max() < 1e-6  # float32 storage

    def test_interleaved_multichannel_layout(self, tmp_path):
        rows, hrirs = self._reference_set()
        interleaved = np.empty((2 * len(rows), hrirs.length))
        interleaved[0::2] = hrirs.left
        interleaved[1::2] = hrirs.right
        wav_path = tmp_path / "bank.wav"
        wavio.write_wav(wav_path, interleaved, int(FS))
        index = tmp_path / "index.csv"
        index.write_text("\n".join(f"{a},{e}" for a, e in rows) + "\n")

        loaded = interleaved_hrir_set(index, *wavio.read_wav(wav_path))
        assert len(loaded) == len(rows)
        assert np.abs(loaded.right - hrirs.right).max() < 1e-6

    def test_channel_count_mismatch_rejected(self, tmp_path):
        rows, hrirs = self._reference_set()
        wav_path = tmp_path / "bank.wav"
        wavio.write_wav(wav_path, hrirs.left, int(FS))  # not 2n channels
        index = tmp_path / "index.csv"
        index.write_text("\n".join(f"{a},{e}" for a, e in rows) + "\n")
        with pytest.raises(ValueError):
            interleaved_hrir_set(index, *wavio.read_wav(wav_path))

    def test_empty_index_rejected(self, tmp_path):
        index = tmp_path / "index.csv"
        index.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_hrir_set(index)

    def test_index_row_without_elevation_rejected_naming_its_line(self, tmp_path):
        index = tmp_path / "index.csv"
        index.write_text("# azimuth,elevation\n0,0\n90\n")
        with pytest.raises(ValueError, match=r"index.csv: line 3: need azimuth and elevation"):
            interleaved_hrir_set(index, np.zeros((4, 8)), FS)

    def test_non_stereo_file_rejected(self, tmp_path):
        wavio.write_wav(tmp_path / "mono.wav", np.zeros((1, 32)), int(FS))
        index = tmp_path / "index.csv"
        index.write_text("0,0,mono.wav\n")
        with pytest.raises(ValueError):
            load_hrir_set(index)
