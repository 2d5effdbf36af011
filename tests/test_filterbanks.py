import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from srirkit import filterbanks as fb

FS = 48000.0


def _sine(freq, duration=1.0):
    t = np.arange(int(duration * FS)) / FS
    return np.sin(2 * np.pi * freq * t)


def _steady_rms(x, skip=0.5):
    tail = x[..., int(x.shape[-1] * skip) :]
    return np.sqrt(np.mean(tail**2, axis=-1))


class TestBandpassSos:
    def test_is_the_4th_order_butterworth(self):
        sos = fb.bandpass_sos(500.0, 2000.0, FS)
        expected = sps.butter(2, [500.0 / 24000.0, 2000.0 / 24000.0],
                              btype="bandpass", output="sos")
        np.testing.assert_array_equal(sos, expected)

    @pytest.mark.parametrize("low, high", [(0.0, 100.0), (-10.0, 100.0), (200.0, 200.0),
                                           (300.0, 200.0), (1000.0, 24000.0)])
    def test_band_outside_zero_to_nyquist_rejected(self, low, high):
        with pytest.raises(ValueError, match="Nyquist"):
            fb.bandpass_sos(low, high, FS)


class TestErbFilterbank:
    def test_default_spec_has_39_bands(self):
        centers = fb.ERB_CENTERS_HZ
        assert centers.shape == (39,)
        assert np.all(np.diff(centers) > 0)
        assert centers[0] == pytest.approx(26.0, rel=0.05)
        assert centers[-1] < FS / 2

    def test_zero_signal_gives_39_zero_bands(self):
        bands = fb.erb_bands(np.zeros(256), FS)
        assert bands.shape == (39, 256)
        assert np.all(bands == 0)

    @pytest.mark.parametrize("k", [4, 12, 20, 30, 38])
    def test_sine_at_center_maximizes_its_band(self, k):
        bands = fb.erb_bands(_sine(fb.ERB_CENTERS_HZ[k]), FS)
        assert int(np.argmax(_steady_rms(bands))) == k

    def test_center_response_within_1_db_of_unity(self):
        impulse = np.zeros(int(FS))
        impulse[0] = 1.0
        responses = fb.erb_bands(impulse, FS)
        n = np.arange(impulse.size)
        for k, (center, h) in enumerate(zip(fb.ERB_CENTERS_HZ, responses)):
            gain = np.abs(np.sum(h * np.exp(-2j * np.pi * center * n / FS)))
            gain_db = 20 * np.log10(gain)
            assert abs(gain_db) < 1.0, f"band {k} at {center:.1f} Hz: {gain_db:.2f} dB"

    def test_bands_past_nyquist_dropped(self):
        # the top bands (up to about 15 kHz) do not fit below 8 kHz; the
        # bands kept are those whose upper edge, half an ERB up, lies below it
        bands = fb.erb_bands(np.zeros(256), 16000.0)
        upper_edges = fb.erb_number_to_hz(np.arange(1, 40) + 0.5)
        assert bands.shape == (np.count_nonzero(upper_edges < 8000.0), 256) == (32, 256)


class TestOctaveFilter:
    def test_passband_center_unity(self):
        sine = _sine(1000.0)
        out = fb.octave_band(sine, FS, 1000.0)
        assert abs(20 * np.log10(_steady_rms(out) / _steady_rms(sine))) < 1.0

    def test_two_octaves_above_attenuated_40_db(self):
        center = 1000.0
        # Hann-windowed tone: abrupt edges would leak broadband energy into
        # the passband and mask the true stopband level.
        t = np.arange(int(FS)) / FS
        tone = np.sin(2 * np.pi * 4.0 * center * t) * np.hanning(t.size)
        out = fb.octave_band(tone, FS, center)
        mid = slice(t.size // 4, 3 * t.size // 4)
        measured_db = 20 * np.log10(
            np.sqrt(np.mean(out[mid] ** 2)) / np.sqrt(np.mean(tone[mid] ** 2))
        )
        assert measured_db <= -40.0

        # Magnitude-response oracle: forward-backward doubles the dB response.
        nyq = FS / 2
        sos = sps.butter(
            2, [center / np.sqrt(2) / nyq, center * np.sqrt(2) / nyq],
            btype="bandpass", output="sos",
        )
        _, h = sps.sosfreqz(sos, worN=[4.0 * center / nyq * np.pi])
        oracle_db = 2 * 20 * np.log10(np.abs(h[0]))
        assert measured_db == pytest.approx(oracle_db, abs=1.0)

    def test_zero_in_zero_out(self):
        out = fb.octave_band(np.zeros(512), FS, 500.0)
        assert np.all(out == 0)

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            fb.octave_band(np.zeros(512), FS, 20000.0)  # c*sqrt2 > Nyquist
        with pytest.raises(ValueError):
            fb.octave_band(np.zeros(512), FS, -100.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(32, 400),
       center=st.sampled_from([125.0, 500.0, 1000.0, 2000.0, 8000.0]))
def test_stacked_rows_filter_like_single_rows(seed, n, center):
    """Filtering a (2, n) array equals filtering each row alone, bit for bit."""
    x = np.random.default_rng(seed).normal(size=(2, n))
    erb = fb.erb_bands(x, FS)
    octave = fb.octave_band(x, FS, center)
    for row in range(2):
        np.testing.assert_array_equal(erb[:, row], fb.erb_bands(x[row], FS))
        np.testing.assert_array_equal(octave[row], fb.octave_band(x[row], FS, center))
