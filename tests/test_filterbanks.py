import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from srirkit import filterbanks as fb

FS = 48000.0
RATES = (16000.0, 44100.0, 48000.0, 96000.0)
#: Octave centres from 31.25 Hz to 16 kHz; T30 and IACC use 500 Hz to 2 kHz.
OCTAVE_CENTERS_HZ = tuple(31.25 * 2.0**k for k in range(10))


def _sine(freq, duration=1.0):
    t = np.arange(int(duration * FS)) / FS
    return np.sin(2 * np.pi * freq * t)


def _steady_rms(x, skip=0.5):
    tail = x[..., int(x.shape[-1] * skip) :]
    return np.sqrt(np.mean(tail**2, axis=-1))


def _bands_below_nyquist(rate):
    """Every ERB band, every octave band and the piv-broadband default band
    whose upper edge lies below Nyquist."""
    octaves = [(c / np.sqrt(2.0), c * np.sqrt(2.0)) for c in OCTAVE_CENTERS_HZ]
    return [(low, high) for low, high in (*fb._ERB_EDGES_HZ, *octaves, (200.0, 2400.0))
            if high < rate / 2.0]


class TestBandpassSos:
    def test_is_the_4th_order_butterworth(self):
        """The in-house design equals SciPy's butter bit for bit on every ERB
        band, every octave band and the piv-broadband band, at four rates."""
        for rate in RATES:
            nyquist = rate / 2.0
            bands = [(500.0, 2000.0), *_bands_below_nyquist(rate)]
            assert len(bands) > 40
            for low, high in bands:
                expected = sps.butter(2, [low / nyquist, high / nyquist],
                                      btype="bandpass", output="sos")
                np.testing.assert_array_equal(fb.bandpass_sos(low, high, rate), expected)

    def test_designed_once_and_copied_out(self):
        """The design is cached read-only; each caller gets its own writable
        copy, which scipy's filters accept."""
        design = fb._bandpass_design(700.0, 1400.0, FS)
        assert fb._bandpass_design(700.0, 1400.0, FS) is design
        with pytest.raises(ValueError, match="read-only"):
            design[0, 0] = 1.0
        sos = fb.bandpass_sos(700.0, 1400.0, FS)
        assert sos is not design and sos.flags.writeable
        np.testing.assert_array_equal(sos, design)
        sps.sosfiltfilt(sos, np.ones(64))

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
        out = fb.octave_bands(sine, FS, (1000.0,))[0]
        assert abs(20 * np.log10(_steady_rms(out) / _steady_rms(sine))) < 1.0

    def test_two_octaves_above_attenuated_40_db(self):
        center = 1000.0
        # Hann-windowed tone: abrupt edges would leak broadband energy into
        # the passband and mask the true stopband level.
        t = np.arange(int(FS)) / FS
        tone = np.sin(2 * np.pi * 4.0 * center * t) * np.hanning(t.size)
        out = fb.octave_bands(tone, FS, (center,))[0]
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
        out = fb.octave_bands(np.zeros(512), FS, (500.0,))[0]
        assert np.all(out == 0)

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_fifteen_samples_or_fewer_rejected(self, n):
        """Zero-phase filtering pads 15 samples at each end, as SciPy's
        sosfiltfilt does, and needs more samples than that."""
        with pytest.raises(ValueError, match="more than 15 samples"):
            fb.octave_bands(np.ones((2, n)), FS, (1000.0,))[0]
        assert fb.octave_bands(np.ones((2, 16)), FS, (1000.0,))[0].shape == (2, 16)

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            fb.octave_bands(np.zeros(512), FS, (20000.0,))[0]  # c*sqrt2 > Nyquist
        with pytest.raises(ValueError):
            fb.octave_bands(np.zeros(512), FS, (-100.0,))[0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(32, 400),
       center=st.sampled_from([125.0, 500.0, 1000.0, 2000.0, 8000.0]))
def test_stacked_rows_filter_like_single_rows(seed, n, center):
    """Filtering a (2, n) array equals filtering each row alone, and octave
    bands filtered together equal each band alone, bit for bit."""
    x = np.random.default_rng(seed).normal(size=(2, n))
    erb = fb.erb_bands(x, FS)
    octave = fb.octave_bands(x, FS, (center,))[0]
    for row in range(2):
        np.testing.assert_array_equal(erb[:, row], fb.erb_bands(x[row], FS))
        np.testing.assert_array_equal(octave[row], fb.octave_bands(x[row], FS, (center,))[0])
    together = fb.octave_bands(x, FS, (center, 250.0, center / 2.0))
    np.testing.assert_array_equal(together[0], octave)
    np.testing.assert_array_equal(together[2], fb.octave_bands(x, FS, (center / 2.0,))[0])


def test_long_signals_match_scipy():
    """On 0.4 s of noise at 48 kHz, every band's causal and zero-phase filters
    agree with SciPy to 1e-12 of the larger peak: the blocked recursion
    carries its state across hundreds of blocks without losing precision."""
    x = np.random.default_rng(3).normal(size=(2, int(0.4 * FS)))
    for low, high in _bands_below_nyquist(FS):
        sos = fb.bandpass_sos(low, high, FS)
        for ours, expected in ((fb._sosfilt(sos, x), sps.sosfilt(sos, x)),
                               (fb._sosfiltfilt(sos, x), sps.sosfiltfilt(sos, x))):
            scale = max(np.abs(x).max(), np.abs(expected).max())
            assert np.abs(ours - expected).max() <= 1e-12 * scale, (low, high)


def test_erb_bands_memory_is_bounded_by_the_output():
    """All bands filter in one call, but each section's block rows are freed
    before the next section's are made: the peak stays near twice the
    (39, 2, n) output, as when the bands were filtered one at a time."""
    x = np.random.default_rng(5).normal(size=(2, 24000))
    fb.erb_bands(x[:, :64], FS)  # designs cached before measuring
    tracemalloc.start()
    try:
        out = fb.erb_bands(x, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.nbytes


def test_lowest_band_at_96_khz_matches_an_extended_precision_recursion():
    """The lowest ERB band at 96 kHz has poles 1e-3 from z = 1. Over 0.2 s
    the causal filter stays within 1e-14 of the larger of the input and
    output peaks of a long-double sample-by-sample recursion; SciPy's own
    sections are off by 6e-14 there."""
    sos = fb.bandpass_sos(*fb._ERB_EDGES_HZ[0], 96000.0)
    x = np.random.default_rng(4).normal(size=(2, 19200))
    exact = x.astype(np.longdouble)
    for b0, b1, b2, _, a1, a2 in sos.astype(np.longdouble):
        w = b0 * exact
        w[:, 1:] += b1 * exact[:, :-1]
        w[:, 2:] += b2 * exact[:, :-2]
        last = before = np.zeros(2, np.longdouble)
        for i in range(w.shape[1]):
            w[:, i] -= a1 * last + a2 * before
            last, before = w[:, i], last
        exact = w
    scale = max(np.abs(x).max(), float(np.abs(exact).max()))
    assert float(np.abs(fb._sosfilt(sos, x) - exact).max()) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 4), extra=st.integers(1, 48),
       rate=st.sampled_from(RATES), pick=st.integers(0, 2**16), offset=st.floats(-10.0, 10.0))
def test_filters_match_scipy_property(seed, rows, extra, rate, pick, offset):
    """The causal and zero-phase filters agree with SciPy's sosfilt and
    sosfiltfilt to 1e-12 of the larger of the input and output peaks, on
    1-4 rows just longer than the 15-sample pad, with a DC offset.

    The bound is taken on the input as well as the output: on the lowest
    bands at 96 kHz the output of a short input is far smaller than the
    input, and there SciPy's own direct form II transposed sections differ
    from an extended-precision run by up to 5e-9 of the output peak."""
    bands = _bands_below_nyquist(rate)
    low, high = bands[pick % len(bands)]
    sos = fb.bandpass_sos(low, high, rate)
    x = np.random.default_rng(seed).normal(size=(rows, 15 + extra)) + offset
    x = x[0] if rows == 1 else x
    for ours, expected in ((fb._sosfilt(sos, x), sps.sosfilt(sos, x)),
                           (fb._sosfiltfilt(sos, x), sps.sosfiltfilt(sos, x))):
        assert ours.shape == expected.shape
        scale = max(np.abs(x).max(), np.abs(expected).max())
        assert np.abs(ours - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("coretype", [None, "Haswell", "Nehalem"])
def test_band_and_piv_bytes_do_not_depend_on_blas_threads(coretype, blas_env):
    """octave_bands, erb_bands and piv_broadband_doa give the same bytes on 1
    and 2 BLAS threads, on the default kernel and forced onto OpenBLAS's
    Haswell one (also taken on Zen) and its pre-AVX Nehalem one, at the
    reference BRIR's 19,327 samples and at 60,000, 77,777 and 100,000
    (a product of 488 blocks in groups of 8 changed bits on Nehalem)."""
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from srirkit.doa import piv_broadband_doa\n"
        "from srirkit.filterbanks import erb_bands, octave_bands\n"
        "from srirkit.signals import FoaSignal\n"
        "x = np.random.default_rng(0).normal(size=(4, 100000))\n"
        "digest = hashlib.sha256()\n"
        "for n in (19327, 60000, 77777, 100000):\n"
        f"    digest.update(octave_bands(x[:2, :n], {FS}, (500.0, 1000.0, 2000.0)).tobytes())\n"
        f"    digest.update(erb_bands(x[:2, :n], {FS}).tobytes())\n"
        f"    trajectory = piv_broadband_doa(FoaSignal(x[:, :n], {FS}), 64, 200.0, 2400.0)\n"
        "    digest.update(trajectory.directions.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    digests = [subprocess.run([sys.executable, "-c", script], env=blas_env(threads, coretype),
                              capture_output=True, text=True, timeout=120, check=True).stdout
               for threads in (1, 2)]
    assert digests[0] == digests[1]
