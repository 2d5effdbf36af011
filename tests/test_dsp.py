import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

from srirkit import dsp
from srirkit.errors import NoOnsetError
from srirkit.signals import BinauralIr, StftFrames

FS = 48000.0


def _cola_interior(frames):
    """Samples of the istft output that every window position covers fully."""
    return slice(frames.window_size - frames.hop, frames.frame_count * frames.hop)


def _sinc_delay(n, delay, half=24):
    """Independent band-limited fractional-delay construction for oracles."""
    out = np.zeros(n)
    base = int(np.floor(delay))
    for k in range(-half, half + 1):
        idx = base + k
        if 0 <= idx < n:
            v = idx - delay
            out[idx] = np.sinc(v) * np.hanning(2 * half + 1)[k + half]
    return out


class TestStft:
    def test_zero_signal_gives_zero_frames(self):
        frames = dsp.stft(np.zeros(1024), FS, 256, 128)
        assert np.all(frames.values == 0)

    def test_round_trip_50_percent_hop(self, rng):
        x = rng.normal(size=5000)
        frames = dsp.stft(x, FS, 512, 256)
        y = dsp.istft(frames)
        interior = _cola_interior(frames)
        scale = np.abs(x).max()
        err = np.abs(y[interior] - x[interior]).max()
        assert err / scale < 1e-9

    def test_sine_at_bin_center_concentrates_energy(self):
        window = 256
        bin_k = 10
        freq = bin_k * FS / window
        t = np.arange(2048) / FS
        x = np.sin(2 * np.pi * freq * t)
        frames = dsp.stft(x, FS, window, 128)

        # Direct DFT oracle for one frame.
        seg = x[5 * 128 : 5 * 128 + window] * dsp._hann_periodic(window)
        k = np.arange(window // 2 + 1)
        dft = np.exp(-2j * np.pi * np.outer(k, np.arange(window)) / window) @ seg
        assert np.abs(frames.values[5] - dft).max() < 1e-9 * np.abs(dft).max()

        energy = np.abs(frames.values[5]) ** 2
        neighborhood = energy[bin_k - 1 : bin_k + 2].sum()
        assert neighborhood / energy.sum() >= 0.95

    def test_round_trip_preserves_energy_on_interior(self, rng):
        x = rng.normal(size=4096)
        frames = dsp.stft(x, FS, 256, 64)
        y = dsp.istft(frames)
        interior = _cola_interior(frames)
        e_in = np.sum(x[interior] ** 2)
        e_out = np.sum(y[interior] ** 2)
        assert abs(e_out - e_in) / e_in < 1e-6

    def test_zero_frames_give_zero_signal(self):
        frames = StftFrames(np.zeros((8, 129), complex), 256, 128, FS)
        assert np.all(dsp.istft(frames) == 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dsp.stft(np.zeros(100), FS, 256, 128)  # window larger than signal
        with pytest.raises(ValueError):
            dsp.stft(np.zeros(1000), FS, 200, 100)  # not a power of two
        with pytest.raises(ValueError):
            dsp.stft(np.zeros(1000), FS, 256, 96)  # hop does not divide
        with pytest.raises(ValueError):
            dsp.stft(np.zeros(1000), FS, 256, 256)  # no overlap: non-COLA


def _frame_by_frame_istft(frames):
    """Overlap-add oracle: one frame at a time, in ascending frame order."""
    window = dsp._hann_periodic(frames.window_size)
    hop = frames.hop
    length = (frames.frame_count - 1) * hop + frames.window_size
    acc, wsum = np.zeros(length), np.zeros(length)
    chunks = np.fft.irfft(frames.values, n=frames.window_size, axis=-1) * window
    for i, chunk in enumerate(chunks):
        acc[i * hop : i * hop + frames.window_size] += chunk
        wsum[i * hop : i * hop + frames.window_size] += window * window
    nonzero = wsum > 1e-12
    acc[nonzero] /= wsum[nonzero]
    return acc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), channels=st.integers(1, 4), n=st.integers(128, 1500),
       window_log2=st.integers(2, 6), overlap_log2=st.integers(1, 2))
def test_batched_stft_round_trip_matches_single_rows(seed, channels, n, window_log2,
                                                     overlap_log2):
    """istft(stft(x)) reconstructs the COLA interior of a (c, n) array, and
    the batched transforms equal per-row transforms (the inverse: a
    frame-by-frame overlap-add) bit for bit."""
    x = np.random.default_rng(seed).normal(size=(channels, n))
    window = 2**window_log2
    frames = dsp.stft(x, FS, window, window >> overlap_log2)
    y = dsp.istft(frames)
    interior = _cola_interior(frames)
    assert np.abs(y[:, interior] - x[:, interior]).max() <= 1e-12 * np.abs(x).max()
    for row in range(channels):
        single = dsp.stft(x[row], FS, window, window >> overlap_log2)
        np.testing.assert_array_equal(frames.values[row], single.values)
        np.testing.assert_array_equal(y[row], _frame_by_frame_istft(single))


def test_next_fast_len_is_scipys_real_length():
    """The smallest 5-smooth length at least n, which SciPy picks for real
    transforms, at every n up to 60,000."""
    ours = [dsp._next_fast_len(n) for n in range(1, 60001)]
    assert ours == [sp_fft.next_fast_len(n, real=True) for n in range(1, 60001)]


@pytest.mark.parametrize("a_shape, b_shape", [((300,), (41,)), ((4, 300), (4, 41)),
                                              ((300,), (4, 41))])
def test_fft_convolve_matches_direct_convolution(rng, a_shape, b_shape):
    """Leading axes broadcast; each row is the full convolution of its pair."""
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    out = dsp.fft_convolve(a, b)
    lead = np.broadcast_shapes(a_shape[:-1], b_shape[:-1])
    pairs = zip(np.broadcast_to(a, (*lead, 300)).reshape(-1, 300),
                np.broadcast_to(b, (*lead, 41)).reshape(-1, 41))
    expected = np.stack([np.convolve(x, y) for x, y in pairs]).reshape(*lead, 340)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


class TestCrossCorrelate:
    def test_autocorrelation_peaks_at_zero(self, rng):
        x = rng.normal(size=500)
        corr = dsp.cross_correlate(x, x, 50)
        assert np.argmax(corr) == 50

    def test_delayed_copy_peaks_at_positive_lag(self, rng):
        a = rng.normal(size=400)
        b = np.roll(a, 5)  # b[n] = a[n - 5]
        corr = dsp.cross_correlate(a, b, 20)
        assert np.argmax(corr) - 20 == 5

    def test_parabolic_refinement_half_sample(self):
        a = _sinc_delay(512, 100.0)
        b = _sinc_delay(512, 100.5)
        corr = dsp.cross_correlate(a, b, 10)
        lag = dsp.refine_peaks(corr) - 10
        assert lag == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("kind", ["random", "edge", "flat", "nan"])
    def test_refine_peaks_keeps_the_bytes_of_the_indexed_gather(self, rng, kind):
        """Against the neighbours gathered through np.indices and three
        fancy-index gathers: random rows, peaks at either end, flat rows and
        flat peak neighbourhoods, and rows bearing NaN, also through a
        non-contiguous view and one 1-D row."""
        def indexed(corr):
            peaks = np.argmax(corr, axis=-1)
            idx = np.indices(peaks.shape)
            interior = (peaks > 0) & (peaks < corr.shape[-1] - 1)
            safe = np.where(interior, peaks, 1)
            y0, y1, y2 = (corr[(*idx, safe + d)] for d in (-1, 0, 1))
            denom = y0 - 2.0 * y1 + y2
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = np.where(np.abs(denom) > 0.0, 0.5 * (y0 - y2) / denom, 0.0)
            delta = np.clip(np.nan_to_num(delta), -1.0, 1.0)
            return peaks + np.where(interior, delta, 0.0)

        corr = rng.normal(size=(3, 40, 17))
        rows = rng.uniform(size=corr.shape[:2]) < 0.5
        if kind == "edge":
            corr[rows, 0] += 10.0
            corr[~rows, -1] += 10.0
        elif kind == "flat":
            corr[rows] = 0.25
            peak = np.argmax(corr[~rows], axis=-1)
            corr[~rows, np.maximum(peak - 1, 0)] = corr[~rows].max(axis=-1)
        elif kind == "nan":
            corr[rows, rng.integers(17, size=rows.sum())] = np.nan
        for view in (corr, corr.transpose(1, 0, 2), corr[1, 2]):
            expected = indexed(view)
            assert np.shape(dsp.refine_peaks(view)) == np.shape(expected)
            assert np.array_equal(dsp.refine_peaks(view), expected)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 300), lag_frac=st.floats(0.0, 1.0))
    def test_equals_brute_force_sum_property(self, seed, n, lag_frac):
        """Lag tau holds sum_n a[n] * b[n + tau], for every returned lag."""
        a, b = np.random.default_rng(seed).normal(size=(2, n))
        max_lag = int(lag_frac * (n - 1))
        expected = [sum(a[i] * b[i + tau] for i in range(n) if 0 <= i + tau < n)
                    for tau in range(-max_lag, max_lag + 1)]
        corr = dsp.cross_correlate(a, b, max_lag)
        assert corr.shape == (2 * max_lag + 1,)
        assert np.abs(corr - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_bytes_do_not_depend_on_blas_threads(self, blas_env):
        """15,000 samples, about a late IACC window: np.correlate's ddot split
        vectors of over 10,000 across threads, which read other bytes on two
        than on one, and this process's bytes on both."""
        script = (
            "import hashlib, numpy as np\n"
            "from srirkit.dsp import cross_correlate\n"
            "a, b = np.random.default_rng(3).normal(size=(2, 15_000))\n"
            "print(hashlib.sha256(cross_correlate(a, b, 48).tobytes()).hexdigest())\n"
        )
        digests = [subprocess.run([sys.executable, "-c", script], env=blas_env(threads),
                                  capture_output=True, text=True, timeout=120,
                                  check=True).stdout.strip() for threads in (1, 2)]
        a, b = np.random.default_rng(3).normal(size=(2, 15_000))
        here = hashlib.sha256(dsp.cross_correlate(a, b, 48).tobytes()).hexdigest()
        assert digests == [here, here]

    def test_invalid_arguments(self):
        x = np.ones(10)
        with pytest.raises(ValueError):
            dsp.cross_correlate(x, np.ones(9), 5)
        with pytest.raises(ValueError):
            dsp.cross_correlate(x, x, 10)  # max_lag not < length


class TestOnset:
    def _brir(self, left, right):
        return BinauralIr(np.stack([left, right]), FS)

    def test_unit_impulse_at_100(self):
        x = np.zeros(300)
        x[100] = 1.0
        assert dsp.detect_onset(self._brir(x, x.copy())) == 100

    def test_impulse_over_noise_floor(self, rng):
        noise = rng.normal(scale=10 ** (-60 / 20), size=400)
        x = noise.copy()
        x[100] += 1.0
        assert dsp.detect_onset(self._brir(x, noise.copy())) == 100

    def test_earliest_channel_wins(self):
        left = np.zeros(300)
        left[120] = 1.0
        right = np.zeros(300)
        right[90] = 1.0
        assert dsp.detect_onset(self._brir(left, right)) == 90

    def test_all_zero_raises(self):
        with pytest.raises(NoOnsetError):
            dsp.detect_onset(self._brir(np.zeros(100), np.zeros(100)))

    def test_gain_invariance(self, rng):
        x = rng.normal(size=500) * np.exp(-np.arange(500) / 50.0)
        x[40] += 3.0
        brir = self._brir(x, x.copy())
        scaled = self._brir(100.0 * x, 100.0 * x)
        assert dsp.detect_onset(brir) == dsp.detect_onset(scaled)


class TestNormalizeDirectEnergy:
    def _brir(self, rng, n=1000):
        left = rng.normal(size=n) * np.exp(-np.arange(n) / 100.0)
        left[50] += 2.0
        right = 0.7 * rng.normal(size=n) * np.exp(-np.arange(n) / 100.0)
        right[50] += 1.0
        return BinauralIr(np.stack([left, right]), FS)

    def test_segment_rms_becomes_one(self, rng):
        out = dsp.normalize_direct_energy(self._brir(rng))
        start, stop = dsp.direct_segment(out)
        seg = out.samples[:, start:stop]
        assert np.sqrt(np.mean(seg**2)) == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self, rng):
        brir = self._brir(rng)
        out1 = dsp.normalize_direct_energy(brir)
        scaled = brir.scaled(10.0)
        out2 = dsp.normalize_direct_energy(scaled)
        assert np.allclose(out1.left.samples, out2.left.samples, atol=1e-12)
        assert np.allclose(out1.right.samples, out2.right.samples, atol=1e-12)

    def test_idempotent(self, rng):
        once = dsp.normalize_direct_energy(self._brir(rng))
        twice = dsp.normalize_direct_energy(once)
        assert np.allclose(once.left.samples, twice.left.samples, atol=1e-12)

    def test_too_short_tail_rejected(self):
        x = np.zeros(80)
        x[70] = 1.0  # fewer than 2.5 ms after onset
        with pytest.raises(ValueError):
            dsp.normalize_direct_energy(BinauralIr(np.stack([x, x]), FS))


def test_place_fractional_impulses_integer_delay_is_exact():
    """With either window an integer delay is the amplitude at its sample
    and exactly 0.0 at every other."""
    for polynomial in (False, True):
        out = np.zeros(64)
        dsp.place_fractional_impulses(out, np.array([30.0]), np.array([1.5]),
                                      _polynomial=polynomial)
        assert out[30] == pytest.approx(1.5, abs=0.0)
        out[30] = 0.0
        assert np.all(out == 0.0)


def test_polynomial_window_matches_the_i0_window(rng):
    """5,000 unit impulses, each in its own row, agree within 1e-13 between
    the two windows, with fractions next to 0 and 1 and so taps at |v| -> 16."""
    edges = [40.0, np.nextafter(40.0, 41.0), 40.0 + 1e-12, 40.0 + 1e-8, 40.5,
             41.0 - 1e-8, 41.0 - 1e-12, np.nextafter(41.0, 40.0)]
    delays = np.concatenate([40.0 + rng.uniform(size=5_000 - len(edges)), edges])
    rows = np.arange(delays.size)
    outs = []
    for polynomial in (False, True):
        out = np.zeros((delays.size, 80))
        dsp.place_fractional_impulses(out, delays, np.ones(delays.size), rows=rows,
                                      _polynomial=polynomial)
        outs.append(out)
    assert np.abs(outs[1] - outs[0]).max() < 1e-13


def test_polynomial_window_is_a_fresh_chebyshev_fit(rng):
    """The Farrow table is each tap's np.i0 kernel interpolated at the 19
    Chebyshev nodes of x = 2f - 1, refitted here by numpy; its kernels lie
    within 4e-15 of np.i0's over 200,000 fractions, both edges included."""
    from numpy.polynomial import chebyshev

    def i0_kernels(x):
        return dsp._windowed_sincs((x + 1.0) / 2.0, polynomial=False)

    refit = np.stack([chebyshev.chebinterpolate(lambda x, k=k: i0_kernels(x)[:, k], 18)
                      for k in range(2 * dsp.FRACTIONAL_DELAY_HALF + 1)], axis=1)
    np.testing.assert_allclose(dsp._FARROW, refit, rtol=0.0, atol=1e-15)
    edges = [0.0, np.nextafter(0.0, 1.0), 1e-12, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-12,
             np.nextafter(1.0, 0.0)]
    frac = np.concatenate([rng.uniform(size=200_000 - len(edges)), edges])
    table, i0 = (dsp._windowed_sincs(frac, polynomial) for polynomial in (True, False))
    assert np.abs(table - i0).max() < 4e-15


def test_place_fractional_impulses_counts_truncated():
    out = np.zeros(64)
    n = dsp.place_fractional_impulses(out, np.array([30.0, 500.0]), np.ones(2))
    assert n == 1


def test_place_fractional_impulses_channels_match_single_calls(rng):
    delays = np.array([3.0, 20.25, 40.7, 60.0])  # the first and last do not fit
    amps = rng.normal(size=(3, 4))
    out = np.zeros((3, 64))
    assert dsp.place_fractional_impulses(out, delays, amps) == 2
    for channel, channel_amps in zip(out, amps):
        single = np.zeros(64)
        dsp.place_fractional_impulses(single, delays, channel_amps)
        np.testing.assert_array_equal(channel, single)
    untouched = np.full((2, 16), 7.0)
    assert dsp.place_fractional_impulses(untouched, delays, amps[:2]) == 4
    assert np.all(untouched == 7.0)


def test_impulse_fits_needs_the_whole_kernel_inside():
    delays = np.array([15.9, 16.0, 47.0, 47.99, 48.0])
    assert dsp.impulse_fits(delays, 64).tolist() == [False, True, True, True, False]


@pytest.mark.parametrize("shape, row", [((4, 64), -1), ((4, 64), 4), ((64,), 1)],
                         ids=["row-1", "row-4", "flat-row-1"])
def test_place_fractional_impulses_rows_must_be_in_range(shape, row):
    """Row -1 used to land in the last row, and a row past the channels
    raised a bare IndexError; an (n,) buffer has the one row 0."""
    out = np.zeros(shape)
    channels = 1 if len(shape) == 1 else shape[0]
    with pytest.raises(ValueError, match=rf"rows must lie in \[0, {channels}\), got {row}"):
        dsp.place_fractional_impulses(out, np.array([30.5, 20.0]), np.ones(2), rows=[0, row])
    assert not np.any(out)


@pytest.mark.parametrize("rows", [[0.5, 1.7], [0.0, 1.0], [True, False], [0, True]],
                         ids=["fractional", "whole-floats", "bools", "int-and-bool"])
def test_place_fractional_impulses_rows_must_be_integers(rows):
    """[0.5, 1.7] landed in rows 0 and 1 and [True] in row 1."""
    out = np.zeros((4, 64))
    with pytest.raises(ValueError, match="rows must be integer indices"):
        dsp.place_fractional_impulses(out, np.array([30.5, 20.0]), np.ones(2), rows=rows)
    assert not np.any(out)


def test_place_fractional_impulses_per_row_delays_match_single_calls(rng):
    delays = np.array([[3.0, 20.25, 40.7], [30.5, 60.0, 17.0]])  # 3.0 and 60.0 do not fit
    amps = rng.normal(size=(2, 3))
    out = np.zeros((2, 64))
    assert dsp.place_fractional_impulses(out, delays, amps) == 2
    for channel, channel_delays, channel_amps in zip(out, delays, amps):
        single = np.zeros(64)
        dsp.place_fractional_impulses(single, channel_delays, channel_amps)
        np.testing.assert_array_equal(channel, single)


def test_place_fractional_impulses_given_rows_match_single_calls(rng, monkeypatch):
    """Arrivals spread over rows, interleaved and over several kernel blocks,
    give each row the bits of placing its own arrivals alone."""
    monkeypatch.setattr(dsp, "_IMPULSE_BLOCK", 7)
    delays = rng.uniform(-20.0, 276.0, size=60)
    amps = rng.normal(size=60)
    rows = rng.integers(4, size=60)
    out = np.zeros((4, 256))
    count = dsp.place_fractional_impulses(out, delays, amps, rows=rows)
    singles = 0
    for row in range(4):
        single = np.zeros(256)
        singles += dsp.place_fractional_impulses(single, delays[rows == row], amps[rows == row])
        np.testing.assert_array_equal(out[row], single)
    assert count == singles > 0


@pytest.mark.parametrize("form", ["(n,) out", "shared delays", "per-row delays"])
def test_place_fractional_impulses_block_size_keeps_bits(rng, monkeypatch, form):
    """Kernels built 7, 2 or 1 arrivals at a time give the default block's
    bits and truncation count; arrivals overlap, and some lie before the
    start or past the end of the buffer."""
    n, k = 256, 60
    delays = rng.uniform(-20.0, n + 20.0, size=(3, k) if form == "per-row delays" else k)
    amps = rng.normal(size=k if form == "(n,) out" else (3, k))
    default = dsp._IMPULSE_BLOCK
    for polynomial in (False, True):
        results = []
        for block in (default, 7, 2, 1):
            monkeypatch.setattr(dsp, "_IMPULSE_BLOCK", block)
            out = np.zeros(n if form == "(n,) out" else (3, n))
            results.append((dsp.place_fractional_impulses(out, delays, amps,
                                                          _polynomial=polynomial), out))
        (count, out), *others = results
        assert count > 0 and np.any(out)
        for count_block, out_block in others:
            assert count_block == count and np.array_equal(out_block, out)


def test_polynomial_kernel_bytes_do_not_depend_on_blas_threads_before_avx(blas_env):
    """OpenBLAS's pre-AVX Nehalem kernel split some row counts between about
    830 and 3,000 across two threads in another order: a last block of 900
    arrivals placed other bytes on two threads than on one."""
    script = (
        "import hashlib, numpy as np\n"
        "from srirkit.dsp import _IMPULSE_BLOCK, place_fractional_impulses\n"
        "rng = np.random.default_rng(11)\n"
        "delays = rng.uniform(20.0, 4000.0, size=_IMPULSE_BLOCK + 900)\n"
        "out = np.zeros(4096)\n"
        "place_fractional_impulses(out, delays, rng.normal(size=delays.size), _polynomial=True)\n"
        "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
    )
    digests = [subprocess.run([sys.executable, "-c", script], env=blas_env(threads, "Nehalem"),
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout.strip() for threads in (1, 2)]
    assert digests[0] == digests[1]


def test_place_fractional_impulses_memory_is_bounded(rng):
    """6 x 200,000 arrivals peak below a quarter of one unbounded
    (6 * 200,000, 33) float64 kernel array (317 MB), with either window."""
    delays = rng.uniform(0.0, 200_000.0, size=(6, 200_000))
    amps = rng.normal(size=(6, 200_000))
    for polynomial in (False, True):
        out = np.zeros((6, 200_000))
        tracemalloc.start()
        try:
            dsp.place_fractional_impulses(out, delays, amps, _polynomial=polynomial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(out)
        assert peak < 6 * 200_000 * 33 * 8 / 4
