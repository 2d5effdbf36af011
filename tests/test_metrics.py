import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srirkit import metrics
from srirkit.dsp import normalize_direct_energy
from srirkit.errors import (
    DegenerateBandError,
    DegenerateInputError,
    InsufficientDecayError,
)
from srirkit.dsp import place_fractional_impulses
from srirkit.signals import BinauralIr, MonoIr

FS = 48000.0


def _impulse_brir(rng, n=16000, onset=200, itd_samples=0, right_gain=1.0,
                  tail_scale=0.05, rt=0.15):
    """Impulse + exponentially decaying correlated tail."""
    t = np.arange(n) / FS
    tail = rng.normal(size=n) * np.exp(-6.91 * t / rt) * tail_scale
    left = tail.copy()
    right = tail * right_gain
    left[onset] += 1.0
    right[onset + itd_samples] += right_gain
    return BinauralIr(np.stack([left, right]), FS)


def _swap(brir):
    return BinauralIr(brir.samples[::-1], brir.sample_rate)


class TestIld:
    def test_identical_channels_zero(self, rng):
        brir = _impulse_brir(rng)
        low, high = metrics.ild_avg(brir)
        assert low == pytest.approx(0.0, abs=1e-9)
        assert high == pytest.approx(0.0, abs=1e-9)

    def test_half_gain_right_is_6db(self, rng):
        brir = _impulse_brir(rng, right_gain=0.5)
        low, high = metrics.ild_avg(brir)
        assert low == pytest.approx(20 * np.log10(2.0), abs=1e-9)
        assert high == pytest.approx(20 * np.log10(2.0), abs=1e-9)

    def test_swap_antisymmetry_exact(self, rng):
        brir = _impulse_brir(rng, right_gain=0.7, itd_samples=3)
        low, high = metrics.ild_avg(brir)
        low_s, high_s = metrics.ild_avg(_swap(brir))
        assert low_s == -low
        assert high_s == -high

    def test_zero_channel_names_band(self, rng):
        left = rng.normal(size=4000)
        left[100] += 2.0
        brir = BinauralIr(np.stack([left, np.zeros(4000)]), FS)
        with pytest.raises(DegenerateBandError) as info:
            metrics.ild_avg(brir)
        assert info.value.channel == "right"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_channel_swap_negates_ild_exactly_and_itd_within_2us(seed):
    """Random direct sound (per-ear fractional delay and gain) plus three
    weaker early arrivals per ear."""
    gen = np.random.default_rng(seed)
    delays = np.column_stack([400.0 + gen.uniform(0.0, 40.0, size=2),
                              500.0 + gen.uniform(0.0, 400.0, size=(2, 3))])
    gains = np.column_stack([gen.uniform(0.2, 1.0, size=2),
                             gen.uniform(-0.1, 0.1, size=(2, 3))])
    ears = np.zeros((2, 2400))
    place_fractional_impulses(ears, delays, gains)
    brir = BinauralIr(ears, FS)
    low, high = metrics.ild_avg(brir)
    low_s, high_s = metrics.ild_avg(_swap(brir))
    assert (low_s, high_s) == (-low, -high)
    assert abs(metrics.itd(_swap(brir)) + metrics.itd(brir)) <= 2.0


class TestItd:
    def test_identical_channels_zero(self, rng):
        brir = _impulse_brir(rng)
        assert metrics.itd(brir) == pytest.approx(0.0, abs=1.0)

    def test_right_delayed_10_samples(self, rng):
        brir = _impulse_brir(rng, itd_samples=10, tail_scale=0.0)
        expected_us = 10 / FS * 1e6  # 208.33 us, left leads -> positive
        assert metrics.itd(brir) == pytest.approx(expected_us, abs=2.0)

    def test_result_bounded(self, rng):
        brir = _impulse_brir(rng, itd_samples=40)
        assert abs(metrics.itd(brir)) <= 1000.0

    def test_swap_negates(self, rng):
        brir = _impulse_brir(rng, itd_samples=7, tail_scale=0.0)
        assert metrics.itd(_swap(brir)) == pytest.approx(-metrics.itd(brir), abs=2.0)

    def test_silent_segment_degenerate(self):
        silent = BinauralIr(np.zeros((2, 4000)), FS)
        # all-zero input fails at onset detection, a DegenerateInputError kind
        with pytest.raises(DegenerateInputError):
            metrics.itd(silent)


class TestIacc:
    def test_identical_channels_one(self, rng):
        x = rng.normal(size=1000)
        assert metrics.iacc(MonoIr(x, FS), MonoIr(x.copy(), FS)) == pytest.approx(1.0)

    def test_inverted_channel_one(self, rng):
        x = rng.normal(size=1000)
        assert metrics.iacc(MonoIr(x, FS), MonoIr(-x, FS)) == pytest.approx(1.0)

    def test_independent_noise_low(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            a = MonoIr(gen.normal(size=24000), FS)
            b = MonoIr(gen.normal(size=24000), FS)
            assert metrics.iacc(a, b) < 0.1

    def test_symmetric_under_swap(self, rng):
        a = MonoIr(rng.normal(size=2000), FS)
        b = MonoIr(rng.normal(size=2000), FS)
        assert metrics.iacc(a, b) == pytest.approx(metrics.iacc(b, a), abs=1e-12)

    def test_zero_energy_degenerate(self, rng):
        with pytest.raises(DegenerateInputError):
            metrics.iacc(MonoIr(np.zeros(1000), FS), MonoIr(rng.normal(size=1000), FS))

    def test_short_segment_rejected(self, rng):
        a = MonoIr(rng.normal(size=50), FS)
        with pytest.raises(ValueError):
            metrics.iacc(a, a)


class TestIaccE3L3:
    def test_identical_channels_zero(self, rng):
        brir = _impulse_brir(rng)
        e3, l3 = metrics.iacc_e3_l3(brir)
        assert e3 == pytest.approx(0.0, abs=1e-9)
        assert l3 == pytest.approx(0.0, abs=1e-9)

    def test_decorrelated_tail_high_l3(self, rng):
        n = 24000
        split = 200 + int(0.08 * FS)
        t = np.arange(n) / FS
        env = np.exp(-6.91 * t / 0.4)
        left = rng.normal(size=n) * env * 0.05
        right = left.copy()
        right[split:] = rng.normal(size=n - split) * env[split:] * 0.05
        left[200] += 1.0
        right[200] += 1.0
        brir = BinauralIr(np.stack([left, right]), FS)
        e3, l3 = metrics.iacc_e3_l3(brir)
        assert e3 < 0.15  # correlated early part
        assert l3 > 0.8  # independent late field

    def test_outputs_in_unit_interval(self, rng):
        brir = _impulse_brir(rng, right_gain=0.6, itd_samples=5)
        e3, l3 = metrics.iacc_e3_l3(brir)
        assert 0.0 <= e3 <= 1.0
        assert 0.0 <= l3 <= 1.0

    def test_too_short_rejected(self, rng):
        brir = _impulse_brir(rng, n=3000)
        with pytest.raises(ValueError):
            metrics.iacc_e3_l3(brir)


class TestT30:
    @pytest.mark.parametrize("rt", [0.25, 0.5, 1.0])
    def test_synthetic_decay_recovered(self, rt):
        # Damped sinusoids at the analysis band centers: the band-filtered
        # envelope decays at exactly the analytic e^(-6.91 t / RT) rate,
        # with none of the slope variance a noise carrier would add.
        n = int(1.4 * rt * FS)
        t = np.arange(n) / FS
        carrier = np.sin(2 * np.pi * 500.0 * t) + np.sin(2 * np.pi * 1000.0 * t)
        decay = carrier * np.exp(-6.91 * t / rt)
        measured = metrics.t30_mid(MonoIr(decay, FS))
        assert measured == pytest.approx(rt, rel=0.02)

    def test_noise_carrier_decay_recovered_loosely(self, rng):
        # A noise carrier adds a few percent of slope variance per band.
        rt = 0.5
        n = int(1.4 * rt * FS)
        t = np.arange(n) / FS
        decay = rng.normal(size=n) * np.exp(-6.91 * t / rt)
        assert metrics.t30_mid(MonoIr(decay, FS)) == pytest.approx(rt, rel=0.06)

    def test_gain_invariance(self, rng):
        n = int(0.6 * FS)
        t = np.arange(n) / FS
        decay = rng.normal(size=n) * np.exp(-6.91 * t / 0.35)
        a = metrics.t30_mid(MonoIr(decay, FS))
        b = metrics.t30_mid(MonoIr(100.0 * decay, FS))
        assert a == pytest.approx(b, rel=1e-9)

    def test_binaural_averages_channels(self, rng):
        n = int(0.6 * FS)
        t = np.arange(n) / FS
        left = rng.normal(size=n) * np.exp(-6.91 * t / 0.3)
        right = rng.normal(size=n) * np.exp(-6.91 * t / 0.3)
        brir = BinauralIr(np.stack([left, right]), FS)
        mono_mean = 0.5 * (
            metrics.t30_mid(MonoIr(left, FS)) + metrics.t30_mid(MonoIr(right, FS))
        )
        assert metrics.t30_mid(brir) == pytest.approx(mono_mean, rel=1e-9)

    def test_window_placement_independence(self, rng):
        rt = 0.3
        n = int(1.4 * rt * FS)
        t = np.arange(n) / FS
        decay = rng.normal(size=n) * np.exp(-6.91 * t / rt)
        values = []
        for pre in (0, 500, 2000):
            padded = np.concatenate([np.zeros(pre), decay])
            values.append(metrics.t30_mid(MonoIr(padded, FS)))
        assert max(values) / min(values) - 1.0 < 0.01

    def test_insufficient_decay_reports_range(self, rng):
        flat = rng.normal(size=int(0.3 * FS))  # no decay at all
        with pytest.raises(InsufficientDecayError) as info:
            metrics.t30_mid(MonoIr(flat, FS))
        assert info.value.measured_range_db < 35.0

    def test_near_anechoic_input_hits_filter_floor(self):
        # A bare impulse has no room decay; the Schroeder fit then measures
        # the octave filter's own ringing, a small positive detection floor
        # (and must never emit NaN from the zero-energy tail).
        x = np.zeros(int(0.3 * FS))
        x[100] = 1.0
        value = metrics.t30_mid(MonoIr(x, FS))
        assert np.isfinite(value)
        assert 0.0 < value < 0.05


class TestErrorSummary:
    def _report(self, **overrides):
        base = dict(
            ild_low_db=1.0, ild_high_db=-2.0, itd_us=100.0,
            t30_mid_s=0.25, one_minus_iacc_e3=0.3, one_minus_iacc_l3=0.6,
        )
        base.update(overrides)
        return metrics.MetricReport(**base)

    def test_identical_systems_zero_errors(self):
        ref = self._report()
        summary = metrics.error_summary_paired([ref, ref, ref], [ref] * 3)
        assert all(v == 0.0 for v in summary.mae.values())
        assert all(v == 0.0 for v in summary.msd.values())
        assert all(summary.jnd_pass.values())

    def test_constant_offset(self):
        ref = self._report()
        systems = [self._report(itd_us=100.0 + 25.0) for _ in range(4)]
        summary = metrics.error_summary_paired(systems, [ref] * len(systems))
        assert summary.mae["itd_us"] == pytest.approx(25.0)
        assert summary.msd["itd_us"] == pytest.approx(25.0)
        assert summary.jnd_pass["itd_us"]  # 25 < 40 us JND

    def test_positive_t30_bias_detected(self):
        ref = self._report()
        systems = [self._report(t30_mid_s=0.25 + d) for d in (0.01, 0.03, 0.05)]
        summary = metrics.error_summary_paired(systems, [ref] * len(systems))
        assert summary.msd["t30_mid_s"] > 0.0
        assert not summary.jnd_pass["t30_mid_s"]  # mean 30 ms > 5% of 0.25 s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.error_summary_paired([], [])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), count=st.integers(1, 8))
    def test_mae_dominates_msd(self, seed, count):
        gen = np.random.default_rng(seed)
        ref = self._report()
        systems = [
            self._report(
                ild_low_db=gen.normal(), itd_us=gen.uniform(-500, 500),
                t30_mid_s=gen.uniform(0.05, 1.0),
                one_minus_iacc_e3=gen.uniform(0, 1),
            )
            for _ in range(count)
        ]
        summary = metrics.error_summary_paired(systems, [ref] * len(systems))
        for name in summary.mae:
            assert summary.mae[name] >= abs(summary.msd[name]) - 1e-12

    def test_json(self):
        ref = self._report()
        summary = metrics.error_summary_paired([self._report(itd_us=90.0)], [ref])
        data = json.loads(summary.to_json())
        assert set(data) == {"system_count", "mae", "msd", "jnd_pass"}


class TestMeasureBrir:
    def test_common_gain_invariance(self, rng):
        brir = _impulse_brir(rng, right_gain=0.7, itd_samples=4)
        a = metrics.measure_brir(brir)
        for gain in (12.0, 1e-3, 1e3):
            scaled = brir.scaled(gain)
            b = metrics.measure_brir(scaled)
            for name in metrics.MetricReport.metric_names():
                assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)

    def test_normalization_does_not_alter_ild_itd(self, rng):
        brir = _impulse_brir(rng, right_gain=0.5, itd_samples=6)
        normalized = normalize_direct_energy(brir)
        assert metrics.ild_avg(brir) == pytest.approx(
            metrics.ild_avg(normalized), abs=1e-9
        )
        assert metrics.itd(brir) == pytest.approx(
            metrics.itd(normalized), abs=1e-9
        )

    @pytest.mark.parametrize("rate", [16000.0, 24000.0])
    def test_rates_below_32_khz_are_scored(self, rng, rate):
        # The top ERB bands reach past Nyquist here; the ILD averages the rest.
        n, onset = int(0.4 * rate), 100
        t = np.arange(n) / rate
        left = rng.normal(size=n) * np.exp(-6.91 * t / 0.15) * 0.05 * (t > onset / rate)
        left[onset] = 1.0
        report = metrics.measure_brir(BinauralIr(np.stack([left, 0.5 * left]), rate))
        assert all(np.isfinite(v) for v in report.to_dict().values())
        assert report.ild_low_db == pytest.approx(20 * np.log10(2.0), abs=1e-9)
        assert report.ild_high_db == pytest.approx(20 * np.log10(2.0), abs=1e-9)
        assert report.itd_us == pytest.approx(0.0, abs=1.0)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            metrics.MetricReport(0.0, 0.0, 2000.0, 0.25, 0.1, 0.1)  # itd too big
        with pytest.raises(ValueError):
            metrics.MetricReport(0.0, 0.0, 0.0, -0.1, 0.1, 0.1)  # t30 <= 0
        with pytest.raises(ValueError):
            metrics.MetricReport(0.0, 0.0, 0.0, 0.25, 1.5, 0.1)  # iacc range
