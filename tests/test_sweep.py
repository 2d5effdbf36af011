import numpy as np
import pytest
from scipy import signal as sps

from srirkit.signals import MonoIr
from srirkit.sweep import deconvolve_ess, generate_ess

FS = 48000.0


@pytest.fixture(scope="module")
def short_sweep():
    return generate_ess(FS, 20.0, 20000.0, 2.0, 0.01)


def _main_to_sidelobe_db(pulse, guard_s=0.010, rate=FS):
    peak_idx = int(np.argmax(np.abs(pulse)))
    peak = np.abs(pulse[peak_idx])
    guard = int(guard_s * rate)
    sides = np.abs(np.concatenate([pulse[: peak_idx - guard], pulse[peak_idx + guard + 1 :]]))
    return 20 * np.log10(peak / sides.max())


def test_canonical_parameters_produce_960000_samples():
    sweep, inverse = generate_ess(48000.0, 20.0, 20000.0, 20.0, 0.010)
    assert len(sweep) == 960000
    assert len(inverse) == 960000


def test_sweep_amplitude_bounded(short_sweep):
    sweep, _ = short_sweep
    assert np.abs(sweep.samples).max() <= 1.0 + 1e-12


def test_deconvolution_is_scipy_fftconvolve_bit_for_bit(short_sweep):
    sweep, inverse = short_sweep
    recorded = MonoIr(sweep.samples[: len(sweep) // 3], FS)
    full = deconvolve_ess(recorded, inverse, trim_distortion=False)
    np.testing.assert_array_equal(full.samples, sps.fftconvolve(recorded.samples, inverse.samples))


def test_main_to_sidelobe_ratio(short_sweep):
    sweep, inverse = short_sweep
    pulse = sps.fftconvolve(sweep.samples, inverse.samples)
    assert int(np.argmax(np.abs(pulse))) == len(sweep) - 1
    assert _main_to_sidelobe_db(pulse) >= 60.0


def test_instantaneous_frequency_is_exponential(short_sweep):
    sweep, _ = short_sweep
    duration = len(sweep) / FS
    phase = np.unwrap(np.angle(sps.hilbert(sweep.samples)))
    inst_freq = np.gradient(phase) * FS / (2 * np.pi)
    probes = np.linspace(0.1, 0.9, 10) * duration
    for t in probes:
        expected = 20.0 * (20000.0 / 20.0) ** (t / duration)
        measured = inst_freq[int(t * FS)]
        assert measured == pytest.approx(expected, rel=0.01)


def test_self_deconvolution_is_near_delta(short_sweep):
    sweep, inverse = short_sweep
    ir = deconvolve_ess(sweep, inverse)
    assert int(np.argmax(np.abs(ir.samples))) == 0
    peak = np.abs(ir.samples[0])
    guard = int(0.010 * FS)
    sidelobe = np.abs(ir.samples[guard:]).max()
    assert 20 * np.log10(peak / sidelobe) >= 60.0


def test_deconvolve_recovers_known_ir(rng):
    # Full-band sweep: recovery error is compression sidelobe, which falls
    # with sweep length; 6 s puts it under the -40 dB floor.
    sweep, inverse = generate_ess(FS, 20.0, 24000.0, 6.0, 0.01)
    h = np.zeros(800)
    h[10] = 1.0
    h[300] = -0.5
    h[600] = 0.25
    h += 0.01 * rng.normal(size=800) * np.exp(-np.arange(800) / 200.0)
    recorded = MonoIr(sps.fftconvolve(sweep.samples, h), FS)
    out = deconvolve_ess(recorded, inverse)
    err = np.abs(out.samples[:800] - h).max()
    assert err <= 0.01 * np.abs(h).max()  # -40 dB error floor


def test_zero_recording_gives_zero_output(short_sweep):
    _, inverse = short_sweep
    out = deconvolve_ess(MonoIr(np.zeros(1000), FS), inverse)
    assert np.all(out.samples == 0)


def test_trim_flag_keeps_distortion_tail(short_sweep):
    sweep, inverse = short_sweep
    full = deconvolve_ess(sweep, inverse, trim_distortion=False)
    trimmed = deconvolve_ess(sweep, inverse, trim_distortion=True)
    assert len(full) == len(trimmed) + len(inverse) - 1
    assert int(np.argmax(np.abs(full.samples))) == len(inverse) - 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_ess(FS, 0.0, 20000.0, 2.0)
    with pytest.raises(ValueError):
        generate_ess(FS, 100.0, 30000.0, 2.0)  # above Nyquist
    with pytest.raises(ValueError):
        generate_ess(FS, 20.0, 20000.0, 0.015, fade_s=0.01)  # duration <= 2*fade
    with pytest.raises(ValueError):
        deconvolve_ess(MonoIr(np.zeros(10), 44100.0), MonoIr(np.zeros(10), FS))
