import wave

import numpy as np
import pytest

from srirkit import wavio
from srirkit.signals import BinauralIr, FoaSignal, MonoIr, MultichannelIr, StftFrames

FS = 48000.0


def test_mono_ir_validation():
    ir = MonoIr([0.0, 1.0, 0.5], FS)
    assert len(ir) == 3
    assert ir.samples.dtype == np.float64
    with pytest.raises(ValueError):
        MonoIr([], FS)
    with pytest.raises(ValueError):
        MonoIr(np.zeros((1, 3)), FS)
    with pytest.raises(ValueError):
        MonoIr([1.0, np.nan], FS)
    with pytest.raises(ValueError):
        MonoIr([1.0], 0.0)
    with pytest.raises(ValueError, match="whole number"):
        MonoIr([1.0], 44100.5)
    assert MonoIr([1.0], 44100).sample_rate == 44100.0


def test_multichannel_shared_rate_and_length():
    data = np.zeros((3, 10))
    m = MultichannelIr(data, FS)
    assert m.channel_count == 3
    assert len(m) == 10
    assert m.samples is data  # held as given, not copied
    for shape in [(10,), (0, 10), (3, 0), (2, 3, 10)]:
        with pytest.raises(ValueError):
            MultichannelIr(np.zeros(shape), FS)
    with pytest.raises(ValueError):
        MultichannelIr([[0.0, np.inf]], FS)
    with pytest.raises(ValueError):
        MultichannelIr(data, 0.0)


def test_binaural_pairing():
    data = np.arange(16.0).reshape(2, 8)
    brir = BinauralIr(data, FS)
    assert len(brir) == 8 and brir.channel_count == 2
    for ear, row in ((brir.left, data[0]), (brir.right, data[1])):
        assert isinstance(ear, MonoIr) and ear.sample_rate == FS
        assert np.shares_memory(ear.samples, data) and np.array_equal(ear.samples, row)
    for shape in [(1, 8), (3, 8), (8,)]:
        with pytest.raises(ValueError):
            BinauralIr(np.zeros(shape), FS)


@pytest.mark.parametrize("cls, channels", [(MonoIr, None), (MultichannelIr, 3),
                                           (BinauralIr, 2), (FoaSignal, 4)])
def test_scaled_keeps_the_type(cls, channels):
    shape = (8,) if channels is None else (channels, 8)
    data = np.arange(1.0, 9.0) * np.ones(shape)
    scaled = cls(data, FS).scaled(-2.0)
    assert type(scaled) is cls and scaled.sample_rate == FS
    assert np.array_equal(scaled.samples, -2.0 * data)
    assert np.array_equal(data, np.arange(1.0, 9.0) * np.ones(shape))  # input untouched


def test_non_contiguous_input_is_held_in_c_order():
    data = np.arange(16.0).reshape(8, 2).T  # a transposed (2, 8) view
    brir = BinauralIr(data, FS)
    assert brir.samples.flags["C_CONTIGUOUS"]
    assert np.array_equal(brir.samples, data)


def test_stft_frames_bin_count_checked():
    good = StftFrames(np.zeros((4, 33), complex), 64, 32, FS)
    assert good.bin_count == 33
    assert good.frame_count == 4
    with pytest.raises(ValueError):
        StftFrames(np.zeros((4, 32), complex), 64, 32, FS)
    with pytest.raises(ValueError):
        StftFrames(np.zeros((4, 33), complex), 64, 0, FS)


@pytest.mark.parametrize("encoding,tol", [
    ("float32", 1e-7),
    ("pcm16", 2.0 / 32768),
    ("pcm24", 2.0 / (1 << 23)),
    ("pcm32", 2.0 / (1 << 31)),
])
def test_wav_round_trip(tmp_path, rng, encoding, tol):
    """float32 goes through write_wav; the PCM fixtures are written by the
    stdlib ``wave`` module, so the reader is checked against a writer it
    shares no code with."""
    data = np.clip(rng.normal(scale=0.2, size=(3, 500)), -0.99, 0.99)
    path = tmp_path / f"x_{encoding}.wav"
    if encoding == "float32":
        wavio.write_wav(path, data, 48000)
    else:
        width = int(encoding[3:]) // 8
        ints = np.round(data.T * 2.0 ** (8 * width - 1)).astype("<i4", order="C")
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(3)
            fh.setsampwidth(width)
            fh.setframerate(48000)
            # The low bytes of a little-endian int32 hold the narrower sample.
            fh.writeframes(ints.view(np.uint8).reshape(-1, 4)[:, :width].tobytes())
    back, rate = wavio.read_wav(path)
    assert rate == 48000
    assert back.shape == (3, 500)
    assert np.abs(back - data).max() < tol


def test_wav_write_is_deterministic(tmp_path, rng):
    data = rng.normal(size=(2, 256))
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    wavio.write_wav(p1, data, 48000)
    wavio.write_wav(p2, data, 48000)
    assert p1.read_bytes() == p2.read_bytes()


def test_wav_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file at all")
    with pytest.raises(ValueError):
        wavio.read_wav(bad)


@pytest.mark.parametrize("rate", [44100.5, 0, -48000, float("nan"), float("inf")])
def test_wav_write_rejects_rate_that_is_not_a_positive_integer(tmp_path, rate):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="sample rate"):
        wavio.write_wav(path, np.zeros((1, 8)), rate)
    assert not path.exists()


def test_wav_write_takes_an_integral_float_rate(tmp_path):
    wavio.write_wav(tmp_path / "x.wav", np.zeros((1, 8)), 44100.0)
    assert wavio.read_wav(tmp_path / "x.wav")[1] == 44100
