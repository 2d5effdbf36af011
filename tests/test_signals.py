import numpy as np
import pytest

from srirkit import wavio
from srirkit.signals import BinauralIr, MonoIr, MultichannelIr, StftFrames

FS = 48000.0


def test_mono_ir_validation():
    ir = MonoIr([0.0, 1.0, 0.5], FS)
    assert len(ir) == 3
    assert ir.duration == pytest.approx(3 / FS)
    with pytest.raises(ValueError):
        MonoIr([], FS)
    with pytest.raises(ValueError):
        MonoIr([1.0, np.nan], FS)
    with pytest.raises(ValueError):
        MonoIr([1.0], 0.0)


def test_multichannel_shared_rate_and_length():
    a = MonoIr(np.zeros(10), FS)
    b = MonoIr(np.zeros(10), FS)
    m = MultichannelIr((a, b))
    assert m.channel_count == 2
    assert m.as_matrix().shape == (2, 10)
    with pytest.raises(ValueError):
        MultichannelIr((a, MonoIr(np.zeros(9), FS)))
    with pytest.raises(ValueError):
        MultichannelIr((a, MonoIr(np.zeros(10), 44100.0)))
    with pytest.raises(ValueError):
        MultichannelIr(())


def test_binaural_pairing():
    left = MonoIr(np.zeros(8), FS)
    with pytest.raises(ValueError):
        BinauralIr(left, MonoIr(np.zeros(9), FS))
    brir = BinauralIr(left, MonoIr(np.ones(8), FS))
    assert brir.as_matrix().shape == (2, 8)


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
])
def test_wav_round_trip(tmp_path, rng, encoding, tol):
    data = np.clip(rng.normal(scale=0.2, size=(3, 500)), -0.99, 0.99)
    path = tmp_path / f"x_{encoding}.wav"
    wavio.write_wav(path, data, 48000, encoding=encoding)
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
