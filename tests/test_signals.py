import struct
import wave

import numpy as np
import pytest

from srirkit import wavio
from srirkit.dsp import stft
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
    assert good.frame_count == 4
    with pytest.raises(ValueError):
        StftFrames(np.zeros((4, 32), complex), 64, 32, FS)
    with pytest.raises(ValueError):
        StftFrames(np.zeros((4, 33), complex), 64, 0, FS)
    # Layouts istft cannot invert are refused when built, not when inverted:
    # (64, 48) failed in a reshape, and 33 bins rendered with a 48-sample window.
    for hop in (24, 48, 64):
        with pytest.raises(ValueError, match=f"hop {hop} must divide window_size 64 at least"):
            StftFrames(np.zeros((4, 33), complex), 64, hop, FS)
    with pytest.raises(ValueError, match="bin count 33 does not match window size 48"):
        StftFrames(np.zeros((4, 33), complex), 48, 24, FS)
    # Non-integer layouts were accepted and istft raised TypeError; dsp.stft
    # raised IndexError on a float hop and TypeError on a float window.
    for window, hop in ((64, 32.0), (64.0, 32), (64, True), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            StftFrames(np.zeros((4, 33), complex), window, hop, FS)
        with pytest.raises(ValueError, match="must be an integer"):
            stft(np.zeros(256), FS, window, hop)


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


def test_wav_rejects_short_fmt_chunk(tmp_path):
    bad = tmp_path / "short.wav"
    bad.write_bytes(b"RIFF\x1a\x00\x00\x00WAVEfmt \x02\x00\x00\x00\x03\x00"
                    b"data\x04\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="short.wav"):
        wavio.read_wav(bad)


def test_wav_refuses_data_it_cannot_read_whole(tmp_path):
    """A data chunk cut short by the end of the file, or one that ends in a
    partial frame, is refused naming both sizes: a stereo float file cut to
    10.5 of its 1,000 frames read as 10 frames, and 24-bit stray bytes were
    dropped, without an error."""
    path = tmp_path / "cut.wav"
    wavio.write_wav(path, np.zeros((2, 1000)), 48000)
    path.write_bytes(path.read_bytes()[: 44 + 84])
    with pytest.raises(ValueError, match="cut.wav: data chunk declares 8000 bytes, but 84 follow"):
        wavio.read_wav(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:40] + struct.pack("<I", 84) + raw[44:])
    with pytest.raises(ValueError, match="84 bytes is not a whole number of 8-byte frames"):
        wavio.read_wav(path)
    _write_extensible_wav(path, 1, 24, bytes(3 * 3 * 10 + 2))
    with pytest.raises(ValueError, match="92 bytes is not a whole number of 9-byte frames"):
        wavio.read_wav(path)


def _write_extensible_wav(path, subformat, bits, payload, channels=3, fmt_size=40):
    """A WAVE_FORMAT_EXTENSIBLE file at 48 kHz: the fmt chunk's first
    ``fmt_size`` bytes, with ``subformat`` in the KSDATAFORMAT GUID."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, 48000, 48000 * block, block, bits,
                      22, bits, (1 << channels) - 1)
    fmt += struct.pack("<H", subformat) + bytes.fromhex("000000001000800000aa00389b71")
    fmt = fmt[:fmt_size]
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("encoding, tol", [("pcm24", 2.0 / (1 << 23)), ("float32", 1e-7)])
def test_wav_reads_extensible_format(tmp_path, rng, encoding, tol):
    """Multichannel and 24-bit files are commonly written as
    WAVE_FORMAT_EXTENSIBLE (code 0xFFFE); the SubFormat GUID carries the
    real format code. They used to fail as 'unsupported format (code 65534)'."""
    data = np.clip(rng.normal(scale=0.2, size=(3, 500)), -0.99, 0.99)
    if encoding == "pcm24":
        ints = np.round(data.T * 2.0**23).astype("<i4", order="C")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        subformat, bits = 1, 24
    else:
        payload, subformat, bits = data.T.astype("<f4").tobytes(), 3, 32
    path = tmp_path / f"x_{encoding}.wav"
    _write_extensible_wav(path, subformat, bits, payload)
    back, rate = wavio.read_wav(path)
    assert rate == 48000
    assert back.shape == (3, 500)
    assert np.abs(back - data).max() < tol


def test_wav_extensible_needs_a_known_subformat_and_the_whole_fmt_chunk(tmp_path):
    payload = bytes(3 * 2 * 10)
    path = tmp_path / "adpcm.wav"
    _write_extensible_wav(path, 2, 16, payload)
    with pytest.raises(ValueError, match=r"unsupported format \(code 2, 16-bit\)"):
        wavio.read_wav(path)
    path = tmp_path / "short.wav"
    _write_extensible_wav(path, 1, 16, payload, fmt_size=18)
    with pytest.raises(ValueError, match="short.wav: extensible fmt chunk of 18 bytes, need 40"):
        wavio.read_wav(path)


@pytest.mark.parametrize("rate", [44100.5, 0, -48000, float("nan"), float("inf")])
def test_wav_write_rejects_rate_that_is_not_a_positive_integer(tmp_path, rate):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="sample rate"):
        wavio.write_wav(path, np.zeros((1, 8)), rate)
    assert not path.exists()


def test_wav_write_takes_an_integral_float_rate(tmp_path):
    wavio.write_wav(tmp_path / "x.wav", np.zeros((1, 8)), 44100.0)
    assert wavio.read_wav(tmp_path / "x.wav")[1] == 44100
