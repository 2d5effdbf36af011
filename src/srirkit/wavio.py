"""Minimal RIFF/WAVE codec, any channel count: reads PCM 16/24/32-bit and
IEEE float32, writes float32.

The stdlib ``wave`` module cannot read or write float data, so the few
chunk layouts this package needs are handled directly. Writing is fully
deterministic (fixed 44-byte header, no metadata chunks), which the CLI
relies on for byte-identical reruns.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_FMT_PCM = 1
_FMT_FLOAT = 3


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file.

    Returns
    -------
    data : ndarray, shape (n_channels, n_samples), float64 in [-1, 1]
    sample_rate : int
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise ValueError(f"{path}: invalid channel count {n_channels}")

    if audio_format == _FMT_FLOAT and bits == 32:
        flat = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif audio_format == _FMT_PCM and bits == 16:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _FMT_PCM and bits == 24:
        b = np.frombuffer(data, dtype=np.uint8)
        b = b[: (b.size // 3) * 3].reshape(-1, 3)
        ints = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        flat = ints.astype(np.float64) / float(1 << 23)
    elif audio_format == _FMT_PCM and bits == 32:
        flat = np.frombuffer(data, dtype="<i4").astype(np.float64) / float(1 << 31)
    else:
        raise ValueError(f"{path}: unsupported format (code {audio_format}, {bits}-bit)")

    frames = flat.size // n_channels
    return flat[: frames * n_channels].reshape(frames, n_channels).T.copy(), int(sample_rate)


def check_sample_rate(sample_rate) -> int:
    """The rate as the whole number of hertz a WAV header stores; a rate that
    is not positive and integral raises ``ValueError``."""
    rate = float(sample_rate)
    if not (rate > 0.0 and rate.is_integer()):
        raise ValueError(f"sample rate must be a positive whole number of Hz, got {sample_rate}")
    return int(rate)


def write_wav(path, data: np.ndarray, sample_rate: float) -> None:
    """Write channel-major ``data`` (n_channels, n_samples) to a float32 WAV
    file. ``sample_rate`` must pass :func:`check_sample_rate`.
    """
    sample_rate = check_sample_rate(sample_rate)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n_channels, n_samples = data.shape
    payload = data.T.reshape(-1).astype("<f4").tobytes()

    block_align = n_channels * 4
    byte_rate = sample_rate * block_align
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _FMT_FLOAT, n_channels, sample_rate, byte_rate, block_align, 32
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
