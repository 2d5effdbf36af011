"""Auditory (ERB) and octave band-pass filterbanks.

ERB bands sit at integer points 1..39 of the Glasberg-Moore ERB-rate scale
(roughly 26 Hz to 15 kHz), each one ERB wide. Octave filters are applied
forward-backward, so decay fits see no group-delay bias. Every band is the
4th-order Butterworth band-pass of :func:`bandpass_sos`, and every filter
works along the last axis, so stacked channels share one call per band.
SciPy's signal package takes about a second to import, so the design (its
``butter``, bit for bit) and the filters (its SOS filters, to rounding) are here.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import lapack


def hz_to_erb_number(freq_hz) -> np.ndarray:
    """Glasberg & Moore (1990) ERB-rate scale."""
    return 21.4 * np.log10(4.37e-3 * np.asarray(freq_hz, dtype=float) + 1.0)


def erb_number_to_hz(erb) -> np.ndarray:
    return (10.0 ** (np.asarray(erb, dtype=float) / 21.4) - 1.0) / 4.37e-3


#: Centres of the 39 ERB bands, at ERB numbers 1..39.
ERB_CENTERS_HZ = erb_number_to_hz(np.arange(1, 40))
ERB_CENTERS_HZ.flags.writeable = False


def bandpass_sos(low_hz: float, high_hz: float, sample_rate: float) -> np.ndarray:
    """4th-order Butterworth band-pass ``[low_hz, high_hz]`` as SOS sections.

    Each band is designed once per ``(low_hz, high_hz, sample_rate)``; every
    call returns a fresh copy of that design.
    """
    return _bandpass_design(low_hz, high_hz, sample_rate).copy()


@functools.lru_cache(maxsize=256)
def _bandpass_design(low_hz: float, high_hz: float, sample_rate: float) -> np.ndarray:
    """:func:`bandpass_sos`'s shared, read-only design."""
    nyquist = sample_rate / 2.0
    if not 0.0 < low_hz < high_hz < nyquist:
        raise ValueError(
            f"band {low_hz:.1f}..{high_hz:.1f} Hz must satisfy "
            f"0 < low < high < Nyquist {nyquist:.1f} Hz"
        )
    # SciPy's butter(2, (low, high) / nyquist, "bandpass", output="sos"), step for
    # step: buttap, prewarp at fs = 2, lp2bp_zpk, bilinear_zpk, and zpk2sos "nearest"
    # (the pole pair nearest the unit circle last, with the double zero nearer it).
    warped = 4.0 * np.tan(np.pi * np.array([low_hz / nyquist, high_hz / nyquist]) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    lowpass = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    shift = np.sqrt(lowpass**2 - wo**2)
    analog = np.concatenate((lowpass + shift, lowpass - shift))
    poles = (4.0 + analog) / (4.0 - analog)
    upper, lower = (np.sort_complex(poles[side]) for side in (poles.imag > 0, poles.imag < 0))
    pairs = (upper + lower.conj()) / 2
    worst = int(np.argmin(np.abs(1 - np.abs(pairs))))
    zero = 1.0 if abs(pairs[worst] - 1) < abs(pairs[worst] + 1) else -1.0
    sos = np.array([[1.0, -2.0 * z, 1.0, *np.convolve([1, -p], [1, -p.conj()]).real]
                    for p, z in ((pairs[1 - worst], -zero), (pairs[worst], zero))])
    sos[0, :3] *= bw**2 * np.real(np.complex128(16.0) / np.prod(4.0 - analog))
    sos.flags.writeable = False
    return sos


#: (low, high) edges of the ERB bands, half an ERB either side of each centre.
_ERB_EDGES_HZ = tuple(
    (float(erb_number_to_hz(n - 0.5)), float(erb_number_to_hz(n + 0.5)))
    for n in (float(hz_to_erb_number(center)) for center in ERB_CENTERS_HZ)
)


def erb_bands(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    """The ERB bands, lowest first, whose upper edge lies below Nyquist;
    causal filtering.

    Shape ``(k, *samples.shape)``, band i centred on ``ERB_CENTERS_HZ[i]``:
    k is 36 at 24 kHz, 35 at 22.05 kHz and all 39 from 32 kHz up.
    """
    return np.stack([
        _sosfilt(_bandpass_design(low, high, sample_rate), samples)
        for low, high in _ERB_EDGES_HZ if high < sample_rate / 2.0
    ])


def octave_band(samples: np.ndarray, sample_rate: float, center_hz: float) -> np.ndarray:
    """Octave band-pass (center/sqrt(2) .. center*sqrt(2)), zero phase."""
    sos = _bandpass_design(center_hz / np.sqrt(2.0), center_hz * np.sqrt(2.0), sample_rate)
    return _sosfiltfilt(sos, samples)


def _sosfilt(sos: np.ndarray, samples: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """SciPy's ``sosfilt(sos, samples, axis=-1, zi=zi)[0]``, to rounding. Each
    section adds its state ``zi[..., s, :]`` to its FIR part and solves its
    recursion as one banded triangular system with a right-hand side per row,
    so a row's bits do not depend on the rows stacked with it."""
    y = np.array(samples, dtype=np.float64)
    n = y.shape[-1]
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        w = b0 * y
        w[..., 1:] += b1 * y[..., :-1]
        w[..., 2:] += b2 * y[..., :-2]
        if zi is not None:
            w[..., :2] += zi[..., s, :]
        band = np.tile([1.0, a1, a2], (n, 1)).T  # unit diagonal, then a1 and a2 below it
        rhs = w.reshape(math.prod(w.shape[:-1]), n).T  # a column per row
        y = lapack.dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)[0].T.reshape(y.shape)
    return y


def _sosfiltfilt(sos: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """SciPy's ``sosfiltfilt(sos, samples, axis=-1)``, to rounding: odd extension,
    then forward and backward passes from ``sosfilt_zi`` steady states."""
    pad = 15  # SciPy's default: three times the 5 taps of two sections
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1] <= pad:
        raise ValueError(f"need more than {pad} samples to filter, got {x.shape[-1]}")
    ext = np.concatenate((2 * x[..., :1] - x[..., pad:0:-1], x,
                          2 * x[..., -1:] - x[..., -2 : -pad - 2 : -1]), axis=-1)
    zi, scale = np.empty((len(sos), 2)), 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):  # SciPy's lfilter_zi per section
        zi[s] = scale * np.linalg.solve([[1.0 + a[1], -1.0], [a[2], 1.0]], b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    y = _sosfilt(sos, ext, zi * ext[..., :1, None])
    y = _sosfilt(sos, y[..., ::-1], zi * y[..., -1:, None])
    return y[..., ::-1][..., pad:-pad]
