"""Auditory (ERB) and octave band-pass filterbanks.

ERB bands sit at integer points 1..39 of the Glasberg-Moore ERB-rate scale
(roughly 26 Hz to 15 kHz), each one ERB wide. Octave filters are applied
forward-backward, so decay fits see no group-delay bias. Every band is the
4th-order Butterworth band-pass of :func:`bandpass_sos`, and every filter
works along the last axis, so stacked channels share one call per band.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps


def hz_to_erb_number(freq_hz) -> np.ndarray:
    """Glasberg & Moore (1990) ERB-rate scale."""
    return 21.4 * np.log10(4.37e-3 * np.asarray(freq_hz, dtype=float) + 1.0)


def erb_number_to_hz(erb) -> np.ndarray:
    return (10.0 ** (np.asarray(erb, dtype=float) / 21.4) - 1.0) / 4.37e-3


#: Centres of the 39 ERB bands, at ERB numbers 1..39.
ERB_CENTERS_HZ = erb_number_to_hz(np.arange(1, 40))
ERB_CENTERS_HZ.flags.writeable = False


def bandpass_sos(low_hz: float, high_hz: float, sample_rate: float) -> np.ndarray:
    """4th-order Butterworth band-pass ``[low_hz, high_hz]`` as SOS sections."""
    nyquist = sample_rate / 2.0
    if not 0.0 < low_hz < high_hz < nyquist:
        raise ValueError(
            f"band {low_hz:.1f}..{high_hz:.1f} Hz must satisfy "
            f"0 < low < high < Nyquist {nyquist:.1f} Hz"
        )
    return sps.butter(2, [low_hz / nyquist, high_hz / nyquist], btype="bandpass", output="sos")


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
        sps.sosfilt(bandpass_sos(low, high, sample_rate), samples, axis=-1)
        for low, high in _ERB_EDGES_HZ if high < sample_rate / 2.0
    ])


def octave_band(samples: np.ndarray, sample_rate: float, center_hz: float) -> np.ndarray:
    """Octave band-pass (center/sqrt(2) .. center*sqrt(2)), zero phase."""
    sos = bandpass_sos(center_hz / np.sqrt(2.0), center_hz * np.sqrt(2.0), sample_rate)
    return sps.sosfiltfilt(sos, samples, axis=-1)
