"""Exponential sine sweep generation and deconvolution (Farina method).

The sweep is x(t) = sin(2*pi*f1*L*(exp(t/L) - 1)) with L = T / ln(f2/f1),
giving an instantaneous frequency f(t) = f1 * (f2/f1)^(t/T). The inverse
filter is the time-reversed sweep with an exp(-t/L) amplitude envelope
(+6 dB/octave compensation), scaled so sweep * inverse peaks at 1. Both
convolve through :func:`dsp.fft_convolve`, SciPy's ``fftconvolve`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .dsp import fft_convolve
from .signals import MonoIr


def generate_ess(sample_rate: float, f_start: float, f_end: float,
                 duration_s: float, fade_s: float = 0.01) -> tuple[MonoIr, MonoIr]:
    """Build an exponential sine sweep and its deconvolution inverse.

    Parameters
    ----------
    sample_rate : float
    f_start, f_end : float
        Sweep range; 0 < f_start < f_end <= Nyquist.
    duration_s : float
        Sweep length in seconds; finite, and must exceed 2 * fade_s.
    fade_s : float
        Raised-cosine fade-in/out length in seconds.

    Returns
    -------
    (sweep, inverse) : tuple of MonoIr
        The full convolution of ``sweep.samples`` with ``inverse.samples``
        approximates a band-limited unit impulse centered at index
        ``len(sweep) - 1``.
    """
    nyquist = sample_rate / 2.0
    if not (0.0 < f_start < f_end <= nyquist):
        raise ValueError(
            f"need 0 < f_start < f_end <= Nyquist; got {f_start}, {f_end} at fs {sample_rate}"
        )
    if not (fade_s >= 0 and 2.0 * fade_s < duration_s < np.inf):
        raise ValueError(f"duration_s {duration_s} must be finite and above twice fade_s {fade_s}")

    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    rate_log = np.log(f_end / f_start)
    length_const = duration_s / rate_log
    sweep = np.sin(2.0 * np.pi * f_start * length_const * (np.exp(t / length_const) - 1.0))

    n_fade = int(round(fade_s * sample_rate))
    if n_fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
        sweep[:n_fade] *= ramp
        sweep[-n_fade:] *= ramp[::-1]

    inverse = sweep[::-1] * np.exp(-t / length_const)
    pulse = fft_convolve(sweep, inverse)
    inverse /= np.abs(pulse).max()

    return MonoIr(sweep, sample_rate), MonoIr(inverse, sample_rate)


def deconvolve_ess(recorded: MonoIr, inverse: MonoIr, trim_distortion: bool = True) -> MonoIr:
    """Recover an impulse response from a sweep recording.

    Convolving the recording with the inverse filter places the linear
    impulse response at offset ``len(inverse) - 1`` (harmonic distortion
    products land earlier). With ``trim_distortion`` the result starts at
    that offset; otherwise the full convolution is returned.
    """
    if recorded.sample_rate != inverse.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: {recorded.sample_rate} vs {inverse.sample_rate}"
        )
    full = fft_convolve(recorded.samples, inverse.samples)
    if trim_distortion:
        full = full[len(inverse) - 1 :]
    return MonoIr(full, recorded.sample_rate)
