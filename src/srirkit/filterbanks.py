"""Auditory (ERB) and octave band-pass filterbanks.

ERB bands sit at integer points 1..39 of the Glasberg-Moore ERB-rate scale
(roughly 26 Hz to 15 kHz), each one ERB wide. Octave filters are applied
forward-backward, so decay fits see no group-delay bias. Every band is the
4th-order Butterworth band-pass of :func:`bandpass_sos`, and every filter
works along the last axis, so stacked channels and bands share one call.
The package imports no SciPy, so the design (SciPy's ``butter``, bit for
bit) and the filters (its SOS filters, to rounding) are here.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np


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
    samples = np.asarray(samples, dtype=np.float64)
    sos = np.stack([_bandpass_design(low, high, sample_rate)
                    for low, high in _ERB_EDGES_HZ if high < sample_rate / 2.0])
    return _sosfilt(sos.reshape(len(sos), *[1] * (samples.ndim - 1), 2, 6), samples)


def octave_bands(samples: np.ndarray, sample_rate: float, centers_hz) -> np.ndarray:
    """Zero-phase octave band-passes (center/sqrt(2) .. center*sqrt(2)) at each
    of ``centers_hz``, filtered together: shape ``(len(centers_hz),
    *samples.shape)``, each band bit for bit as alone."""
    samples = np.asarray(samples, dtype=np.float64)
    sos = np.stack([_bandpass_design(c / np.sqrt(2.0), c * np.sqrt(2.0), sample_rate)
                    for c in centers_hz])
    return _sosfiltfilt(sos.reshape(len(sos), *[1] * (samples.ndim - 1), 2, 6), samples)


#: Samples per block of :func:`_sosfilt`'s recursion, which is fastest near 32.
_BLOCK = 32
#: Most blocks in one of its products. OpenBLAS sums a row tail in another order, and on
#: pre-AVX kernels 488 rows or more, in an odd number of 8s, changed bits on 2-4 threads.
_PRODUCT_BLOCKS = 1024


@functools.lru_cache(maxsize=512)
def _section_blocks(b0: float, b1: float, b2: float, a1: float, a2: float):
    """One biquad section, with poles p and conj(p), as block products.

    Its output is y = Re(alpha v), alpha = 2p / (p - conj(p)), where
    v[n] = p v[n-1] + b0 x[n] + b1 x[n-1] + b2 x[n-2]. Let V be v at a
    block's end with the taps still due from its last inputs folded in, so
    that Re(alpha p**(i+1) V) follows at sample i. A row ``[x[0:_BLOCK],
    Re V, Im V]``, V the block before's, times ``outputs`` is the block's
    output; its inputs times ``state`` give its own V, to which p**_BLOCK
    times the V before adds. Returns ``(outputs, state, p, p**_BLOCK)``.
    """
    # Exact rationals keep every digit of a discriminant near 0, and so of p.
    discriminant = float(Fraction(a2) - Fraction(a1) ** 2 / 4)
    if discriminant <= 0.0:
        raise ValueError(f"section with a1={a1}, a2={a2} has real poles")
    p = complex(-a1 / 2.0, math.sqrt(discriminant))
    powers = p ** np.arange(-2, _BLOCK + 1)  # powers[k + 2] is p**k
    alpha = 2.0 * p / (p - p.conjugate())
    h = np.concatenate(((alpha * powers[2 : _BLOCK + 2]).real, [0.0, 0.0]))  # h[-1] = h[-2] = 0
    lag = np.arange(_BLOCK)[None, :] - np.arange(_BLOCK)[:, None]  # output i minus input j
    fir = b0 * h[lag] + b1 * h[lag - 1] + b2 * h[lag - 2]
    fir[lag < 0] = 0.0
    free = alpha * powers[3:]  # p**(i+1)
    outputs = np.vstack((fir, free.real, -free.imag))
    own = b0 * powers[_BLOCK + 1 : 1 : -1] + b1 * powers[_BLOCK : 0 : -1] + b2 * powers[_BLOCK - 1 :: -1]
    state = np.stack((own.real, own.imag), axis=1)  # x[m] adds p**(B-1-m) (b0 + b1/p + b2/p**2)
    for array in (outputs, state):
        array.flags.writeable = False
    return outputs, state, p, powers[_BLOCK + 2]


def _sosfilt(sos: np.ndarray, samples: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """SciPy's ``sosfilt(sos, samples, axis=-1, zi=zi)[0]``, to rounding, for
    sections with complex poles. ``sos`` is (..., sections, 6), its leading axes
    broadcast against those of ``samples`` and ``zi`` (..., sections, 2).

    Each section runs on ``_BLOCK``-sample blocks: one matrix product for
    every block's own end state, a doubling scan that carries the states
    from block to block, and one matrix product for the outputs. Every
    row's products have the same shape however many rows are stacked, so a
    row's bits do not depend on the rows stacked with it, nor on the BLAS
    thread count: the products take equal chunks of at most
    ``_PRODUCT_BLOCKS`` blocks, zero-padded to whole groups of 16.
    """
    sos = np.asarray(sos, dtype=np.float64)
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1]
    chunks = max(1, -(-n // (_BLOCK * _PRODUCT_BLOCKS)))
    rows = 16 * max(1, -(-n // (16 * _BLOCK * chunks)))  # blocks a chunk
    blocks = chunks * rows
    lead = np.broadcast_shapes(sos.shape[:-2], x.shape[:-1])
    sections = [[_section_blocks(*row[[0, 1, 2, 4, 5]].tolist()) for row in stack]
                for stack in sos.reshape(-1, *sos.shape[-2:])]
    here = np.zeros((*lead, blocks, _BLOCK + 2))  # [x[0:B], Re V, Im V] a block; 0 past the end
    full = n - n % _BLOCK  # the samples of x's whole blocks
    here[..., : full // _BLOCK, :_BLOCK] = x[..., :full].reshape(*x.shape[:-1], -1, _BLOCK)
    here[..., full // _BLOCK : full // _BLOCK + 1, : n - full] = x[..., None, full:]
    split = (*lead, chunks, rows, _BLOCK + 2)  # the blocks as the products take them
    for s in range(sos.shape[-2]):
        outputs, state, p, decay = (np.reshape(part, (*sos.shape[:-2], *np.shape(part[0])))
                                    for part in zip(*(stack[s] for stack in sections)))
        outputs, state = outputs[..., None, :, :], state[..., None, :, :]  # the same each chunk
        carry = (here.reshape(split)[..., :_BLOCK] @ state).view(complex).reshape(*lead, blocks)
        start = 0.0  # the state before block 0
        if zi is not None:
            z = np.asarray(zi, dtype=np.float64)[..., s, :]
            start = z[..., 0] / p + z[..., 1] / (p * p)
            carry[..., 0] += decay * start
        step, factor = 1, decay[..., None]
        while step < blocks:  # carry[k] = sum over j <= k of decay**(k - j) own[j]
            carry[..., step:] += factor * carry[..., :-step]
            step, factor = 2 * step, factor * factor
        here[..., 0, _BLOCK], here[..., 0, _BLOCK + 1] = np.real(start), np.imag(start)
        here[..., 1:, _BLOCK], here[..., 1:, _BLOCK + 1] = carry[..., :-1].real, carry[..., :-1].imag
        if s + 1 < sos.shape[-2]:  # outputs past n reach no output before n
            after = np.empty_like(here)
            np.matmul(here.reshape(split), outputs, out=after.reshape(split)[..., :_BLOCK])
            here = after  # frees this section's rows before the next section's are made
        else:
            y = here.reshape(split) @ outputs
    return y.reshape(*lead, blocks * _BLOCK)[..., :n]


def _sosfiltfilt(sos: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """SciPy's ``sosfiltfilt(sos, samples, axis=-1)``, to rounding: odd extension,
    then forward and backward passes from ``sosfilt_zi`` steady states. ``sos``
    broadcasts as in :func:`_sosfilt`."""
    pad = 15  # SciPy's default: three times the 5 taps of two sections
    sos = np.asarray(sos, dtype=np.float64)
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1] <= pad:
        raise ValueError(f"need more than {pad} samples to filter, got {x.shape[-1]}")
    ext = np.concatenate((2 * x[..., :1] - x[..., pad:0:-1], x,
                          2 * x[..., -1:] - x[..., -2 : -pad - 2 : -1]), axis=-1)
    # SciPy's lfilter_zi per section, scaled by the DC gain of the sections before it.
    b, a = sos[..., :3], sos[..., 3:]
    one = np.ones_like(a[..., 0])
    system = np.stack((1.0 + a[..., 1], -one, a[..., 2], one), axis=-1).reshape(*a.shape[:-1], 2, 2)
    zi = np.linalg.solve(system, (b[..., 1:] - a[..., 1:] * b[..., :1])[..., None])[..., 0]
    zi[..., 1:, :] *= np.cumprod(np.sum(b, axis=-1) / np.sum(a, axis=-1), axis=-1)[..., :-1, None]
    y = _sosfilt(sos, ext, zi * ext[..., :1, None])
    y = _sosfilt(sos, y[..., ::-1], zi * y[..., -1:, None])
    return y[..., ::-1][..., pad:-pad]
