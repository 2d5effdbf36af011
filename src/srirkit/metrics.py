"""Objective binaural metrics and error summaries.

Sign conventions: positive ILD means the left channel is louder, positive
ITD means the left channel leads. ILD and ITD are computed on the 2.5 ms
direct-sound segment after onset detection; IACC uses the ISO 3382-1 early
window (first 80 ms after onset) and the remaining tail.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import dsp
from .errors import DegenerateBandError, DegenerateInputError, InsufficientDecayError
from .filterbanks import ERB_CENTERS_HZ, erb_bands, octave_bands
from .signals import BinauralIr, MonoIr

#: Just-noticeable differences used for pass/fail flags in reports.
JND = {
    "ild_low_db": 1.0,
    "ild_high_db": 1.0,
    "itd_us": 40.0,
    "t30_mid_s": 0.05,  # fraction of the reference T30
    "one_minus_iacc_e3": 0.075,
    "one_minus_iacc_l3": 0.075,
}


def jnd_threshold(metric: str, reference_value: float) -> float:
    """Largest error in ``metric`` that passes its JND; the T30 JND is a
    fraction of the reference value."""
    if metric == "t30_mid_s":
        return JND[metric] * reference_value
    return JND[metric]


ILD_SPLIT_HZ = 1500.0
IACC_MAX_LAG_S = 1e-3
EARLY_WINDOW_S = 80e-3
T30_BANDS_HZ = (500.0, 1000.0)
IACC_BANDS_HZ = (500.0, 1000.0, 2000.0)
#: An IACF window whose energy is at most this fraction of the whole BRIR's
#: holds rounding noise only: an anechoic late window sits near 1e-33.
IACF_ENERGY_FLOOR = 1e-20


@dataclass(frozen=True)
class MetricReport:
    """One system's metric values for a single BRIR."""

    ild_low_db: float
    ild_high_db: float
    itd_us: float
    t30_mid_s: float
    one_minus_iacc_e3: float
    one_minus_iacc_l3: float

    def __post_init__(self):
        if not self.t30_mid_s > 0:
            raise ValueError("t30_mid_s must be > 0")
        for name in ("one_minus_iacc_e3", "one_minus_iacc_l3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.itd_us) > 1000.0:
            raise ValueError(f"|itd_us| must be <= 1000, got {self.itd_us}")

    @staticmethod
    def metric_names() -> list[str]:
        return [f.name for f in fields(MetricReport)]

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in self.metric_names()}


@dataclass(frozen=True)
class ErrorSummary:
    """Per-metric mean absolute error and mean signed difference."""

    mae: dict
    msd: dict
    system_count: int
    jnd_pass: dict

    def __post_init__(self):
        for name, value in self.mae.items():
            if abs(self.msd[name]) > value + 1e-12:
                raise ValueError(f"MAE < |MSD| for {name}; summary is inconsistent")

    def to_dict(self) -> dict:
        return {
            "system_count": self.system_count,
            "mae": {k: float(v) for k, v in self.mae.items()},
            "msd": {k: float(v) for k, v in self.msd.items()},
            "jnd_pass": {k: bool(v) for k, v in self.jnd_pass.items()},
        }


def ild_avg(brir: BinauralIr) -> tuple[float, float]:
    """ERB-band-averaged level difference of the direct-sound segment.

    Returns (low, high): band averages below and at-or-above 1.5 kHz, in dB,
    positive when the left channel is louder. Only the ERB bands below
    Nyquist count: 36 of the 39 at 24 kHz, all from 32 kHz up.
    """
    start, stop = dsp.direct_segment(brir)
    bands = erb_bands(brir.samples[:, start:stop], brir.sample_rate)
    rms = np.sqrt(np.mean(bands**2, axis=-1))
    silent = np.argwhere(rms <= 0.0)  # band-major, so the left ear is checked first
    if silent.size:
        band, ear = silent[0]
        raise DegenerateBandError(int(band), float(ERB_CENTERS_HZ[band]), ("left", "right")[ear])
    # Difference of logs (not log of ratio) so a channel swap negates the
    # ILD bit-exactly.
    ratios = 20.0 * (np.log10(rms[:, 0]) - np.log10(rms[:, 1]))
    centers = ERB_CENTERS_HZ[: len(bands)]
    low = ratios[centers < ILD_SPLIT_HZ]
    high = ratios[centers >= ILD_SPLIT_HZ]
    return float(low.mean()), float(high.mean())


def _iacf(left: np.ndarray, right: np.ndarray, rate: float, floor: float = 0.0) -> np.ndarray:
    """Normalized |IACF| over lags -1..+1 ms of a window longer than 2 ms; a
    window whose energy is not above ``floor`` raises DegenerateInputError."""
    if len(left) <= int(2 * IACC_MAX_LAG_S * rate):
        raise ValueError(f"IACF window of {len(left)} samples is not longer than 2 ms")
    energy = float(np.sqrt(np.sum(left**2) * np.sum(right**2)))
    if energy <= floor:
        raise DegenerateInputError("IACF analysis window holds no energy above rounding noise")
    return np.abs(dsp.cross_correlate(left, right, int(round(IACC_MAX_LAG_S * rate)))) / energy


def itd(brir: BinauralIr, whole: bool = False) -> float:
    """Peak lag of the interaural cross-correlation, in microseconds.

    Searched over +/-1 ms with parabolic sub-sample refinement; positive
    when the left channel leads. The analysis covers the 2.5 ms
    direct-sound segment after onset (``dsp.DIRECT_SEGMENT_S``), or the
    whole BRIR when ``whole`` is true.
    """
    start, stop = (0, len(brir)) if whole else dsp.direct_segment(brir)
    corr = _iacf(*brir.samples[:, start:stop], brir.sample_rate)
    lag = float(dsp.refine_peaks(corr)) - len(corr) // 2
    return float(np.clip(lag / brir.sample_rate * 1e6, -1000.0, 1000.0))


def iacc(left: MonoIr, right: MonoIr) -> float:
    """Maximum |normalized interaural cross-correlation| over +/-1 ms."""
    if left.sample_rate != right.sample_rate:
        raise ValueError("sample-rate mismatch")
    return float(min(_iacf(left.samples, right.samples, left.sample_rate).max(), 1.0))


def iacc_e3_l3(brir: BinauralIr, *, _bands=None) -> tuple[float, float]:
    """(1 - IACC_E3, 1 - IACC_L3): octave-band-averaged early/late coherence.

    Early covers onset..onset+80 ms, late the remaining tail; the IACC of
    each window is averaged over the 500 Hz, 1 kHz, and 2 kHz octave bands.
    ``_bands`` maps a centre to its octave band of ``brir``, shared with T30.
    """
    onset = dsp.detect_onset(brir)
    rate = brir.sample_rate
    split = onset + int(round(EARLY_WINDOW_S * rate))
    if split > len(brir):
        raise ValueError(
            f"BRIR too short for the early window: need {split} samples, have {len(brir)}"
        )

    ears = brir.samples
    floor = IACF_ENERGY_FLOOR * float(np.sqrt(np.prod(np.sum(ears**2, axis=-1))))
    bands = _bands or dict(zip(IACC_BANDS_HZ, octave_bands(ears, rate, IACC_BANDS_HZ)))
    early_vals, late_vals = [], []
    for center in IACC_BANDS_HZ:
        left, right = bands[center]
        early_vals.append(min(_iacf(left[onset:split], right[onset:split], rate, floor).max(), 1.0))
        late_vals.append(min(_iacf(left[split:], right[split:], rate, floor).max(), 1.0))
    e3 = float(np.clip(1.0 - np.mean(early_vals), 0.0, 1.0))
    l3 = float(np.clip(1.0 - np.mean(late_vals), 0.0, 1.0))
    return e3, l3


def _t30_one_band(filtered: np.ndarray, rate: float, band_hz: float) -> float:
    energy = filtered**2
    onset = int(np.argmax(energy))
    edc = np.cumsum(energy[::-1])[::-1][onset:]
    if edc[0] <= 0.0:
        raise DegenerateInputError(f"no energy in the {band_hz:.0f} Hz band")
    # floor keeps a zero-energy tail (near-anechoic input) from putting
    # -inf into the fit region
    edc_db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))

    # Dynamic-range guard: the fit needs a genuine 35 dB decay, measured
    # away from the integration tail where truncation dominates.
    probe = min(edc_db.size - 1, int(0.9 * edc_db.size))
    measured_range = -float(edc_db[probe])
    if measured_range < 35.0:
        raise InsufficientDecayError(measured_range, 35.0)

    i5 = int(np.argmax(edc_db <= -5.0))
    i35 = int(np.argmax(edc_db <= -35.0))
    if i35 <= i5:
        raise InsufficientDecayError(measured_range, 35.0)
    t = np.arange(i5, i35 + 1) / rate
    slope, _ = np.polyfit(t, edc_db[i5 : i35 + 1], 1)
    if slope >= 0.0:
        raise InsufficientDecayError(measured_range, 35.0)
    return -60.0 / float(slope)


def t30_mid(ir: MonoIr | BinauralIr, *, _bands=None) -> float:
    """Reverberation time from a 30 dB Schroeder decay fit, extrapolated to
    60 dB and averaged over the 500 Hz and 1 kHz octave bands (and both
    channels for a BRIR). ``_bands`` is as in :func:`iacc_e3_l3`.
    """
    channels = np.atleast_2d(ir.samples)
    bands = _bands or dict(zip(T30_BANDS_HZ, octave_bands(channels, ir.sample_rate, T30_BANDS_HZ)))
    values = [_t30_one_band(bands[center][ch], ir.sample_rate, center)
              for ch in range(len(channels)) for center in T30_BANDS_HZ]
    return float(np.mean(values))


def measure_brir(brir: BinauralIr) -> MetricReport:
    """The full metric set of a BRIR. Every metric is invariant to a gain
    common to both channels, so the BRIR needs no normalization first."""
    low, high = ild_avg(brir)
    centers = tuple(dict.fromkeys((*IACC_BANDS_HZ, *T30_BANDS_HZ)))
    bands = dict(zip(centers, octave_bands(brir.samples, brir.sample_rate, centers)))
    e3, l3 = iacc_e3_l3(brir, _bands=bands)
    return MetricReport(
        ild_low_db=low,
        ild_high_db=high,
        itd_us=itd(brir),
        t30_mid_s=t30_mid(brir, _bands=bands),
        one_minus_iacc_e3=e3,
        one_minus_iacc_l3=l3,
    )


def error_summary_paired(systems: list[MetricReport],
                         references: list[MetricReport]) -> ErrorSummary:
    """Pooled MAE/MSD over (system, reference) pairs, one pair per entry."""
    if not systems:
        raise ValueError("at least one system report required")
    if len(systems) != len(references):
        raise ValueError("need one reference per system entry")
    mae, msd, jnd_pass = {}, {}, {}
    for name in MetricReport.metric_names():
        diffs = np.array(
            [getattr(s, name) - getattr(r, name) for s, r in zip(systems, references)]
        )
        mae[name] = float(np.mean(np.abs(diffs)))
        msd[name] = float(np.mean(diffs))
        ref_mean = float(np.mean([getattr(r, name) for r in references]))
        jnd_pass[name] = bool(mae[name] <= jnd_threshold(name, ref_mean))
    return ErrorSummary(mae=mae, msd=msd, system_count=len(systems), jnd_pass=jnd_pass)

