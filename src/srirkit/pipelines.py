"""End-to-end system conditions: analysis, synthesis, binaural rendering,
and metric comparison against a reference.

A condition names an analysis front end (TDOA, broadband intensity, or
time-frequency intensity) and a pressure-signal source; a per-sample
trajectory then drives SDM loudspeaker mapping, a time-frequency field
direct/diffuse SIRR synthesis. Conditions compose deterministically: the
same inputs, seed, and thread count-independent scheduling give
bit-identical BRIRs.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arrays import MicArrayGeometry
from .doa import (
    DoaTrajectory,
    TfDoaField,
    piv_broadband_doa,
    tdoa_ls_doa,
    tf_piv_analysis,
)
from .dsp import normalize_direct_energy, stft
from .errors import ConfigurationError
from .filterbanks import bandpass_sos
from .grids import LoudspeakerGrid, _check_count
from .hrir import HrirSet
from .ism import (
    ImageSourceList,
    Scene,
    enumerate_images,
    render_array_srir,
    render_foa_srir,
    render_reference_brir,
)
from .metrics import error_summary_paired, measure_brir
from .signals import BinauralIr, FoaSignal, MonoIr, MultichannelIr
from .synthesis import (
    SampleAssignment,
    SirrStreams,
    binaural_render,
    sdm_synthesize,
    sirr_synthesize,
)

#: The AnalysisInput fields each pressure source reads.
_PRESSURE_SOURCES = {"zeroth-order": ("foa",), "channel-average": ("srir",)}
#: Each analysis's (AnalysisInput fields it reads, condition settings it reads
#: besides ``window_size`` and ``seed``); on any other analysis a setting keeps
#: its default.
_ANALYSES = {
    "tdoa": (("srir", "geometry"), ("knn",)),
    "piv-broadband": (("foa",), ("knn", "band_low", "band_high")),
    "tf-piv": (("foa",), ("tf_averaging_frames", "psi_override")),
}


@dataclass(frozen=True)
class AnalysisInput:
    """Everything a condition may consume for one scene or measurement."""

    srir: MultichannelIr | None = None
    geometry: MicArrayGeometry | None = None
    foa: FoaSignal | None = None

    def __post_init__(self):
        if self.srir is None and self.foa is None:
            raise ConfigurationError("AnalysisInput needs an SRIR or a FOA signal")
        if self.srir is not None and self.geometry is not None:
            if self.srir.channel_count != self.geometry.capsule_count:
                raise ConfigurationError(
                    f"SRIR has {self.srir.channel_count} channels, array "
                    f"{self.geometry.name!r} expects {self.geometry.capsule_count}"
                )
        if self.srir is not None and self.foa is not None:
            if len(self.srir) != len(self.foa) or self.srir.sample_rate != self.foa.sample_rate:
                raise ConfigurationError("SRIR and FOA must share rate and length")

    @property
    def sample_rate(self) -> float:
        return self.srir.sample_rate if self.srir is not None else self.foa.sample_rate


@dataclass(frozen=True)
class SceneRendering:
    """All receiver renderings of one simulated scene."""

    images: ImageSourceList
    analysis_input: AnalysisInput
    reference: BinauralIr


def simulate(scene: Scene, sample_rate: float, length: int,
             hrirs: HrirSet) -> SceneRendering:
    """Render a scene for every receiver the pipelines consume.

    The array SRIR uses the scene's receiver array, the ideal first-order
    signal sits at the same origin, and ``hrirs`` renders the reference BRIR.
    """
    images = enumerate_images(scene)
    srir = render_array_srir(images, scene.receiver, sample_rate, length)
    foa = render_foa_srir(images, sample_rate, length)
    reference = render_reference_brir(images, hrirs, sample_rate, length)
    return SceneRendering(
        images=images,
        analysis_input=AnalysisInput(srir=srir, geometry=scene.receiver, foa=foa),
        reference=reference,
    )


@dataclass(frozen=True)
class SystemCondition:
    """One rendering system under test. Its analysis decides the synthesis:
    ``tf-piv`` drives SIRR, ``tdoa`` and ``piv-broadband`` drive SDM.

    ``window_size`` is the TDOA sliding-window length, the ``piv-broadband``
    intensity smoothing length and the ``tf-piv`` STFT size; 64 samples at
    48 kHz suits arrays with 100 mm spacing. The ``piv-broadband`` band limits
    bracket the usable range of first-order estimates for such arrays (200 Hz
    up to the spatial aliasing limit).
    """

    id: str
    analysis: str
    pressure_source: str
    grid: LoudspeakerGrid
    hrirs: HrirSet
    window_size: int = 64
    band_low: float = 200.0
    band_high: float = 2400.0
    knn: int = 1
    seed: int = 0
    tf_averaging_frames: int = 8
    psi_override: float | None = None

    def __post_init__(self):
        if self.analysis not in tuple(_ANALYSES):  # a tuple: an unhashable value is unknown
            raise ConfigurationError(f"{self.id}: unknown analysis {self.analysis!r}")
        if self.pressure_source not in tuple(_PRESSURE_SOURCES):
            raise ConfigurationError(f"{self.id}: unknown pressure_source {self.pressure_source!r}")
        for name, *bounds in (("window_size", 8), ("knn", 1, len(self.grid)),
                              ("tf_averaging_frames",), ("seed", 0, 2**32 - 1)):
            try:
                _check_count(name, getattr(self, name), *bounds)
            except ValueError as exc:
                raise ConfigurationError(f"{self.id}: {exc}") from exc
        reads = _ANALYSES[self.analysis][1]
        for name in dict.fromkeys(s for _, settings in _ANALYSES.values() for s in settings):
            if name not in reads and getattr(self, name) != getattr(type(self), name):
                raise ConfigurationError(f"{self.id}: {self.analysis} does not read {name}")
        if self.psi_override is not None and not 0.0 <= self.psi_override <= 1.0:
            raise ConfigurationError(f"{self.id}: psi_override must lie in [0, 1]")
        if self.analysis == "tf-piv" and self.window_size & (self.window_size - 1):
            raise ConfigurationError(
                f"{self.id}: tf-piv needs a power-of-two window_size, got {self.window_size}"
            )
        if self.analysis == "piv-broadband":
            try:  # the HRIRs' rate is the rate the condition renders at
                bandpass_sos(self.band_low, self.band_high, self.hrirs.sample_rate)
            except ValueError as exc:
                raise ConfigurationError(f"{self.id}: band_low, band_high: {exc}") from exc


_NEED_NAMES = {"srir": "an SRIR", "geometry": "an array geometry",
               "foa": "a FOA signal"}


def check_condition_ids(conditions) -> None:
    """Raise ConfigurationError unless there is a condition and no two share an id."""
    if not conditions:
        raise ConfigurationError("at least one condition is required")
    ids = [c.id for c in conditions]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"condition ids must be unique, got {ids}")


def validate_condition_inputs(inputs: AnalysisInput, condition: SystemCondition) -> None:
    """Raise ConfigurationError (naming the condition and the gap) when the
    inputs lack one that the condition's pressure source or analysis reads,
    or its window does not fit them (:func:`check_window_fits`). Cheap; also
    used for pre-flight validation before any rendering starts."""
    for stage, needs in ((condition.pressure_source, _PRESSURE_SOURCES[condition.pressure_source]),
                         (condition.analysis, _ANALYSES[condition.analysis][0])):
        for need in needs:
            if getattr(inputs, need) is None:
                raise ConfigurationError(f"{condition.id}: {stage} needs {_NEED_NAMES[need]}")
    check_window_fits(condition, len(inputs.srir if inputs.srir is not None else inputs.foa))


def check_window_fits(condition: SystemCondition, length: int) -> None:
    """Raise ConfigurationError unless the condition's analysis window fits a
    ``length``-sample input: ``tdoa`` needs a shorter one, ``tf-piv`` one no
    longer."""
    window = condition.window_size
    if condition.analysis == "tdoa" and window >= length:
        raise ConfigurationError(f"{condition.id}: window_size {window} must be smaller "
                                 f"than the input ({length} samples)")
    if condition.analysis == "tf-piv" and window > length:
        raise ConfigurationError(f"{condition.id}: window_size {window} must not exceed "
                                 f"the input ({length} samples)")


def _pressure_signal(inputs: AnalysisInput, condition: SystemCondition) -> MonoIr:
    if condition.pressure_source == "zeroth-order":
        return inputs.foa.w
    return MonoIr(inputs.srir.samples.mean(axis=0), inputs.srir.sample_rate)


def analyze(inputs: AnalysisInput, condition: SystemCondition) -> DoaTrajectory | TfDoaField:
    """The condition's analysis of ``inputs``: a per-sample DoaTrajectory
    (``tdoa``, ``piv-broadband``) for SDM, or a TfDoaField (``tf-piv``) for
    SIRR."""
    validate_condition_inputs(inputs, condition)
    if condition.analysis == "tdoa":
        return tdoa_ls_doa(inputs.srir, inputs.geometry, condition.window_size)
    if condition.analysis == "piv-broadband":
        return piv_broadband_doa(inputs.foa, condition.window_size, condition.band_low,
                                 condition.band_high)
    window = condition.window_size
    frames = stft(inputs.foa.samples, inputs.foa.sample_rate, window, window // 2)
    f = tf_piv_analysis(frames, averaging_frames=condition.tf_averaging_frames)
    if condition.psi_override is not None:
        f = replace(f, psi=np.full_like(f.psi, condition.psi_override))
    return f


@dataclass(frozen=True)
class ConditionResult:
    """One condition run end to end on one input."""

    analysis: DoaTrajectory | TfDoaField
    vls: SirrStreams | SampleAssignment
    brir: BinauralIr  # direct-energy normalized


def run_condition(inputs: AnalysisInput,
                  condition: SystemCondition) -> ConditionResult:
    """Run one condition end to end: analysis, synthesis, binaural rendering
    and direct-energy normalization."""
    analysis = analyze(inputs, condition)
    pressure = _pressure_signal(inputs, condition)
    if isinstance(analysis, DoaTrajectory):
        vls = sdm_synthesize(pressure, analysis, condition.grid, condition.knn)
    else:
        vls = sirr_synthesize(pressure, analysis, condition.grid, condition.seed)
    brir = normalize_direct_energy(binaural_render(vls, condition.hrirs))
    return ConditionResult(analysis, vls, brir)


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` workers when above 1.

    Results keep the order of ``items`` whatever the thread count.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class ComparisonRun:
    """Simulated scenes x conditions, each scene scored against its own
    reference BRIR.

    ``inputs`` maps a scene id to a SceneRendering.
    """

    inputs: dict
    conditions: tuple
    sample_rate: float = 48000.0

    def __post_init__(self):
        if not self.inputs:
            raise ConfigurationError("at least one scene input is required")
        check_condition_ids(self.conditions)
        for cond in self.conditions:
            if cond.hrirs.sample_rate != self.sample_rate:
                raise ConfigurationError(
                    f"condition {cond.id!r}: HRIR rate {cond.hrirs.sample_rate} "
                    f"differs from the run rate {self.sample_rate}"
                )
        for name, rendering in self.inputs.items():
            for what in ("reference", "analysis_input"):
                if getattr(rendering, what).sample_rate != self.sample_rate:
                    raise ConfigurationError(
                        f"scene {name!r}: {what} rate differs from the run rate"
                    )
        object.__setattr__(self, "conditions", tuple(self.conditions))


@dataclass(frozen=True)
class ComparisonResult:
    """Per-condition, per-scene metric reports plus pooled error summaries."""

    condition_reports: dict  # condition id -> {scene id -> MetricReport}
    reference_reports: dict  # scene id -> MetricReport
    summaries: dict  # condition id -> ErrorSummary
    brirs: dict  # (condition id, scene id) -> BinauralIr

    def to_json(self) -> str:
        payload = {
            "reference": {
                scene: report.to_dict()
                for scene, report in sorted(self.reference_reports.items())
            },
            "conditions": {
                cond: {
                    "reports": {
                        scene: report.to_dict() for scene, report in sorted(reports.items())
                    },
                    "summary": self.summaries[cond].to_dict(),
                }
                for cond, reports in sorted(self.condition_reports.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _named(what: str, fn, *args):
    """``fn(*args)``; an error other than a ConfigurationError (which names
    its condition already) is re-raised as a RuntimeError naming ``what``."""
    try:
        return fn(*args)
    except ConfigurationError:
        raise
    except Exception as exc:
        raise RuntimeError(f"{what} failed: {exc}") from exc


def score(systems: dict, references: dict) -> ComparisonResult:
    """Score system BRIRs against their scenes' reference BRIRs.

    ``systems`` maps (condition id, scene id) to a system BRIR and
    ``references`` maps a scene id to its reference BRIR. Each distinct
    reference object is measured once and each system once; each condition
    is pooled over the scenes it has, in scene order. A metric that fails
    raises RuntimeError naming the pair, or the scene of the reference.
    """
    by_id = {}  # id of a BRIR -> its report, so a shared reference is measured once

    def measured(brir, what):
        if id(brir) not in by_id:
            by_id[id(brir)] = _named(what, measure_brir, brir)
        return by_id[id(brir)]

    reference_reports = {name: measured(brir, f"reference of scene {name!r}")
                         for name, brir in sorted(references.items())}
    condition_reports = {}
    for (cond, name), brir in systems.items():
        condition_reports.setdefault(cond, {})[name] = measured(
            brir, f"condition {cond!r} on scene {name!r}")
    summaries = {}
    for cond, reports in condition_reports.items():
        names = sorted(reports)
        summaries[cond] = error_summary_paired([reports[n] for n in names],
                                               [reference_reports[n] for n in names])
    return ComparisonResult(condition_reports, reference_reports, summaries, dict(systems))


def run_comparison(run: ComparisonRun, threads: int = 1) -> ComparisonResult:
    """Evaluate every condition on every scene against the scene's reference.

    Work items are independent; with ``threads > 1`` they execute in a
    thread pool and are collected in a fixed order, so results are
    byte-identical for any thread count.
    """
    scene_names = sorted(run.inputs)
    tasks = [(cond, name) for cond in run.conditions for name in scene_names]

    def render(task):
        cond, name = task
        return _named(f"condition {cond.id!r} on scene {name!r}", run_condition,
                      run.inputs[name].analysis_input, cond).brir

    rendered = ordered_map(render, tasks, threads)
    return score(
        {(cond.id, name): brir for (cond, name), brir in zip(tasks, rendered)},
        {name: run.inputs[name].reference for name in scene_names},
    )
