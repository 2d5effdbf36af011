"""Span recorder for the traced benchmark pass.

The tracer wraps the public functions of each srirkit layer at the names
the callers look them up by (``srirkit.pipelines.binaural_render`` and so
on), records a span per call and restores the originals afterwards.
Nothing under ``src/`` is edited; with tracing off nothing is wrapped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

#: Channels of the ideal first-order rendering (w, x, y, z).
_FOA_CHANNELS = 4


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = ""
        self._open = []
        self._restore = []

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def install(self, targets):
        """Replace each ``(module, attribute, span name, hook)`` target."""
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.span(name, original, hook))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self, run_id):
        """Sum of self time (duration minus child spans) per span name."""
        child = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                totals[name] += (end - start) - child[index]
        return totals

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "run_id"],
                "spans": self.spans}


def layer_targets(srirkit):
    """The layer boundaries the benchmark traces, as pipelines binds them.

    Set-up layers (grids, hrir) are wrapped where the benchmark itself
    calls them.
    """
    pipelines = srirkit.pipelines
    taps = 2 * srirkit.dsp.FRACTIONAL_DELAY_HALF + 1

    def images(counts, args, result):
        counts["ism.images"] += len(result)

    def array_taps(counts, args, result):
        counts["ism.impulse_taps"] += len(args[0]) * args[1].capsule_count * taps

    def foa_taps(counts, args, result):
        counts["ism.impulse_taps"] += len(args[0]) * _FOA_CHANNELS * taps

    def reference_taps(counts, args, result):
        counts["ism.impulse_taps"] += len(args[0]) * taps

    def trajectory(counts, args, result):
        counts["doa.samples"] += len(result)
        counts["doa.invalid"] += int((~result.valid).sum())

    def vls(counts, args, result):
        counts["synthesis.vls_bytes"] += result.samples.nbytes

    def measured(counts, args, result):
        counts["metrics.measure_calls"] += 1

    return [
        (pipelines, "simulate", "pipelines.simulate", None),
        (pipelines, "run_comparison", "pipelines.run_comparison", None),
        (pipelines, "run_condition", "pipelines.run_condition", None),
        (pipelines, "enumerate_images", "ism.enumerate", images),
        (pipelines, "render_array_srir", "ism.render_array", array_taps),
        (pipelines, "render_foa_srir", "ism.render_foa", foa_taps),
        (pipelines, "render_reference_brir", "ism.render_reference", reference_taps),
        (pipelines, "tdoa_ls_doa", "doa.tdoa", trajectory),
        (pipelines, "piv_broadband_doa", "doa.piv_broadband", trajectory),
        (pipelines, "tf_piv_analysis", "doa.tf_piv", None),
        (pipelines, "stft", "dsp.stft", None),
        (pipelines, "normalize_direct_energy", "dsp.normalize", None),
        (pipelines, "sdm_synthesize", "synthesis.sdm", vls),
        (pipelines, "sirr_synthesize", "synthesis.sirr", vls),
        (pipelines, "binaural_render", "synthesis.binaural_render", None),
        (pipelines, "measure_brir", "metrics.measure", measured),
        (pipelines, "error_summary_paired", "metrics.summary", None),
        (srirkit.grids, "fibonacci_grid", "grids.build", None),
        (srirkit.hrir, "spherical_head_hrir_set", "hrir.build", None),
    ]
