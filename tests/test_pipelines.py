import warnings
from dataclasses import replace

import numpy as np
import pytest

from srirkit.errors import ConfigurationError, DegenerateInputError, TruncatedResponseWarning
from srirkit.grids import direction_from_azel, fibonacci_grid
from srirkit.hrir import spherical_head_hrir_set
from srirkit.metrics import measure_brir
from srirkit.pipelines import (
    AnalysisInput,
    ComparisonRun,
    SceneRendering,
    SystemCondition,
    analyze,
    run_comparison,
    run_condition,
    simulate,
)
from srirkit.presets import SCENE_POSITIONS, om6, scene

FS = 48000.0


@pytest.fixture(scope="module")
def small_setup():
    """A light scene rendering shared across pipeline tests."""
    grid = fibonacci_grid(64)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        rendering = simulate(
            scene("front_left", receiver=om6(), max_order=10),
            FS, int(0.2 * FS), hrirs=hrirs,
        )
    return grid, hrirs, rendering


def _condition(grid, hrirs, **overrides):
    base = dict(
        id="cond", analysis="tdoa", pressure_source="channel-average",
        grid=grid, hrirs=hrirs,
    )
    base.update(overrides)
    return SystemCondition(**base)


class TestSystemCondition:
    def test_unknown_labels_rejected(self, small_setup):
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError):
            _condition(grid, hrirs, analysis="music")
        for source in ("laser", "center-mic"):
            with pytest.raises(ConfigurationError, match="cond: unknown pressure_source"):
                _condition(grid, hrirs, pressure_source=source)

    @pytest.mark.parametrize("analysis, name, setting", [
        ("tf-piv", "knn", {"knn": 3}),
        ("tdoa", "psi_override", {"psi_override": 0.5}),
        ("piv-broadband", "psi_override", {"psi_override": 0.0}),
        ("tdoa", "tf_averaging_frames", {"tf_averaging_frames": 4}),
        ("tdoa", "band_low", {"band_low": 100.0}),
        ("tf-piv", "band_high", {"band_high": 3000.0}),
    ])
    def test_setting_the_analysis_does_not_read_rejected(self, small_setup, analysis, name,
                                                         setting):
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError, match=f"cond: {analysis} does not read {name}"):
            _condition(grid, hrirs, analysis=analysis, pressure_source="zeroth-order", **setting)

    def test_each_setting_accepted_by_the_analyses_that_read_it(self, small_setup):
        grid, hrirs, _ = small_setup
        _condition(grid, hrirs, analysis="tdoa", knn=3)
        _condition(grid, hrirs, analysis="piv-broadband", knn=3, band_low=100.0,
                   band_high=3000.0)
        _condition(grid, hrirs, analysis="tf-piv", tf_averaging_frames=4, psi_override=0.5)
        # a setting given at its default is not a setting the analysis ignores
        _condition(grid, hrirs, analysis="tf-piv", knn=1, band_low=200.0)


    @pytest.mark.parametrize("analysis", ["tdoa", "piv-broadband", "tf-piv"])
    def test_window_below_8_rejected(self, small_setup, analysis):
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError, match="cond: window_size must be an integer >= 8, got 4"):
            _condition(grid, hrirs, analysis=analysis, window_size=4)

    @pytest.mark.parametrize("analysis", ["tdoa", "piv-broadband", "tf-piv"])
    def test_non_integer_window_rejected(self, small_setup, analysis):
        """64.5 used to pass for tdoa and piv-broadband and fail only when
        analysed; tf-piv raised a bare TypeError."""
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError,
                           match="cond: window_size must be an integer >= 8, got 64.5"):
            _condition(grid, hrirs, analysis=analysis, window_size=64.5)

    @pytest.mark.parametrize("name, value", [
        ("knn", 2.5), ("knn", True), ("tf_averaging_frames", 2.5),
        ("tf_averaging_frames", True), ("seed", 1.5), ("seed", True), ("window_size", True),
    ])
    def test_integer_settings_must_be_integers(self, small_setup, name, value):
        """knn=2.5 used to fail inside nearest_directions with a bare TypeError,
        tf_averaging_frames=2.5 rendered with an EMA weight of 0.4, and True
        counted as 1."""
        grid, hrirs, _ = small_setup
        analysis = "tf-piv" if name == "tf_averaging_frames" else "tdoa"
        with pytest.raises(ConfigurationError,
                           match=f"cond: {name} must be an integer .*, got {value!r}"):
            _condition(grid, hrirs, analysis=analysis, **{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
    def test_seed_outside_32_bits_rejected(self, small_setup, seed):
        """Seeds were masked to 32 bits: 2**32 rendered seed 0's bytes and -1
        those of 2**32 - 1."""
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError,
                           match=rf"cond: seed must be an integer in \[0, 4294967295\], got {seed}"):
            _condition(grid, hrirs, seed=seed)
        _condition(grid, hrirs, seed=2**32 - 1)
        _condition(grid, hrirs, knn=np.int64(2), seed=np.uint32(7))

    @pytest.mark.parametrize("band_low, band_high", [
        (500.0, 100.0),  # not below band_high
        (0.0, 2400.0),  # not above zero
        (200.0, 30000.0),  # above the 24 kHz Nyquist of the 48 kHz HRIRs
    ])
    def test_piv_broadband_band_must_fit_below_nyquist(self, small_setup, band_low, band_high):
        grid, hrirs, _ = small_setup
        with pytest.raises(ConfigurationError, match="cond: band_low, band_high: .*Nyquist"):
            _condition(grid, hrirs, analysis="piv-broadband", band_low=band_low,
                       band_high=band_high)


class TestRunCondition:
    def test_sdm_tdoa_produces_brir_with_accurate_doa(self, small_setup):
        grid, hrirs, rendering = small_setup
        cond = _condition(grid, hrirs, id="sdm-tdoa")
        brir = run_condition(rendering.analysis_input, cond).brir
        assert len(brir) > 0

        traj = analyze(rendering.analysis_input, cond)
        az, el, _ = SCENE_POSITIONS["front_left"]
        true_dir = direction_from_azel(az, el)
        direct = int(round(rendering.images.delays[0] * FS))
        assert traj.valid[direct]
        err = np.degrees(
            np.arccos(np.clip(traj.directions[direct] @ true_dir, -1, 1))
        )
        assert err < 2.0

    def test_missing_foa_names_condition_and_gap(self, small_setup):
        grid, hrirs, rendering = small_setup
        srir_only = AnalysisInput(
            srir=rendering.analysis_input.srir,
            geometry=rendering.analysis_input.geometry,
        )
        cond = _condition(grid, hrirs, id="needs-foa", analysis="piv-broadband",
                          pressure_source="zeroth-order")
        with pytest.raises(ConfigurationError) as info:
            run_condition(srir_only, cond)
        assert "needs-foa" in str(info.value)
        assert "FOA" in str(info.value) or "foa" in str(info.value)

    def test_deterministic_repeat(self, small_setup):
        grid, hrirs, rendering = small_setup
        for analysis in ("piv-broadband", "tf-piv"):
            cond = _condition(
                grid, hrirs, id=f"det-{analysis}", analysis=analysis,
                pressure_source="zeroth-order", seed=11,
            )
            a = run_condition(rendering.analysis_input, cond).brir
            b = run_condition(rendering.analysis_input, cond).brir
            assert np.array_equal(a.left.samples, b.left.samples)
            assert np.array_equal(a.right.samples, b.right.samples)

    def test_sirr_psi_zero_matches_pure_vbap_render(self, small_setup):
        grid, hrirs, rendering = small_setup
        cond = _condition(
            grid, hrirs, id="sirr0", analysis="tf-piv",
            pressure_source="zeroth-order", psi_override=0.0,
        )
        brir = run_condition(rendering.analysis_input, cond).brir

        # expected: same field directions, diffuse stream suppressed, panned
        # per-bin; rebuilt through the same public pieces minus decorrelation
        from srirkit.dsp import normalize_direct_energy
        from srirkit.synthesis import binaural_render, sirr_synthesize

        field = analyze(rendering.analysis_input, cond)
        pressure = rendering.analysis_input.foa.w
        vls = sirr_synthesize(pressure, field, grid, seed=cond.seed)
        expected = normalize_direct_energy(binaural_render(vls, hrirs))
        scale = np.abs(expected.left.samples).max()
        assert np.abs(brir.left.samples - expected.left.samples).max() / scale < 1e-6


class TestPressureSourceIsolation:
    def test_trajectories_identical_brirs_differ(self, small_setup):
        grid, hrirs, rendering = small_setup
        base = _condition(
            grid, hrirs, id="piv", analysis="piv-broadband",
            pressure_source="zeroth-order",
        )
        other = replace(base, id="piv-channel-average", pressure_source="channel-average")

        traj_a = analyze(rendering.analysis_input, base)
        traj_b = analyze(rendering.analysis_input, other)
        assert np.array_equal(traj_a.directions, traj_b.directions)
        assert np.array_equal(traj_a.valid, traj_b.valid)

        brir_a = run_condition(rendering.analysis_input, base).brir
        brir_b = run_condition(rendering.analysis_input, other).brir
        spec_a = np.abs(np.fft.rfft(brir_a.left.samples))
        spec_b = np.abs(np.fft.rfft(brir_b.left.samples))
        assert np.abs(spec_a - spec_b).max() > 1e-3 * spec_a.max()


class TestRunComparison:
    def _run(self, small_setup, threads=1):
        grid, hrirs, rendering = small_setup
        conditions = (
            _condition(grid, hrirs, id="sdm-tdoa"),
            _condition(grid, hrirs, id="sdm-piv", analysis="piv-broadband",
                       pressure_source="zeroth-order"),
        )
        run = ComparisonRun(
            inputs={"front_left": rendering}, conditions=conditions, sample_rate=FS
        )
        return run_comparison(run, threads=threads)

    def test_reports_emitted_per_condition_and_scene(self, small_setup):
        result = self._run(small_setup)
        assert set(result.condition_reports) == {"sdm-tdoa", "sdm-piv"}
        assert set(result.condition_reports["sdm-tdoa"]) == {"front_left"}
        assert set(result.summaries) == {"sdm-tdoa", "sdm-piv"}
        assert result.summaries["sdm-tdoa"].mae["itd_us"] >= 0.0

    def test_condition_rows_independent(self, small_setup):
        grid, hrirs, rendering = small_setup
        both = self._run(small_setup)
        only = run_comparison(
            ComparisonRun(
                inputs={"front_left": rendering},
                conditions=(_condition(grid, hrirs, id="sdm-tdoa"),),
                sample_rate=FS,
            )
        )
        a = both.condition_reports["sdm-tdoa"]["front_left"]
        b = only.condition_reports["sdm-tdoa"]["front_left"]
        assert a == b

    def test_thread_count_invariance(self, small_setup):
        serial = self._run(small_setup, threads=1)
        threaded = self._run(small_setup, threads=4)
        for key, brir in serial.brirs.items():
            other = threaded.brirs[key]
            assert np.array_equal(brir.left.samples, other.left.samples)
            assert np.array_equal(brir.right.samples, other.right.samples)
        assert serial.to_json() == threaded.to_json()

    def test_reference_self_comparison_is_zero(self, small_setup):
        _, _, rendering = small_setup
        report = measure_brir(rendering.reference)
        from srirkit.metrics import error_summary_paired

        summary = error_summary_paired([report], [report])
        assert all(v == 0.0 for v in summary.mae.values())
        assert all(v == 0.0 for v in summary.msd.values())
        assert all(summary.jnd_pass.values())

    def test_duplicate_condition_ids_rejected(self, small_setup):
        grid, hrirs, rendering = small_setup
        with pytest.raises(ConfigurationError, match="unique, got \\['same', 'same'\\]"):
            ComparisonRun(
                inputs={"front_left": rendering},
                conditions=(
                    _condition(grid, hrirs, id="same"),
                    _condition(grid, hrirs, id="same"),
                ),
            )

    def test_no_condition_rejected(self, small_setup):
        _, _, rendering = small_setup
        with pytest.raises(ConfigurationError, match="at least one condition"):
            ComparisonRun(inputs={"front_left": rendering}, conditions=())

    def test_rate_mismatch_with_reference_rejected(self, small_setup):
        grid, hrirs, rendering = small_setup
        with pytest.raises(ConfigurationError):
            ComparisonRun(
                inputs={"front_left": rendering},
                conditions=(_condition(grid, hrirs, id="c"),),
                sample_rate=44100.0,
            )

    def test_rate_mismatch_with_analysis_input_rejected(self, small_setup):
        """A scene whose array and FOA signals are at another rate than its
        reference and the run is refused when the run is built, naming the
        scene; it used to fail only when that scene was rendered, after the
        others had been."""
        grid, hrirs, rendering = small_setup
        foa = rendering.analysis_input.foa
        other = replace(rendering, analysis_input=AnalysisInput(
            srir=None, foa=type(foa)(foa.samples, 44100.0)))
        with pytest.raises(ConfigurationError, match="scene 'b': analysis_input rate"):
            ComparisonRun(
                inputs={"a": rendering, "b": other},
                conditions=(_condition(grid, hrirs, id="c"),),
                sample_rate=FS,
            )


def test_simulate_needs_hrirs():
    with pytest.raises(TypeError):
        simulate(scene("front_left", receiver=om6(), max_order=0), FS, 4800)


def test_ism_direct_sound_lands_in_nearest_loudspeaker(small_setup):
    from srirkit.grids import nearest_directions
    from srirkit.synthesis import sdm_synthesize

    grid, hrirs, rendering = small_setup
    cond = _condition(grid, hrirs, id="sdm")
    trajectory = analyze(rendering.analysis_input, cond)
    pressure = rendering.analysis_input.foa.w
    signals = sdm_synthesize(pressure, trajectory, grid, k=1).rows()

    az, el, _ = SCENE_POSITIONS["front_left"]
    expected = nearest_directions(direction_from_azel(az, el)[None, :], grid.directions)[0][0, 0]
    direct = int(round(rendering.images.delays[0] * FS))
    active = np.nonzero(signals[:, direct])[0]
    assert list(active) == [expected]


def test_rendering_never_densifies_an_assignment(small_setup, monkeypatch):
    """On the canonical 240-direction grid with 128-tap HRIRs, the standard
    (k=1) SDM conditions are convolved straight from their samples."""
    from srirkit.presets import standard_conditions
    from srirkit.synthesis import SampleAssignment

    def refuse(self):
        raise AssertionError("an SDM assignment was densified while rendering")

    monkeypatch.setattr(SampleAssignment, "rows", refuse)
    _, _, rendering = small_setup
    grid = fibonacci_grid(240)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
    conditions = [c for c in standard_conditions(grid, hrirs) if c.analysis != "tf-piv"]
    result = run_comparison(
        ComparisonRun(inputs={"front_left": rendering}, conditions=conditions, sample_rate=FS)
    )
    assert set(result.summaries) == {c.id for c in conditions}


def test_rendering_never_writes_out_sirr_signals(small_setup, monkeypatch):
    """On the canonical 240-direction grid with 128-tap HRIRs, the standard
    SIRR condition is rendered from its streams, never from loudspeaker
    signals."""
    from srirkit.presets import standard_conditions
    from srirkit.synthesis import SirrStreams

    def refuse(self):
        raise AssertionError("SIRR loudspeaker signals were written out while rendering")

    monkeypatch.setattr(SirrStreams, "rows", refuse)
    _, _, rendering = small_setup
    grid = fibonacci_grid(240)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
    conditions = [c for c in standard_conditions(grid, hrirs) if c.analysis == "tf-piv"]
    result = run_comparison(
        ComparisonRun(inputs={"front_left": rendering}, conditions=conditions, sample_rate=FS)
    )
    assert set(result.summaries) == {"sirr"}


def test_standard_conditions_run(small_setup):
    from srirkit.presets import standard_conditions

    grid, hrirs, rendering = small_setup
    conditions = standard_conditions(grid, hrirs)
    assert [c.id for c in conditions] == [
        "sdm-6om1", "sdm-piv", "sdm-piv-omni", "sirr",
    ]
    result = run_comparison(
        ComparisonRun(inputs={"front_left": rendering}, conditions=conditions,
                      sample_rate=FS)
    )
    assert set(result.summaries) == {"sdm-6om1", "sdm-piv", "sdm-piv-omni", "sirr"}


def test_standard_conditions_at_44_1_khz():
    """The canonical comparison (front_left, 0.4 s, max_order 30, 240
    directions) at 44.1 kHz, where TDOA's lag bound and every window length
    depend on the rate: each condition keeps the reference's ITD within
    10 us and its low-band ILD within 1 dB."""
    from srirkit.presets import standard_conditions

    rate = 44100.0
    grid = fibonacci_grid(240)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=rate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        rendering = simulate(scene("front_left", receiver=om6(), max_order=30),
                             rate, int(0.4 * rate), hrirs=hrirs)
    result = run_comparison(ComparisonRun(
        inputs={"front_left": rendering}, conditions=standard_conditions(grid, hrirs),
        sample_rate=rate,
    ))
    ref = result.reference_reports["front_left"]
    assert len(result.condition_reports) == 4
    for reports in result.condition_reports.values():
        assert abs(reports["front_left"].itd_us - ref.itd_us) <= 10.0
        assert abs(reports["front_left"].ild_low_db - ref.ild_low_db) <= 1.0


def test_anechoic_brirs_are_not_scored_from_rounding_noise(small_setup):
    """At max_order 0 every late window holds exact zeros or rounding noise
    only, so the reference and all four standard conditions raise alike."""
    from srirkit.presets import standard_conditions

    grid, hrirs, _ = small_setup
    rendering = simulate(scene("front_left", receiver=om6(), max_order=0),
                         FS, int(0.2 * FS), hrirs=hrirs)
    conditions = standard_conditions(grid, hrirs)
    brirs = [run_condition(rendering.analysis_input, c).brir for c in conditions]
    for brir in [rendering.reference, *brirs]:
        with pytest.raises(DegenerateInputError, match="rounding noise"):
            measure_brir(brir)


def _import_perfbench(name):
    """A module of the benchmark in perfbench/, imported without writing
    anything there and without staying in ``sys.modules``."""
    import importlib
    import sys
    from pathlib import Path

    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(perfbench)
        sys.modules.pop(name, None)


def test_benchmark_layer_bindings_fire(small_setup):
    """Every layer the benchmark traces (perfbench/spans.py) is still bound in
    srirkit.pipelines, and simulate + run_comparison call it through that
    binding."""
    import srirkit
    from srirkit import pipelines

    spans = _import_perfbench("spans")
    targets = spans.layer_targets(srirkit)
    for module, attr, _, _ in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"

    grid, hrirs, _ = small_setup
    conditions = (
        _condition(grid, hrirs, id="tdoa-sdm"),
        _condition(grid, hrirs, id="piv-sdm", analysis="piv-broadband",
                   pressure_source="zeroth-order"),
        _condition(grid, hrirs, id="tf-piv-sirr", analysis="tf-piv",
                   pressure_source="zeroth-order"),
    )
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedResponseWarning)
            rendering = pipelines.simulate(
                scene("front_left", receiver=om6(), max_order=10),
                FS, int(0.2 * FS), hrirs=hrirs,
            )
        pipelines.run_comparison(ComparisonRun(
            inputs={"front_left": rendering}, conditions=conditions, sample_rate=FS
        ))
    finally:
        tracer.uninstall()

    expected = {name for module, _, name, _ in targets if module is pipelines}
    assert expected
    assert expected <= {span[0] for span in tracer.spans}


def test_canonical_benchmark_pass_matches_the_golden():
    """One pass of the benchmark's canonical workload at seed 0 (front_left,
    48 kHz, 0.4 s, max_order 30, the four standard conditions) reproduces
    every MetricReport and MAE/MSD in perfbench/golden.json within its
    stated tolerance."""
    _assert_benchmark_pass_matches_the_golden("canonical")


def test_rerender_benchmark_pass_matches_the_golden():
    """The same for the rerender workload: two scenes simulated in set-up,
    and a k = 3 SDM condition besides the four standard ones."""
    _assert_benchmark_pass_matches_the_golden("rerender")


def _assert_benchmark_pass_matches_the_golden(workload):
    import srirkit
    import srirkit.presets  # noqa: F401  (set_up reads srirkit.presets)

    run = _import_perfbench("run")
    with run.TruncationLog(srirkit):  # rerender simulates its scenes in set-up
        setup = run.set_up(srirkit, workload, 0)
    record, _, _ = run.run_pass(srirkit, setup)
    assert record is not None, "the benchmark pass raised"
    failed = run.failed_pairs(record, setup.pairs, run.load_golden(workload, 0), None)
    assert not failed
