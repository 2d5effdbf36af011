"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margins.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from srirkit.doa import piv_broadband_doa, tdoa_ls_doa, tf_piv_analysis
from srirkit.doa import DoaTrajectory, TfDoaField
from srirkit.dsp import stft
from srirkit.errors import TruncatedResponseWarning
from srirkit.grids import direction_from_azel, fibonacci_grid
from srirkit.hrir import spherical_head_hrir_set
from srirkit.ism import enumerate_images, render_array_srir, render_foa_srir
from srirkit.metrics import MetricReport, error_summary_paired, iacc, ild_avg, itd, measure_brir, t30_mid
from srirkit.pipelines import (
    ComparisonRun,
    SystemCondition,
    analyze,
    run_comparison,
    run_condition,
)
from srirkit.presets import SCENE_POSITIONS, om6, scene
from srirkit.signals import BinauralIr, MonoIr
from srirkit.synthesis import sdm_synthesize, sirr_synthesize, sirr_tf_streams

FS = 48000.0

_comparison_cache = {}


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _six_scene_comparison(scene_bundle):
    """SDM-TDOA and SDM-PIV over the six positions (computed once)."""
    if "result" not in _comparison_cache:
        grid, hrirs, renderings, build_seconds = scene_bundle
        conditions = (
            SystemCondition(id="sdm-tdoa", analysis="tdoa",
                            pressure_source="channel-average",
                            grid=grid, hrirs=hrirs),
            SystemCondition(id="sdm-piv", analysis="piv-broadband",
                            pressure_source="zeroth-order",
                            grid=grid, hrirs=hrirs),
        )
        start = time.perf_counter()
        result = run_comparison(
            ComparisonRun(inputs=renderings, conditions=conditions, sample_rate=FS)
        )
        _comparison_cache["result"] = result
        _comparison_cache["seconds"] = (time.perf_counter() - start) + build_seconds
    return _comparison_cache["result"], _comparison_cache["seconds"]


def test_criterion_1_doa_oracle_accuracy():
    """Direct-sound DOA within 2 deg (TDOA) / 1 deg (PIV) on all six scenes."""
    start = time.perf_counter()
    geometry = om6()
    worst_tdoa = 0.0
    worst_piv = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        for name, (az, el, _) in SCENE_POSITIONS.items():
            sc = scene(name, receiver=geometry, max_order=6)
            images = enumerate_images(sc)
            length = int(0.15 * FS)
            srir = render_array_srir(images, geometry, FS, length)
            foa = render_foa_srir(images, FS, length)
            true_dir = direction_from_azel(az, el)
            direct = int(round(images.delays[0] * FS))

            traj_tdoa = tdoa_ls_doa(srir, geometry, window_size=64)
            assert traj_tdoa.valid[direct]
            err_tdoa = np.degrees(np.arccos(np.clip(
                traj_tdoa.directions[direct] @ true_dir, -1.0, 1.0)))
            worst_tdoa = max(worst_tdoa, err_tdoa)

            traj_piv = piv_broadband_doa(foa, window_size=64, band_low=200.0, band_high=2400.0)
            assert traj_piv.valid[direct]
            err_piv = np.degrees(np.arccos(np.clip(
                traj_piv.directions[direct] @ true_dir, -1.0, 1.0)))
            worst_piv = max(worst_piv, err_piv)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst_tdoa <= 2.0 and worst_piv <= 1.0 and elapsed < 30.0,
        f"TDOA worst {worst_tdoa:.3f} deg (<=2), PIV worst {worst_piv:.3f} deg (<=1), "
        f"runtime {elapsed:.1f} s (<30)",
    )


def test_criterion_2_sdm_sample_model_bit_exact():
    """k=1: per-sample speaker energy equals the pressure sample bit-for-bit."""
    failures = 0
    for case in range(100):
        gen = np.random.default_rng(1000 + case)
        grid = fibonacci_grid(int(gen.integers(4, 65)))
        n = int(gen.integers(16, 400))
        pressure = MonoIr(gen.normal(size=n), FS)
        dirs = gen.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        valid = gen.uniform(size=n) > 0.2
        dirs[~valid] = 0.0
        signals = sdm_synthesize(pressure, DoaTrajectory(dirs, valid), grid, k=1).dense()
        if not np.array_equal(np.sum(signals**2, axis=0), pressure.samples**2):
            failures += 1
            continue
        if np.any(np.count_nonzero(signals, axis=0) > 1):
            failures += 1
    _report(2, failures == 0, f"100 randomized cases, {failures} bit-level violations")


def test_criterion_3_sirr_energy_split():
    """Per-bin split exact to 1e-6 relative; broadband output within 0.5 dB."""
    gen = np.random.default_rng(77)
    grid = fibonacci_grid(24)

    # per-bin identity on an adversarial random field
    sig = gen.normal(size=8192)
    sig[:256] = 0.0
    sig[-256:] = 0.0
    frames = stft(sig, FS, 256, 128)
    t, f = frames.values.shape
    dirs = gen.normal(size=(t, f, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    psi = np.clip(gen.uniform(size=(t, f)), 0.0, 1.0)
    field = TfDoaField(dirs, psi, 256, 128, FS)
    _, direct, diffuse_tf = sirr_tf_streams(frames, field, grid)
    total = np.sum(np.abs(direct) ** 2, axis=-1) + len(grid) * np.abs(diffuse_tf) ** 2
    per_bin_err = np.abs(total - np.abs(frames.values) ** 2).max() / (
        np.abs(frames.values) ** 2
    ).max()

    # broadband preservation on a scene-driven analysis field
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        from srirkit.pipelines import simulate

        rendering = simulate(
            scene("front_left", receiver=om6(), max_order=10),
            FS, int(0.2 * FS),
            hrirs=spherical_head_hrir_set(grid.directions, sample_rate=FS),
        )
    foa = rendering.analysis_input.foa
    foa_frames = stft(foa.samples, FS, 64, 32)
    scene_field = tf_piv_analysis(foa_frames)
    vls = sirr_synthesize(stft(foa.w.samples, FS, 64, 32), scene_field, grid, seed=4)
    ratio_db = abs(10 * np.log10(
        np.sum(vls.samples**2) / np.sum(foa.w.samples**2)
    ))
    _report(
        3,
        per_bin_err < 1e-6 and ratio_db < 0.5,
        f"per-bin split error {per_bin_err:.2e} (<1e-6), "
        f"broadband deviation {ratio_db:.3f} dB (<0.5)",
    )


def test_criterion_4_end_to_end_binaural_fidelity(scene_bundle):
    """SDM BRIRs vs the nearest-HRIR reference on all six scenes."""
    result, elapsed = _six_scene_comparison(scene_bundle)
    worst_itd = 0.0
    worst_ild = 0.0
    for cond_id, reports in result.condition_reports.items():
        for scene_id, report in reports.items():
            ref = result.reference_reports[scene_id]
            worst_itd = max(worst_itd, abs(report.itd_us - ref.itd_us))
            worst_ild = max(worst_ild, abs(report.ild_low_db - ref.ild_low_db))
    _report(
        4,
        worst_itd <= 40.0 and worst_ild <= 2.0 and elapsed < 300.0,
        f"worst |ITD error| {worst_itd:.2f} us (<=40), "
        f"worst low-band |ILD error| {worst_ild:.3f} dB (<=2), "
        f"runtime incl. simulation {elapsed:.1f} s (<300)",
    )


def test_criterion_5_t30_estimator():
    """Synthetic exponential decays recovered within 2 percent."""
    worst = 0.0
    for rt in (0.25, 0.5, 1.0):
        n = int(1.4 * rt * FS)
        t = np.arange(n) / FS
        carrier = np.sin(2 * np.pi * 500.0 * t) + np.sin(2 * np.pi * 1000.0 * t)
        measured = t30_mid(MonoIr(carrier * np.exp(-6.91 * t / rt), FS))
        worst = max(worst, abs(measured / rt - 1.0))
    _report(5, worst <= 0.02, f"worst relative T30 error {100 * worst:.3f}% (<=2%)")


def test_criterion_6_t30_overestimation_sign(scene_bundle):
    """SDM conditions overestimate reverberation time (non-negative MSD)."""
    result, _ = _six_scene_comparison(scene_bundle)
    msds = {cid: s.msd["t30_mid_s"] for cid, s in result.summaries.items()}
    detail = ", ".join(
        f"{cid}: MSD {1000 * v:+.1f} ms ({'overestimates' if v >= 0 else 'underestimates'})"
        for cid, v in sorted(msds.items())
    )
    _report(6, all(v >= 0.0 for v in msds.values()), detail)


def test_criterion_7_dedicated_pressure_contrast(scene_bundle):
    """Pressure-source change leaves trajectories bit-identical, BRIRs differ."""
    grid, hrirs, renderings, _ = scene_bundle
    rendering = renderings["front_left"]
    base = SystemCondition(
        id="piv", analysis="piv-broadband", pressure_source="zeroth-order",
        grid=grid, hrirs=hrirs,
    )
    other = replace(base, id="piv-channel-average", pressure_source="channel-average")
    traj_a = analyze(rendering.analysis_input, base)
    traj_b = analyze(rendering.analysis_input, other)
    identical = np.array_equal(traj_a.directions, traj_b.directions) and np.array_equal(
        traj_a.valid, traj_b.valid
    )
    brir_a = run_condition(rendering.analysis_input, base).brir
    brir_b = run_condition(rendering.analysis_input, other).brir
    spec_a = np.abs(np.fft.rfft(brir_a.left.samples))
    spec_b = np.abs(np.fft.rfft(brir_b.left.samples))
    rel_spec_diff = np.abs(spec_a - spec_b).max() / spec_a.max()
    _report(
        7,
        identical and rel_spec_diff > 1e-3,
        f"trajectories bit-identical: {identical}, "
        f"relative BRIR spectrum difference {rel_spec_diff:.4f} (>1e-3)",
    )


def test_criterion_8_metric_identities():
    """Channel-swap antisymmetry, IACC identity, MAE >= |MSD|; under 60 s."""
    start = time.perf_counter()
    gen = np.random.default_rng(8)

    ok = True
    notes = []

    # swap antisymmetry
    n = 16000
    t = np.arange(n) / FS
    tail = gen.normal(size=n) * np.exp(-6.91 * t / 0.2) * 0.05
    left = tail.copy()
    right = 0.6 * tail
    left[200] += 1.0
    right[207] += 0.6
    brir = BinauralIr(np.stack([left, right]), FS)
    swapped = BinauralIr(brir.samples[::-1], brir.sample_rate)
    itd_anti = abs(itd(swapped) + itd(brir)) <= 2.0
    low, high = ild_avg(brir)
    low_s, high_s = ild_avg(swapped)
    ild_anti = (low_s == -low) and (high_s == -high)
    ok &= itd_anti and ild_anti
    notes.append(f"ITD antisym within 2us: {itd_anti}, ILD antisym exact: {ild_anti}")

    # IACC identity
    x = gen.normal(size=4000)
    iacc_one = iacc(MonoIr(x, FS), MonoIr(x.copy(), FS)) == pytest.approx(1.0, abs=1e-12)
    ok &= bool(iacc_one)
    notes.append(f"IACC(identical)=1: {iacc_one}")

    # MAE >= |MSD| on randomized report sets
    violations = 0
    for _ in range(200):
        ref = MetricReport(0.0, 0.0, 0.0, 0.25, 0.3, 0.5)
        systems = [
            MetricReport(
                float(gen.normal()), float(gen.normal()),
                float(gen.uniform(-800, 800)), float(gen.uniform(0.05, 1.0)),
                float(gen.uniform(0, 1)), float(gen.uniform(0, 1)),
            )
            for _ in range(int(gen.integers(1, 9)))
        ]
        summary = error_summary_paired(systems, [ref] * len(systems))
        for name in summary.mae:
            if summary.mae[name] < abs(summary.msd[name]) - 1e-12:
                violations += 1
    ok &= violations == 0
    notes.append(f"MAE>=|MSD| violations: {violations}/200 sets")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(8, ok, "; ".join(notes) + f"; runtime {elapsed:.1f} s (<60)")


def test_criterion_9_thread_determinism(scene_bundle):
    """Same seed, different thread counts: byte-identical BRIRs and reports."""
    grid, hrirs, renderings, _ = scene_bundle
    subset = {name: renderings[name] for name in ("front_center", "side_left")}
    conditions = (
        SystemCondition(id="sdm-tdoa", analysis="tdoa",
                        pressure_source="channel-average",
                        grid=grid, hrirs=hrirs),
        SystemCondition(id="sirr", analysis="tf-piv",
                        pressure_source="zeroth-order",
                        grid=grid, hrirs=hrirs, seed=21),
    )
    run = ComparisonRun(inputs=subset, conditions=conditions, sample_rate=FS)
    results = {threads: run_comparison(run, threads=threads) for threads in (1, 4)}
    identical = results[1].to_json() == results[4].to_json()
    for key, brir in results[1].brirs.items():
        other = results[4].brirs[key]
        identical &= np.array_equal(brir.left.samples, other.left.samples)
        identical &= np.array_equal(brir.right.samples, other.right.samples)
    _report(9, bool(identical), "1-thread and 4-thread runs byte-identical: "
            f"{bool(identical)} over {len(results[1].brirs)} BRIRs")
