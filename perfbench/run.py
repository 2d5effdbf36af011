"""srirkit benchmark: simulate preset scenes, render them through the SDM-
and SIRR-style conditions, and score the BRIRs against the image-source
reference, through the public entry points ``pipelines.simulate`` and
``pipelines.run_comparison`` (one caller, closed loop, ``threads=1``).

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 30 --trace 0

Run it from the repository root. ``--trace 0`` times untraced passes until
``--seconds`` have elapsed and prints the end-to-end metrics. ``--trace 1``
alternates an untraced pass with a traced one (set-up included) and prints
the per-layer metrics of a traced pass (median over traced passes). Every
pass is checked: at seed 0 each MetricReport and each per-condition MAE/MSD
must match ``golden.json``; at every seed the BRIRs must be byte-identical
across passes (traced or not), every metric finite and every ITD and ILD
error within the acceptance limits. The last line of stdout is the JSON
result; the full record, environment and trace go to ``.perfbench_out/``.

``--write-golden`` regenerates the golden record of one workload at seed 0.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

FS = 48000.0
LENGTH = int(0.4 * FS)
MAX_ORDER = 30
GRID_SIZE = 240
#: Largest scene displacement a non-zero seed applies, in metres. Enough to
#: change every reflection's fractional delay; larger moves let the T30 and
#: IACC errors, and so jnd_ratio_mean, vary more from seed to seed than any
#: bound the benchmark can hold.
JITTER_M = 0.001
SETUP_REPEATS = 3
#: Acceptance limits on any rendered BRIR against its reference (the ITD
#: just-noticeable difference and the 2 dB low-band ILD limit).
ITD_LIMIT_US = 40.0
ILD_LIMIT_DB = 2.0
#: Golden comparison: math.isclose(rel_tol=REL_TOL, abs_tol=ABS_TOL).
REL_TOL = 1e-9
ABS_TOL = 1e-9

#: canonical is the north-star workload, every layer in the proportions users
#: see. rerender simulates its inputs in set-up, so ISM does no timed work;
#: SIRR, k=3 SDM and binaural rendering dominate its score time.
WORKLOADS = {
    "canonical": dict(scenes=("front_left",), simulate_in_pass=True),
    "rerender": dict(scenes=("side_left", "upper_back_left"), knn3=True,
                     simulate_in_pass=False),
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "simulate_s": "s", "score_s": "s",
    "pairs_per_s": "1/s", "peak_rss_mb": "MB", "pair_pass_frac": "fraction",
    "itd_err_max_us": "us", "ild_err_max_db": "dB", "jnd_ratio_mean": "ratio",
}
SPAN_METRICS = {
    "ism.enumerate_s": "ism.enumerate",
    "ism.render_array_s": "ism.render_array",
    "ism.render_foa_s": "ism.render_foa",
    "ism.render_reference_s": "ism.render_reference",
    "doa.tdoa_s": "doa.tdoa",
    "doa.piv_broadband_s": "doa.piv_broadband",
    "doa.tf_piv_s": "doa.tf_piv",
    "dsp.stft_s": "dsp.stft",
    "synthesis.sirr_s": "synthesis.sirr",
    "synthesis.sdm_s": "synthesis.sdm",
    "synthesis.binaural_render_s": "synthesis.binaural_render",
    "metrics.measure_s": "metrics.measure",
    "metrics.summary_s": "metrics.summary",
    "hrir.build_s": "hrir.build",
    "grids.build_s": "grids.build",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "ism.images": "count", "ism.truncated": "count", "ism.impulse_taps": "count",
    "doa.invalid_frac": "fraction", "synthesis.vls_mb": "MB",
    "metrics.measure_calls": "count", "pipelines.self_s": "s",
    "trace.overhead_s": "s",
}


def import_srirkit():
    """Import srirkit from this checkout's ``src/``, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "srirkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: srirkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import srirkit
    import srirkit.pipelines  # noqa: F401  (binds the traced names)
    import srirkit.presets  # noqa: F401

    if Path(srirkit.__file__).resolve().parent != src / "srirkit":
        sys.exit(f"perfbench: imported srirkit from {srirkit.__file__}, not {src}")
    return srirkit


@dataclasses.dataclass
class Setup:
    hrirs: object
    conditions: tuple
    scenes: dict
    inputs: dict
    simulate_s: float

    @property
    def pairs(self):
        return [(c.id, s) for c in self.conditions for s in sorted(self.scenes)]


def jittered_scene(srirkit, name, seed):
    """The preset scene; a non-zero seed moves it by <= JITTER_M.

    Source and receiver move together, so the direct path (which ITD and
    ILD analyse) keeps its geometry while every reflection changes.
    """
    import numpy as np  # only after import_srirkit() has pinned BLAS threads

    scene = srirkit.presets.scene(name, receiver=srirkit.presets.om6(),
                                  max_order=MAX_ORDER)
    if seed == 0:
        return scene
    index = list(srirkit.presets.SCENE_POSITIONS).index(name)
    rng = np.random.default_rng([seed, index])
    step = rng.normal(size=3)
    step *= JITTER_M * rng.uniform() / np.linalg.norm(step)
    return dataclasses.replace(scene, source=scene.source + step,
                               receiver_origin=scene.receiver_origin + step)


def set_up(srirkit, workload, seed):
    spec = WORKLOADS[workload]
    grid = srirkit.grids.fibonacci_grid(GRID_SIZE)
    hrirs = srirkit.hrir.spherical_head_hrir_set(grid.directions, sample_rate=FS)
    conditions = srirkit.presets.standard_conditions(grid, hrirs, seed=seed)
    if spec.get("knn3"):
        piv = next(c for c in conditions if c.id == "sdm-piv")
        conditions += (dataclasses.replace(piv, id="sdm-piv-k3", knn=3),)
    scenes = {name: jittered_scene(srirkit, name, seed) for name in spec["scenes"]}
    inputs, simulate_s = {}, 0.0
    if not spec["simulate_in_pass"]:
        start = time.perf_counter()
        inputs = {name: srirkit.pipelines.simulate(sc, FS, LENGTH, hrirs=hrirs)
                  for name, sc in scenes.items()}
        simulate_s = time.perf_counter() - start
    return Setup(hrirs, conditions, scenes, inputs, simulate_s)


def timed_pass(srirkit, setup):
    """One closed-loop request: simulate (where the workload does) and score."""
    pipelines = srirkit.pipelines
    start = time.perf_counter()
    inputs = setup.inputs
    if not inputs:
        inputs = {name: pipelines.simulate(sc, FS, LENGTH, hrirs=setup.hrirs)
                  for name, sc in setup.scenes.items()}
    scored = time.perf_counter()
    result = pipelines.run_comparison(
        pipelines.ComparisonRun(inputs=inputs, conditions=setup.conditions,
                                sample_rate=FS),
        threads=1,
    )
    end = time.perf_counter()
    times = {"wall_s": end - start, "score_s": end - scored}
    if not setup.inputs:
        times["simulate_s"] = scored - start
    return result, times


class TruncationLog(warnings.catch_warnings):
    """Records TruncatedResponseWarning counts instead of showing them."""

    def __init__(self, srirkit):
        super().__init__(record=True)
        self._category = srirkit.errors.TruncatedResponseWarning
        self.count = 0

    def __enter__(self):
        self._log = super().__enter__()
        warnings.simplefilter("always", self._category)
        return self

    def __exit__(self, *exc):
        for w in self._log:
            if issubclass(w.category, self._category):
                self.count += int(str(w.message).split()[0])
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return super().__exit__(*exc)


def run_pass(srirkit, setup):
    """(record, times, truncated arrivals); record is None if the pass raised."""
    with TruncationLog(srirkit) as log:
        try:
            result, times = timed_pass(srirkit, setup)
        except Exception:
            traceback.print_exc()
            return None, None, log.count
    record = json.loads(result.to_json())
    record["brir_sha256"] = {
        f"{cond}/{scene}": hashlib.sha256(
            brir.left.samples.tobytes() + brir.right.samples.tobytes()
        ).hexdigest()
        for (cond, scene), brir in sorted(result.brirs.items())
    }
    return record, times, log.count


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _differs(got, want):
    """True when two JSON trees differ beyond the golden tolerance."""
    if isinstance(want, dict):
        return (not isinstance(got, dict) or got.keys() != want.keys()
                or any(_differs(got[k], want[k]) for k in want))
    return not _close(got, want)


def failed_pairs(record, pairs, golden, first):
    """Pairs whose outputs are not correct.

    A pair fails when a metric is not finite, when its ITD or low-band ILD
    error against the reference exceeds the acceptance limits, when its
    BRIR differs in any byte from the first pass of the run, or (when a
    golden record applies) when its report, its scene's reference report
    or its condition's MAE/MSD leaves the golden tolerance.
    """
    if record is None:
        return set(pairs)
    bad = set()
    for cond, scene in pairs:
        key = f"{cond}/{scene}"
        report = record["conditions"][cond]["reports"][scene]
        summary = record["conditions"][cond]["summary"]
        reference = record["reference"][scene]
        values = [*report.values(), *reference.values(),
                  *summary["mae"].values(), *summary["msd"].values()]
        if not all(math.isfinite(v) for v in values):
            bad.add((cond, scene))
        if (abs(report["itd_us"] - reference["itd_us"]) > ITD_LIMIT_US
                or abs(report["ild_low_db"] - reference["ild_low_db"]) > ILD_LIMIT_DB):
            bad.add((cond, scene))
        if first is not None and record["brir_sha256"][key] != first["brir_sha256"][key]:
            bad.add((cond, scene))
        if golden is not None:
            want = golden["conditions"][cond]
            if (_differs(report, want["reports"][scene])
                    or _differs(reference, golden["reference"][scene])
                    or _differs(summary, want["summary"])):
                bad.add((cond, scene))
    return bad


def fidelity(srirkit, record, pairs):
    itd = ild = 0.0
    for cond, scene in pairs:
        report = record["conditions"][cond]["reports"][scene]
        reference = record["reference"][scene]
        itd = max(itd, abs(report["itd_us"] - reference["itd_us"]))
        ild = max(ild, abs(report["ild_low_db"] - reference["ild_low_db"]))
    # Each condition's MAE over its JND threshold (the quantity its jnd_pass
    # flag compares with 1); the T30 threshold is relative to the references.
    jnd = srirkit.metrics.JND
    t30 = statistics.mean(r["t30_mid_s"] for r in record["reference"].values())
    ratios = [c["summary"]["mae"][name] / (limit * (t30 if name == "t30_mid_s" else 1.0))
              for c in record["conditions"].values() for name, limit in jnd.items()]
    return {"itd_err_max_us": itd, "ild_err_max_db": ild,
            "jnd_ratio_mean": statistics.mean(ratios)}


def environment():
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden(workload, seed):
    if seed != 0:
        return None
    if not GOLDEN.is_file():
        sys.exit(f"perfbench: golden record {GOLDEN} is missing")
    return json.loads(GOLDEN.read_text())["workloads"][workload]


def measure(srirkit, args, import_s):
    """Untraced passes: the end-to-end metrics."""
    golden = load_golden(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with TruncationLog(srirkit) as log:
            setup = set_up(srirkit, args.workload, args.seed)
        setups.append((time.perf_counter() - start, setup.simulate_s, log.count))
    pairs = setup.pairs

    passes, truncated, failed, first = [], [], 0, None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        record, times, count = run_pass(srirkit, setup)
        first = first or record
        failed += len(failed_pairs(record, pairs, golden, first))
        truncated.append(count)
        if record is None:
            break
        passes.append(times)

    attempted = len(pairs) * (len(passes) + (record is None))
    metrics = {"setup_s": import_s + statistics.median(t for t, _, _ in setups)}
    if passes:
        metrics.update({k: statistics.median(p[k] for p in passes) for k in passes[0]})
        metrics["pairs_per_s"] = len(pairs) / metrics["wall_s"]
        metrics.update(fidelity(srirkit, first, pairs))
    if setup.inputs:
        # rerender simulates in set-up; its simulate_s is that set-up time.
        metrics["simulate_s"] = statistics.median(s for _, s, _ in setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["pair_pass_frac"] = 1.0 - failed / attempted
    detail = {"import_s": import_s, "setup_s": setups, "passes": passes,
              "truncated_per_pass": truncated, "first_pass": first}
    return metrics, attempted, failed, detail


def measure_traced(srirkit, args):
    """Untraced and traced passes in turn: the per-layer metrics."""
    from spans import Tracer, layer_targets

    golden = load_golden(args.workload, args.seed)
    with TruncationLog(srirkit):
        setup = set_up(srirkit, args.workload, args.seed)
    pairs = setup.pairs
    tracer = Tracer()
    targets = layer_targets(srirkit)
    walls = {False: [], True: []}
    layers, attempted, failed, first = [], 0, 0, None
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < args.seconds:
        record, times, _ = run_pass(srirkit, setup)
        first = first or record
        attempted += len(pairs)
        failed += len(failed_pairs(record, pairs, golden, first))
        if record is None:
            break
        walls[False].append(times["wall_s"])

        tracer.run_id = f"pass{len(layers)}"
        tracer.counts.clear()
        tracer.install(targets)
        try:
            with TruncationLog(srirkit) as log:
                traced_setup = set_up(srirkit, args.workload, args.seed)
            record, times, truncated = run_pass(srirkit, traced_setup)
        finally:
            tracer.uninstall()
        attempted += len(pairs)
        # byte-identity against the untraced first pass is part of the check
        failed += len(failed_pairs(record, pairs, golden, first))
        if record is None:
            break
        walls[True].append(times["wall_s"])
        layers.append(layer_metrics(tracer, truncated + log.count))

    metrics = {}
    if layers:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    detail = {"walls_s": {"untraced": walls[False], "traced": walls[True]},
              "per_pass": layers, "trace": tracer.to_json()}
    return metrics, attempted, failed, detail


def layer_metrics(tracer, truncated):
    self_s = tracer.self_times(tracer.run_id)
    counts = tracer.counts
    metrics = {name: self_s.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    metrics["pipelines.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("pipelines."))
    metrics["ism.images"] = counts["ism.images"]
    metrics["ism.truncated"] = truncated
    metrics["ism.impulse_taps"] = counts["ism.impulse_taps"]
    metrics["doa.invalid_frac"] = (counts["doa.invalid"] / counts["doa.samples"]
                                   if counts["doa.samples"] else 0.0)
    metrics["synthesis.vls_mb"] = counts["synthesis.vls_bytes"] / 1e6
    metrics["metrics.measure_calls"] = counts["metrics.measure_calls"]
    return metrics


def write_golden(srirkit, workload):
    with TruncationLog(srirkit):
        setup = set_up(srirkit, workload, 0)
    record, _, _ = run_pass(srirkit, setup)
    if record is None:
        sys.exit("perfbench: the pass raised; no golden record written")
    del record["brir_sha256"]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {
        "seed": 0, "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "workloads": {}}
    golden["workloads"][workload] = record
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote the {workload} golden record to {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    srirkit = import_srirkit()
    import_s = time.perf_counter() - T_START
    if args.write_golden:
        write_golden(srirkit, args.workload)
        return

    if args.trace:
        metrics, attempted, failed, detail = measure_traced(srirkit, args)
        units = PER_LAYER
    else:
        metrics, attempted, failed, detail = measure(srirkit, args, import_s)
        units = END_TO_END
    env = environment()
    correct = failed == 0 and metrics.keys() == units.keys()

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"args": vars(args), "environment": env, "correct": correct,
         "attempted": attempted, "failed": failed, "metrics": metrics,
         "detail": detail}, indent=1))
    for name, unit in units.items():
        print(f"{args.workload:>14} {name:<28} {metrics.get(name, float('nan')):>14.6g} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
