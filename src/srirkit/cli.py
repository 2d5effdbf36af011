"""Command-line front end.

Commands (all driven by a JSON config):

- ``simulate``: render a scene's SRIR, FOA, and reference BRIR plus an
  image list CSV and a checksum manifest.
- ``render``: run system conditions on a scene or imported signals, one
  BRIR per condition (``--dump-intermediates`` adds trajectory/field CSVs
  and loudspeaker-signal WAVs).
- ``compare``: score system BRIRs against a reference (JSON + CSV reports).
- ``metrics``: metric report for a single BRIR.
- ``ess``: generate an exponential sweep pair or deconvolve a recording.

Exit codes: 0 success, 1 runtime failure, 2 configuration error. Outputs
are byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import wavio
from .arrays import builtin_array
from .doa import DoaTrajectory
from .errors import ConfigurationError
from .grids import fibonacci_grid, load_grid_csv, save_grid_csv
from .hrir import load_hrir_set, spherical_head_hrir_set
from .ism import Scene, scene_from_json, scene_to_json_dict
from .metrics import MetricReport, error_summary_paired, measure_brir
from .pipelines import (
    AnalysisInput,
    SystemCondition,
    ordered_map,
    run_condition,
    simulate,
    validate_condition_inputs,
)
from .presets import DEFAULT_GRID_SIZE, DEFAULT_SAMPLE_RATE, scene as preset_scene
from .signals import BinauralIr, FoaSignal, MonoIr, MultichannelIr
from .sweep import deconvolve_ess, generate_ess
from .synthesis import SampleAssignment


def _check_keys(cfg: dict, where: str, required: set, optional: set = frozenset()) -> None:
    unknown = set(cfg) - required - set(optional)
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")


def _existing(path_str: str, where: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise ConfigurationError(f"{where}: file not found: {path}")
    return path


def _write_manifest(out_dir: Path, command: str, seed: int, files: list) -> Path:
    entries = {}
    for f in sorted(files):
        digest = hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        entries[f] = digest
    manifest = {"command": command, "seed": seed, "outputs": entries}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_brir(path, where: str) -> BinauralIr:
    data, rate = wavio.read_wav(_existing(path, where))
    if data.shape[0] != 2:
        raise ConfigurationError(f"{where}: {path} must be a stereo WAV")
    return BinauralIr(data, rate)


def _config_value(cfg: dict, key: str, cast, where: str, default=None):
    """``cast`` of ``cfg[key]``, or of ``default`` when the key is absent; a
    value the cast rejects is a ConfigurationError naming the key."""
    try:
        return cast(cfg.get(key, default))
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) else exc  # str() quotes a KeyError
        raise ConfigurationError(f"{where}: {key}: {detail}") from exc


def _json_bool(value) -> bool:
    """A JSON boolean as it is; anything else, such as the string "false", raises."""
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _json_int(value) -> int:
    """A whole number, or its string, as an int; a boolean or a fractional
    number, such as true or 2.7, raises."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"must be a whole number, got {value!r}")
    return int(value)


def _length_samples(cfg: dict, where: str, rate: float) -> int:
    """``length_s`` in samples; it must be finite and give at least one."""
    seconds = _config_value(cfg, "length_s", float, where)
    samples = seconds * rate
    if not (math.isfinite(samples) and round(samples) >= 1):
        raise ConfigurationError(
            f"{where}: length_s must be finite and give at least one sample, got {seconds}"
        )
    return int(round(samples))


def _load_scene(cfg: dict, where: str) -> tuple[Scene, float, int]:
    """The config's scene, rate and length. A ``scene_preset`` is the preset
    scene at 48 kHz and 0.4 s; on it or a ``scene_json`` file, the config's
    ``array``, ``max_order``, ``sample_rate`` and ``length_s`` override the
    scene's own values."""
    if ("scene_preset" in cfg) == ("scene_json" in cfg):
        raise ConfigurationError(f"{where}: need exactly one of scene_preset and scene_json")
    if "scene_preset" in cfg:
        sc = _config_value(cfg, "scene_preset", preset_scene, where)
        scene_rate, length = DEFAULT_SAMPLE_RATE, round(0.4 * DEFAULT_SAMPLE_RATE)
    else:
        sc, scene_rate, length = scene_from_json(_existing(cfg["scene_json"], where))
    if "array" in cfg:
        sc = replace(sc, receiver=_config_value(cfg, "array", builtin_array, where))
    if "max_order" in cfg:
        sc = replace(sc, room=_config_value(
            cfg, "max_order", lambda v: replace(sc.room, max_order=_json_int(v)), where))
    rate = float(_config_value(cfg, "sample_rate", wavio.check_sample_rate, where, scene_rate))
    if "length_s" in cfg:
        return sc, rate, _length_samples(cfg, where, rate)
    length = int(round(length * rate / scene_rate))  # the scene's duration at the new rate
    if length < 1:
        raise ConfigurationError(f"{where}: length gives no sample at {rate} Hz")
    return sc, rate, length


def _grid_and_hrirs(cfg: dict, where: str, sample_rate: float):
    if "grid_csv" in cfg and "grid_size" in cfg:
        raise ConfigurationError(f"{where}: grid_size and grid_csv exclude each other")
    if "hrir_wav" in cfg and "hrir_index" not in cfg:
        raise ConfigurationError(f"{where}: hrir_wav needs hrir_index")
    if "grid_csv" in cfg:
        grid = load_grid_csv(_existing(cfg["grid_csv"], where))
    else:
        grid = fibonacci_grid(_config_value(cfg, "grid_size", _json_int, where, DEFAULT_GRID_SIZE))
    if "hrir_index" in cfg:
        hrirs = load_hrir_set(
            _existing(cfg["hrir_index"], where), cfg.get("hrir_wav")
        )
        if hrirs.sample_rate != sample_rate:
            raise ConfigurationError(
                f"{where}: HRIR sample rate {hrirs.sample_rate} != {sample_rate}"
            )
    else:
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=sample_rate)
    return grid, hrirs


_SCENE_KEYS = {"scene_preset", "scene_json", "sample_rate", "length_s", "max_order", "array"}
_GRID_KEYS = {"grid_size", "grid_csv", "hrir_index", "hrir_wav"}


def cmd_simulate(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "simulate", set(), _SCENE_KEYS | _GRID_KEYS)
    sc, rate, length = _load_scene(cfg, "simulate")
    grid, hrirs = _grid_and_hrirs(cfg, "simulate", rate)

    rendering = simulate(sc, rate, length, hrirs=hrirs)
    wavio.write_wav(out_dir / "srir.wav", rendering.analysis_input.srir.samples, rate)
    wavio.write_wav(out_dir / "foa.wav", rendering.analysis_input.foa.samples, rate)
    wavio.write_wav(out_dir / "reference_brir.wav", rendering.reference.samples, rate)
    rendering.images.to_csv(out_dir / "images.csv")
    (out_dir / "scene.json").write_text(
        json.dumps(scene_to_json_dict(sc, rate, length), indent=2, sort_keys=True) + "\n"
    )
    files = ["srir.wav", "foa.wav", "reference_brir.wav", "images.csv", "scene.json"]
    _write_manifest(out_dir, "simulate", args.seed, files)
    print(f"simulate: wrote {len(files)} files to {out_dir}")
    return 0


#: Optional condition keys with their casts; an absent key keeps the
#: ``SystemCondition`` default.
_CONDITION_CASTS = {"window_size": _json_int, "band_low": float, "band_high": float,
                    "knn": _json_int, "tf_averaging_frames": _json_int,
                    "psi_override": lambda v: None if v is None else float(v)}


def _build_condition(entry: dict, grid, hrirs, seed: int) -> SystemCondition:
    where = f"condition {entry.get('id', '?')!r}"
    _check_keys(entry, where, {"id", "analysis", "pressure_source"}, set(_CONDITION_CASTS))
    return SystemCondition(
        id=str(entry["id"]),
        analysis=entry["analysis"],
        pressure_source=entry["pressure_source"],
        grid=grid,
        hrirs=hrirs,
        seed=seed,
        **{key: _config_value(entry, key, cast, where)
           for key, cast in _CONDITION_CASTS.items() if key in entry},
    )


def _load_analysis_input(cfg: dict, where: str) -> AnalysisInput:
    _check_keys(cfg, where, set(), {"srir_wav", "array", "foa_wav"})
    srir = geometry = foa = None
    if "srir_wav" in cfg:
        geometry = _config_value(cfg, "array", builtin_array, where, "om6")
        data, rate = wavio.read_wav(_existing(cfg["srir_wav"], where))
        srir = MultichannelIr(data, rate)
    if "foa_wav" in cfg:
        data, rate = wavio.read_wav(_existing(cfg["foa_wav"], where))
        if data.shape[0] != 4:
            raise ConfigurationError(f"{where}: FOA WAV must have 4 channels (w,x,y,z)")
        foa = FoaSignal(data, rate)
    return AnalysisInput(srir=srir, geometry=geometry, foa=foa)


def cmd_render(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "render", {"conditions"},
                _GRID_KEYS | ({"input"} if "input" in cfg else _SCENE_KEYS))
    if not cfg["conditions"]:
        raise ConfigurationError("render: conditions list is empty")

    if "input" in cfg:
        inputs = _load_analysis_input(cfg["input"], "render.input")
        rate = inputs.sample_rate
    else:
        sc, rate, length = _load_scene(cfg, "render")
        inputs = None  # simulated below, once the conditions are checked

    grid, hrirs = _grid_and_hrirs(cfg, "render", rate)
    conditions = [_build_condition(e, grid, hrirs, args.seed) for e in cfg["conditions"]]
    ids = [c.id for c in conditions]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"render: condition ids must be unique, got {ids}")
    if inputs is None:
        inputs = simulate(sc, rate, length, hrirs=hrirs).analysis_input
    for cond in conditions:
        validate_condition_inputs(inputs, cond)

    def render_one(cond):
        """Names of the files written for ``cond``, or the exception it raised."""
        try:
            result = run_condition(inputs, cond)
        except Exception as exc:  # noqa: BLE001 - enumerated below
            return exc
        names = [f"{cond.id}.wav"]
        wavio.write_wav(out_dir / names[0], result.brir.samples, rate)
        if args.dump_intermediates:
            kind = "trajectory" if isinstance(result.analysis, DoaTrajectory) else "tf_field"
            names += [f"{cond.id}_{kind}.csv", f"{cond.id}_vls.wav", f"{cond.id}_grid.csv"]
            result.analysis.to_csv(out_dir / names[1])
            vls = result.vls
            signals = vls.dense() if isinstance(vls, SampleAssignment) else vls.samples
            wavio.write_wav(out_dir / names[2], signals, rate)
            save_grid_csv(vls.grid, out_dir / names[3])
        return names

    files = []
    failures = []
    for cond, outcome in zip(conditions, ordered_map(render_one, conditions, args.threads)):
        if isinstance(outcome, Exception):
            failures.append(f"{cond.id}: {outcome}")
        else:
            files += outcome
    _write_manifest(out_dir, "render", args.seed, files)
    if failures:
        print("render: failed conditions:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"render: wrote {len(files)} files to {out_dir}")
    return 0


def _compare_rows(batch: list, where: str) -> tuple[list, list, list]:
    """Per system: its (condition, scene) name, its BRIR and the resolved
    path of its reference WAV."""
    names, systems, references = [], [], []
    for i, entry in enumerate(batch):
        _check_keys(entry, f"{where}[{i}]", {"reference_wav", "systems"}, {"scene"})
        ref = _existing(entry["reference_wav"], where).resolve()
        for sys_entry in entry["systems"]:
            _check_keys(sys_entry, f"{where}[{i}].systems", {"id", "brir_wav"})
            names.append((str(sys_entry["id"]), str(entry.get("scene", i))))
            systems.append(_read_brir(sys_entry["brir_wav"], where))
            references.append(ref)
    return names, systems, references


def cmd_compare(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "compare", set(), {"reference_wav", "systems", "batch"})
    if "batch" in cfg:
        batch = cfg["batch"]
    else:
        _check_keys(cfg, "compare", {"reference_wav", "systems"}, {"batch"})
        batch = [{"reference_wav": cfg["reference_wav"], "systems": cfg["systems"]}]
    if not batch:
        raise ConfigurationError("compare: nothing to compare")

    names, system_brirs, reference_paths = _compare_rows(batch, "compare.batch")
    if not names:
        raise ConfigurationError("compare: at least one system is required")

    # Each distinct reference file is read and measured once.
    ref_cache = {
        path: measure_brir(_read_brir(path, "compare.batch"))
        for path in dict.fromkeys(reference_paths)
    }
    sys_reports = [measure_brir(brir) for brir in system_brirs]
    ref_reports = [ref_cache[path] for path in reference_paths]

    by_condition: dict[str, list[int]] = {}
    for i, (cond_id, _) in enumerate(names):
        by_condition.setdefault(cond_id, []).append(i)

    report = {"rows": [], "pooled": {}}
    for i, (cond_id, scene_id) in enumerate(names):
        report["rows"].append({
            "condition": cond_id,
            "scene": scene_id,
            "metrics": sys_reports[i].to_dict(),
            "reference": ref_reports[i].to_dict(),
        })
    for cond_id, idxs in sorted(by_condition.items()):
        summary = error_summary_paired(
            [sys_reports[i] for i in idxs], [ref_reports[i] for i in idxs]
        )
        report["pooled"][cond_id] = json.loads(summary.to_json())

    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    metric_names = MetricReport.metric_names()
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["condition", "scene"]
            + metric_names
            + [f"err_{m}" for m in metric_names]
            + [f"jnd_pass_{m}" for m in metric_names]
        )
        for row, sys_report, ref_report in zip(report["rows"], sys_reports, ref_reports):
            # A one-pair summary: its MSD is the signed error, its flags the row's.
            pair = error_summary_paired([sys_report], [ref_report])
            writer.writerow(
                [row["condition"], row["scene"]]
                + [f"{row['metrics'][m]:.9g}" for m in metric_names]
                + [f"{pair.msd[m]:.9g}" for m in metric_names]
                + [int(pair.jnd_pass[m]) for m in metric_names]
            )
    _write_manifest(out_dir, "compare", args.seed, ["report.json", "report.csv"])
    print(f"compare: wrote report.json and report.csv to {out_dir}")
    return 0


def cmd_metrics(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "metrics", {"brir_wav"}, {"include_full_itd"})
    full_itd = _config_value(cfg, "include_full_itd", _json_bool, "metrics", False)
    brir = _read_brir(cfg["brir_wav"], "metrics")
    report = measure_brir(brir)
    payload = json.loads(report.to_json())
    if full_itd:
        from .metrics import itd as itd_metric

        payload["itd_full_us"] = itd_metric(brir, segment_s=None)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (out_dir / "metrics.json").write_text(text + "\n")
    _write_manifest(out_dir, "metrics", args.seed, ["metrics.json"])
    print(text)
    return 0


def cmd_ess(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "ess", {"mode"},
                {"sample_rate", "f_start", "f_end", "duration_s", "fade_s",
                 "recorded_wav", "inverse_wav", "trim_distortion"})
    mode = cfg["mode"]
    if mode == "generate":
        rate = float(_config_value(cfg, "sample_rate", wavio.check_sample_rate, "ess",
                                   DEFAULT_SAMPLE_RATE))
        sweep, inverse = generate_ess(
            rate,
            _config_value(cfg, "f_start", float, "ess", 20.0),
            _config_value(cfg, "f_end", float, "ess", 20000.0),
            _config_value(cfg, "duration_s", float, "ess", 20.0),
            _config_value(cfg, "fade_s", float, "ess", 0.01),
        )
        wavio.write_wav(out_dir / "sweep.wav", sweep.samples[None, :], rate)
        wavio.write_wav(out_dir / "inverse.wav", inverse.samples[None, :], rate)
        _write_manifest(out_dir, "ess", args.seed, ["sweep.wav", "inverse.wav"])
        print(f"ess: wrote sweep.wav and inverse.wav to {out_dir}")
        return 0
    if mode == "deconvolve":
        trim = _config_value(cfg, "trim_distortion", _json_bool, "ess", True)
        for key in ("recorded_wav", "inverse_wav"):
            if key not in cfg:
                raise ConfigurationError(f"ess deconvolve: missing {key}")
        rec_data, rate = wavio.read_wav(_existing(cfg["recorded_wav"], "ess"))
        inv_data, inv_rate = wavio.read_wav(_existing(cfg["inverse_wav"], "ess"))
        if inv_data.shape[0] != 1:
            raise ConfigurationError("ess: inverse_wav must be mono")
        inverse = MonoIr(inv_data[0], inv_rate)
        channels = [
            deconvolve_ess(MonoIr(ch, rate), inverse, trim).samples for ch in rec_data
        ]
        wavio.write_wav(out_dir / "ir.wav", np.stack(channels), rate)
        _write_manifest(out_dir, "ess", args.seed, ["ir.wav"])
        print(f"ess: wrote ir.wav to {out_dir}")
        return 0
    raise ConfigurationError(f"ess: unknown mode {mode!r} (generate | deconvolve)")


_COMMANDS = {
    "simulate": cmd_simulate,
    "render": cmd_render,
    "compare": cmd_compare,
    "metrics": cmd_metrics,
    "ess": cmd_ess,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srirkit",
        description="Spatial room impulse response analysis, resynthesis, and evaluation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--dump-intermediates", action="store_true",
                        help="also write trajectories and loudspeaker signals")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.exists():
            raise ConfigurationError(f"config not found: {config_path}")
        try:
            cfg = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"{config_path}: top level must be an object")
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
