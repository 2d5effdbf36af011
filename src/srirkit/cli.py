"""Command-line front end.

Commands (all driven by a JSON config):

- ``simulate``: render a scene's SRIR, FOA, and reference BRIR plus an
  image list CSV, a ``scene.json`` scene file and a checksum manifest.
  Only this module reads and writes scene files; a value in a
  ``scene_json`` file is read as the config value of the same name.
- ``render``: run system conditions on a scene or imported signals, one
  BRIR per condition (``--dump-intermediates`` adds trajectory/field CSVs
  and loudspeaker-signal WAVs).
- ``compare``: score system BRIRs against a reference (JSON + CSV reports).
- ``metrics``: metric report for a single BRIR.
- ``ess``: generate an exponential sweep pair or deconvolve a recording.

Exit codes: 0 success, 1 runtime failure, 2 configuration error: a config
file that cannot be read or used, or a value of the wrong JSON shape, exits
2 naming its key, as does a ``--threads`` below 1. Outputs are
byte-identical for identical config and seed.
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
from .dsp import SPEED_OF_SOUND
from .errors import ConfigurationError
from .grids import fibonacci_grid, load_grid_csv, save_grid_csv
from .hrir import interleaved_hrir_set, load_hrir_set, spherical_head_hrir_set
from .ism import Scene, ShoeboxRoom
from .metrics import JND, MetricReport, error_summary_paired, itd, measure_brir
from .pipelines import (
    AnalysisInput,
    SystemCondition,
    check_condition_ids,
    ordered_map,
    run_condition,
    score,
    simulate,
    validate_condition_inputs,
)
from .presets import DEFAULT_GRID_SIZE, DEFAULT_SAMPLE_RATE, scene as preset_scene
from .signals import BinauralIr, FoaSignal, MonoIr, MultichannelIr
from .sweep import deconvolve_ess, generate_ess


def _check_keys(cfg: dict, where: str, required: set, optional: set = frozenset()) -> None:
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{where}: must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - required - set(optional)
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")


def _write_manifest(out_dir: Path, command: str, seed: int, files: list) -> Path:
    entries = {}
    for f in sorted(files):
        digest = hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        entries[f] = digest
    manifest = {"command": command, "seed": seed, "outputs": entries}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _config_value(cfg: dict, key: str, cast, where: str, default=None):
    """``cast`` of ``cfg[key]``, or of ``default`` when the key is absent; a
    value the cast rejects, or a file it cannot read, is a ConfigurationError
    naming the key. Commands read every config value, files included, through it."""
    try:
        return cast(cfg.get(key, default))
    except (KeyError, OSError, TypeError, ValueError) as exc:
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


def _json_list(value) -> list:
    """A JSON array as it is; anything else, such as an object, raises."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list, got {value!r}")
    return value


def _json_rate(value) -> int:
    """A sample rate as a JSON number of whole hertz; a string or a boolean raises."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"must be a JSON number, got {value!r}")
    return wavio.check_sample_rate(value)


def _file_name(value) -> str:
    """A plain file name, such as "sdm-tdoa"; a path, "", "." or ".." raises."""
    if not isinstance(value, str) or value in ("", ".", "..") or Path(value).name != value:
        raise ValueError(f"must be a plain file name, got {value!r}")
    return value


def _wav(signal_type):
    """A cast reading a WAV file into ``signal_type``, which checks its channel count."""
    return lambda path: signal_type(*wavio.read_wav(path))


def _length_samples(cfg: dict, where: str, rate: float) -> int:
    """``length_s`` in samples; it must be finite and give at least one."""
    seconds = _config_value(cfg, "length_s", float, where)
    samples = seconds * rate
    if not (math.isfinite(samples) and round(samples) >= 1):
        raise ConfigurationError(
            f"{where}: length_s must be finite and give at least one sample, got {seconds}"
        )
    return int(round(samples))


def _scene_text(sc: Scene, rate: float, length: int) -> str:
    """The ``scene.json`` that ``simulate`` writes, in the form ``scene_json`` reads."""
    room = {"dimensions": sc.room.dimensions.tolist(), "max_order": sc.room.max_order,
            "reflection_coefficients": sc.room.reflection_coefficients.tolist(),
            "speed_of_sound": SPEED_OF_SOUND}
    return json.dumps({"room": room, "source": sc.source.tolist(),
                       "receiver_origin": sc.receiver_origin.tolist(),
                       "receiver": {"kind": "array", "name": sc.receiver.name},
                       "sample_rate": float(rate), "length": length},
                      indent=2, sort_keys=True) + "\n"


def _read_scene(cfg: dict, where: str) -> tuple[Scene, float, int]:
    """The scene, rate and length of the config's ``scene_json`` file. A file
    value is read as the config value of the same name; the room's
    ``speed_of_sound`` must be ``SPEED_OF_SOUND``, and a file without a
    ``receiver`` gets om6."""
    data = _config_value(cfg, "scene_json", lambda path: json.loads(Path(path).read_text()),
                         where)
    where = f"{where}: scene_json"
    _check_keys(data, where, {"room", "source", "receiver_origin"},
                {"receiver", "sample_rate", "length"})
    room, receiver = data["room"], data.get("receiver", {"kind": "array"})
    _check_keys(room, f"{where}.room", {"dimensions", "reflection_coefficients"},
                {"speed_of_sound", "max_order"})
    _check_keys(receiver, f"{where}.receiver", {"kind"}, {"name"})
    if room.get("speed_of_sound", SPEED_OF_SOUND) != SPEED_OF_SOUND:
        raise ConfigurationError(f"{where}.room: speed_of_sound must be {SPEED_OF_SOUND} m/s, "
                                 f"got {room['speed_of_sound']!r}")
    if receiver["kind"] != "array":
        raise ConfigurationError(f"{where}.receiver: kind must be 'array', "
                                 f"got {receiver['kind']!r}")
    order = _config_value(room, "max_order", _json_int, f"{where}.room", 10)
    array = _config_value(receiver, "name", builtin_array, f"{where}.receiver", "om6")
    shoebox = _config_value(data, "room", lambda r: ShoeboxRoom(
        r["dimensions"], r["reflection_coefficients"], order), where)
    try:
        sc = Scene(shoebox, data["source"], data["receiver_origin"], array)
    except ValueError as exc:  # the message names the field
        raise ConfigurationError(f"{where}: {exc}") from exc
    length = _config_value(data, "length", _json_int, where, 14400)
    if length < 1:
        raise ConfigurationError(f"{where}: length must be at least 1 sample, got {length}")
    return sc, _config_value(data, "sample_rate", _json_rate, where, DEFAULT_SAMPLE_RATE), length


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
        sc, scene_rate, length = _read_scene(cfg, where)
    if "array" in cfg:
        sc = replace(sc, receiver=_config_value(cfg, "array", builtin_array, where))
    if "max_order" in cfg:
        sc = replace(sc, room=_config_value(
            cfg, "max_order", lambda v: replace(sc.room, max_order=_json_int(v)), where))
    rate = float(_config_value(cfg, "sample_rate", _json_rate, where, scene_rate))
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
        grid = _config_value(cfg, "grid_csv", load_grid_csv, where)
    else:
        grid = fibonacci_grid(_config_value(cfg, "grid_size", _json_int, where, DEFAULT_GRID_SIZE))
    if "hrir_index" not in cfg:
        return grid, spherical_head_hrir_set(grid.directions, sample_rate=sample_rate)
    if "hrir_wav" in cfg:
        data, rate = _config_value(cfg, "hrir_wav", wavio.read_wav, where)
        hrirs = _config_value(cfg, "hrir_index",
                              lambda path: interleaved_hrir_set(path, data, rate), where)
    else:
        hrirs = _config_value(cfg, "hrir_index", load_hrir_set, where)
    if hrirs.sample_rate != sample_rate:
        raise ConfigurationError(
            f"{where}: HRIR sample rate {hrirs.sample_rate} != {sample_rate}"
        )
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
    (out_dir / "scene.json").write_text(_scene_text(sc, rate, length))
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
    where = f"condition {entry.get('id', '?')!r}" if isinstance(entry, dict) else "condition"
    _check_keys(entry, where, {"id", "analysis", "pressure_source"}, set(_CONDITION_CASTS))
    return SystemCondition(
        id=_config_value(entry, "id", _file_name, where),
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
        srir = _config_value(cfg, "srir_wav", _wav(MultichannelIr), where)
    elif "array" in cfg:
        raise ConfigurationError(f"{where}: array needs srir_wav")
    if "foa_wav" in cfg:
        foa = _config_value(cfg, "foa_wav", _wav(FoaSignal), where)
    try:
        return AnalysisInput(srir=srir, geometry=geometry, foa=foa)
    except ConfigurationError as exc:  # no input, or inputs that do not match
        raise ConfigurationError(f"{where}: {exc}") from exc


def cmd_render(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "render", {"conditions"},
                _GRID_KEYS | ({"input"} if "input" in cfg else _SCENE_KEYS))

    if "input" in cfg:
        inputs = _load_analysis_input(cfg["input"], "render.input")
        rate = inputs.sample_rate
    else:
        sc, rate, length = _load_scene(cfg, "render")
        inputs = None  # simulated below, once the conditions are checked

    grid, hrirs = _grid_and_hrirs(cfg, "render", rate)
    conditions = [_build_condition(e, grid, hrirs, args.seed)
                  for e in _config_value(cfg, "conditions", _json_list, "render")]
    check_condition_ids(conditions)
    if inputs is None:
        for cond in conditions:
            if cond.analysis == "tdoa" and cond.window_size >= length:
                raise ConfigurationError(f"{cond.id}: window_size {cond.window_size} must be "
                                         f"smaller than the render ({length} samples)")
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
            wavio.write_wav(out_dir / names[2], result.vls.rows(0, len(result.vls.grid)), rate)
            save_grid_csv(result.vls.grid, out_dir / names[3])
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


def cmd_compare(cfg: dict, out_dir: Path, args) -> int:
    if "batch" in cfg:
        _check_keys(cfg, "compare", {"batch"})
        batch = _config_value(cfg, "batch", _json_list, "compare")
    else:
        _check_keys(cfg, "compare", {"reference_wav", "systems"})
        batch = [cfg]

    systems = {}  # (condition, scene) -> system BRIR, in batch order
    reference_paths = {}  # scene -> resolved reference WAV path
    read = {}  # resolved reference WAV path -> its BRIR, so each file is read once
    for i, entry in enumerate(batch):
        where = f"compare.batch[{i}]"
        _check_keys(entry, where, {"reference_wav", "systems"}, {"scene"})
        if not _config_value(entry, "systems", _json_list, where):
            raise ConfigurationError(f"{where}: at least one system is required")
        scene = str(entry.get("scene", i))
        path = _config_value(entry, "reference_wav", lambda p: Path(p).resolve(), where)
        if reference_paths.setdefault(scene, path) != path:
            raise ConfigurationError(f"{where}: scene {scene!r} has two reference_wav "
                                     f"files, {reference_paths[scene]} and {path}")
        if path not in read:
            read[path] = _config_value(entry, "reference_wav", _wav(BinauralIr), where)
        for sys_entry in entry["systems"]:
            _check_keys(sys_entry, f"{where}.systems", {"id", "brir_wav"})
            pair = (str(sys_entry["id"]), scene)
            if pair in systems:
                raise ConfigurationError(f"{where}: system {pair[0]!r} on scene {scene!r} "
                                         "is given twice")
            systems[pair] = _config_value(sys_entry, "brir_wav", _wav(BinauralIr),
                                          f"{where}.systems")
    if not systems:
        raise ConfigurationError("compare: at least one system is required")

    result = score(systems, {scene: read[reference_paths[scene]] for _, scene in systems})
    (out_dir / "report.json").write_text(result.to_json() + "\n")
    metric_names = MetricReport.metric_names()
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["condition", "scene"]
            + metric_names
            + [f"err_{m}" for m in metric_names]
            + [f"jnd_pass_{m}" for m in metric_names]
        )
        for cond_id, scene in systems:
            sys_report = result.condition_reports[cond_id][scene]
            # A one-pair summary: its MSD is the signed error, its flags the row's.
            pair = error_summary_paired([sys_report], [result.reference_reports[scene]])
            writer.writerow(
                [cond_id, scene]
                + [f"{getattr(sys_report, m):.9g}" for m in metric_names]
                + [f"{pair.msd[m]:.9g}" for m in metric_names]
                + [int(pair.jnd_pass[m]) for m in metric_names]
            )
    _write_manifest(out_dir, "compare", args.seed, ["report.json", "report.csv"])
    print(f"compare: wrote report.json and report.csv to {out_dir}")
    return 0


def cmd_metrics(cfg: dict, out_dir: Path, args) -> int:
    _check_keys(cfg, "metrics", {"brir_wav"}, {"include_full_itd"})
    full_itd = _config_value(cfg, "include_full_itd", _json_bool, "metrics", False)
    brir = _config_value(cfg, "brir_wav", _wav(BinauralIr), "metrics")
    payload = {"metrics": measure_brir(brir).to_dict(), "jnd": JND}
    if full_itd:
        payload["itd_full_us"] = itd(brir, segment_s=None)
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
        rate = float(_config_value(cfg, "sample_rate", _json_rate, "ess", DEFAULT_SAMPLE_RATE))
        sweep_args = [_config_value(cfg, key, float, "ess", default) for key, default in
                      (("f_start", 20.0), ("f_end", 20000.0), ("duration_s", 20.0),
                       ("fade_s", 0.01))]
        try:
            sweep, inverse = generate_ess(rate, *sweep_args)
        except ValueError as exc:  # a range generate_ess rejects; the message names the keys
            raise ConfigurationError(f"ess: {exc}") from exc
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
        recorded = _config_value(cfg, "recorded_wav", _wav(MultichannelIr), "ess")
        inverse = _config_value(cfg, "inverse_wav", _wav(MultichannelIr), "ess")
        rate = recorded.sample_rate
        if inverse.channel_count != 1:
            raise ConfigurationError("ess: inverse_wav must be mono")
        if inverse.sample_rate != rate:
            raise ConfigurationError(f"ess: recorded_wav is at {rate} Hz but inverse_wav "
                                     f"at {inverse.sample_rate} Hz")
        channels = [deconvolve_ess(MonoIr(ch, rate), MonoIr(inverse.samples[0], rate),
                                   trim).samples for ch in recorded.samples]
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
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ConfigurationError(f"{args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"{args.config}: top level must be an object")
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
