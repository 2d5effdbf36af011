import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from srirkit import cli, pipelines, wavio
from srirkit.cli import main
from srirkit.grids import fibonacci_grid
from srirkit.hrir import spherical_head_hrir_set
from srirkit.pipelines import SystemCondition, run_condition, score
from srirkit.signals import BinauralIr

FS = 48000


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated despite an invalid config")


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _sim_config(**overrides):
    cfg = {
        "scene_preset": "front_left",
        "length_s": 0.15,
        "max_order": 6,
        "grid_size": 32,
    }
    cfg.update(overrides)
    return cfg


_SDM = {"id": "sdm-under-test", "analysis": "tdoa", "pressure_source": "channel-average"}
_SIRR = {"id": "sirr-under-test", "analysis": "tf-piv", "pressure_source": "zeroth-order"}


@pytest.fixture()
def sim_dir(tmp_path):
    cfg = _write_config(tmp_path, "sim.json", _sim_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_expected_files_and_manifest(self, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert {"srir.wav", "foa.wav", "reference_brir.wav", "images.csv",
                "scene.json", "manifest.json"} <= names
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert set(manifest["outputs"]) == names - {"manifest.json"}

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "sim.json", _sim_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--output", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1 == m2  # sha256 of every output matches
        assert (out1 / "srir.wav").read_bytes() == (out2 / "srir.wav").read_bytes()

    def test_unknown_key_rejected_with_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "sim.json", _sim_config(lenght_s=0.1))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "lenght_s" in capsys.readouterr().err

    def test_invalid_scene_exits_nonzero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "sim.json", _sim_config(scene_preset="nowhere"))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_order_zero_reference_is_delayed_scaled_hrir(self, tmp_path):
        scene_json = {
            "room": {
                "dimensions": [6.0, 5.0, 3.2],
                "reflection_coefficients": [0.8] * 6,
                "speed_of_sound": 343.0,
                "max_order": 0,
            },
            "source": [5.0, 2.5, 1.5],
            "receiver_origin": [2.5, 2.5, 1.5],
            "receiver": {"kind": "array", "name": "om6"},
            "sample_rate": FS,
            "length": 2400,
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene_json))
        cfg = _write_config(
            tmp_path, "sim.json", {"scene_json": str(scene_path), "grid_size": 64}
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0

        data, rate = wavio.read_wav(out / "reference_brir.wav")
        assert rate == FS
        # direct path: 2.5 m -> 349.85 samples, 1/r scale
        from srirkit.grids import fibonacci_grid, nearest_directions
        from srirkit.hrir import spherical_head_hrir_set

        hrirs = spherical_head_hrir_set(
            fibonacci_grid(64).directions, sample_rate=float(FS)
        )
        idx = nearest_directions(np.array([[1.0, 0.0, 0.0]]), hrirs.directions)[0][0, 0]
        dist = 2.5
        expected = np.zeros(data.shape[1])
        from srirkit.dsp import place_fractional_impulses

        train = np.zeros(2400)
        place_fractional_impulses(
            train, np.array([dist / 343.0 * FS]), np.array([1.0 / dist])
        )
        full = np.convolve(train, hrirs.left[idx])
        expected[: full.size] = full
        # float32 storage quantizes around 1e-7 absolute
        assert np.abs(data[0] - expected).max() < 1e-5

    @staticmethod
    def _scene_json(tmp_path, length=19200):
        scene = {
            "room": {"dimensions": [6.0, 5.0, 3.2], "reflection_coefficients": [0.8] * 6,
                     "max_order": 0},
            "source": [5.0, 2.5, 1.5],
            "receiver_origin": [2.5, 2.5, 1.5],
            "receiver": {"kind": "array", "name": "om6"},
            "sample_rate": 48000.0,
            "length": length,
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        return str(scene_path)

    def test_scene_json_rate_override_keeps_duration(self, tmp_path):
        cfg = _write_config(tmp_path, "sim.json", {
            "scene_json": self._scene_json(tmp_path), "sample_rate": 24000, "grid_size": 32,
        })
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        data, rate = wavio.read_wav(out / "srir.wav")
        assert rate == 24000
        assert data.shape[1] == 9600  # still 0.4 s


    @pytest.mark.parametrize(
        "key, value",
        [("length_s", "nan"), ("length_s", -1), ("length_s", 0), ("length_s", 1e-6),
         ("length", 0), ("length", "abc"), ("length", -5), ("length", 2.5)],
        ids=["nan", "-1", "0", "1e-06", "file-0", "file-abc", "file--5", "file-2.5"],
    )
    def test_scene_json_length_must_give_a_sample(self, tmp_path, capsys, monkeypatch,
                                                  key, value):
        """A config ``length_s``, or the file's ``length`` when no ``length_s``
        is given, must be a duration of at least one sample."""
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        if key == "length_s":
            cfg = {"scene_json": self._scene_json(tmp_path), "length_s": value}
        else:
            cfg = {"scene_json": self._scene_json(tmp_path, length=value)}
        cfg = _write_config(tmp_path, "sim.json", {**cfg, "grid_size": 32})
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_scene_json_rescaled_length_must_give_a_sample(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        cfg = _write_config(tmp_path, "sim.json", {
            "scene_json": self._scene_json(tmp_path, length=1), "sample_rate": 16000,
            "grid_size": 32,
        })
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", 0, -1, "nan", "48000", True],
                             ids=["abc", "0", "-1", "nan", "str-48000", "true"])
    def test_scene_json_sample_rate_checked(self, tmp_path, capsys, monkeypatch, value):
        """The file's ``sample_rate`` must be a positive whole number of Hz,
        with or without a config override."""
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        scene_json = self._scene_json(tmp_path)
        scene = json.loads(Path(scene_json).read_text())
        Path(scene_json).write_text(json.dumps({**scene, "sample_rate": value}))
        for override in ({}, {"sample_rate": 24000}):
            cfg = _write_config(tmp_path, "sim.json",
                                {"scene_json": scene_json, "grid_size": 32, **override})
            assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
            assert "sample_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("room", lambda s: s.pop("room")),
        ("source", lambda s: s.pop("source")),
        ("receiver_origin", lambda s: s.pop("receiver_origin")),
        ("room", lambda s: s["room"].pop("dimensions")),
        ("room", lambda s: s["room"].update(dimensions=[6.0, -5.0, 3.2])),
        ("room", lambda s: s["room"].update(reflection_coefficients=[0.8] * 5)),
        ("room", lambda s: s.update(room=[6.0, 5.0, 3.2])),
        ("source", lambda s: s.update(source=[7.0, 2.5, 1.5])),
        ("receiver_origin", lambda s: s.update(receiver_origin=[2.5, 2.5])),
        ("source", lambda s: s.update(source="abc")),
        ("receiver", lambda s: s["receiver"].pop("kind")),
        ("receiver", lambda s: s["receiver"].update(name="nosuch")),
        ("receiver", lambda s: s.update(receiver={"kind": "ideal-foa"})),
        # the image sources, the TDOA lag bound and the head model share one speed
        ("speed_of_sound", lambda s: s["room"].update(speed_of_sound=300.0)),
        # the message names the receiver kind it rejects
        ("'hrir'", lambda s: s.update(receiver={"kind": "hrir"})),
        # a file value is read as the config value of the same name
        ("max_order", lambda s: s["room"].update(max_order=2.5)),
        ("max_order", lambda s: s["room"].update(max_order=True)),
        # and unknown keys are rejected as they are in a config
        ("lenght", lambda s: s.update(lenght=4800)),
        ("absorption", lambda s: s["room"].update(absorption=0.2)),
        # json reads NaN and Infinity, and NaN fails every comparison
        ("dimensions", lambda s: s["room"].update(dimensions=[6.0, math.nan, 3.2])),
        ("dimensions", lambda s: s["room"].update(dimensions=[6.0, math.inf, 3.2])),
        ("reflection_coefficients",
         lambda s: s["room"].update(reflection_coefficients=[0.8] * 5 + [math.nan])),
        ("source", lambda s: s.update(source=[math.nan, 2.5, 1.5])),
    ], ids=["no-room", "no-source", "no-receiver_origin", "no-dimensions",
            "negative-dimension", "five-coefficients", "room-list", "source-outside",
            "origin-2d", "source-text", "receiver-no-kind", "receiver-unknown-array",
            "receiver-ideal-foa", "speed-of-sound-300", "receiver-kind-hrir",
            "max_order-2.5", "max_order-true", "unknown-key", "unknown-room-key",
            "nan-dimension", "infinite-dimension", "nan-coefficient", "nan-source"])
    def test_invalid_scene_file_exits_2_naming_the_field(self, tmp_path, capsys,
                                                         monkeypatch, field, edit):
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        scene_json = self._scene_json(tmp_path)
        scene = json.loads(Path(scene_json).read_text())
        edit(scene)
        Path(scene_json).write_text(json.dumps(scene))
        cfg = _write_config(tmp_path, "sim.json", {"scene_json": scene_json, "grid_size": 32})
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("override, channels, name", [
        ({}, 32, "sphere32"),
        ({"array": "om6"}, 6, "om6"),
    ], ids=["file-array", "config-array"])
    def test_scene_json_names_its_array(self, tmp_path, override, channels, name):
        scene_json = self._scene_json(tmp_path, length=4800)
        scene = json.loads(Path(scene_json).read_text())
        scene["receiver"]["name"] = "sphere32"
        Path(scene_json).write_text(json.dumps(scene))
        cfg = _write_config(tmp_path, "sim.json",
                            {"scene_json": scene_json, "grid_size": 32, **override})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert wavio.read_wav(out / "srir.wav")[0].shape[0] == channels
        assert json.loads((out / "scene.json").read_text())["receiver"]["name"] == name

    def test_scene_json_max_order_override(self, tmp_path):
        scene_json = self._scene_json(tmp_path, length=4800)
        scene = json.loads(Path(scene_json).read_text())
        scene["room"]["max_order"] = 3
        Path(scene_json).write_text(json.dumps(scene))
        cfg = _write_config(tmp_path, "sim.json",
                            {"scene_json": scene_json, "grid_size": 32, "max_order": 0})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert len((out / "images.csv").read_text().splitlines()) == 2  # header, direct
        assert json.loads((out / "scene.json").read_text())["room"]["max_order"] == 0

    def test_images_csv_export(self, tmp_path, monkeypatch):
        """images.csv holds the run's images in arrival order: the integer
        order, position and delay to %.9f and amplitude to %.9g."""
        renderings = _recording(monkeypatch, "simulate", pipelines.simulate)
        cfg = _write_config(tmp_path, "sim.json", _sim_config(max_order=1))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        header, *rows = _read_csv(out / "images.csv")
        assert header == ["order", "x", "y", "z", "delay_s", "amplitude"]
        assert len(rows) == 7  # the direct sound and six first-order images
        images = renderings[0].images
        values = np.array(rows, dtype=float)
        assert np.array_equal(values[:, 0], images.orders)
        np.testing.assert_allclose(values[:, 1:5], np.column_stack([images.positions,
                                                                    images.delays]),
                                   rtol=0, atol=5e-10)
        np.testing.assert_allclose(values[:, 5], images.amplitudes, rtol=5e-9, atol=0)

    def test_scene_json_round_trip(self, tmp_path, sim_dir):
        """The scene.json that simulate writes simulates the same outputs again."""
        cfg = _write_config(tmp_path, "again.json",
                            {"scene_json": str(sim_dir / "scene.json"), "grid_size": 32})
        out = tmp_path / "again"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert (out / "manifest.json").read_bytes() == (sim_dir / "manifest.json").read_bytes()

    def test_scene_preset_and_scene_json_together_exit_2(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        cfg = _write_config(tmp_path, "sim.json",
                            _sim_config(scene_json=self._scene_json(tmp_path)))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "scene_preset" in err and "scene_json" in err

    def test_high_sample_rate_simulates(self, tmp_path):
        cfg = _write_config(tmp_path, "sim.json",
                            _sim_config(sample_rate=192000, length_s=0.05, max_order=1))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        data, rate = wavio.read_wav(out / "srir.wav")
        assert rate == 192000 and data.shape[1] == 9600

    def test_fractional_sample_rate_exits_2_before_rendering(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_render(*args, **kwargs):
            raise AssertionError("rendered despite an invalid sample rate")

        monkeypatch.setattr(cli, "simulate", no_render)
        monkeypatch.setattr(cli, "spherical_head_hrir_set", no_render)
        cfg = _write_config(tmp_path, "sim.json", _sim_config(sample_rate=44100.5))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "44100.5" in capsys.readouterr().err


def _read_csv(path):
    """Header and rows of a CLI CSV, after checking that every line ends in CRLF."""
    text = path.read_bytes()
    assert text.count(b"\r\n") == text.count(b"\n") > 0
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _recording(monkeypatch, name, function):
    """Patch ``cli.<name>`` to call ``function``; the list it returns
    collects the results, in call order."""
    results = []

    def recorded(*args, **kwargs):
        results.append(function(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, recorded)
    return results


def _dump(tmp_path, monkeypatch, condition):
    """Render ``condition`` with --dump-intermediates: the output directory
    and the run's ``ConditionResult``."""
    results = _recording(monkeypatch, "run_condition", run_condition)
    cfg = _write_config(tmp_path, "render.json", {**_sim_config(), "conditions": [condition]})
    out = tmp_path / "r"
    assert main(["render", "--config", cfg, "--output", str(out),
                 "--dump-intermediates"]) == 0
    (result,) = results
    return out, result


def _assert_vls_dump_is_rows(tmp_path, monkeypatch, condition):
    """Rendering ``condition`` with --dump-intermediates writes its
    loudspeaker signals, ``rows()`` of the run's result as float32."""
    out, result = _dump(tmp_path, monkeypatch, condition)
    data, _ = wavio.read_wav(out / f"{condition['id']}_vls.wav")
    assert data.shape[0] == len(result.vls.grid) == 32
    assert np.array_equal(data, result.vls.rows().astype(np.float32))


class TestRender:
    def test_single_condition_produces_stereo_wav(self, tmp_path):
        cfg = _write_config(tmp_path, "render.json", {
            **_sim_config(),
            "conditions": [{
                "id": "sdm-tdoa", "analysis": "tdoa",
                "pressure_source": "channel-average",
            }],
        })
        out = tmp_path / "r"
        assert main(["render", "--config", cfg, "--output", str(out)]) == 0
        data, rate = wavio.read_wav(out / "sdm-tdoa.wav")
        assert rate == FS
        assert data.shape[0] == 2

    def test_dump_intermediates_trajectory_rows_match_pressure(self, tmp_path):
        length_s = 0.15
        cfg = _write_config(tmp_path, "render.json", {
            **_sim_config(length_s=length_s),
            "conditions": [{
                "id": "sdm-tdoa", "analysis": "tdoa",
                "pressure_source": "channel-average",
            }],
        })
        out = tmp_path / "r"
        assert main(["render", "--config", cfg, "--output", str(out),
                     "--dump-intermediates"]) == 0
        rows = (out / "sdm-tdoa_trajectory.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == int(length_s * FS)
        assert (out / "sdm-tdoa_vls.wav").exists()
        assert (out / "sdm-tdoa_grid.csv").exists()

    def test_trajectory_csv_round_trip(self, tmp_path, monkeypatch):
        """The trajectory CSV holds one row per sample: its index, the
        direction to %.9f (zeros where invalid) and the 0/1 valid flag."""
        out, result = _dump(tmp_path, monkeypatch, _SDM)
        header, *rows = _read_csv(out / "sdm-under-test_trajectory.csv")
        assert header == ["sample", "x", "y", "z", "valid"]
        traj = result.analysis
        assert len(rows) == len(traj) == int(0.15 * FS)
        values = np.array(rows, dtype=float)
        assert np.array_equal(values[:, 0], np.arange(len(traj)))
        np.testing.assert_allclose(values[:, 1:4], traj.directions, rtol=0, atol=5e-10)
        assert np.array_equal(values[:, 4], traj.valid) and 0 < traj.valid.sum() < len(traj)

    def test_tf_field_csv_round_trip(self, tmp_path, monkeypatch):
        """The TF field CSV holds one row per (frame, bin), frame-major: the
        indices, the direction and the diffuseness psi, each to %.9f."""
        out, result = _dump(tmp_path, monkeypatch, _SIRR)
        header, *rows = _read_csv(out / "sirr-under-test_tf_field.csv")
        assert header == ["frame", "bin", "x", "y", "z", "psi"]
        field = result.analysis
        frames, bins = field.psi.shape
        assert len(rows) == frames * bins and bins == 33
        values = np.array(rows, dtype=float)
        assert np.array_equal(values[:, :2], np.indices((frames, bins)).reshape(2, -1).T)
        np.testing.assert_allclose(values[:, 2:5], field.directions.reshape(-1, 3),
                                   rtol=0, atol=5e-10)
        np.testing.assert_allclose(values[:, 5], field.psi.reshape(-1), rtol=0, atol=5e-10)

    def test_dump_intermediates_sdm_signals_are_dense(self, tmp_path, monkeypatch):
        """The SDM dump holds one channel per grid direction, the dense
        form of the assignment the render used."""
        _assert_vls_dump_is_rows(tmp_path, monkeypatch, {
            "id": "sdm-tdoa", "analysis": "tdoa", "pressure_source": "channel-average",
        })

    def test_dump_intermediates_sirr_signals_are_its_rows(self, tmp_path, monkeypatch):
        """The SIRR dump holds one channel per grid direction: the direct and
        decorrelated diffuse signals the streams write out."""
        _assert_vls_dump_is_rows(tmp_path, monkeypatch, _SIRR)

    def test_dump_intermediates_renders_each_condition_once(self, tmp_path, monkeypatch):
        from srirkit import pipelines

        calls = {"sdm": 0, "sirr": 0}
        for kind in calls:
            original = getattr(pipelines, f"{kind}_synthesize")

            def counted(*args, _kind=kind, _original=original, **kwargs):
                calls[_kind] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipelines, f"{kind}_synthesize", counted)
        cfg = _write_config(tmp_path, "render.json", {
            **_sim_config(),
            "conditions": [
                {"id": "sdm-tdoa", "analysis": "tdoa",
                 "pressure_source": "channel-average"},
                {"id": "sirr", "analysis": "tf-piv",
                 "pressure_source": "zeroth-order"},
            ],
        })
        out = tmp_path / "r"
        assert main(["render", "--config", cfg, "--output", str(out),
                     "--dump-intermediates"]) == 0
        assert calls == {"sdm": 1, "sirr": 1}
        assert (out / "sdm-tdoa_trajectory.csv").exists()
        assert (out / "sirr_tf_field.csv").exists()

    def test_piv_without_foa_exits_2_naming_condition(self, tmp_path, sim_dir, capsys):
        cfg = _write_config(tmp_path, "render.json", {
            "input": {"srir_wav": str(sim_dir / "srir.wav"), "array": "om6"},
            "conditions": [{
                "id": "piv-needs-foa", "analysis": "piv-broadband",
                "pressure_source": "zeroth-order",
            }],
        })
        code = main(["render", "--config", cfg, "--output", str(tmp_path / "r")])
        assert code == 2
        assert "piv-needs-foa" in capsys.readouterr().err

    def test_input_block_rejects_scene_keys(self, tmp_path, sim_dir, capsys):
        cfg = _write_config(tmp_path, "render.json", {
            "input": {"srir_wav": str(sim_dir / "srir.wav")},
            "array": "sphere32", "scene_preset": "nowhere", "conditions": [_SDM],
        })
        assert main(["render", "--config", cfg, "--output", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "array" in err and "scene_preset" in err

    @pytest.mark.parametrize("key, channels, condition", [("srir_wav", 6, _SDM),
                                                         ("foa_wav", 4, _SIRR)])
    def test_window_longer_than_input_wavs_exits_2(self, tmp_path, capsys, rng, key, channels,
                                                   condition):
        """A 4,096-sample window on 2,400-sample input WAVs is a config error
        naming the condition and window_size, not a failed render."""
        wavio.write_wav(tmp_path / "in.wav", rng.normal(size=(channels, 2400)) * 0.1, FS)
        cfg = _write_config(tmp_path, "render.json", {
            "input": {key: str(tmp_path / "in.wav")}, "grid_size": 32,
            "conditions": [{**condition, "window_size": 4096}],
        })
        assert main(["render", "--config", cfg, "--output", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert condition["id"] in err and "window_size" in err

    def test_input_array_without_srir_exits_2(self, tmp_path, capsys):
        wavio.write_wav(tmp_path / "foa.wav", np.ones((4, 64)), FS)
        cfg = _write_config(tmp_path, "render.json", {
            "input": {"foa_wav": str(tmp_path / "foa.wav"), "array": "sphere32"},
            "grid_size": 32, "conditions": [_SIRR],
        })
        assert main(["render", "--config", cfg, "--output", str(tmp_path / "r")]) == 2
        assert "array needs srir_wav" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setattr(cli, "simulate", _no_simulation)
        cfg = _write_config(tmp_path, "render.json", {**_sim_config(), "conditions": [_SDM]})
        assert main(["render", "--config", cfg, "--output", str(tmp_path / "r"),
                     "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_do_not_change_bytes(self, tmp_path):
        conditions = [
            {"id": "a", "analysis": "tdoa", "pressure_source": "channel-average"},
            {"id": "b", "analysis": "tf-piv", "pressure_source": "zeroth-order"},
        ]
        cfg = _write_config(
            tmp_path, "render.json", {**_sim_config(), "conditions": conditions}
        )
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main(["render", "--config", cfg, "--output", str(out1),
                     "--threads", "1"]) == 0
        assert main(["render", "--config", cfg, "--output", str(out2),
                     "--threads", "4"]) == 0
        for name in ("a.wav", "b.wav", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("cond_id", ["../escaped", "a/b", "", ".", "..", [1], 5],
                             ids=["parent-path", "sub-path", "empty", "dot", "dot-dot", "list",
                                  "number"])
    def test_condition_id_must_be_a_plain_file_name(self, tmp_path, capsys, cond_id):
        cfg = _write_config(tmp_path, "render.json",
                            {**_sim_config(), "conditions": [{**_SDM, "id": cond_id}]})
        out = tmp_path / "out" / "r"
        assert main(["render", "--config", cfg, "--output", str(out)]) == 2
        assert "id:" in capsys.readouterr().err
        assert {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")} <= {
            "render.json", "out", "out/r"}


class TestCompare:
    def test_reference_against_itself_zero_error_all_jnd_pass(self, tmp_path, sim_dir):
        ref = str(sim_dir / "reference_brir.wav")
        cfg = _write_config(tmp_path, "cmp.json", {
            "reference_wav": ref,
            "systems": [{"id": "self", "brir_wav": ref}],
        })
        out = tmp_path / "c"
        assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        summary = report["conditions"]["self"]["summary"]
        assert all(v == 0.0 for v in summary["mae"].values())
        assert all(summary["jnd_pass"].values())

    def test_channel_swap_flips_itd_and_ild_signs(self, tmp_path, sim_dir):
        ref_path = sim_dir / "reference_brir.wav"
        data, rate = wavio.read_wav(ref_path)
        swapped_path = sim_dir / "swapped.wav"
        wavio.write_wav(swapped_path, data[::-1], rate)
        cfg = _write_config(tmp_path, "cmp.json", {
            "reference_wav": str(ref_path),
            "systems": [{"id": "swap", "brir_wav": str(swapped_path)}],
        })
        out = tmp_path / "c"
        assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        metrics = report["conditions"]["swap"]["reports"]["0"]
        for name in ("itd_us", "ild_low_db", "ild_high_db"):
            assert metrics[name] == pytest.approx(-report["reference"]["0"][name], abs=2.0)

    def test_batch_pooled_rows_match_recomputed_mean(self, tmp_path, sim_dir):
        ref = str(sim_dir / "reference_brir.wav")
        data, rate = wavio.read_wav(sim_dir / "reference_brir.wav")
        tweaked = sim_dir / "tweaked.wav"
        wavio.write_wav(tweaked, data * 0.9, rate)  # same metrics (gain invariant)
        batch = [
            {"scene": "s1", "reference_wav": ref,
             "systems": [{"id": "sys", "brir_wav": str(tweaked)}]},
            {"scene": "s2", "reference_wav": ref,
             "systems": [{"id": "sys", "brir_wav": ref}]},
        ]
        cfg = _write_config(tmp_path, "cmp.json", {"batch": batch})
        out = tmp_path / "c"
        assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        reports = report["conditions"]["sys"]["reports"]
        assert set(reports) == {"s1", "s2"}
        for name, value in report["conditions"]["sys"]["summary"]["mae"].items():
            per_row = [
                abs(reports[scene][name] - report["reference"][scene][name])
                for scene in reports
            ]
            assert value == pytest.approx(np.mean(per_row), abs=1e-12)

    def test_shared_reference_is_measured_once(self, tmp_path, sim_dir, monkeypatch):
        calls = []
        original = pipelines.measure_brir

        def counted(brir):
            calls.append(brir)
            return original(brir)

        monkeypatch.setattr(pipelines, "measure_brir", counted)
        ref = sim_dir / "reference_brir.wav"
        # The same file under two spellings of its path.
        spellings = [str(ref), str(sim_dir / ".." / sim_dir.name / ref.name), str(ref)]
        batch = [
            {"scene": f"s{i}", "reference_wav": path,
             "systems": [{"id": "sys", "brir_wav": str(ref)}]}
            for i, path in enumerate(spellings)
        ]
        cfg = _write_config(tmp_path, "cmp.json", {"batch": batch})
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 0
        assert len(calls) == 4  # three systems and one reference

    def test_report_json_is_the_scored_record(self, tmp_path, sim_dir):
        ref = sim_dir / "reference_brir.wav"
        data, rate = wavio.read_wav(ref)
        wavio.write_wav(sim_dir / "late.wav", np.roll(data, 3, axis=1), rate)
        wavio.write_wav(sim_dir / "swapped.wav", data[::-1], rate)
        batch = [
            {"scene": "b", "reference_wav": str(ref),
             "systems": [{"id": "late", "brir_wav": str(sim_dir / "late.wav")},
                         {"id": "swap", "brir_wav": str(sim_dir / "swapped.wav")}]},
            {"scene": "a", "reference_wav": str(ref),
             "systems": [{"id": "late", "brir_wav": str(ref)}]},
        ]
        cfg = _write_config(tmp_path, "cmp.json", {"batch": batch})
        out = tmp_path / "c"
        assert main(["compare", "--config", cfg, "--output", str(out)]) == 0

        def read(path):
            return BinauralIr(*wavio.read_wav(path))

        expected = score(
            {("late", "b"): read(sim_dir / "late.wav"),
             ("swap", "b"): read(sim_dir / "swapped.wav"), ("late", "a"): read(ref)},
            {"a": read(ref), "b": read(ref)},
        )
        assert (out / "report.json").read_text() == expected.to_json() + "\n"

    def test_duplicate_pair_exits_2_naming_it(self, tmp_path, sim_dir, capsys):
        ref = str(sim_dir / "reference_brir.wav")
        entry = {"scene": "s", "reference_wav": ref, "systems": [{"id": "sys", "brir_wav": ref}]}
        cfg = _write_config(tmp_path, "cmp.json", {"batch": [entry, entry]})
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "'sys'" in err and "scene 's'" in err

    def test_scene_with_two_references_exits_2_naming_it(self, tmp_path, sim_dir, capsys):
        ref = sim_dir / "reference_brir.wav"
        copy = sim_dir / "copy.wav"
        copy.write_bytes(ref.read_bytes())
        batch = [{"scene": "s", "reference_wav": str(path),
                  "systems": [{"id": cond, "brir_wav": str(ref)}]}
                 for cond, path in (("a", ref), ("b", copy))]
        cfg = _write_config(tmp_path, "cmp.json", {"batch": batch})
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "scene 's'" in err and "reference_wav" in err

    def test_entry_without_systems_exits_2_naming_it(self, tmp_path, sim_dir, capsys):
        ref = str(sim_dir / "reference_brir.wav")
        batch = [{"scene": "a", "reference_wav": ref, "systems": [{"id": "sys", "brir_wav": ref}]},
                 {"scene": "b", "reference_wav": ref, "systems": []}]
        cfg = _write_config(tmp_path, "cmp.json", {"batch": batch})
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 2
        assert "compare.batch[1]" in capsys.readouterr().err

    def test_scoring_failure_names_the_pair(self, tmp_path, sim_dir, capsys):
        silent = sim_dir / "silent.wav"
        wavio.write_wav(silent, np.zeros((2, 4800)), FS)
        cfg = _write_config(tmp_path, "cmp.json", {"batch": [{
            "scene": "hall", "reference_wav": str(sim_dir / "reference_brir.wav"),
            "systems": [{"id": "mute-system", "brir_wav": str(silent)}],
        }]})
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert "'mute-system'" in err and "'hall'" in err

    def test_unreadable_wav_exits_nonzero_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFgarbage")
        cfg = _write_config(tmp_path, "cmp.json", {
            "reference_wav": str(bad),
            "systems": [{"id": "x", "brir_wav": str(bad)}],
        })
        code = main(["compare", "--config", cfg, "--output", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.wav" in err and "reference_wav" in err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "cmp.json", {
            "reference_wav": str(tmp_path / "absent.wav"),
            "systems": [{"id": "x", "brir_wav": str(tmp_path / "absent.wav")}],
        })
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 2


class TestMetricsCommand:
    def test_single_brir_report(self, tmp_path, sim_dir, capsys):
        cfg = _write_config(tmp_path, "m.json", {
            "brir_wav": str(sim_dir / "reference_brir.wav")
        })
        out = tmp_path / "m"
        assert main(["metrics", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) == {"metrics", "jnd"}
        assert report["metrics"]["t30_mid_s"] > 0

    def test_full_brir_itd_variant(self, tmp_path, sim_dir):
        cfg = _write_config(tmp_path, "m.json", {
            "brir_wav": str(sim_dir / "reference_brir.wav"),
            "include_full_itd": True,
        })
        out = tmp_path / "m"
        assert main(["metrics", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert "itd_full_us" in report
        assert abs(report["itd_full_us"]) <= 1000.0


class TestEss:
    def test_generate_and_deconvolve_round_trip(self, tmp_path):
        gen_cfg = _write_config(tmp_path, "gen.json", {
            "mode": "generate", "sample_rate": FS, "f_start": 20.0,
            "f_end": 20000.0, "duration_s": 1.0, "fade_s": 0.01,
        })
        gen_out = tmp_path / "gen"
        assert main(["ess", "--config", gen_cfg, "--output", str(gen_out)]) == 0
        sweep, rate = wavio.read_wav(gen_out / "sweep.wav")
        assert rate == FS
        assert sweep.shape == (1, FS)

        dec_cfg = _write_config(tmp_path, "dec.json", {
            "mode": "deconvolve",
            "recorded_wav": str(gen_out / "sweep.wav"),
            "inverse_wav": str(gen_out / "inverse.wav"),
        })
        dec_out = tmp_path / "dec"
        assert main(["ess", "--config", dec_cfg, "--output", str(dec_out)]) == 0
        ir, _ = wavio.read_wav(dec_out / "ir.wav")
        assert int(np.argmax(np.abs(ir[0]))) == 0  # self-deconvolution delta

    @pytest.mark.parametrize("samples, rate, keys", [
        (np.ones((1, 8)), 44100, ("recorded_wav", "inverse_wav")),
        (np.full((1, 8), np.nan), FS, ("recorded_wav",)),
    ], ids=["rate-mismatch", "nan-samples"])
    def test_deconvolve_bad_recording_exits_2_naming_the_keys(self, tmp_path, capsys,
                                                              samples, rate, keys):
        wavio.write_wav(tmp_path / "rec.wav", samples, rate)
        wavio.write_wav(tmp_path / "inv.wav", np.ones((1, 8)), FS)
        cfg = _write_config(tmp_path, "e.json", {
            "mode": "deconvolve", "recorded_wav": str(tmp_path / "rec.wav"),
            "inverse_wav": str(tmp_path / "inv.wav"),
        })
        assert main(["ess", "--config", cfg, "--output", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)

    def test_unknown_mode_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, "e.json", {"mode": "explode"})
        assert main(["ess", "--config", cfg, "--output", str(tmp_path / "e")]) == 2


def test_full_workflow_simulate_render_compare(tmp_path):
    """The outputs of each command feed the next without manual edits."""
    sim_cfg = _write_config(tmp_path, "sim.json", _sim_config())
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--output", str(sim_out)]) == 0

    render_cfg = _write_config(tmp_path, "render.json", {
        **_sim_config(),
        "conditions": [
            {"id": "sdm-tdoa", "analysis": "tdoa",
             "pressure_source": "channel-average"},
            {"id": "sirr", "analysis": "tf-piv",
             "pressure_source": "zeroth-order"},
        ],
    })
    render_out = tmp_path / "render"
    assert main(["render", "--config", render_cfg, "--output", str(render_out)]) == 0

    cmp_cfg = _write_config(tmp_path, "cmp.json", {
        "batch": [{
            "scene": "front_left",
            "reference_wav": str(sim_out / "reference_brir.wav"),
            "systems": [
                {"id": "sdm-tdoa", "brir_wav": str(render_out / "sdm-tdoa.wav")},
                {"id": "sirr", "brir_wav": str(render_out / "sirr.wav")},
            ],
        }],
    })
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--config", cmp_cfg, "--output", str(cmp_out)]) == 0
    report = json.loads((cmp_out / "report.json").read_text())
    assert set(report["conditions"]) == {"sdm-tdoa", "sirr"}
    # the rendered systems track the reference within loose sanity bounds
    for cond in ("sdm-tdoa", "sirr"):
        assert report["conditions"][cond]["summary"]["mae"]["itd_us"] < 200.0
    header, *rows = _read_csv(cmp_out / "report.csv")
    assert len(rows) == 2  # one row per system


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.json"),
                 "--output", str(tmp_path)]) == 2


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--output", str(tmp_path)]) == 2


def test_config_that_is_a_directory_or_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    for config in (tmp_path, bad):
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "o")]) == 2


def test_condition_entry_defaults_come_from_the_dataclasses():
    grid = fibonacci_grid(8)
    hrirs = spherical_head_hrir_set(grid.directions)
    entry = {"id": "a", "analysis": "tdoa", "pressure_source": "channel-average"}
    assert cli._build_condition(entry, grid, hrirs, 3) == SystemCondition(
        id="a", analysis="tdoa", pressure_source="channel-average",
        grid=grid, hrirs=hrirs, seed=3,
    )
    entry = {"id": "b", "analysis": "tf-piv", "pressure_source": "zeroth-order",
             "window_size": 32.0, "tf_averaging_frames": "4", "psi_override": "0.5"}
    assert cli._build_condition(entry, grid, hrirs, 0) == SystemCondition(
        id="b", analysis="tf-piv", pressure_source="zeroth-order",
        grid=grid, hrirs=hrirs, window_size=32, tf_averaging_frames=4, psi_override=0.5,
    )


def test_every_condition_setting_is_a_config_key():
    fields = {f.name for f in dataclasses.fields(SystemCondition)}
    set_elsewhere = {"id", "analysis", "pressure_source", "grid", "hrirs", "seed"}
    assert set(cli._CONDITION_CASTS) == fields - set_elsewhere


@pytest.mark.parametrize("command, cfg, key", [
    ("simulate", _sim_config(length_s="abc"), "length_s"),
    ("simulate", _sim_config(max_order="x"), "max_order"),
    ("simulate", _sim_config(grid_size=[32]), "grid_size"),
    ("render", {**_sim_config(), "conditions": [{**_SDM, "knn": "two"}]}, "knn"),
    ("ess", {"mode": "generate", "f_start": "low"}, "f_start"),
    # a length_s that is not finite or gives no sample
    ("simulate", _sim_config(length_s="nan"), "length_s"),
    ("simulate", _sim_config(length_s=-1), "length_s"),
    ("simulate", _sim_config(length_s=0), "length_s"),
    # flags are JSON booleans; the string "false" is not false
    ("ess", {"mode": "deconvolve", "trim_distortion": "false"}, "trim_distortion"),
    ("metrics", {"brir_wav": "absent.wav", "include_full_itd": "yes"}, "include_full_itd"),
    # an unknown built-in array
    ("simulate", _sim_config(array="om7"), "array"),
    ("render", {"input": {"srir_wav": "absent.wav", "array": "om7"}, "conditions": [_SDM]},
     "array"),
    # integer keys take whole numbers only, and an order cannot be negative
    ("simulate", _sim_config(max_order=2.7), "max_order"),
    ("simulate", _sim_config(max_order=True), "max_order"),
    ("simulate", _sim_config(max_order=-1), "max_order"),
    ("render", {**_sim_config(), "conditions": [{**_SDM, "knn": 1.5}]}, "knn"),
    # the analysis decides the synthesis, so naming it is an unknown key
    ("render", {**_sim_config(), "conditions": [{**_SDM, "synthesis": "sdm"}]}, "synthesis"),
    # a sample rate is a JSON number, as it is in a scene_json file
    ("simulate", _sim_config(sample_rate="48000"), "sample_rate"),
    ("simulate", _sim_config(sample_rate=True), "sample_rate"),
    # a sweep range generate_ess rejects
    ("ess", {"mode": "generate", "duration_s": -1}, "duration_s"),
    ("ess", {"mode": "generate", "f_start": 30000}, "f_start"),
])
def test_wrong_typed_config_value_exits_2_naming_the_key(tmp_path, capsys, command, cfg,
                                                        key):
    path = _write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("conditions", [
    [{**_SDM, "knn": "two"}],
    [{**_SDM, "analysis": "music"}],
    [_SDM, _SDM],
    # values out of range
    [{**_SDM, "window_size": 4}],
    [{**_SDM, "analysis": "piv-broadband", "band_low": 500, "band_high": 100}],
    [{**_SDM, "knn": 0}],
    [{**_SIRR, "tf_averaging_frames": 0}],
    [{**_SIRR, "window_size": 100}],
    # settings the analysis does not read
    [{**_SIRR, "knn": 3}],
    [{**_SIRR, "band_low": 100}],
    [{**_SDM, "psi_override": 0.5}],
    [{**_SDM, "band_low": 100}],
    [{**_SDM, "band_high": 3000}],
    [{**_SDM, "tf_averaging_frames": 4}],
    # a band above the 24 kHz Nyquist of the 48 kHz run
    [{**_SDM, "analysis": "piv-broadband", "band_high": 30000}],
    # a TDOA window no shorter than the 7,200-sample render
    [{**_SDM, "window_size": 8192}],
    # an STFT window longer than the render
    [{**_SIRR, "window_size": 8192}],
])
def test_render_checks_conditions_before_simulating(tmp_path, capsys, monkeypatch,
                                                    conditions):
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    path = _write_config(tmp_path, "cfg.json", {**_sim_config(), "conditions": conditions})
    assert main(["render", "--config", path, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert conditions[0]["id"] in err
    assert all(key in err for key in conditions[0].keys() - _SDM.keys())  # the key at fault


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_render_seed_outside_32_bits_exits_2(tmp_path, capsys, monkeypatch, seed):
    """Seeds were masked to 32 bits, so --seed 4294967296 rendered seed 0's
    bytes under another seed in manifest.json."""
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    path = _write_config(tmp_path, "cfg.json", {**_sim_config(), "conditions": [_SIRR]})
    assert main(["render", "--config", path, "--seed", seed,
                 "--output", str(tmp_path / "o")]) == 2
    assert "seed must be an integer in [0, 4294967295]" in capsys.readouterr().err


def test_render_without_conditions_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    path = _write_config(tmp_path, "cfg.json", {**_sim_config(), "conditions": []})
    assert main(["render", "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert "at least one condition" in capsys.readouterr().err


def test_non_finite_hrir_tap_exits_2_naming_hrir_index(tmp_path, capsys, monkeypatch):
    """A float32 interleaved HRIR WAV with one NaN tap is rejected with the
    HRIRs, before anything is simulated."""
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    (tmp_path / "index.csv").write_text("0,0\n")
    taps = np.zeros((2, 8))
    taps[1, 3] = np.nan
    wavio.write_wav(tmp_path / "hrirs.wav", taps, FS)
    path = _write_config(tmp_path, "cfg.json", _sim_config(
        hrir_index=str(tmp_path / "index.csv"), hrir_wav=str(tmp_path / "hrirs.wav")))
    assert main(["simulate", "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert "hrir_index" in capsys.readouterr().err


_FIBONACCI_8 = "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in fibonacci_grid(8).directions.tolist())


@pytest.mark.parametrize("key, text", [
    ("grid_csv", "1,0,0\n0,1,0\n0,0,1\n"),
    ("grid_csv", _FIBONACCI_8 + _FIBONACCI_8.splitlines(keepends=True)[3]),
    ("grid_csv", _FIBONACCI_8 + "a,b,c\n"),
    ("grid_csv", "0,10\n90,10\n180,10\n270,10\n45,60\n0,90\n"),
    ("hrir_index", "0,0,missing.wav\n"),
    ("hrir_index", "0,0,a.wav\n90\n"),  # a row without its elevation
    ("hrir_wav", "0,0\n"),  # a valid index beside an interleaved WAV that is not there
], ids=["three-rows", "repeated-row", "not-a-number", "upper-hemisphere", "missing-wav",
        "one-column-row", "missing-hrir-wav"])
def test_bad_grid_or_hrir_file_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, key, text):
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    (tmp_path / "file.csv").write_text(text)
    if key == "hrir_wav":
        cfg = _sim_config(hrir_index=str(tmp_path / "file.csv"),
                          hrir_wav=str(tmp_path / "absent.wav"))
    else:
        cfg = _sim_config(**{key: str(tmp_path / "file.csv")})
    if key == "grid_csv":
        del cfg["grid_size"]
    path = _write_config(tmp_path, "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert f": {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "render"])
@pytest.mark.parametrize("keys, named", [
    ({"grid_csv": "absent.csv"}, ("grid_size", "grid_csv")),  # beside _sim_config's grid_size
    ({"hrir_wav": "absent.wav"}, ("hrir_wav", "hrir_index")),
])
def test_grid_and_hrir_keys_that_would_be_ignored_exit_2(tmp_path, capsys, monkeypatch,
                                                         command, keys, named):
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    cfg = _sim_config(**keys)
    if command == "render":
        cfg["conditions"] = [_SDM]
    path = _write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in named)


# In these configs "BAD" stands for the file under test, "STEREO" and "MONO"
# for valid WAVs of those channel counts, and "INDEX" for a valid two-column
# HRIR index.
_FILE_KEYS = [
    ("simulate", {"scene_json": "BAD", "grid_size": 32}, "scene_json"),
    ("render", {"input": {"srir_wav": "BAD"}, "conditions": [_SDM]}, "srir_wav"),
    ("render", {"input": {"foa_wav": "BAD"}, "conditions": [_SIRR]}, "foa_wav"),
    ("compare", {"reference_wav": "BAD", "systems": [{"id": "x", "brir_wav": "STEREO"}]},
     "reference_wav"),
    ("compare", {"reference_wav": "STEREO", "systems": [{"id": "x", "brir_wav": "BAD"}]},
     "brir_wav"),
    ("metrics", {"brir_wav": "BAD"}, "brir_wav"),
    ("ess", {"mode": "deconvolve", "recorded_wav": "BAD", "inverse_wav": "MONO"},
     "recorded_wav"),
    ("ess", {"mode": "deconvolve", "recorded_wav": "MONO", "inverse_wav": "BAD"},
     "inverse_wav"),
    ("simulate", {"scene_preset": "front_left", "grid_csv": "BAD"}, "grid_csv"),
    ("simulate", _sim_config(hrir_index="BAD"), "hrir_index"),
    ("simulate", _sim_config(hrir_index="INDEX", hrir_wav="BAD"), "hrir_wav"),
]
# Values of the wrong JSON shape, and an input block whose files do not fit.
_BAD_VALUES = [
    ("render", {**_sim_config(), "conditions": {"a": _SDM}}, "conditions"),
    ("render", {**_sim_config(), "conditions": [5]}, "condition"),
    ("render", {"input": 5, "conditions": [_SDM]}, "render.input"),
    ("compare", {"batch": {"a": 1}}, "batch"),
    ("compare", {"batch": [5]}, "compare.batch[0]"),
    ("compare", {"reference_wav": "STEREO", "systems": {"id": "x"}}, "systems"),
    ("compare", {"reference_wav": "STEREO", "systems": [5]}, "compare.batch[0].systems"),
    ("render", {"input": {"srir_wav": "STEREO"}, "conditions": [_SDM]}, "render.input"),
    ("render", {"input": {}, "conditions": [_SDM]}, "render.input"),
]


@pytest.mark.parametrize("command, cfg, key, bad", [
    pytest.param(command, cfg, key, bad, id=f"{command}-{key}-{bad}")
    for command, cfg, key in _FILE_KEYS
    for bad in ("missing", "directory", "garbage")
] + [
    pytest.param(command, cfg, key, None, id=f"value-{i}")
    for i, (command, cfg, key) in enumerate(_BAD_VALUES)
])
def test_unreadable_file_or_misshapen_value_exits_2_naming_the_key(tmp_path, capsys, monkeypatch,
                                                                   command, cfg, key, bad):
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    wavio.write_wav(tmp_path / "stereo.wav", np.ones((2, 8)), FS)
    wavio.write_wav(tmp_path / "mono.wav", np.ones((1, 8)), FS)
    (tmp_path / "index.csv").write_text("0,0\n")
    (tmp_path / "garbage").write_text("no, 1\n")  # neither a WAV, nor JSON, nor a grid
    files = {"BAD": {"missing": tmp_path / "absent", "directory": tmp_path,
                     "garbage": tmp_path / "garbage"}.get(bad),
             "STEREO": tmp_path / "stereo.wav", "MONO": tmp_path / "mono.wav",
             "INDEX": tmp_path / "index.csv"}
    text = json.dumps(cfg)
    for name, path in files.items():
        text = text.replace(f'"{name}"', json.dumps(str(path)))
    (tmp_path / "cfg.json").write_text(text)
    assert main([command, "--config", str(tmp_path / "cfg.json"),
                 "--output", str(tmp_path / "o")]) == 2
    assert f"{key}:" in capsys.readouterr().err
