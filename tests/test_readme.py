"""The README's library quick start runs as written, its render example's
conditions build, and it names every config and scene-file key the CLI
takes."""

import ast
import json
import re
import warnings
from pathlib import Path

from srirkit import cli
from srirkit.errors import TruncatedResponseWarning
from srirkit.grids import fibonacci_grid
from srirkit.hrir import spherical_head_hrir_set

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    with warnings.catch_warnings():
        # max_order 30 in a 0.4 s buffer drops the latest arrivals, as in the benchmark
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        exec(compile(block, str(README), "exec"), {})
    assert "MetricReport(" in capsys.readouterr().out


def _checked_keys() -> set:
    """Every string key in a ``_check_keys`` call in ``cli.py``, past its ``where``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return {node.value
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_keys"
            for arg in call.args[2:] for node in ast.walk(arg)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_config_key_is_named():
    text = README.read_text()
    keys = {*cli._SCENE_KEYS, *cli._GRID_KEYS, *cli._CONDITION_CASTS, *_checked_keys()}
    unnamed = sorted(key for key in keys if f"`{key}`" not in text and f'"{key}":' not in text)
    assert not unnamed, f"config keys the README never names: {unnamed}"


def test_render_example_conditions_build():
    (block,) = [b for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
                if '"conditions"' in b]
    grid = fibonacci_grid(8)
    hrirs = spherical_head_hrir_set(grid.directions)
    for entry in json.loads(block)["conditions"]:
        cli._build_condition(entry, grid, hrirs, 0)


def test_scene_file_example_is_what_simulate_writes(tmp_path):
    (block,) = [b for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
                if '"receiver_origin"' in b]
    (tmp_path / "scene.json").write_text(block)
    scene = cli._load_scene({"scene_json": str(tmp_path / "scene.json")}, "README")
    assert cli._scene_text(*scene) == block
