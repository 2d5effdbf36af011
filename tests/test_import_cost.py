"""No srirkit code path imports SciPy.

Importing any SciPy package pays SciPy's shared start-up, about half a
second, which every CLI call and benchmark process would pay; its signal
package alone takes about a second. The check runs in a fresh interpreter,
because the test session itself imports SciPy for its oracles.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Every filter, correlation, convolution and triangulation the package
#: runs: a small scene simulated and scored under the four standard
#: conditions (ERB and octave bands, IACF, the broadband PIV band-pass,
#: SIRR's decorrelators), an exponential sweep generated and deconvolved,
#: then the same scene through the CLI's simulate, render and compare.
SCRIPT = """
import json
import sys
import tempfile
import warnings
from pathlib import Path

import srirkit
import srirkit.cli
from srirkit import grids, hrir, pipelines, presets, sweep
from srirkit.errors import TruncatedResponseWarning

rate = 48000.0
grid = grids.fibonacci_grid(24)
hrirs = hrir.spherical_head_hrir_set(grid.directions, sample_rate=rate)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", TruncatedResponseWarning)
    scene = presets.scene("front_left", receiver=presets.om6(), max_order=6)
    rendering = pipelines.simulate(scene, rate, int(0.15 * rate), hrirs=hrirs)
run = pipelines.ComparisonRun({"front_left": rendering},
                              presets.standard_conditions(grid, hrirs))
assert len(pipelines.run_comparison(run).summaries) == 4
ess, inverse = sweep.generate_ess(rate, 50.0, 20000.0, 0.5)
sweep.deconvolve_ess(ess, inverse)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    def cli(command, cfg):
        (tmp / f"{command}.json").write_text(json.dumps(cfg))
        args = [command, "--config", str(tmp / f"{command}.json"), "--output", str(tmp / command)]
        assert srirkit.cli.main(args) == 0, command

    scene = {"scene_preset": "front_left", "length_s": 0.15, "max_order": 6, "grid_size": 24}
    conditions = [{"id": "sdm", "analysis": "piv-broadband", "pressure_source": "zeroth-order"},
                  {"id": "sirr", "analysis": "tf-piv", "pressure_source": "zeroth-order"}]
    cli("simulate", scene)
    cli("render", {**scene, "conditions": conditions})
    cli("compare", {"reference_wav": str(tmp / "simulate" / "reference_brir.wav"),
                    "systems": [{"id": c["id"], "brir_wav": str(tmp / "render" / f"{c['id']}.wav")}
                                for c in conditions]})
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_no_code_path_imports_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
