"""No srirkit code path imports SciPy's signal package.

Importing it pulls in SciPy's stats, interpolate and optimize packages and
costs about a second, which every CLI call and benchmark process would pay.
The check runs in a fresh interpreter, because the test session itself
imports the package for its oracles.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Every filter, correlation and convolution the package runs: a small scene
#: simulated and scored under the four standard conditions (ERB and octave
#: bands, IACF, the broadband PIV band-pass, SIRR's decorrelators), then an
#: exponential sweep generated and deconvolved.
SCRIPT = """
import sys
import warnings

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
loaded = sorted(name for name in sys.modules if name.startswith("scipy.signal"))
assert not loaded, loaded
"""


def test_no_code_path_imports_scipy_signal():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
