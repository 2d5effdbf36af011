"""Shared fixtures.

The full-quality six-scene bundle is expensive (tens of seconds) and only
built once per session, on first use by the acceptance tests.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from srirkit.errors import TruncatedResponseWarning
from srirkit.grids import fibonacci_grid
from srirkit.hrir import spherical_head_hrir_set
from srirkit.pipelines import simulate
from srirkit.presets import DEFAULT_SAMPLE_RATE, SCENE_POSITIONS, om6, scene

FS = DEFAULT_SAMPLE_RATE

# On a failing @given test, hypothesis's pytest plugin imports its patch
# writer, which pulls in libcst and a mypy_extensions DeprecationWarning.
# Under filterwarnings = ["error"] that warning stops the whole run with
# INTERNALERROR, so import the module once here with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def grid64():
    return fibonacci_grid(64)


@pytest.fixture(scope="session")
def hrirs64(grid64):
    return spherical_head_hrir_set(grid64.directions, sample_rate=FS)


def build_scene_bundle(grid_size=240, length_s=0.4, max_order=30):
    """Full-quality renderings of the six preset positions."""
    grid = fibonacci_grid(grid_size)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
    renderings = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        for name in SCENE_POSITIONS:
            sc = scene(name, receiver=om6(), max_order=max_order)
            renderings[name] = simulate(sc, FS, int(length_s * FS), hrirs=hrirs)
    return grid, hrirs, renderings


@pytest.fixture(scope="session")
def scene_bundle():
    import time

    start = time.perf_counter()
    grid, hrirs, renderings = build_scene_bundle()
    build_seconds = time.perf_counter() - start
    return grid, hrirs, renderings, build_seconds


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)
