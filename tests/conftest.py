"""Shared fixtures.

The full-quality six-scene bundle is expensive (tens of seconds) and only
built once per session, on first use by the acceptance tests.
"""

from __future__ import annotations

import os
import platform
import sys
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


#: CPU flags that each OpenBLAS kernel a test forces needs.
_BLAS_KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Nehalem": {"sse4_2"}}


def _require_blas_kernel(coretype):
    """Skip unless numpy's BLAS is a DYNAMIC_ARCH OpenBLAS on an x86-64 CPU
    that can run ``coretype``'s kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS build")
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core types are x86-64 kernels")
    try:
        with open("/proc/cpuinfo") as info:
            flags = next(line for line in info if line.startswith("flags")).split()
    except (OSError, StopIteration):
        pytest.skip("no CPU flags to check the kernel against")
    if not _BLAS_KERNEL_FLAGS[coretype] <= set(flags):
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernel")


@pytest.fixture(scope="session")
def blas_env():
    """``env(threads, coretype=None)``: the environment of a child Python
    that imports this checkout with ``threads`` BLAS threads, on OpenBLAS's
    ``coretype`` kernel if one is named (skipping where it cannot run)."""
    def env(threads, coretype=None):
        child = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                 "OMP_NUM_THREADS": str(threads), "PYTHONPATH": os.pathsep.join(sys.path)}
        if coretype is not None:
            _require_blas_kernel(coretype)
            child["OPENBLAS_CORETYPE"] = coretype
        return child
    return env


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
