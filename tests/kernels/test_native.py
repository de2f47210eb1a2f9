"""The compiled first-fit loop's loader: cache, rebuild, races, no compiler.

The passes themselves are diffed against the reference loops elsewhere
(``test_first_fit``, ``test_wavefront``, the hypothesis suites); here the
build is: a library keyed by the source hash, published whole while
processes race the first compile, and a missing compiler that leaves every
pass on the Python scan with provenance saying so.
"""

import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.core.greedy_engine import greedy_color
from repro.core.orderings import random_order
from repro.core.problem import IVCInstance
from repro.kernels import native
from repro.kernels.wavefront import wavefront_greedy_color

#: The compiler Python was built with, ignoring any ``CC`` override (the
#: no-compiler CI step sets ``CC=false``).
COMPILER = shlex.split(sysconfig.get_config_var("CC") or "cc")

SRC = str(Path(repro.__file__).resolve().parents[1])


def _needs_compiler(tmp_path):
    if native.library_path(cache_dir=tmp_path / "probe", compiler=COMPILER) is None:
        pytest.skip("no working C compiler")


def test_source_is_package_data():
    assert native.SOURCE.is_file()
    assert "ivc_first_fit" in native.SOURCE.read_text()


def test_library_is_cached_by_source_hash(tmp_path):
    _needs_compiler(tmp_path)
    cache = tmp_path / "cache"
    source = tmp_path / "firstfit.c"
    source.write_bytes(native.SOURCE.read_bytes())
    first = native.library_path(source, cache, COMPILER)
    assert first is not None and first.parent == cache
    mtime = first.stat().st_mtime_ns
    assert native.library_path(source, cache, COMPILER) == first
    assert first.stat().st_mtime_ns == mtime  # reused, not rebuilt
    source.write_bytes(native.SOURCE.read_bytes() + b"\n/* changed */\n")
    second = native.library_path(source, cache, COMPILER)
    assert second is not None and second != first
    assert sorted(p.name for p in cache.iterdir()) == sorted([first.name, second.name])


def test_processes_racing_the_first_compile_share_one_library(tmp_path):
    _needs_compiler(tmp_path)
    cache = tmp_path / "cache"
    script = (
        "import sys; from pathlib import Path; from repro.kernels import native; "
        "lib = native.library_path(cache_dir=Path(sys.argv[1]), compiler=sys.argv[2:]); "
        "import ctypes; ctypes.CDLL(str(lib)).ivc_first_fit; print(lib)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(cache), *COMPILER],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    # Only the published library is left: no temporary file survives.
    assert [p.name for p in cache.iterdir()] == [Path(paths.pop()).name]


def test_no_compiler_falls_back_to_the_reference_scan(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "false")
    assert native.library_path(cache_dir=tmp_path) is None
    assert list(tmp_path.iterdir()) == []  # the failed build left nothing
    native._library.cache_clear()
    try:
        assert native.path() == "reference"
        weights = np.random.default_rng(3).integers(0, 20, size=(17, 9))
        inst = IVCInstance.from_grid_2d(weights)
        order = random_order(inst, seed=2)
        got = wavefront_greedy_color(inst, order)
        assert np.array_equal(got, greedy_color(inst, order, fast=False).starts)
        result = api.color(weights, "GLF", runtime="kernels")
        assert result.provenance["fast"] is True
        assert result.provenance["first_fit"] == "reference"
    finally:
        monkeypatch.undo()
        native._library.cache_clear()


def test_provenance_names_the_loop_that_ran():
    weights = np.random.default_rng(4).integers(0, 20, size=(20, 20))
    kernel = api.color(weights, "GZO", runtime="kernels")
    assert kernel.provenance["first_fit"] == native.path()
    reference = api.color(weights, "GZO", runtime="reference")
    assert reference.provenance["first_fit"] == "reference"


def test_first_fit_rejects_arrays_it_cannot_pass():
    starts = np.full(4, -1, dtype=np.int64)
    weights = np.ones(4, dtype=np.int64)
    cells = np.array([1])
    with pytest.raises(TypeError):
        native.first_fit(starts.astype(np.int32), weights, cells, np.array([-1]))
    with pytest.raises(ValueError):
        native.first_fit(starts[::2], weights[::2], cells, np.array([-1]))
    with pytest.raises(ValueError):
        native.first_fit(starts, weights, cells, np.zeros(27, dtype=np.int64))
    with pytest.raises(ValueError):
        native.first_fit(starts, weights[:3], cells, np.array([-1]))
    with pytest.raises(IndexError):
        native.first_fit(starts, weights, cells, np.array([-2]))
    with pytest.raises(IndexError):
        native.first_fit(starts, weights, np.array([3]), np.array([1]))
    assert starts.tolist() == [-1] * 4  # nothing was written
