"""The compiled first-fit loop's loader: cache, rebuild, races, no compiler.

The passes themselves are diffed against the reference loops elsewhere
(``test_first_fit``, ``test_wavefront``, the hypothesis suites); here the
build is: a library keyed by the source hash, published whole while
processes race the first compile, a missing compiler that leaves every
pass on the Python scan with provenance saying so, and the loop's
prefetches, recorded by a build with a probe in place of
``__builtin_prefetch``.
"""

import ctypes
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
from repro.kernels.substrate import StencilLayout
from repro.kernels.wavefront import wavefront_greedy_color
from repro.stencil.grid import moore_offsets

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
    assert "ivc_cone_walk" in native.SOURCE.read_text()


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


def test_cone_walk_rejects_arrays_it_cannot_pass():
    # Checked before the C call, as for first_fit: nothing is written.
    layout = StencilLayout.of((3, 3))
    starts = layout.pad(np.zeros(9, dtype=np.int64), native.UNCOLORED)
    weights = layout.pad(np.ones(9, dtype=np.int64), 0)
    centre = layout.interior[4:5]

    def walk(dirty=centre, deltas=layout.deltas, starts=starts, weights=weights, ranking=None):
        return native.cone_walk(starts, weights, dirty, deltas, layout.border, 9, ranking)

    with pytest.raises(TypeError):
        walk(starts=starts.astype(np.int32))
    with pytest.raises(TypeError):
        walk(weights=weights[:-1])
    with pytest.raises(TypeError):
        walk(ranking=(np.zeros(3, dtype=np.int64), layout.interior))
    with pytest.raises(ValueError):
        walk(starts=np.repeat(starts, 2)[::2])
    with pytest.raises(ValueError):
        walk(deltas=np.zeros(27, dtype=np.int64))
    with pytest.raises(IndexError):
        walk(dirty=np.array([len(starts)]))  # past the grid
    with pytest.raises(IndexError):
        walk(dirty=np.array([-1]))
    with pytest.raises(IndexError):
        walk(dirty=np.array([0]))  # a border cell: its ring leaves the grid
    with pytest.raises(IndexError):
        walk(dirty=layout.interior[:1], deltas=np.array([-100]))
    assert starts[layout.interior].tolist() == [0] * 9


def test_cone_walk_needs_the_compiled_library(monkeypatch):
    layout = StencilLayout.of((3, 3))
    starts = layout.pad(np.zeros(9, dtype=np.int64), native.UNCOLORED)
    weights = layout.pad(np.ones(9, dtype=np.int64), 0)
    monkeypatch.setattr(native, "_library", lambda: None)
    with pytest.raises(RuntimeError, match="compiler"):
        native.cone_walk(
            starts, weights, layout.interior[:1], layout.deltas, layout.border, 9
        )


#: Compiled in front of ``firstfit.c``: every prefetch records its address.
PROBE = """
#include <stdint.h>
int64_t ivc_probe[1 << 14];
int64_t ivc_probes;
#define __builtin_prefetch(p) (ivc_probe[ivc_probes++ & ((1 << 14) - 1)] = (int64_t)(intptr_t)(p))
"""


def _expected_rows(offsets):
    """The stencil rows as ``(first, last)`` offsets: ``offsets`` grouped by
    all but their last axis (the contiguous one), in order."""
    rows = {}
    for off in offsets:
        rows.setdefault(tuple(off[:-1]), []).append(off[-1])
    return [(prefix + (min(ks),), prefix + (max(ks),)) for prefix, ks in rows.items()]


@pytest.mark.parametrize("half", [False, True], ids=["full", "earlier"])
@pytest.mark.parametrize(
    "shape", [(6, 7), (1, 30), (20, 1), (4, 1), (3, 4, 5), (1, 1, 20), (18, 1, 1)]
)
def test_prefetch_reads_the_stencil_rows_ahead(tmp_path, shape, half):
    # Every prefetch of the pass at cell ``i`` lands on the first and last
    # cell of each stencil row of cell ``i + 16``, in ``starts`` and
    # ``weights``, so none leaves the range the bounds check covers.
    _needs_compiler(tmp_path)
    probe = tmp_path / "probe.h"
    probe.write_text(PROBE)
    lib = ctypes.CDLL(str(native.library_path(
        cache_dir=tmp_path / "cache", compiler=[*COMPILER, "-include", str(probe)],
    )))
    layout = StencilLayout.of(shape)
    offsets = np.asarray(moore_offsets(len(shape)))
    strides = np.cumprod((1,) + layout.padded[:0:-1])[::-1]
    if half:
        offsets = offsets[np.isin(offsets @ strides, layout.earlier_deltas)]
    deltas = offsets @ strides
    rows = [
        (int(np.dot(first, strides)), int(np.dot(last, strides)))
        for first, last in _expected_rows([tuple(o) for o in offsets.tolist()])
    ]
    n = int(np.prod(shape))
    rng = np.random.default_rng(n)
    weights = layout.pad(rng.integers(0, 9, size=n), 0)
    starts = layout.pad(np.full(n, native.UNCOLORED), native.UNCOLORED)
    cells = layout.interior[rng.permutation(n)]
    counter = ctypes.c_int64.in_dll(lib, "ivc_probes")
    counter.value = 0
    lib.ivc_first_fit(
        ctypes.c_void_p(starts.ctypes.data), ctypes.c_void_p(weights.ctypes.data),
        ctypes.c_void_p(cells.ctypes.data), ctypes.c_int64(n),
        ctypes.c_void_p(deltas.ctypes.data), ctypes.c_int64(len(deltas)),
    )
    per_cell = 4 * len(rows)
    assert counter.value == per_cell * max(n - 16, 0)
    addresses = np.ctypeslib.as_array(
        (ctypes.c_int64 * (1 << 14)).in_dll(lib, "ivc_probe")
    )[: counter.value]
    base = {"starts": starts.ctypes.data, "weights": weights.ctypes.data}
    for i in range(n - 16):
        a = int(cells[i + 16])
        got = sorted(
            (name, (int(x) - at) // 8)
            for x in addresses[i * per_cell : (i + 1) * per_cell]
            for name, at in base.items()
            if 0 <= int(x) - at < 8 * len(starts)
        )
        want = sorted(
            (name, a + off) for name in base for row in rows for off in row
        )
        assert got == want, i
    # The probed build places cells exactly as the shipped one.
    again = layout.pad(np.full(n, native.UNCOLORED), native.UNCOLORED)
    native.first_fit(again, weights, cells, deltas)
    assert np.array_equal(again, starts)
