"""The compiled first-fit loop (``firstfit.c``), built on first use.

Every first-fit pass of the kernel tier runs :func:`first_fit`: one
sequential sort-and-scan per cell, over the padded grid of a
:class:`~repro.kernels.substrate.StencilLayout`, in any visit order.  The
loop is ~40 lines of C, so it is compiled from the package's own source
rather than shipped as a binary:

* **Compile.** On the first call in a process, with the C compiler Python
  was built with (``sysconfig``'s ``CC``; the ``CC`` environment variable
  overrides it).
* **Cache.** The shared library goes to ``~/.cache/repro`` (or a
  per-user directory under the temporary directory), named by a hash of
  the source, the compiler, the flags and the platform, so a changed
  source or compiler builds a new library.  It is written to a temporary file and
  published with :func:`os.replace`, so processes racing the first
  compile (forked engine or service workers) each see either no library
  or a whole one.
* **Load.** Through :mod:`ctypes`, which releases the GIL for the call.
  The handle is memoised per process.
* **No compiler.** If the compiler is missing or fails, :func:`first_fit`
  runs the same scan in Python with
  :func:`~repro.core.greedy_engine.first_fit_start`, and :func:`path`
  reports ``"reference"``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.runtime.config import env_str

__all__ = ["first_fit", "library_path", "path"]

SOURCE = Path(__file__).with_name("firstfit.c")

FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (kept literal to avoid
#: an import cycle) and the C source.
UNCOLORED = -1

#: The most neighbours the C loop holds per cell (a 27-pt stencil).
MAX_DEGREE = 26


def _compiler() -> list[str]:
    return shlex.split(env_str("CC", sysconfig.get_config_var("CC") or "cc"))


def _cache_dirs() -> list[Path]:
    return [
        Path.home() / ".cache" / "repro",
        Path(tempfile.gettempdir()) / f"repro-{os.getuid()}",
    ]


def _owned_dir(candidates: list[Path]) -> Optional[Path]:
    """The first candidate that exists (or can be made) and is ours."""
    for directory in candidates:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if directory.stat().st_uid == os.getuid() and os.access(directory, os.W_OK):
                return directory
        except OSError:
            continue
    return None


def library_path(
    source: Path = SOURCE,
    cache_dir: Optional[Path] = None,
    compiler: Optional[list[str]] = None,
) -> Optional[Path]:
    """The compiled library of ``source``, built into the cache if missing.

    Returns ``None`` when no cache directory is usable or the compiler is
    missing or fails.
    """
    compiler = _compiler() if compiler is None else compiler
    directory = _owned_dir(_cache_dirs() if cache_dir is None else [Path(cache_dir)])
    if not compiler or directory is None:
        return None
    code = source.read_bytes()
    build = " ".join([*compiler, *FLAGS, sysconfig.get_platform()]).encode()
    key = hashlib.sha256(code + b"\0" + build).hexdigest()[:16]
    target = directory / f"{source.stem}-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{source.stem}-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [*compiler, *FLAGS, "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@functools.lru_cache(maxsize=None)
def _library() -> Optional[ctypes.CDLL]:
    """The loaded loop, or ``None`` when it cannot be built (memoised)."""
    target = library_path()
    if target is None:
        return None
    try:
        lib = ctypes.CDLL(str(target))
    except OSError:
        return None
    lib.ivc_first_fit.restype = None
    lib.ivc_first_fit.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] + [
        ctypes.c_void_p, ctypes.c_int64,
    ]
    return lib


def path() -> str:
    """``"native"`` when the compiled loop runs, else ``"reference"``."""
    return "native" if _library() is not None else "reference"


def first_fit(
    starts: np.ndarray, weights: np.ndarray, cells: np.ndarray, deltas: np.ndarray
) -> None:
    """First-fit every padded id of ``cells``, in order, into ``starts``.

    ``starts`` and ``weights`` are contiguous ``int64`` arrays over the
    padded grid (border: ``UNCOLORED`` starts, zero weights); a cell's
    neighbours are ``cells[i] + deltas``.  Uncolored and zero-weight
    neighbours are ignored.  Entries outside ``cells`` are read as given.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    deltas = np.ascontiguousarray(deltas, dtype=np.int64)
    if starts.dtype != np.int64 or weights.dtype != np.int64:
        raise TypeError("first_fit needs int64 starts and weights")
    if not (starts.flags.c_contiguous and weights.flags.c_contiguous):
        raise ValueError("first_fit needs contiguous starts and weights")
    if len(deltas) > MAX_DEGREE:
        raise ValueError(f"at most {MAX_DEGREE} offsets, got {len(deltas)}")
    if len(weights) != len(starts):
        raise ValueError("first_fit needs starts and weights of one grid")
    # Every read and write must land inside the padded grid.
    if len(cells) and (
        cells.min() + min(deltas.min(initial=0), 0) < 0
        or cells.max() + max(deltas.max(initial=0), 0) >= len(starts)
    ):
        raise IndexError("first_fit cells or offsets reach outside the grid")
    lib = _library()
    if lib is None:
        _first_fit_reference(starts, weights, cells, deltas)
        return
    lib.ivc_first_fit(
        starts.ctypes.data, weights.ctypes.data, cells.ctypes.data, len(cells),
        deltas.ctypes.data, len(deltas),
    )


def _first_fit_reference(starts, weights, cells, deltas) -> None:
    """:func:`first_fit` one Python iteration per cell (no compiler)."""
    from repro.core.greedy_engine import first_fit_start

    for p in cells.tolist():
        q = p + deltas
        s, w = starts[q], weights[q]
        live = (s != UNCOLORED) & (w > 0)
        s, w = s[live], w[live]
        starts[p] = first_fit_start(s.tolist(), (s + w).tolist(), int(weights[p]))
