"""The one ``--out`` convention for everything the repo writes to disk.

Historically every benchmark script chose its own output directory (most
dumped into untracked ``benchmarks/out``).  All artifact paths now derive
from a single root:

* ``artifact_root()`` — explicit ``--out``/argument beats the
  ``REPRO_OUT_DIR`` environment knob beats the default ``out/`` under the
  current directory;
* campaign runs live at ``<root>/campaigns/<campaign-name>/``;
* the pytest benchmark harness emits under ``<root>/benchmarks/`` and keys
  shared campaign runs by plan fingerprint under ``<root>/benchmarks/plans/``.

``slug`` is the historical ``benchmarks/out`` filename convention, kept
byte-compatible so report filenames match what the legacy scripts wrote.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.resilience import durable
from repro.runtime.config import env_str

__all__ = ["artifact_root", "campaign_dir", "bench_dir", "publish_json", "slug"]


def artifact_root(override: Optional[str | Path] = None) -> Path:
    """The artifact output root (not created until something writes).

    Precedence: explicit ``override`` > ``REPRO_OUT_DIR`` > ``out/``.
    """
    if override is not None:
        return Path(override)
    env = env_str("REPRO_OUT_DIR", "")
    return Path(env) if env else Path("out")


def campaign_dir(name: str, root: Optional[str | Path] = None) -> Path:
    """The default artifact dir for a campaign: ``<root>/campaigns/<name>``."""
    return artifact_root(root) / "campaigns" / name


def bench_dir(root: Optional[str | Path] = None) -> Path:
    """Where the pytest benchmark harness emits report files."""
    return artifact_root(root) / "benchmarks"


def slug(title: str) -> str:
    """Filename slug for a report title (legacy ``benchmarks/out`` rule)."""
    return title.lower().replace(" ", "_").replace("/", "-")


def publish_json(path: Path, text: str) -> None:
    """Replace ``path`` with the JSON document ``text`` plus a newline."""
    text += "\n"
    if not durable.publish(path, text, lambda tmp: tmp.read_text() == text):
        raise OSError(f"{path}: the written copy did not read back")
