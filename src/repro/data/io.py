"""Instance and coloring persistence.

Instances round-trip through ``.npz`` archives carrying the weight grid (for
stencil instances) or the edge list (for general graphs), plus name and
metadata.  Colorings save alongside as plain ``.npy`` start vectors — the
format the CLI's ``solve --output`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance


def save_instance(instance: IVCInstance, path) -> None:
    """Save an instance to a ``.npz`` archive."""
    path = Path(path)
    payload = {
        "name": np.array(instance.name),
        "metadata": np.array(json.dumps(instance.metadata, default=str)),
    }
    if instance.geometry is not None:
        payload["weight_grid"] = instance.weight_grid()
    else:
        payload["weights"] = instance.weights
        payload["edges"] = instance.graph.edges()
        payload["num_vertices"] = np.array(instance.num_vertices)
    np.savez_compressed(path, **payload)


def load_instance(path) -> IVCInstance:
    """Load an instance saved by :func:`save_instance`."""
    with np.load(Path(path), allow_pickle=False) as data:
        name = str(data["name"])
        metadata = json.loads(str(data["metadata"]))
        if "weight_grid" in data:
            return IVCInstance.from_grid(data["weight_grid"], name=name, metadata=metadata)
        instance = IVCInstance.from_edges(
            int(data["num_vertices"]),
            [tuple(e) for e in data["edges"]],
            data["weights"],
            name=name,
        )
        instance.metadata.update(metadata)
        return instance


def save_coloring(coloring: Coloring, path) -> None:
    """Save a coloring's start vector (grid-shaped for stencil instances)."""
    if coloring.instance.geometry is not None:
        np.save(Path(path), coloring.as_grid())
    else:
        np.save(Path(path), coloring.starts)


def load_coloring(instance: IVCInstance, path, algorithm: str = "loaded") -> Coloring:
    """Load a start vector saved by :func:`save_coloring` for ``instance``."""
    starts = np.load(Path(path))
    return Coloring(instance=instance, starts=starts.ravel(), algorithm=algorithm)
