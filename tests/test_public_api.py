"""API-stability tests: the documented public surface exists and works."""

import numpy as np
import pytest


class TestTopLevelExports:
    def test_documented_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The README quickstart must run verbatim."""
        import numpy as np

        from repro import ALGORITHMS, IVCInstance, color, lower_bound
        from repro.core.algorithms.registry import color_with

        weights = np.random.default_rng(0).integers(0, 50, size=(16, 16))
        instance = IVCInstance.from_grid_2d(weights)
        result = color(weights, "BDP", validate=True)
        assert result.maxcolor >= lower_bound(instance)
        coloring = color_with(instance, "BDP").check()
        assert coloring.maxcolor == result.maxcolor
        assert set(ALGORITHMS) == {"GLL", "GZO", "GLF", "GKF", "SGK", "BD", "BDP"}


class TestImportCost:
    def test_import_repro_does_not_load_scipy(self):
        """The package, the facade, the service worker and the CLI import
        without scipy (only the MILP solver and the Figure 10 fit need it,
        and they import it when called).  A fresh interpreter, because this
        test process has long since imported scipy elsewhere."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        code = (
            "import sys\n"
            "import repro, repro.api, repro.service.server, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert proc.stdout.strip() == "[]"


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.algorithms",
            "repro.core.exact",
            "repro.engine",
            "repro.stencil",
            "repro.npc",
            "repro.data",
            "repro.stkde",
            "repro.apps",
            "repro.analysis",
        ],
    )
    def test_all_exports_resolve(self, module):
        import importlib

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_py_typed_marker_present(self):
        import pathlib

        import repro

        assert (pathlib.Path(repro.__file__).parent / "py.typed").exists()
