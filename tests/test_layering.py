"""The architecture lint (tools/check_layers.py) must hold in tier-1 runs.

CI runs the script as a standalone job; this test enforces the same
constraints locally so a layering regression fails ``pytest`` immediately
instead of surfacing only on push.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_layers.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_layering_violations():
    checker = _load_checker()
    violations = checker.check(REPO_ROOT)
    assert violations == [], "\n".join(violations)


def test_script_exits_zero():
    """The CI entry point (plain `python tools/check_layers.py`) is green."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "layering: OK" in proc.stdout


def test_lint_catches_env_read(tmp_path):
    """Sanity: the lint actually flags an os.environ read in a fake tree."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import os\nX = os.environ.get('Y')\n")
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "os.environ" in violations[0]


def test_lint_catches_upward_import(tmp_path):
    """Sanity: the lint flags a module-level import of a higher layer."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("from repro.service import server\n")
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "higher layer 'service'" in violations[0]


def test_lint_exempts_function_scoped_imports(tmp_path):
    """Lazy (function-level) imports are runtime edges, not layering edges."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "ok.py").write_text(
        "def f():\n    from repro.kernels import colorings\n    return colorings\n"
    )
    assert checker.check(tmp_path) == []


def test_incremental_is_a_known_subsystem():
    """The recolor engine takes part in the cross-subsystem discipline."""
    checker = _load_checker()
    assert "incremental" in checker.LAYERS
    assert "incremental" in checker.SUBSYSTEMS
    assert checker.INCREMENTAL_BANNED == frozenset({"service", "tiling"})


def test_lint_bans_lazy_service_import_in_incremental(tmp_path):
    """Inside repro/incremental even a function-scoped service import is an
    edge — the engine must stay composable below the service layer."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "incremental"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "def f():\n    from repro.service import client\n    return client\n"
    )
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "repro.service" in violations[0]
    assert "bad.py:2" in violations[0]


def test_lint_bans_tiling_import_in_incremental(tmp_path):
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "incremental"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import repro.tiling.stitch\n")
    violations = checker.check(tmp_path)
    assert any("repro.tiling" in v for v in violations)


def test_campaign_is_a_known_layer():
    """The campaign driver sits with experiments/reports, below api/cli."""
    checker = _load_checker()
    assert checker.LAYERS["campaign"] == checker.LAYERS["experiments"]
    assert checker.LAYERS["campaign"] < checker.LAYERS["api"]
    assert checker.CAMPAIGN_BANNED == frozenset({"service", "tiling", "incremental"})


def test_lint_bans_lazy_service_import_in_campaign(tmp_path):
    """Campaigns execute through the batch engine only — even a lazy
    service/tiling/incremental import is a forbidden edge."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "campaign"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "def f():\n    from repro.service import client\n    return client\n"
    )
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "repro.service" in violations[0]


def test_lint_allows_engine_import_in_campaign(tmp_path):
    """Composing the engine with obs/runtime is the campaign's job."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "campaign"
    pkg.mkdir(parents=True)
    (pkg / "ok.py").write_text(
        "from repro.engine import run_grid\n"
        "from repro.obs.metrics import merge_snapshots\n"
        "from repro.runtime.config import RuntimeConfig\n"
    )
    assert checker.check(tmp_path) == []


def test_lint_bans_engine_import_in_benchmarks(tmp_path):
    """benchmarks/ reach execution via repro.campaign, never the engine."""
    checker = _load_checker()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "bench_bad.py").write_text(
        "def f():\n    from repro.engine import run_grid\n    return run_grid\n"
    )
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "repro.engine" in violations[0]
    assert "bench_bad.py:2" in violations[0]


def test_lint_allows_campaign_import_in_benchmarks(tmp_path):
    checker = _load_checker()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "bench_ok.py").write_text(
        "from repro.campaign import run_campaign\n"
    )
    assert checker.check(tmp_path) == []


def test_lint_allows_kernels_import_in_incremental(tmp_path):
    """kernels/core are the engine's sanctioned dependencies."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "incremental"
    pkg.mkdir(parents=True)
    (pkg / "ok.py").write_text(
        "from repro.kernels.native import cone_walk\n"
        "def f():\n    from repro.core.problem import IVCInstance\n"
        "    return IVCInstance\n"
    )
    assert checker.check(tmp_path) == []


def test_lint_catches_global_statement(tmp_path):
    """A new process-global switch (a ``global`` rebind) is flagged."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "runtime"
    pkg.mkdir(parents=True)
    (pkg / "fastpath.py").write_text(
        "_override = None\n"
        "def set_switch(value):\n    global _override\n    _override = value\n"
    )
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "global _override" in violations[0]


def test_lint_allows_global_in_allowlisted_module(tmp_path):
    """The default-context module keeps its lazily built process default."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "runtime"
    pkg.mkdir(parents=True)
    (pkg / "context.py").write_text(
        "_default = None\n"
        "def get_context():\n    global _default\n    return _default\n"
    )
    assert checker.check(tmp_path) == []


@pytest.mark.parametrize(
    "tier, source, attr",
    [
        ("kernels", "def gather(instance):\n    return instance.graph.indices\n", "graph"),
        ("tiling", "def adjacency(geometry):\n    return geometry.csr\n", "csr"),
        ("incremental", "def edges(inst):\n    return inst.graph.edges()\n", "graph"),
    ],
)
def test_lint_catches_csr_access_in_csr_free_tier(tmp_path, tier, source, attr):
    """A planted ``.csr`` / ``.graph`` read in a CSR-free tier is flagged."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / tier
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(source)
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert f"'.{attr}' in a CSR-free tier" in violations[0]


def test_lint_allows_csr_access_outside_csr_free_tiers(tmp_path):
    """Reference paths in core keep walking the CSR."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "orderings.py").write_text("def degrees(inst):\n    return inst.graph.degrees()\n")
    assert checker.check(tmp_path) == []


@pytest.mark.parametrize(
    "source",
    [
        "from scipy import stats\n",
        "import scipy.sparse as sp\n",
        "try:\n    from scipy.optimize import milp\nexcept ImportError:\n    milp = None\n",
    ],
)
def test_lint_catches_module_level_scipy_import(tmp_path, source):
    """A planted module-level scipy import outside the MILP solver is flagged."""
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "analysis"
    pkg.mkdir(parents=True)
    (pkg / "regression.py").write_text(source)
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "module-level scipy import" in violations[0]


def test_lint_allows_lazy_scipy_and_the_milp_module(tmp_path):
    """Function-scoped scipy imports, TYPE_CHECKING guards and the MILP
    solver's module-level import all pass."""
    checker = _load_checker()
    analysis = tmp_path / "src" / "repro" / "analysis"
    analysis.mkdir(parents=True)
    (analysis / "regression.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from scipy import stats\n"
        "def fit(x, y):\n    from scipy import stats\n    return stats.linregress(x, y)\n"
    )
    exact = tmp_path / "src" / "repro" / "core" / "exact"
    exact.mkdir(parents=True)
    (exact / "milp.py").write_text("from scipy.optimize import milp\n")
    assert checker.check(tmp_path) == []
