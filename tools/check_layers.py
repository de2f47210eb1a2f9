#!/usr/bin/env python
"""Layering lint: lower layers must not import higher ones.

The repo is layered (see ``docs/architecture.md``)::

    obs, resilience                 (0)  leaf utilities
    stencil                         (1)  geometry
    runtime                         (2)  config + execution context
    core                            (3)  problem, algorithms, registry
    data, kernels, analysis         (4)  instances, vectorized kernels, stats
    npc, stkde, apps                (5)  applications of the core
    engine, tiling, incremental     (6)  batch execution, tiler, recolorer
    service                         (7)  online serving
    experiments, reports, campaign  (8)  drivers
    api                             (9)  stable facade
    cli                             (10) entry point

A module may import ``repro.*`` packages of rank **at most its own**.  Only
*module-level* imports count: a function-scoped lazy import (the registry's
kernel bindings, ``IVCInstance.from_grid_*`` reaching the substrate cache)
expresses an optional runtime dependency, not a build-order edge, and is
exempt.

The second check asserts configuration discipline: no module outside
``repro/runtime/config.py`` and ``repro/resilience/`` may read
``os.environ`` / ``os.getenv`` — every knob flows through
:class:`repro.runtime.config.RuntimeConfig` (or its ``env_*`` helpers).

The third check keeps :mod:`repro.api` the *only* cross-subsystem composer:
outside ``src/repro/api.py`` (and the root ``__init__``), a module may
import at module level **at most one** of the heavyweight subsystems
{``engine``, ``kernels``, ``service``, ``tiling``}.  Code that needs two of
them composes through the facade — or imports lazily, which the layering
check already exempts.

The fourth check isolates the incremental recolor engine: nothing under
``src/repro/incremental/`` may import ``repro.service`` or ``repro.tiling``
**anywhere** — function bodies included, unlike the layering rule.  The
engine must stay composable below the service and the tiler; only
``repro/api.py`` wires them together.

The fifth check scopes the campaign subsystem: ``repro/campaign/`` may
compose the engine with obs/runtime/experiments (that is its job), but may
never import ``repro.service``, ``repro.tiling`` or ``repro.incremental``
— campaigns execute through the batch engine only.  And ``benchmarks/``
may not import ``repro.engine`` at all: benches reach execution through
:mod:`repro.campaign` (or :mod:`repro.experiments`), never engine
internals.

The sixth check forbids new process-global switches: a ``global``
statement may appear only in the modules of ``GLOBAL_ALLOWED`` (the
default execution context, the engine's per-worker state and the fault
plan).  Per-call decisions travel as arguments, on an
:class:`~repro.runtime.context.ExecutionContext`, or in a ``ContextVar``.

The seventh check keeps the CSR-free tiers free of the CSR: no module
under ``CSR_FREE`` (kernels, tiling, incremental) may access a ``.csr`` or
``.graph`` attribute.  Those tiers read neighbourhoods through the padded
:class:`~repro.kernels.substrate.StencilLayout`; either attribute would
build the per-shape CSR adjacency that the layout replaces.

The eighth check keeps scipy out of ``import repro``: a module-level
``scipy`` import may appear only in the modules of ``SCIPY_ALLOWED`` (the
MILP solver).  Everything else imports scipy inside the function that
uses it; ``tests/test_public_api.py`` checks the import itself.

Exit status 0 = clean, 1 = violations (printed one per line), 2 = usage.
Run from the repo root::

    python tools/check_layers.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: package (top-level under repro/) -> layer rank.  A module may only import
#: packages of rank <= its own.
LAYERS = {
    "obs": 0,
    "resilience": 0,
    "stencil": 1,
    "runtime": 2,
    "core": 3,
    "data": 4,
    "kernels": 4,
    "analysis": 4,
    "npc": 5,
    "stkde": 5,
    "apps": 5,
    "engine": 6,
    "tiling": 6,
    "incremental": 6,
    "service": 7,
    "experiments": 8,
    "reports": 8,
    "campaign": 8,
    "api": 9,
    "cli": 10,
}

#: Heavyweight subsystems: only repro/api.py may compose two or more of
#: these at module level (the cross-subsystem check).
SUBSYSTEMS = frozenset({"engine", "incremental", "kernels", "service", "tiling"})

#: Packages src/repro/incremental/ may never import — not even lazily.  The
#: recolor engine sits below the service and the tiler by construction.
INCREMENTAL_BANNED = frozenset({"service", "tiling"})

#: Packages src/repro/campaign/ may never import — not even lazily.
#: Campaigns run through the batch engine; the service tier, the tiler and
#: the incremental recolorer are out of scope by construction.
CAMPAIGN_BANNED = frozenset({"service", "tiling", "incremental"})

#: Packages benchmarks/ may never import — not even lazily.  Benches go
#: through repro.campaign / repro.experiments, not engine internals.
BENCHMARKS_BANNED = frozenset({"engine"})

#: Modules allowed to module-level import any number of subsystems.
CROSS_EXEMPT = ("src/repro/api.py",)

#: Modules allowed to touch os.environ / os.getenv (repo-relative prefixes).
ENV_ALLOWED = (
    "src/repro/runtime/config.py",
    "src/repro/resilience/",
)

#: Modules allowed a ``global`` statement (repo-relative paths): the lazily
#: built default context, the engine's per-worker state, the fault plan.
GLOBAL_ALLOWED = (
    "src/repro/runtime/context.py",
    "src/repro/engine/executor.py",
    "src/repro/resilience/faults.py",
)

#: The CSR-free tiers (repo-relative prefixes) and the attributes they may
#: not access: an instance's lazily built ``graph``, a geometry's ``csr``.
CSR_FREE = (
    "src/repro/kernels/",
    "src/repro/tiling/",
    "src/repro/incremental/",
)
CSR_ATTRS = frozenset({"csr", "graph"})

#: Modules allowed a module-level scipy import (repo-relative paths): the
#: MILP solver, which nothing on the `import repro` path imports.
SCIPY_ALLOWED = ("src/repro/core/exact/milp.py",)

#: The root package __init__ re-exports across layers by design.
ROOT_EXEMPT = ("src/repro/__init__.py",)


def _package_of(path: Path, src: Path) -> str | None:
    """The top-level repro package a file belongs to (None for the root)."""
    rel = path.relative_to(src / "repro")
    head = rel.parts[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else None


def _module_level_imports(tree: ast.Module) -> list[ast.Import | ast.ImportFrom]:
    """The import statements that run when the module is imported.

    Only module-level statements are walked — imports inside function or
    method bodies are deliberately exempt (lazy/runtime edges).  Imports
    inside module-level ``if TYPE_CHECKING:`` blocks are exempt too: they
    never execute.
    """
    out: list[ast.Import | ast.ImportFrom] = []

    def scan(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.append(node)
            elif isinstance(node, (ast.If, ast.Try)):
                # Walk conditional module-level blocks, except TYPE_CHECKING
                # guards (they never run).
                if isinstance(node, ast.If):
                    test = ast.unparse(node.test)
                    if "TYPE_CHECKING" in test:
                        continue
                    scan(node.body)
                    scan(node.orelse)
                else:
                    scan(node.body)
                    for handler in node.handlers:
                        scan(handler.body)
                    scan(node.orelse)
                    scan(node.finalbody)
    scan(tree.body)
    return out


def _imported_packages(tree: ast.Module) -> list[tuple[int, str]]:
    """Top-level repro packages imported at module level, with line numbers."""
    out: list[tuple[int, str]] = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    out.append((node.lineno, parts[1]))
        elif node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    out.append((node.lineno, parts[1]))
                else:  # `from repro import X` — X is the package
                    for alias in node.names:
                        out.append((node.lineno, alias.name))
    return out


def _imports_scipy(node: ast.Import | ast.ImportFrom) -> bool:
    """Whether an import statement loads ``scipy`` or one of its modules."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return node.level == 0 and (node.module or "").split(".")[0] == "scipy"


def _all_imported_packages(tree: ast.Module) -> list[tuple[int, str]]:
    """Top-level repro packages imported *anywhere* in the module.

    Unlike :func:`_imported_packages` this walks function and method bodies
    too — for rules where a lazy import is still a forbidden edge.
    """
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    out.append((node.lineno, parts[1]))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                parts = node.module.split(".")
                if parts[0] == "repro":
                    if len(parts) > 1:
                        out.append((node.lineno, parts[1]))
                    else:
                        for alias in node.names:
                            out.append((node.lineno, alias.name))
    return out


class _EnvVisitor(ast.NodeVisitor):
    """Collects os.environ / os.getenv uses anywhere in a module."""

    def __init__(self) -> None:
        self.uses: list[int] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv", "putenv")
        ):
            self.uses.append(node.lineno)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os" and any(
            alias.name in ("environ", "getenv") for alias in node.names
        ):
            self.uses.append(node.lineno)
        self.generic_visit(node)


def check(repo_root: Path) -> list[str]:
    src = repo_root / "src"
    violations: list[str] = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(repo_root).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=rel)
        except SyntaxError as exc:
            violations.append(f"{rel}:{exc.lineno}: does not parse: {exc.msg}")
            continue

        # --- layering -----------------------------------------------------
        imports = _imported_packages(tree)
        if rel not in ROOT_EXEMPT:
            package = _package_of(path, src)
            if package is not None:
                rank = LAYERS[package]
                for lineno, imported in imports:
                    target = LAYERS.get(imported)
                    if target is not None and target > rank:
                        violations.append(
                            f"{rel}:{lineno}: layer '{package}' (rank {rank}) "
                            f"imports higher layer '{imported}' (rank {target})"
                        )

        # --- cross-subsystem discipline -----------------------------------
        if rel not in ROOT_EXEMPT and rel not in CROSS_EXEMPT:
            package = _package_of(path, src)
            foreign = sorted(
                {pkg for _, pkg in imports if pkg in SUBSYSTEMS and pkg != package}
            )
            if len(foreign) > 1:
                violations.append(
                    f"{rel}: composes {len(foreign)} subsystems at module "
                    f"level ({', '.join(foreign)}) — only repro/api.py may; "
                    "import lazily or go through the facade"
                )

        # --- incremental isolation ---------------------------------------
        if rel.startswith("src/repro/incremental/"):
            for lineno, imported in _all_imported_packages(tree):
                if imported in INCREMENTAL_BANNED:
                    violations.append(
                        f"{rel}:{lineno}: repro.incremental imports "
                        f"'repro.{imported}' — the recolor engine depends on "
                        "kernels/core only, never service or tiling (even "
                        "lazily); compose through repro/api.py"
                    )

        # --- campaign scope ----------------------------------------------
        if rel.startswith("src/repro/campaign/"):
            for lineno, imported in _all_imported_packages(tree):
                if imported in CAMPAIGN_BANNED:
                    violations.append(
                        f"{rel}:{lineno}: repro.campaign imports "
                        f"'repro.{imported}' — campaigns execute through the "
                        "batch engine only (even lazily); compose through "
                        "repro/api.py"
                    )

        # --- environment discipline --------------------------------------
        if not any(rel.startswith(prefix) for prefix in ENV_ALLOWED):
            visitor = _EnvVisitor()
            visitor.visit(tree)
            for lineno in visitor.uses:
                violations.append(
                    f"{rel}:{lineno}: os.environ read outside "
                    "repro/runtime/config.py and repro/resilience/ — "
                    "route the knob through RuntimeConfig"
                )

        # --- no process-global switches ----------------------------------
        if rel not in GLOBAL_ALLOWED:
            for node in ast.walk(tree):
                if isinstance(node, ast.Global):
                    violations.append(
                        f"{rel}:{node.lineno}: 'global {', '.join(node.names)}' "
                        "outside the GLOBAL_ALLOWED modules — pass the "
                        "setting explicitly, on the ExecutionContext, or in "
                        "a ContextVar"
                    )

        # --- CSR-free tiers ----------------------------------------------
        if rel.startswith(CSR_FREE):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in CSR_ATTRS:
                    violations.append(
                        f"{rel}:{node.lineno}: '.{node.attr}' in a CSR-free "
                        "tier — read neighbourhoods through the StencilLayout "
                        "(kernels/substrate.py), never the CSR adjacency"
                    )

        # --- scipy stays out of `import repro` ----------------------------
        if rel not in SCIPY_ALLOWED:
            for node in _module_level_imports(tree):
                if _imports_scipy(node):
                    violations.append(
                        f"{rel}:{node.lineno}: module-level scipy import — "
                        "import it inside the function that needs it, so "
                        "`import repro` does not load scipy"
                    )

    # --- benchmark discipline --------------------------------------------
    bench_root = repo_root / "benchmarks"
    if bench_root.is_dir():
        for path in sorted(bench_root.glob("*.py")):
            rel = path.relative_to(repo_root).as_posix()
            try:
                tree = ast.parse(path.read_text(), filename=rel)
            except SyntaxError as exc:
                violations.append(f"{rel}:{exc.lineno}: does not parse: {exc.msg}")
                continue
            for lineno, imported in _all_imported_packages(tree):
                if imported in BENCHMARKS_BANNED:
                    violations.append(
                        f"{rel}:{lineno}: benchmarks import "
                        f"'repro.{imported}' — benches run through "
                        "repro.campaign (or repro.experiments), never the "
                        "engine directly"
                    )
    return violations


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print(f"usage: {argv[0]} [repo-root]  (no src/repro under {root})")
        return 2
    violations = check(root)
    for line in violations:
        print(line)
    if violations:
        print(f"\n{len(violations)} layering violation(s)")
        return 1
    print("layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
