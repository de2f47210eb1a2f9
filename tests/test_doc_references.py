"""Every repo path the top-level docs name exists.

Scans ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md`` for
``BENCH_*.json``, ``tools/*.py``, ``campaigns/*.toml``, ``benchmarks/**/*.py``
and ``src/repro/**/*.{py,c}`` references.  Brace groups expand like a shell's
(``crossover_{2d,3d}`` names two files); a reference holding ``*`` must match
at least one file.  A change that deletes a file must drop the docs' mentions
of it in the same change.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = [REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((REPO_ROOT / "docs").glob("*.md"))

_CHARS = r"[\w{},*/.-]*?"
REFERENCE = re.compile(
    r"(?<![\w/.-])(?:"
    rf"BENCH_{_CHARS}\.json|tools/{_CHARS}\.py|campaigns/{_CHARS}\.toml"
    rf"|benchmarks/{_CHARS}\.py|src/repro/{_CHARS}\.(?:py|c)"
    r")(?!\w)"
)


def expand_braces(text: str) -> list[str]:
    """Shell-style brace expansion: ``a_{x,y}.py`` → ``a_x.py``, ``a_y.py``."""
    group = re.search(r"\{([^{}]*)\}", text)
    if group is None:
        return [text]
    head, tail = text[: group.start()], text[group.end():]
    return [
        path
        for alternative in group.group(1).split(",")
        for path in expand_braces(head + alternative + tail)
    ]


def _exists(path: str) -> bool:
    if "*" in path:
        return next(REPO_ROOT.glob(path), None) is not None
    return (REPO_ROOT / path).exists()


def missing_references(text: str) -> list[str]:
    """The paths ``text`` names that are not in the repo."""
    return [
        path
        for match in REFERENCE.finditer(text)
        for path in expand_braces(match.group(0))
        if not _exists(path)
    ]


def test_scanner_finds_and_expands_references():
    assert expand_braces("campaigns/x_{2d,3d}_{on,off}.toml") == [
        "campaigns/x_2d_on.toml",
        "campaigns/x_2d_off.toml",
        "campaigns/x_3d_on.toml",
        "campaigns/x_3d_off.toml",
    ]
    text = (
        "see `tools/check_layers.py`, `src/repro/kernels/firstfit.c`, "
        "`campaigns/*.toml` and `BENCH_{tiling,gone}.json`; "
        "`benchmarks/perf/nowhere.py` and `src/repro/nowhere/*.py` are not."
    )
    assert missing_references(text) == [
        "BENCH_gone.json",
        "benchmarks/perf/nowhere.py",
        "src/repro/nowhere/*.py",
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.relative_to(REPO_ROOT).as_posix())
def test_every_named_path_exists(doc):
    assert missing_references(doc.read_text(encoding="utf-8")) == []


def _sites_in_source() -> set[str]:
    """String literals passed to ``draw(``/``inject(`` or as ``site=`` in src/."""
    sites = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            args = [node.args[0]] if name in ("draw", "inject") and node.args else []
            args += [kw.value for kw in node.keywords if kw.arg == "site"]
            sites.update(
                a.value for a in args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
    return sites


def _robustness_table_sites() -> set[str]:
    text = (REPO_ROOT / "docs" / "robustness.md").read_text(encoding="utf-8")
    table = text.split("| site | kinds |", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"^\| `([\w.]+)` \|", table, re.MULTILINE))


def _faults_docstring_sites() -> set[str]:
    from repro.resilience import faults

    table = faults.__doc__.split("Hook sites compiled into the tree", 1)[1]
    table = table.split("Activation", 1)[0]
    return set(re.findall(r"^``([\w.]+)``", table, re.MULTILINE))


@pytest.mark.parametrize("table", [_robustness_table_sites, _faults_docstring_sites],
                         ids=["docs/robustness.md", "resilience/faults.py"])
def test_fault_site_tables_match_the_source(table):
    assert table() == _sites_in_source()
