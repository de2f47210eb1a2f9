"""The ``stencil-ivc`` commands that the help epilogs and the docs show.

Every example command in a subcommand's ``--help`` epilog must parse, and
every ``--flag`` a doc line gives a ``stencil-ivc <subcommand>`` must exist
on that subcommand — so a renamed or deleted flag cannot linger in the text
users copy from.
"""

import argparse
import re
import shlex
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` of ``parser``'s subcommands (empty if it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _epilog_commands() -> list[str]:
    """Each ``stencil-ivc ...`` example in a subcommand epilog, split on
    ``|`` and ``&&``, without the program name."""
    commands: list[str] = []

    def walk(parser: argparse.ArgumentParser) -> None:
        for sub in _subcommands(parser).values():
            for piece in re.split(r"\||&&", sub.epilog or ""):
                match = re.search(r"stencil-ivc (.+)", piece)
                if match:
                    commands.append(match.group(1).strip())
            walk(sub)

    walk(build_parser())
    return commands


def _unknown_flags(root: argparse.ArgumentParser, command: str) -> list[str]:
    """The ``--flags`` of ``command`` its subcommand does not define exactly
    (argparse would take ``--spill`` as an abbreviation of ``--spill-dir``)."""
    tokens = command.split()
    parser = root
    while tokens and tokens[0] in _subcommands(parser):
        parser = _subcommands(parser)[tokens.pop(0)]
    flags = re.findall(r"(?<![\w-])--[a-z][\w-]*", " ".join(tokens))
    return [flag for flag in flags if flag not in parser._option_string_actions]


def _doc_commands() -> list[tuple[str, str]]:
    """``(doc:line, command)`` for each ``stencil-ivc <subcommand>`` on a
    doc line, without the program name; a code span ends the command."""
    root = build_parser()
    found = []
    for doc in DOCS:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for segment in line.split("stencil-ivc ")[1:]:
                command = segment.split("`")[0].strip()
                words = command.split()
                # Prose such as "stencil-ivc entry point" names no subcommand.
                if words and words[0] in _subcommands(root):
                    found.append((f"{doc.name}:{lineno}", command))
    return found


def test_every_epilog_command_parses():
    commands = _epilog_commands()
    assert len(commands) >= 12
    parser = build_parser()
    broken = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
            parses = not _unknown_flags(parser, command)
        except SystemExit:
            parses = False
        if not parses:
            broken.append(command)
    assert not broken, f"epilog examples that do not parse: {broken}"


def test_every_documented_flag_exists():
    commands = _doc_commands()
    assert len(commands) >= 40
    root = build_parser()
    unknown = [
        f"{where}: stencil-ivc {command}: {flag}"
        for where, command in commands
        for flag in _unknown_flags(root, command)
    ]
    assert not unknown, "documented flags the CLI lacks:\n" + "\n".join(unknown)
