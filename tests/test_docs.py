import argparse
import re
import shlex
from pathlib import Path
from types import ModuleType

import scdmi
from scdmi.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    entry = [b for b in blocks if "from scdmi import (" in b]
    assert len(entry) == 1
    namespace = {}
    exec(entry[0], namespace)
    assert "scdmi50" in namespace
    for name in scdmi.__all__:
        assert getattr(scdmi, name) is not None, name


def test_all_exports_no_modules():
    modules = [name for name in scdmi.__all__ if isinstance(getattr(scdmi, name), ModuleType)]
    assert modules == []


def _cli_lines() -> dict[str, list[str]]:
    """The ``scdmi <cmd>`` lines of README's CLI block, by subcommand."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.DOTALL).group(1)
    lines: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("scdmi "):
            lines.setdefault(line.split()[1], []).append(line)
    return lines


def test_readme_cli_block_matches_parser():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    lines = _cli_lines()
    assert sorted(lines) == sorted(subparsers)
    for cmd, sub in subparsers.items():
        for line in lines[cmd]:
            # every flag on the line is one of this subcommand's, and the line parses
            for flag in re.findall(r"--[a-z][a-z-]*", line):
                assert flag in sub._option_string_actions, (cmd, flag)
            parser.parse_args(shlex.split(line.replace("[", "").replace("]", ""))[1:])
        # and every option of the subcommand is shown on one of its lines
        shown = set(re.findall(r"--[a-z][a-z-]*", " ".join(lines[cmd])))
        options = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        assert options <= shown, (cmd, options - shown)
