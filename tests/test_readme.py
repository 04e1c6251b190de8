"""Runs the README's CLI examples, so a documented command cannot drift from
the parser unnoticed."""

import re
import shlex
from pathlib import Path

from rowaction import cli

ROOT = Path(__file__).parent.parent


def readme_commands() -> list[list[str]]:
    """Each `rowaction ...` command of the README's CLI section, continuation
    lines joined, as an argv without the program name. tools/digests.py runs
    the same list."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```\n(.*?)^```$", section, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rowaction "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "data").symlink_to(ROOT / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        assert Path(argv[argv.index("--out") + 1]).exists(), argv
