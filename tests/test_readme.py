"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

from cpwave import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def readme_commands() -> list[list[str]]:
    """The argv of every `cpwave ...` line of the README's shell blocks,
    continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cpwave ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    # a stale flag in the README fails here, not for its reader
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._SUBCOMMANDS)
    for argv in commands:
        assert cli.main(argv) == 0, argv
