"""The README's examples run as shown.

Each ``$ knotrank ...`` command of the README's shell block is run
through ``cli.main`` in a temporary directory, and its standard output
is compared with the lines shown under it; a command that shows no
output is skipped.  The Python block under "## Library" is executed.
"""

import shlex
from pathlib import Path

import pytest

from knotrank import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language: str) -> list[str]:
    """The text of each block fenced as ```language, in order."""
    return [part.split("\n```", 1)[0] for part in README.split(f"\n```{language}\n")[1:]]


def shell_examples() -> list[tuple[str, str]]:
    """``(command line, output)`` of each ``$ knotrank`` command that shows output."""
    block = next(b for b in fenced_blocks("sh") if "$ knotrank " in b)
    examples = []
    for chunk in block.split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ knotrank "), command
        if output:
            examples.append((command[len("$ ") :], "".join(line + "\n" for line in output)))
    return examples


SHELL_EXAMPLES = shell_examples()


def test_the_shell_block_shows_output():
    # the certificate and the witness are among the commands shown
    commands = [command for command, _ in SHELL_EXAMPLES]
    assert any(c.startswith("knotrank certificate") for c in commands)
    assert any(c.startswith("knotrank witness") for c in commands)


@pytest.mark.parametrize("command, output", SHELL_EXAMPLES, ids=[c for c, _ in SHELL_EXAMPLES])
def test_readme_shell_example(command, output, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a --csv file lands here
    argv = shlex.split(command, comments=True)[1:]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == output


def test_readme_library_block(capsys):
    block = next(b for b in fenced_blocks("python") if "from knotrank import" in b)
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert block in section
    exec(compile(block, "README.md", "exec"), {})
    # the block prints the CSV of a 25-row certificate
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("prime,witness_") and len(lines) == 1 + 25 + 1
