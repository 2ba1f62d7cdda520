"""The command-line examples in README.md, run through cli.main.

Every ``$ schubsmooth ...`` line in a fenced block is run, and its stdout
must equal, byte for byte, the lines printed under it up to the next ``$``
line or the end of the block.  A ``$ cat FILE`` example writes the lines
under it to FILE in the working directory, so later examples can read it.
"""

import shlex
from pathlib import Path

import pytest

from schubsmooth import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def shell_examples(text):
    """The (command, printed lines) pairs of the fenced blocks, in order."""
    examples, in_block, printing = [], False, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, printing = not in_block, False
        elif in_block and line.startswith("$ "):
            examples.append((line[2:], []))
            printing = True
        elif printing:
            examples[-1][1].append(line)
    return examples


EXAMPLES = shell_examples(README.read_text(encoding="utf-8"))


def test_readme_has_examples():
    commands = [shlex.split(cmd)[0] for cmd, _ in EXAMPLES]
    assert commands.count("schubsmooth") >= 6
    assert set(commands) == {"schubsmooth", "cat"}


@pytest.mark.parametrize("cmd", [cmd for cmd, _ in EXAMPLES if cmd.startswith("schubsmooth ")])
def test_readme_example(cmd, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for other, lines in EXAMPLES:
        if other == cmd:
            expected = "".join(line + "\n" for line in lines)
            break
        argv = shlex.split(other)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("".join(line + "\n" for line in lines))
    code = cli.main(shlex.split(cmd)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected
