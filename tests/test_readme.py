"""The examples in README.md: command lines run through cli.main, and the
library examples run with doctest.

Every ``$ schubsmooth ...`` line in a fenced block is run, and its stdout
must equal, byte for byte, the lines printed under it up to the next ``$``
line or the end of the block.  A ``$ cat FILE`` example writes the lines
under it to FILE in the working directory, so later examples can read it.

Every ``>>>`` example in a ```python block is run by doctest on the block
alone, so the closing fence is not read as expected output.
"""

import doctest
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


def python_blocks(text):
    """The bodies of the ```python fenced blocks, without their fences."""
    blocks, body = [], None
    for line in text.splitlines():
        if body is None:
            if line.startswith("```python"):
                body = []
        elif line.startswith("```"):
            blocks.append("".join(body))
            body = None
        else:
            body.append(line + "\n")
    return blocks


def test_python_blocks_drop_the_fences():
    text = "```\n$ x\n```\n```python\n>>> 1 + 1\n2\n```\n"
    assert python_blocks(text) == [">>> 1 + 1\n2\n"]


def test_readme_library_examples():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    parser, report = doctest.DocTestParser(), []
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i}", str(README), 0)
        result = doctest.DocTestRunner().run(test, out=report.append)
        assert result.attempted > 0
        assert result.failed == 0, "".join(report)
