"""Every `$ planecurves ...` example in README.md prints what the README shows."""

import pathlib
import shlex

import pytest

from planecurves.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, expected stdout lines) for each example: the lines after the
    command up to the next blank line, command or end of the code block."""
    examples = []
    lines = README.read_text().splitlines()
    for k, line in enumerate(lines):
        if not line.startswith("$ planecurves "):
            continue
        argv = shlex.split(line)[2:]
        expected = []
        for follow in lines[k + 1 :]:
            if not follow.strip() or follow.startswith(("$ ", "```")):
                break
            expected.append(follow)
        examples.append(pytest.param(argv, expected, id=" ".join(argv)))
    return examples


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("argv,expected", EXAMPLES)
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.splitlines() == expected
