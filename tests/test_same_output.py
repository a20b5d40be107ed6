"""tools/same_output.py: the byte-identity check between two checkouts."""

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_matches_itself(capsys):
    assert _tool().main([str(ROOT), "--seeds", "1", "--workloads", "local_deep"]) == 0
    assert capsys.readouterr().out.startswith("0 of ")


def _delta_prints_one_more_line(tmp_path):
    """A copy of this checkout whose delta command prints one more line."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "planecurves" / "cli.py"
    cli.write_text(
        cli.read_text()
        + "\n\n_main = main\n\n\ndef main(argv=None):\n"
        + "    code = _main(argv)\n"
        + "    if argv and argv[0] == 'delta':\n"
        + "        print('one more line')\n"
        + "    return code\n"
    )
    return tmp_path


def test_a_changed_output_is_reported(tmp_path, capsys):
    other = _delta_prints_one_more_line(tmp_path)
    assert _tool().main([str(other), "--seeds", "1", "--workloads", "local_deep"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] and all(line.startswith("differs in stdout: delta ") for line in lines[:-1])
    assert lines[-1].startswith(f"{len(lines) - 1} of ")


def test_calls_from_a_file_are_compared_once_each(tmp_path, capsys):
    # a call listed twice, once more in a second file, runs once
    calls, more = tmp_path / "calls.json", tmp_path / "more.json"
    delta, bezout = ["delta", "y^2-x^3"], ["bezout", "YZ-X^2", "XZ-Y^2", "--field", "p:7"]
    calls.write_text(json.dumps([delta, bezout, delta]))
    more.write_text(json.dumps([bezout]))
    files = [str(calls), str(more)]
    assert _tool().main([str(ROOT), "--workloads", "--calls", *files]) == 0
    assert capsys.readouterr().out.startswith("0 of 2 distinct calls differ")
    other = _delta_prints_one_more_line(tmp_path / "other")
    assert _tool().main([str(other), "--workloads", "--calls", *files]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs in stdout: delta y^2-x^3",
        f"1 of 2 distinct calls differ (seeds 1 2 3; {calls} {more})",
    ]


def test_a_calls_file_must_hold_argv_lists(tmp_path, capsys):
    calls = tmp_path / "calls.json"
    calls.write_text(json.dumps([["delta", 3]]))
    with pytest.raises(SystemExit):
        _tool().main([str(ROOT), "--workloads", "--calls", str(calls)])
    assert "does not hold a list of argv lists" in capsys.readouterr().err
