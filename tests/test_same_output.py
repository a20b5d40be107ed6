"""tools/same_output.py: the byte-identity check between two checkouts."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_matches_itself(capsys):
    assert _tool().main([str(ROOT), "--seeds", "1", "--workloads", "local_deep"]) == 0
    assert capsys.readouterr().out.startswith("0 of ")


def test_a_changed_output_is_reported(tmp_path, capsys):
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
    assert _tool().main([str(tmp_path), "--seeds", "1", "--workloads", "local_deep"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] and all(line.startswith("differs in stdout: delta ") for line in lines[:-1])
    assert lines[-1].startswith(f"{len(lines) - 1} of ")
