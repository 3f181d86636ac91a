"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from planarwind.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _commands():
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("planarwind "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_has_the_pipeline_examples():
    assert [argv[0] for argv in _commands()] == ["estimate", "grid", "fit", "eval", "optimize"]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # In order, in one directory: fit reads the CSV that grid writes.
    monkeypatch.chdir(tmp_path)
    for argv in _commands():
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.startswith("L_uH = 34.45\n")
    assert {"samples.csv", "coeffs.json", "result.json"} <= {p.name for p in tmp_path.iterdir()}


def test_readme_library_example_prints_its_comment(capsys):
    (block,) = _blocks("python")
    (printed,) = re.findall(r"# (\S+)$", block, flags=re.M)
    assert printed == "34.445510610569656"
    exec(block, {})
    assert capsys.readouterr().out == printed + "\n"
