"""Every demo script runs to completion, and so does every command line
of the README's walkthrough."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dyadica.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def documented_commands() -> list[list[str]]:
    """The argument lists of the ``dyadica`` lines in the README's
    "Command line" walkthrough, continuation lines joined."""
    section = (ROOT / "README.md").read_text().split("## Command line")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("dyadica ")]


def test_documented_commands_exit_zero(tmp_path, monkeypatch, capsys):
    # run from a copy of the repository root, so outputs land in tmp_path
    shutil.copytree(ROOT / "demos" / "cli", tmp_path / "demos" / "cli")
    monkeypatch.chdir(tmp_path)
    commands = documented_commands()
    assert {argv[0] for argv in commands} == {
        "gen-space", "build-dyadic", "verify-dyadic", "kernel-check",
        "operators-check", "theorem-b", "weak-type", "theorem-a", "sweep"}
    used = {arg for argv in commands for arg in argv}
    for path in (ROOT / "demos" / "cli").iterdir():
        assert f"demos/cli/{path.name}" in used
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    # theorem-a's scenario names its space file relative to itself, so the
    # same command run from another directory gives the same report
    theorem_a = next(argv for argv in commands if argv[0] == "theorem-a")
    capsys.readouterr()
    assert main(theorem_a) == 0
    here = capsys.readouterr().out
    config = theorem_a.index("--config") + 1
    elsewhere = list(theorem_a)
    elsewhere[config] = str(tmp_path / theorem_a[config])
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(elsewhere) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == here
