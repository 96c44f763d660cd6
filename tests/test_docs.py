"""The README's examples run: its Python blocks, and its system files check as it states."""

import re
from pathlib import Path

import pytest

from geodyn.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# (info string, body, text up to the next fence) of every fenced block
BLOCKS = [(m[1], m[2], m[3]) for m in re.finditer(r"^```(\w*)\n(.*?)^```\n(.*?)(?=^```|\Z)",
                                                  README, re.S | re.M)]
PYTHON = [body for info, body, _ in BLOCKS if info == "python"]
# a system file is a plain block with an `n = ` line, followed by the text that names it
# and its exit status, and then by the block of its check output
SYSTEM_FILES = [(body, *re.search(r"`geodyn check (\S+)` prints \(exit status (\d)\)", after).groups(),
                 BLOCKS[k + 1][1])
                for k, (info, body, after) in enumerate(BLOCKS)
                if not info and re.search(r"^n = ", body, re.M)]


def test_readme_has_examples():
    assert len(PYTHON) >= 3
    assert [name for _, name, _, _ in SYSTEM_FILES] == ["damped.sys", "magnetic.sys"]


@pytest.mark.parametrize("source", PYTHON, ids=[f"python-{k}" for k in range(len(PYTHON))])
def test_python_block_runs(source, capsys):
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("text,name,status,expected", SYSTEM_FILES,
                         ids=[name for _, name, _, _ in SYSTEM_FILES])
def test_system_file_checks_as_stated(tmp_path, monkeypatch, capsys, text, name, status, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(["check", name]) == int(status)
    assert capsys.readouterr().out == expected
