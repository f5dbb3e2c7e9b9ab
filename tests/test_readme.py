"""README's examples run as written, so the documented usage cannot go stale."""

import re
import shlex
from pathlib import Path

from betatails.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _first_block(section: str, language: str) -> str:
    """The first ```language block after the heading '## section'."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(_first_block("Library", "python"), namespace)
    assert 0.0 < namespace["tail"] < namespace["bound"] < 1.0
    assert namespace["psi_star"] > 0.0


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in _first_block("CLI", "sh").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert [argv[:2] for argv in commands] == [
        ["betatails", "moments"], ["betatails", "bound"], ["betatails", "compare"],
        ["betatails", "verify"],
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert (tmp_path / "beta_2_98.csv").read_text().count("\n") == 101
