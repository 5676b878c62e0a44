"""The README's examples run as written."""

import pathlib
import re
import shlex

import pytest

from treerep.cli import main
from treerep.tree_core import VertexSet

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
COMMANDS = [line for line in README.splitlines() if line.startswith("treerep ")]


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(monkeypatch, tmp_path, capsys, line):
    monkeypatch.chdir(tmp_path)  # scan writes phase.csv
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_snippet():
    assert len(COMMANDS) == 7  # the command lines above were all found
    (snippet,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    scope = {}
    exec(snippet, scope)
    assert scope["verdict"].witness == VertexSet.of(0, 1, 3, 5)
    assert scope["entry"].sign < 0
