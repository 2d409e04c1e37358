"""README's CLI examples, run through ``cli.main`` and checked against their comments.

Each ``meantype ...`` line in README's ``sh`` blocks is one run from the
repository root.  It must exit 2 where one of its comment lines says
``-> exit code 2``, and 0 otherwise.  The ``# ...`` comment lines that
follow it are its stdout, line for line; a ``...`` line or one holding
``[...]`` elides output and is not compared.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from meantype.cli import main

ROOT = Path(__file__).resolve().parent.parent

_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)
_EXIT = re.compile(r"\s*-> exit code (\d+)$")


def _examples() -> list[tuple[str, list[str]]]:
    """``(command line, comment lines)`` per ``meantype`` line of the README."""
    examples: list[tuple[str, list[str]]] = []
    for block in _SH_BLOCK.findall((ROOT / "README.md").read_text()):
        for line in block.splitlines():
            if line.startswith("meantype "):
                examples.append((line, []))
            elif line.startswith("# ") and examples:
                examples[-1][1].append(line[2:])
    return examples


_EXAMPLES = _examples()


def test_examples_found():
    assert len(_EXAMPLES) >= 8


@pytest.mark.parametrize("line, comments", _EXAMPLES, ids=[line for line, _ in _EXAMPLES])
def test_example_output(line, comments, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MEANTYPE_SEED", raising=False)
    code = main(shlex.split(line)[1:])
    out = capsys.readouterr().out.splitlines()
    exits = [int(m.group(1)) for m in map(_EXIT.search, comments) if m]
    assert code == (exits[0] if exits else 0)
    for i, comment in enumerate(comments):
        if comment != "..." and "[...]" not in comment:
            assert out[i] == _EXIT.sub("", comment), (i, comment)
