"""Golden-output corpus: the CLI's exit codes and stdout, pinned byte for byte.

Each file under ``tests/golden/`` holds a list of cases
``{"argv": [...], "exit": <code>, "stdout": "..."}`` recorded from
``cli.main``.  JSON output has its ``timestamp`` value replaced by a fixed
placeholder; everything else must match exactly.  A refactor that keeps
behaviour leaves every case passing.

Regenerate the corpus (only when a behaviour change is intended) with::

    python tests/test_golden.py

which prints every case whose exit code or stdout moved: its file, its
argv and each differing line as ``old → new``.  Unchanged cases print
nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

SAMPLES = ["--samples", "50", "--seed", "7"]

#: Per-config vector, written with ``=`` so a leading minus is not read as a flag.
_VECTORS = {
    "agm": "1,2",
    "arithmetic_harmonic": "0.5,8",
    "projections": "-1,2",
    "shift3": "0,1,0",
}


def _config_cases(name: str) -> list[list[str]]:
    m = ["--mapping", f"configs/{name}.cfg"]
    vec = [f"--vector={_VECTORS[name]}"]
    # projections never converge; cap the sampling commands so each K stays cheap
    it = ["--max-iter", "100"] if name == "projections" else []
    func = {"shift3": "sum", "projections": "coord:1"}.get(name, "product")
    cases = [
        ["map-apply", *m, *vec],
        ["map-apply", *m, "--vector", "1"],
        ["map-iterate", *m, *vec, "--steps", "5"],
        ["map-iterate", *m, *vec, "--steps", "5", "--output", "csv"],
        ["contractive-probe", *m, *SAMPLES],
        ["n0", *m, *vec],
        ["invariant", *m, *vec],
        ["invariant", *m, *vec, *it, "--trace", "--output", "csv"],
        ["invariant", *m, *vec, "--readout", "first", "--relative"],
        ["residual", *m, *SAMPLES, *it],
        ["residual", *m, *SAMPLES, "--mean", "median"],
        ["uniqueness", *m, *SAMPLES, *it],
        ["decompose", *m, *SAMPLES, *it, "--function", func],
        ["decompose", *m, *SAMPLES, *it, "--function", "square@mean:max"],
    ]
    if name == "projections":
        cases.append(["n0", *m, *vec, "--cap", "20"])
    if name == "shift3":
        cases.append(["decompose", *m, *SAMPLES, "--function", "neg@coord:2"])
    if name == "agm":
        cases.append(["residual", *m, *SAMPLES, "--mean", "geometric"])
    human = [c for c in cases if "--output" not in c]
    return human + [c + ["--output", "json"] for c in human] + [
        c for c in cases if "--output" in c]


def _mean_eval_cases() -> list[list[str]]:
    positive = ["arithmetic", "geometric", "harmonic", "median", "min", "max",
                "power:0.5", "power:-2", "power:1e-9", "power:200", "projection:2",
                "quasi:identity", "quasi:log", "quasi:exp", "quasi:power:2",
                "quasi:power:-0.5", "weighted:0.2,0.3,0.5"]
    cases = [["mean-eval", "--mean", s, "--vector", "0.25,3,17", "--domain", "(0, inf)"]
             for s in positive]
    reals = ["arithmetic", "median", "quasi:identity", "quasi:exp", "weighted:0.5,0.25,0.25"]
    cases += [["mean-eval", "--mean", s, "--vector=-4,0.5,9"] for s in reals]
    cases += [["mean-eval", "--mean", s, "--vector", "2,2,2", "--domain", "(0, inf)"]
              for s in ("harmonic", "quasi:power:3")]
    cases += [["mean-eval", "--mean", s, "--vector=-1,2"] for s in ("geometric", "quasi:log")]
    cases += [c + ["--output", "json"] for c in cases[::3]]
    return cases


def corpus_cases() -> dict[str, list[list[str]]]:
    """Argument lists per corpus file, as the regeneration helper records them."""
    cases = {name: _config_cases(name) for name in _VECTORS}
    cases["mean-eval"] = _mean_eval_cases()
    return cases


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` from the repository root; stdout with the timestamp masked."""
    from meantype.cli import main

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, _TIMESTAMP.sub('"timestamp": "<stripped>"', buf.getvalue())


def _load_corpus() -> list[tuple[str, dict]]:
    out = []
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        for case in json.loads(path.read_text()):
            out.append((f"{path.stem}:{' '.join(case['argv'][1:])}", case))
    return out


def _moved(old: dict | None, code: int, out: str) -> list[str]:
    """The lines that report how ``(code, out)`` differs from the recorded case ``old``."""
    if old is None:
        return ["new case"]
    lines = [] if old["exit"] == code else [f"exit {old['exit']} → {code}"]
    was, now = old["stdout"].splitlines(), out.splitlines()
    for i in range(max(len(was), len(now))):
        a = was[i] if i < len(was) else "<none>"
        b = now[i] if i < len(now) else "<none>"
        if a != b:
            lines.append(f"{a.strip()} → {b.strip()}")
    return lines


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, cases in corpus_cases().items():
        path = GOLDEN_DIR / f"{name}.json"
        rel = path.relative_to(ROOT)
        old = {tuple(c["argv"]): c for c in json.loads(path.read_text())} if path.exists() else {}
        recorded, moved = [], 0
        for argv in cases:
            code, out = run_cli(argv)
            recorded.append({"argv": argv, "exit": code, "stdout": out})
            if lines := _moved(old.get(tuple(argv)), code, out):
                moved += 1
                print(f"{rel}: {' '.join(argv)}", *lines, sep="\n    ")
        path.write_text(json.dumps(recorded, indent=1) + "\n")
        print(f"wrote {rel} ({len(recorded)} cases, {moved} moved)")


_CORPUS = _load_corpus()


def test_corpus_present():
    assert len(_CORPUS) > 100


@pytest.mark.parametrize("case", [c for _, c in _CORPUS], ids=[i for i, _ in _CORPUS])
def test_golden(case, monkeypatch):
    monkeypatch.delenv("MEANTYPE_SEED", raising=False)
    code, out = run_cli(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    _regenerate()
