"""Golden CLI output: the sha256 of stdout and the exit code of each argv.

`analyze` on every group file at p = 0, 2, 3, 5, with and without --json,
`catalog`, `catalog --json` and `catalog <name> --char p` for five names.
`selftest` is left out because it prints its elapsed time.

After a deliberate change to the CLI output, regenerate the golden file
from the repository root and commit it with the change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from eulerclass.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
CHARS = ("0", "2", "3", "5")
CATALOG_NAMES = ("p1", "p2", "p4m", "p3m1", "p6m")


def golden_argvs() -> list[list[str]]:
    argvs = []
    for path in sorted((ROOT / "groups").glob("*.json")):
        for p in CHARS:
            argv = ["analyze", f"groups/{path.name}", "--char", p]
            argvs += [argv, argv + ["--json"]]
    argvs += [["catalog"], ["catalog", "--json"]]
    argvs += [["catalog", name, "--char", p] for name in CATALOG_NAMES for p in CHARS]
    return argvs


def run(argv: list[str]) -> dict:
    """Run main in process, from the repository root; hash what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_golden_covers_every_argv(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in golden_argvs())


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_output_matches_golden(argv, golden):
    assert run(argv) == golden[" ".join(argv)], f"output of `eulerclass {' '.join(argv)}` changed"


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps({" ".join(a): run(a) for a in golden_argvs()}, indent=1, sort_keys=True) + "\n")
