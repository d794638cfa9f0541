"""The CLI's bytes: `tools/cli_bytes.py` at seed 5, count 400, rerun in process against its frozen output.

`tests/cli_bytes_seed5.txt` starts with `tools/oracle_bytes.py`'s header
line, which names the numpy build, BLAS, CPU features and thread settings
that computed it, then holds one digest line per seeded argv: its exit
code and the sha256 of its stdout, stderr and written files. The
`floquet-spectrum` rows come from LAPACK, so their last bits depend on that
environment; under any other header the test skips and names both. A
change that moves CLI bytes re-freezes the file, and the file's diff lists
the argvs that moved:

    python tools/cli_bytes.py src --seed 5 --count 400 > tests/cli_bytes_seed5.txt
"""

import importlib.util
from pathlib import Path

import pytest

from floquet_zeno.cli import run

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_runs_keep_their_frozen_digests(tmp_path, monkeypatch):
    environment = _tool("oracle_bytes").environment()
    header, *frozen = (ROOT / "tests" / "cli_bytes_seed5.txt").read_text(encoding="utf-8").splitlines()
    if header != environment:
        pytest.skip(f"digests frozen under {header!r}, not {environment!r}")
    monkeypatch.chdir(tmp_path)
    lines = list(_tool("cli_bytes").lines(5, 400, run))
    moved = [line.split("\t")[0] for line, old in zip(lines, frozen) if line != old]
    assert not moved, f"{len(moved)} argvs moved:\n" + "\n".join(moved)
    assert len(lines) == len(frozen)
