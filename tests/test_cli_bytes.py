"""The CLI's bytes: `tools/cli_bytes.py`'s frozen outputs, rerun in process.

Three files are frozen: seeds 5 and 11 at count 400
(`tests/cli_bytes_seed5.txt`, `tests/cli_bytes_seed11.txt`) and the
argvs of the README's "Command line" block (`tests/cli_bytes_readme.txt`),
which the tool reads from the README itself. Each starts with
`tools/oracle_bytes.py`'s header line, which names the numpy build, BLAS,
CPU features and thread settings that computed it, then holds one digest
line per argv: its exit code and the sha256 of its stdout, stderr and
written files. The `floquet-spectrum` rows come from LAPACK, so their last
bits depend on that environment; under any other header the test skips
and names both. A change that moves CLI bytes re-freezes the files, and
their diff lists the argvs that moved:

    python tools/cli_bytes.py src --seed 5 --count 400 > tests/cli_bytes_seed5.txt
    python tools/cli_bytes.py src --seed 11 --count 400 > tests/cli_bytes_seed11.txt
    python tools/cli_bytes.py src --readme README.md > tests/cli_bytes_readme.txt
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


def _check(frozen_name: str, argvs, monkeypatch, tmp_path) -> None:
    environment = _tool("oracle_bytes").environment()
    header, *frozen = (ROOT / "tests" / frozen_name).read_text(encoding="utf-8").splitlines()
    if header != environment:
        pytest.skip(f"digests frozen under {header!r}, not {environment!r}")
    monkeypatch.chdir(tmp_path)
    lines = list(_tool("cli_bytes").lines(argvs, run))
    moved = [line.split("\t")[0] for line, old in zip(lines, frozen) if line != old]
    assert not moved, f"{len(moved)} argvs moved:\n" + "\n".join(moved)
    assert len(lines) == len(frozen)


def test_cli_runs_keep_their_frozen_digests(tmp_path, monkeypatch):
    _check("cli_bytes_seed5.txt", _tool("cli_bytes").draws(5, 400), monkeypatch, tmp_path)


def test_a_second_seed_keeps_its_frozen_digests(tmp_path, monkeypatch):
    _check("cli_bytes_seed11.txt", _tool("cli_bytes").draws(11, 400), monkeypatch, tmp_path)


def test_the_readme_command_lines_keep_their_frozen_digests(tmp_path, monkeypatch):
    _check("cli_bytes_readme.txt", _tool("cli_bytes").readme_argvs(ROOT / "README.md"), monkeypatch, tmp_path)
