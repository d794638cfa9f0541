"""The oracle's bytes: `tools/oracle_bytes.py` at seed 5, count 60, rerun in process against its frozen output.

`tests/oracle_bytes_seed5.txt` starts with the header line that names the
numpy build, BLAS, CPU features and thread settings that computed it, then
holds two digest lines per draw. The last bits depend on that environment:
numpy's SIMD and scalar complex loops round differently, and the BLAS
splits a large product's sums by its thread count. Under any other header
the test skips and names both. A change that moves oracle bytes re-freezes
the file, and the file's diff lists the draws that moved:

    python tools/oracle_bytes.py src --seed 5 --count 60 > tests/oracle_bytes_seed5.txt
"""

import importlib.util
from pathlib import Path

import pytest

from floquet_zeno import bath, oracle, params

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("oracle_bytes", ROOT / "tools" / "oracle_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_runs_keep_their_frozen_digests():
    tool = _tool()
    header, *frozen = (ROOT / "tests" / "oracle_bytes_seed5.txt").read_text(encoding="utf-8").splitlines()
    if header != tool.environment():
        pytest.skip(f"digests frozen under {header!r}, not {tool.environment()!r}")
    lines = list(tool.lines(5, 60, oracle, bath, params))
    moved = [line for line, old in zip(lines, frozen) if line != old]
    assert not moved, f"{len(moved)} oracle runs moved:\n" + "\n".join(moved)
    assert len(lines) == len(frozen)
