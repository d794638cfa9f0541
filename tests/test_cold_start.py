"""A cold CLI process: the modules it imports and the heap its collections walk.

`cli.main`, the entry of `python -m floquet_zeno` and of the `floquet-zeno`
script, freezes the import heap before it parses, so the interpreter's
collections, the one at exit included, skip the objects the imports left.
`cli.run`, which tests, tools and the benchmark call in process, leaves the
caller's GC alone. `floquet-spectrum` loads no `numpy.ma`, which
`np.unique` imports under numpy 2.4.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import floquet_zeno
from floquet_zeno.cli import run

SRC = str(Path(floquet_zeno.__file__).resolve().parent.parent)

# Reports the freeze count from an atexit hook, after main has exited through SystemExit.
FREEZE_AT_EXIT = """
import atexit
import gc
import sys

from floquet_zeno.cli import main

atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count()))
print("frozen at entry:", gc.get_freeze_count())
sys.argv = ["floquet-zeno", "classify", "--delta", "3", "--chi", "1"]
main()
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_floquet_spectrum_imports_no_numpy_ma():
    proc = _python("-X", "importtime", "-m", "floquet_zeno", "floquet-spectrum", "--n-cavities", "11",
                   "--truncation", "8")
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "numpy.linalg" in modules  # the log does list numpy's own submodules
    assert not [name for name in modules if name == "numpy.ma" or name.startswith("numpy.ma.")]


def test_main_freezes_the_import_heap_until_exit():
    proc = _python("-c", FREEZE_AT_EXIT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "frozen at entry: 0"
    assert lines[1].startswith("regime,")  # the table, unchanged by the freeze
    label, count = lines[-1].rsplit(" ", 1)
    assert label == "frozen at exit:" and int(count) > 0, proc.stdout


def test_run_leaves_the_callers_gc_alone(capsys):
    before = gc.get_freeze_count()
    assert run(["classify", "--delta", "3", "--chi", "1"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.startswith("regime,")
