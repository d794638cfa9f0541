"""The CLI's input -> exit-code contract over arbitrary float flags.

Every argv ends in exit 0 with finite CSV cells, exit 2 (configuration)
or exit 3 (numerical failure), never in an exception or a traceback.
Sizes (--n-cavities, --truncation, --t-steps, --count) stay small and
fixed, and the oracle method is left out, so no draw asks for a large
allocation or a long integration. reproduce-fig3 writes its three files
into a fresh directory per example, and their cells are checked instead
of stdout.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floquet_zeno.cli import run

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
PARAM_FLAGS = ("omega", "omega-c", "xi", "g", "drive-amp", "drive-freq", "delta", "chi")
SWEEP_PARAMS = ("omega", "omega_c", "xi", "g", "drive_amp", "drive_freq", "delta", "chi")
COMMANDS = ("classify", "decay-rate", "spectral-density", "survival", "floquet-spectrum", "sweep", "reproduce-fig3")
FIG3_FILES = ("fig3_blue.csv", "fig3_red.csv", "fig3_green.csv")


def _flag(name: str, value) -> str:
    # --name=value keeps a leading '-' (as in -inf) from reading as a flag.
    return f"--{name}={value!r}"


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "spectral-density":
        argv.append(_flag("omega", draw(FLOATS)))
        if draw(st.booleans()):
            argv.append(_flag("xi", draw(FLOATS)))
        return argv
    if command == "reproduce-fig3":
        return argv + [_flag("nu", draw(FLOATS)), _flag("t-max", draw(FLOATS)), "--t-steps=3"]
    # sorted: set order follows PYTHONHASHSEED, and the draws must not.
    for name in sorted(draw(st.sets(st.sampled_from(PARAM_FLAGS), max_size=3))):
        argv.append(_flag(name, draw(FLOATS)))
    argv.append("--n-cavities=5")
    if command != "floquet-spectrum" and draw(st.booleans()):
        argv.append(_flag("sideband", draw(st.integers(-3, 3))))
    if command in ("decay-rate", "survival"):
        argv += [_flag("t-max", draw(FLOATS)), "--t-steps=3"]
        if draw(st.booleans()):
            argv.append(_flag("t-min", draw(FLOATS)))
        if command == "survival":
            argv.append("--method=" + draw(st.sampled_from(("perturbative", "exponential"))))
    elif command == "classify":
        argv.append(_flag("t", draw(FLOATS)))
    elif command == "floquet-spectrum":
        argv.append("--truncation=3")
    else:
        argv += [
            "--param=" + draw(st.sampled_from(SWEEP_PARAMS)),
            _flag("start", draw(FLOATS)),
            _flag("stop", draw(FLOATS)),
            "--count=3",
            "--quantity=" + draw(st.sampled_from(("rate", "golden-rate", "regime"))),
            _flag("t", draw(FLOATS)),
        ]
    return argv


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_exits_0_2_or_3_with_finite_cells(argv):
    out, err = io.StringIO(), io.StringIO()
    fig3 = argv[0] == "reproduce-fig3"
    with tempfile.TemporaryDirectory() as out_dir:
        if fig3:
            argv = argv + ["--out-dir=" + out_dir]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            return
        if fig3:
            assert out.getvalue() == ""
            tables = [(Path(out_dir) / name).read_text(encoding="utf-8") for name in FIG3_FILES]
        else:
            tables = [out.getvalue()]
    for table in tables:
        header, *rows = [line.split(",") for line in table.splitlines()]
        assert rows
        for row in rows:
            assert len(row) == len(header)
            numbers = [float(cell) for cell in row if _is_number(cell)]
            assert all(math.isfinite(x) for x in numbers), row
        if argv[0] == "sweep":
            for row in rows:
                assert (row[1] == "") == (row[2] != ""), row
