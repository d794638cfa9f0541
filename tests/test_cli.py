"""CLI contract: CSV shape, exit codes, determinism, parameter layering."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floquet_zeno import bath, cli, decay, specfun
from floquet_zeno.cli import run
from floquet_zeno.errors import NonFiniteResult
from floquet_zeno.params import SystemParams, default_sideband
from floquet_zeno.specfun import bessel_j_zero

J0_ROOT = 2.4048255576957733
J1_ROOT = 3.8317059702075125


def _bench_inputs():
    # The benchmark's argv lists, read from bench/inputs.py, which imports nothing of the package.
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_inputs()


def run_to_file(argv, path) -> bytes:
    code = run(["--out", str(path)] + argv)
    assert code == 0
    return path.read_bytes()


def rows(data: bytes) -> list[list[str]]:
    lines = data.decode("ascii").splitlines()
    return [line.split(",") for line in lines]


def csv_cell(value) -> str:
    # One CSV cell as the CLI prints it, built here without the CLI's own code: an int in
    # full, a float with 12 significant digits and -0.0 as 0, and a non-finite float refused.
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        raise NonFiniteResult(f"non-finite result {value!r}")
    return f"{value + 0.0:.12g}"


def test_decay_rate_output_shape(tmp_path):
    data = run_to_file(["decay-rate", "--delta", "1", "--chi", "1", "--t-steps", "5", "--t-max", "10"], tmp_path / "r.csv")
    table = rows(data)
    assert table[0] == ["t", "R"]
    assert len(table) == 6
    times = [float(r[0]) for r in table[1:]]
    assert times == pytest.approx(list(np.linspace(2.0, 10.0, 5)))
    assert all(float(r[1]) > 0.0 for r in table[1:])


def test_decay_rate_suppressed_curve(tmp_path):
    argv = ["decay-rate", "--delta", "3", "--chi", "2.404825557695773", "--t-max", "20", "--t-steps", "200"]
    table = rows(run_to_file(argv, tmp_path / "g.csv"))
    assert len(table) == 201
    assert max(float(r[1]) for r in table[1:]) <= 1e-10


def test_byte_identical_reruns(tmp_path):
    for argv in (
        ["decay-rate", "--delta", "1", "--chi", "1", "--t-steps", "50", "--t-max", "10"],
        ["sweep", "--param", "chi", "--start", "0", "--stop", "2", "--count", "9", "--quantity", "rate", "--t", "5", "--delta", "1"],
    ):
        first = run_to_file(argv, tmp_path / "a.csv")
        second = run_to_file(argv, tmp_path / "b.csv")
        assert first == second
        assert b"\r" not in first
        assert first.endswith(b"\n")


def test_sweep_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    # The sweep runs serially; a leftover FLOQUET_ZENO_THREADS setting from
    # the former thread pool is ignored and leaves the output unchanged.
    argv = ["sweep", "--param", "chi", "--start", "0", "--stop", "2", "--count", "9", "--quantity", "rate", "--t", "5", "--delta", "1"]
    monkeypatch.delenv("FLOQUET_ZENO_THREADS", raising=False)
    serial = run_to_file(argv, tmp_path / "s.csv")
    for value in ("1", "3", "many"):
        monkeypatch.setenv("FLOQUET_ZENO_THREADS", value)
        assert run_to_file(argv, tmp_path / f"s{value}.csv") == serial


def test_spectral_density_band_center(capsys):
    assert run(["spectral-density", "--xi", "1", "--omega", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "omega,rho\n0,0.159154943092\n"
    # 4 xi^2 underflows here, yet rho = 1/(2 pi xi) is finite.
    assert run(["spectral-density", "--xi", "1e-239", "--omega", "0"]) == 0
    assert capsys.readouterr().out == "omega,rho\n0,1.59154943092e+238\n"


def test_spectral_density_band_edge_exits_3(capsys):
    assert run(["spectral-density", "--xi", "1", "--omega", "2"]) == 3
    assert "BandEdgeSingularity" in capsys.readouterr().err


def test_config_file_layering(tmp_path, capsys):
    # Flags beat the config file; the file beats built-in defaults.
    cfg = tmp_path / "single.cfg"
    cfg.write_text(
        "omega = 2.0\nomega_c = 4.0\nxi = 1.0\ng = 0.1\nn_cavities = 1\ndrive_amp = 0.0\ndrive_freq = 6.0\n",
        encoding="utf-8",
    )
    argv = ["decay-rate", "--config", str(cfg), "--g", "0.3", "--t-max", "4", "--t-steps", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "t,R\n4,0.36\n"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega = 2.0\ncoupling = 0.1\n", encoding="utf-8")
    assert run(["decay-rate", "--config", str(cfg)]) == 2
    assert "coupling" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run(["decay-rate", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_unreadable_config_or_unwritable_output_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    a_file = tmp_path / "plain"
    a_file.write_text("", encoding="utf-8")
    sweep = ["sweep", "--param", "g", "--start", "0.1", "--stop", "0.2", "--count", "3"]
    for argv in (
        sweep + ["--config", str(tmp_path / "absent.cfg")],
        sweep + ["--config", str(bad)],
        ["classify", "--config", str(binary)],
        ["--out", str(tmp_path / "missing" / "x.csv"), "classify"],
        ["reproduce-fig3", "--out-dir", str(a_file), "--t-steps", "2"],
    ):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_sweep_reads_config_once_and_reports_swept_errors(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("g = 0.1\n", encoding="utf-8")
    argv = ["sweep", "--config", str(cfg), "--param", "n_cavities", "--start", "0", "--stop", "2", "--count", "3"]
    table = rows(run_to_file(argv, tmp_path / "n.csv"))
    assert table[1] == ["0", "", "ZeroCavities"]
    flags = ["sweep", "--g", "0.1", "--param", "n_cavities", "--start", "1", "--stop", "2", "--count", "2"]
    assert table[2:] == rows(run_to_file(flags, tmp_path / "flags.csv"))[1:]
    # A swept N prints as an integer past 2**63 too, beside smaller ones.
    argv = ["sweep", "--param", "n_cavities", "--start", "0", "--stop", "1e19", "--count", "3", "--quantity", "regime"]
    table = rows(run_to_file(argv, tmp_path / "big.csv"))
    assert [row[0] for row in table[1:]] == ["0", "5000000000000000000", "10000000000000000000"]


def test_bare_value_error_exits_3(monkeypatch, capsys):
    # Package argument checks raise InvalidArgument (exit 2); any other
    # ValueError comes from inside a computation.
    def handler(args):
        raise ValueError("array is too big")

    monkeypatch.setattr("floquet_zeno.cli._cmd_classify", handler)
    assert run(["classify"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: ValueError: array is too big\n"


def test_a_nan_rate_exits_3_with_empty_stdout(monkeypatch, capsys, tmp_path):
    # No kernel returns nan, so a stand-in curve does; the CSV writer's own
    # guard refuses the table before any row is written, also where the nan
    # sits in the last of several blocks, and before an --out file is opened.
    # It names the first non-finite cell in row order.
    real, bad = decay.decay_curve, {}

    def bad_curve(params, grid, n, times):
        curve = real(params, grid, n, times)
        columns = [curve.times.copy(), curve.rates.copy()]
        for (row, column), value in bad.items():
            columns[column][row] = value
        return dataclasses.replace(curve, times=columns[0], rates=columns[1])

    monkeypatch.setattr(decay, "decay_curve", bad_curve)
    path, last_rate = tmp_path / "r.csv", {(-1, 1): math.nan}
    for argv, cells, named in (
        (["decay-rate", "--t-steps", "5"], last_rate, "nan"),
        (["decay-rate", "--t-steps", str(2 * cli.BLOCK + 1)], last_rate, "nan"),
        (["--out", str(path), "decay-rate"], last_rate, "nan"),
        (["decay-rate", "--t-steps", "5"], {(2, 1): math.inf, (4, 1): math.nan}, "inf"),  # the first bad row
        (["decay-rate", "--t-steps", "5"], {(4, 0): math.nan, (2, 1): -math.inf}, "-inf"),
        (["decay-rate", "--t-steps", "5"], {(2, 0): math.nan, (2, 1): math.inf}, "nan"),  # its first bad column
    ):
        bad.clear()
        bad.update(cells)
        assert run(argv) == 3
        assert capsys.readouterr() == ("", f"numerical error: NonFiniteResult: non-finite result {named}\n")
    assert not path.exists()


def _reference_table(header: str, rows_of_cells) -> str:
    # A CSV table built row by row with f-strings: the writer's format, without the writer.
    return "".join(",".join(cells) + "\n" for cells in [[header], *rows_of_cells])


def test_a_decay_rate_table_over_blocks_equals_its_per_row_reference(capsys):
    steps = 2 * cli.BLOCK + 3
    assert run(["decay-rate", "--t-max", "30", "--t-steps", str(steps)]) == 0
    out, err = capsys.readouterr()
    params = SystemParams(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    curve = decay.decay_curve(params, bath.build_grid(params), default_sideband(params), np.linspace(30 / steps, 30, steps))
    assert curve.rates.min() >= 0.0 and np.isfinite(curve.rates).all()
    expected = _reference_table("t,R", ([f"{t:.12g}", f"{r + 0.0:.12g}"] for t, r in zip(curve.times, curve.rates)))
    assert (out, err) == (expected, "")


def test_a_sweep_over_blocks_equals_its_per_row_reference(capsys):
    # BLOCK + 1 points over N, from -1: two error rows (validate refuses N <= 0), then one rate row per N.
    count = cli.BLOCK + 1
    argv = ["sweep", "--param", "n_cavities", "--start", "-1", "--stop", str(count - 2), "--count", str(count), "--t", "7"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    reference = []
    for n_cavities in range(-1, count - 1):
        params = SystemParams(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=n_cavities, drive_amp=6.0, drive_freq=6.0)
        if n_cavities < 1:
            reference.append([f"{n_cavities}", "", "ZeroCavities"])
            continue
        rate = decay.decay_rate_finite(params, bath.build_grid(params), 0, 7.0)
        reference.append([f"{n_cavities}", f"{rate + 0.0:.12g}", ""])
    assert (out, err) == (_reference_table("n_cavities,R,error", reference), "")


def test_a_table_streams_a_block_at_a_time(tmp_path):
    # 2^17 rows of decay-rate written to --out: 4.2 MB traced through run(), the two
    # float columns and the kernel's chunks, where a writer that held every line and
    # then their joined text peaked at 19.2 MB.
    tracemalloc.start()
    try:
        code = run(["--out", str(tmp_path / "r.csv"), "decay-rate", "--t-steps", str(1 << 17)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and (tmp_path / "r.csv").read_bytes().count(b"\n") == (1 << 17) + 1
    assert peak < 8e6, peak


def test_an_inf_sweep_rate_is_a_non_finite_result_cell(monkeypatch, tmp_path):
    # A sweep evaluates its rate points in one kernel call; a stand-in kernel
    # returns inf for each, and every point gets its own error cell.
    real = decay._rates

    def inf_rates(nodes, end, points, times):
        rates, reach = real(nodes, end, points, times)
        return np.full_like(rates, math.inf), reach

    monkeypatch.setattr(decay, "_rates", inf_rates)
    argv = ["sweep", "--param", "chi", "--start", "0", "--stop", "1", "--count", "2", "--quantity", "rate"]
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    assert table[1:] == [["0", "", "NonFiniteResult"], ["1", "", "NonFiniteResult"]]


def test_sweep_golden_rate_over_chi(tmp_path):
    argv = [
        "sweep", "--param", "chi", "--start", "0", "--stop", str(2.0 * J0_ROOT),
        "--count", "3", "--quantity", "golden-rate", "--delta", "0",
    ]
    table = rows(run_to_file(argv, tmp_path / "chi.csv"))
    assert table[0] == ["chi", "golden_rate", "error"]
    assert float(table[1][1]) == pytest.approx(0.0625, rel=1e-12)
    assert float(table[2][1]) <= 1e-20
    assert all(r[2] == "" for r in table[1:])


def test_sweep_reports_per_point_errors(tmp_path):
    argv = ["sweep", "--param", "delta", "--start", "1", "--stop", "3", "--count", "5", "--quantity", "golden-rate"]
    table = rows(run_to_file(argv, tmp_path / "delta.csv"))
    by_value = {r[0]: (r[1], r[2]) for r in table[1:]}
    assert by_value["2"] == ("", "BandEdgeSingularity")
    assert float(by_value["1"][0]) > 0.0
    assert float(by_value["3"][0]) == 0.0  # off-band: golden rate vanishes
    clean = [v for v in by_value.values() if v[1] == ""]
    assert len(clean) == 4


RATE_SWEEPS = [
    ("n_cavities", "1", "60", []),
    ("delta", "-3", "3", []),
    ("xi", "0.3", "2", []),
    ("omega", "-2", "2", ["--delta", "1"]),
    ("chi", "0", "5", ["--n-cavities", "2001", "--delta", "1"]),
    ("g", "0", "2", []),
]


def rate_sweep_argv(param, start, stop, flags) -> list[str]:
    return ["sweep", "--param", param, "--start", start, "--stop", stop, "--count", "13", "--t", "7", *flags]


@pytest.mark.parametrize("param, start, stop, flags", RATE_SWEEPS)
def test_rate_sweep_cells_match_a_fresh_grid_per_point(param, start, stop, flags, tmp_path, monkeypatch):
    # A sweep may keep its grid between points. The nodes and end each kernel
    # call receives must be, bit for bit, those of a grid built afresh for each
    # of its points, each point's row must be decay._point's there, and each R
    # cell must be the one-time rate on that fresh grid.
    calls, real = [], decay._rates

    def recorded_rates(nodes, end, points, times):
        calls.append((nodes.tobytes(), end, np.array(points)))
        return real(nodes, end, points, times)

    monkeypatch.setattr(decay, "_rates", recorded_rates)
    argv = rate_sweep_argv(param, start, stop, flags)
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    fields = cli._param_fields(cli.build_parser().parse_args(argv))
    values = np.linspace(float(start), float(stop), 13)
    received = [(nodes, end, row) for nodes, end, points in calls for row in points]
    assert len(table) == len(received) + 1 == 14
    for value, (_, cell, error), (nodes, end, row) in zip(values, table[1:], received):
        params = cli._resolve_params({**fields, param: int(round(value)) if param == "n_cavities" else value})
        fresh, n = bath.build_grid(params), default_sideband(params)
        assert (nodes, end) == (fresh.nodes.tobytes(), fresh.end)
        assert row.tobytes() == np.array(decay._point(params, n)).tobytes()
        assert (cell, error) == (csv_cell(decay.decay_rate_finite(params, fresh, n, 7.0)), "")


@pytest.mark.parametrize("param, start, stop, flags", RATE_SWEEPS)
def test_rate_sweep_builds_a_grid_only_when_n_moves(param, start, stop, flags, tmp_path, monkeypatch):
    # The kernel reads only the nodes cos k and their end index, which depend
    # on N alone; each grid's points go to the kernel in one call.
    built, calls = [], []
    real = decay._rates

    def counted_rates(nodes, end, points, times):
        calls.append(len(points))
        return real(nodes, end, points, times)

    monkeypatch.setattr(cli, "build_grid", lambda params: built.append(params) or bath.build_grid(params))
    monkeypatch.setattr(decay, "_rates", counted_rates)
    run_to_file(rate_sweep_argv(param, start, stop, flags), tmp_path / "s.csv")
    assert len(built) == len(calls) == (13 if param == "n_cavities" else 1)
    assert sum(calls) == 13


def _fresh_cell(args, fields: dict, value) -> tuple[str, str]:
    # One sweep point as a fresh one-point call of its quantity: the cell, or the error's type name.
    try:
        params = cli._resolve_params({**fields, args.param: value})
        n = cli._sideband(args, params)
        if args.quantity == "rate":
            return csv_cell(decay.decay_rate_finite(params, bath.build_grid(params), n, args.t)), ""
        if args.quantity == "regime":
            return decay.classify_regime(params, n, args.t).regime, ""
        return csv_cell(decay.decay_rate_longtime(params, n).rate), ""
    except (cli.ConfigError, *cli.NUMERICAL_FAILURES) as exc:
        return "", type(exc).__name__


def _fresh_cells(argv) -> list[tuple[str, str]]:
    # Each point of a sweep argv as a fresh one-point call, under run()'s errstate.
    args = cli._parser().parse_args(argv)
    fields = cli._param_fields(args)
    with np.errstate(all="ignore"):
        return [_fresh_cell(args, fields, value) for value in cli._sweep_values(args)]


# A forced sideband n = 10^400, whose n nu no float holds, and n = 1000 at a nu where n nu overflows.
HUGE_SIDEBAND = ["--sideband", str(10**400)]
FAR_SHIFT = ["--sideband", "1000", "--drive-freq", "1e306"]

MIXED_SWEEPS = [
    # g^2 passes the float range past g = 1.34e154.
    (["--param", "g", "--start", "0", "--stop", "2e154", "--count", "9"], {"", "NonFiniteResult"}),
    # delta +- 1.5 puts sideband -+1 in band beside the default one.
    (["--param", "delta", "--start", "-3", "--stop", "3", "--count", "5", "--drive-freq", "3", "--chi", "1"],
     {"", "SecondSideband"}),
    # The J_0 root with the default sideband, and J_1(0) = 0 exactly with a forced one.
    (["--param", "chi", "--start", "0", "--stop", str(2.0 * J0_ROOT), "--count", "5", "--delta", "3"], {""}),
    (["--param", "chi", "--start", "0", "--stop", "3", "--count", "4", "--sideband", "1", "--delta", "-5"], {""}),
    # A forced sideband past the Bessel order ceiling, and a detuning past the float range.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", "--sideband", "2000"], {"OrderTooLarge"}),
    (["--param", "omega", "--start=-8e307", "--stop", "8e307", "--count", "5", "--omega-c", "1e308", "--sideband", "0"],
     {"", "NonFiniteResult"}),
    # A default sideband past the Bessel order ceiling at a tiny drive frequency.
    (["--param", "drive_freq", "--start", "1e-300", "--stop", "7", "--count", "41"],
     {"", "OrderTooLarge", "SecondSideband"}),
    # The first grid is past the cavity ceiling; the later points build their own.
    (["--param", "n_cavities", "--start", "1048577", "--stop", "1048575", "--count", "3"], {"", "SizeTooLarge"}),
    # A forced sideband whose n nu is past the float range: refused by the order ceiling, and
    # past it inside the ceiling, where the detuning overflows.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *HUGE_SIDEBAND], {"OrderTooLarge"}),
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *FAR_SHIFT], {"NonFiniteResult"}),
    # chi past the Bessel argument ceiling with the default sideband.
    (["--param", "chi", "--start", "0", "--stop", "2e6", "--count", "5", "--delta", "1"], {"", "ArgumentOutOfRange"}),
]


@pytest.mark.parametrize("flags, errors", MIXED_SWEEPS)
def test_rate_sweep_cells_with_errors_match_fresh_per_point_calls(flags, errors, tmp_path):
    # Valid points go to the kernel in one call; each failed point keeps its
    # own typed error cell, as a one-time call on a fresh grid gives it.
    argv = ["sweep", *flags, "--t", "7"]
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    expected = _fresh_cells(argv)
    assert [tuple(row[1:]) for row in table[1:]] == expected
    assert {error for _, error in expected} == errors


def _record_columns(monkeypatch) -> list[tuple[int, list[float]]]:
    # Each cli._bessel_column call as (n, its chi).
    columns, real_column = [], cli._bessel_column
    monkeypatch.setattr(cli, "_bessel_column", lambda n, x: columns.append((n, x.tolist())) or real_column(n, x))
    return columns


def _assert_one_column_per_sideband(columns, argv) -> None:
    # The one rule of every sweep quantity: one column call per sideband n, over
    # exactly the distinct chi at n of the points that resolve, pass the sideband
    # check (a rate point also its grid) and pass specfun._checked; cli makes no
    # scalar bessel_j call.
    args = cli.build_parser().parse_args(argv)
    fields, checked = cli._param_fields(args), {}
    for value in cli._sweep_values(args):
        try:
            params = cli._resolve_params({**fields, args.param: value})
            n = cli._sideband(args, params)
            if args.quantity == "rate":
                bath.build_grid(params)
            n, chi = specfun._checked(n, params.chi)
        except (cli.ConfigError, *cli.NUMERICAL_FAILURES):
            continue
        checked.setdefault(n, set()).add(chi)
    assert sorted((n, sorted(chis)) for n, chis in columns) == sorted((n, sorted(chis)) for n, chis in checked.items())
    assert not hasattr(cli, "bessel_j")


REGIME_SWEEPS = [
    # delta +- 1.5 puts sideband -+1 in band beside the default one.
    (["--param", "delta", "--start", "-3", "--stop", "3", "--count", "41", "--drive-freq", "3", "--chi", "1"],
     {"Indeterminate", "SecondSideband"}),
    # chi through the J_0 root at delta = 3.
    (["--param", "chi", "--start", "0", "--stop", str(2.0 * J0_ROOT), "--count", "5", "--delta", "3"],
     {"AntiZeno", "Decoupled"}),
    (["--param", "n_cavities", "--start", "0", "--stop", "4", "--count", "5"], {"Indeterminate", "ZeroCavities"}),
    # A forced sideband past the Bessel order ceiling, and a default one past it at a tiny drive frequency.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", "--sideband", "2000"], {"OrderTooLarge"}),
    (["--param", "drive_freq", "--start", "1e-300", "--stop", "7", "--count", "41"],
     {"Indeterminate", "OrderTooLarge", "SecondSideband"}),
    # n nu past the float range: refused by the order ceiling, and inside it an omega_f = delta + n nu
    # of inf, which classify cannot print either (exit 3), though J_1000(6e-306) = 0 is decoupled.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *HUGE_SIDEBAND], {"OrderTooLarge"}),
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *FAR_SHIFT], {"NonFiniteResult"}),
    # J_180(170) = 5.2e-3 is not decoupled, and omega_f is inf again.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", "--sideband", "180", "--drive-freq", "1e306",
      "--chi", "170"], {"NonFiniteResult"}),
    # chi past the Bessel argument ceiling with the default sideband.
    (["--param", "chi", "--start", "0", "--stop", "2e6", "--count", "5", "--delta", "1"],
     {"Indeterminate", "ArgumentOutOfRange"}),
    # Sideband -1 lies in band beside the default 0, but J_-1 is 0 at both chi: the columns
    # cannot clear these points, yet both are valid.
    (["--param", "chi", "--start", "0", "--stop", str(J1_ROOT), "--count", "2", "--drive-freq", "3", "--delta", "1.5"],
     {"Indeterminate"}),
]


@pytest.mark.parametrize("flags, outcomes", REGIME_SWEEPS)
def test_regime_sweep_cells_match_fresh_per_point_calls(flags, outcomes, tmp_path):
    # A regime sweep evaluates each distinct J_n(chi) once; every cell must
    # still be the label or error type of a fresh classify call at its point.
    argv = ["sweep", *flags, "--quantity", "regime", "--t", "10"]
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    expected = _fresh_cells(argv)
    assert [tuple(row[1:]) for row in table[1:]] == expected
    assert {label or error for label, error in expected} == outcomes


def test_regime_sweep_evaluates_each_bessel_value_once(tmp_path, monkeypatch):
    # The benchmark's 401-point delta sweep meets three (n, chi), so it makes
    # three one-entry columns and no point evaluates J_n(chi) on its own; each
    # label is still its fresh classify call's.
    argv = dict(BENCH.SWEEPS)["sweep-regime"]
    expected, columns, scalar = _fresh_cells(argv), _record_columns(monkeypatch), []
    monkeypatch.setattr(decay, "bessel_j", lambda n, x: scalar.append((n, x)) or specfun.bessel_j(n, x))
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    _assert_one_column_per_sideband(columns, argv)
    assert sorted(len(chis) for _, chis in columns) == [1, 1, 1] and scalar == []
    assert [tuple(row[1:]) for row in table[1:]] == expected


GOLDEN_SWEEPS = [
    (dict(BENCH.SWEEPS)["sweep-golden"][1:], {""}),  # the benchmark's argv
    # delta = 2 sits on the band edge; delta = 2.5 and 3 lie off the band, where the rate is 0.
    (["--param", "delta", "--start", "1", "--stop", "3", "--count", "5"], {"", "BandEdgeSingularity"}),
    # chi past the Bessel argument ceiling: in the band the point's own error, off it a rate of 0.
    (["--param", "chi", "--start", "0", "--stop", "2e6", "--count", "5", "--sideband", "0", "--delta", "1"],
     {"", "ArgumentOutOfRange"}),
    (["--param", "chi", "--start", "0", "--stop", "2e6", "--count", "5", "--sideband", "0", "--delta", "5"], {""}),
    # A forced sideband past the Bessel order ceiling, in the band and off it.
    (["--param", "delta", "--start", "-12001", "--stop", "-11999", "--count", "5", "--sideband", "2000"],
     {"OrderTooLarge"}),
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", "--sideband", "2000"], {""}),
    # delta +- 1.5 puts sideband -+1 in band beside the default one.
    (["--param", "delta", "--start", "-3", "--stop", "3", "--count", "5", "--drive-freq", "3", "--chi", "1"],
     {"", "SecondSideband"}),
    (["--param", "n_cavities", "--start", "0", "--stop", "4", "--count", "5"], {"", "ZeroCavities"}),
    # g^2 passes the float range past g = 1.34e154.
    (["--param", "g", "--start", "0", "--stop", "2e154", "--count", "9", "--delta", "0"], {"", "NonFiniteResult"}),
    # Over drive_freq the default sideband moves, so J_n(chi) comes from several columns.
    (["--param", "drive_freq", "--start", "1e-300", "--stop", "7", "--count", "41"],
     {"", "OrderTooLarge", "SecondSideband"}),
    (["--param", "drive_freq", "--start", "2.5", "--stop", "7", "--count", "13", "--chi", "1", "--delta", "-5"],
     {"", "BandEdgeSingularity", "SecondSideband"}),
    # delta + n nu past the float range, with n itself past it and inside the order ceiling.
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *HUGE_SIDEBAND], {"NonFiniteResult"}),
    (["--param", "delta", "--start", "-1", "--stop", "1", "--count", "3", *FAR_SHIFT], {"NonFiniteResult"}),
    # Sideband -1 lies in band beside the default 0, but J_-1 is 0 at both chi: the columns
    # cannot clear these points, yet both are valid and take J_0(chi) from the one column.
    (["--param", "chi", "--start", "0", "--stop", str(J1_ROOT), "--count", "2", "--drive-freq", "3", "--delta", "1.5"],
     {""}),
]


@pytest.mark.parametrize("flags, outcomes", GOLDEN_SWEEPS)
def test_golden_sweep_cells_match_fresh_per_point_calls(flags, outcomes, tmp_path, monkeypatch):
    # A golden-rate sweep takes J_n(chi) from one column call per sideband over
    # the distinct chi that pass the Bessel ceilings; every cell must still be the
    # rate or error type of a fresh decay_rate_longtime call at its point.
    columns = _record_columns(monkeypatch)
    argv = ["sweep", *flags, "--quantity", "golden-rate"]
    table = rows(run_to_file(argv, tmp_path / "s.csv"))
    expected = _fresh_cells(argv)
    assert [tuple(row[1:]) for row in table[1:]] == expected
    assert {error for _, error in expected} == outcomes
    _assert_one_column_per_sideband(columns, argv)


# Sweep ends that cross the band edges (delta = +-2 xi), J_0 and J_1 roots,
# g^2 overflow (g > 1.34e154) and delta overflow. GOLDEN_SWEEPS crosses the
# Bessel argument ceiling, where each point below it costs milliseconds.
ENDS = st.one_of(
    st.sampled_from((0.0, -0.0, 2.0, -2.0, 1.999, 2.001, J0_ROOT, 3.8317059702075125,
                     1.3e154, 1.4e154, 5e-324, 1e-300, 8e307, -8e307, 1.7e308, -1.7e308)),
    st.floats(-12.0, 12.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sweep_argvs(draw) -> list[str]:
    param = draw(st.sampled_from(cli.SWEEPABLE))
    ends = st.integers(-2, 41) if param == "n_cavities" else ENDS
    start, stop = draw(ends), draw(ends)
    assume(start != stop and math.isfinite(stop - start))
    argv = [
        "sweep", f"--param={param}", f"--start={start!r}", f"--stop={stop!r}", f"--count={draw(st.integers(2, 9))}",
        "--quantity=" + draw(st.sampled_from(("rate", "golden-rate", "regime"))),
        f"--t={draw(st.sampled_from((0.5, 7.0, 100.0)))!r}",
        # Below 4 xi a second sideband can lie in the band; at 5e-324 -delta / nu overflows.
        f"--drive-freq={draw(st.sampled_from((5e-324, 1.5, 3.0, 3.9, 4.1, 6.0)))!r}",
    ]
    if param != "n_cavities":
        argv.append(f"--n-cavities={draw(st.integers(1, 41))}")
    flags = ("omega", st.floats(-4.0, 4.0)), ("delta", st.floats(-8.0, 8.0)), ("chi", st.floats(0.0, 6.0)), ("xi", st.floats(0.2, 2.0))
    for flag, values in flags:
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(st.one_of(values, ENDS))!r}")
    if draw(st.booleans()):
        argv.append(f"--sideband={draw(st.integers(-3, 3))}")
    return argv


def _sweep_argv(param, start, stop, quantity, *flags) -> list[str]:
    return ["sweep", f"--param={param}", f"--start={start}", f"--stop={stop}", "--count=5",
            f"--quantity={quantity}", "--t=7.0", *flags]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=sweep_argvs())
# Each field check of validate, and a delta = omega_c - omega past the float range.
@example(argv=_sweep_argv("g", "-1", "1", "rate"))
@example(argv=_sweep_argv("xi", "-1", "1", "regime"))
@example(argv=_sweep_argv("drive_amp", "-6", "6", "golden-rate"))
@example(argv=_sweep_argv("drive_freq", "-3", "3", "rate"))
@example(argv=_sweep_argv("n_cavities", "-1", "3", "regime"))
@example(argv=_sweep_argv("omega_c", "8e307", "1.7e308", "regime", "--omega=-1.7e308"))
def test_sweep_cells_equal_fresh_one_point_calls(argv):
    # The sweep clears most points by array comparisons and resolves the rest
    # on their own; every (value, error) cell must be a fresh one-point call's.
    code, out, err = _run_captured(argv)
    assert (code, err) == (0, "")
    with np.errstate(all="ignore"):
        values = cli._sweep_values(cli._parser().parse_args(argv))
    assert rows(out.encode())[1:] == [[csv_cell(v), *cell] for v, cell in zip(values, _fresh_cells(argv))]


# Over drive_freq the default sideband moves from 2 to 1; one point between fails SecondSideband.
# Over chi up to the J_1 root, sideband -1 lies in band beside 0, and only its two ends, where
# J_-1 is 0, resolve on their own and rejoin the column.
COLUMN_SWEEPS = [*RATE_SWEEPS, ("drive_freq", "2.5", "7", ["--chi", "1", "--delta", "-5"]),
                 ("chi", "0", str(J1_ROOT), ["--drive-freq", "3", "--delta", "1.5"])]


@pytest.mark.parametrize("param, start, stop, flags", COLUMN_SWEEPS)
def test_rate_sweep_makes_one_bessel_column_per_sideband(param, start, stop, flags, tmp_path, monkeypatch):
    # However many grids a rate sweep builds (13 over N), J_n(chi) comes from
    # one column call per sideband n, as in every other sweep.
    columns = _record_columns(monkeypatch)
    argv = rate_sweep_argv(param, start, stop, flags)
    run_to_file(argv, tmp_path / "s.csv")
    _assert_one_column_per_sideband(columns, argv)
    assert len(columns) == (2 if param == "drive_freq" else 1)


def test_rate_sweep_through_a_bessel_root_reads_exact_zeros(tmp_path):
    argv = ["sweep", "--param", "chi", "--start", "0", "--stop", "3", "--count", "4", "--sideband", "1", "--t", "7"]
    assert rows(run_to_file(argv, tmp_path / "s.csv"))[1][1:] == ["0", ""]


def test_sweep_regime_column(tmp_path):
    argv = ["sweep", "--param", "delta", "--start", "1.5", "--stop", "2.5", "--count", "2", "--quantity", "regime", "--t", "10", "--chi", "1"]
    table = rows(run_to_file(argv, tmp_path / "regime.csv"))
    assert [r[1] for r in table[1:]] == ["Indeterminate", "AntiZeno"]


def test_sweep_argument_validation():
    base = ["sweep", "--param", "g", "--quantity", "rate", "--t", "5"]
    assert run(base + ["--start", "1", "--stop", "1", "--count", "3"]) == 2
    assert run(base + ["--start", "0", "--stop", "1", "--count", "1"]) == 2


def test_classify_row(capsys):
    assert run(["classify", "--delta", "3", "--chi", "1", "--t", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "regime,delta_f,omega_f,delta_g,omega_g"
    cells = out[1].split(",")
    assert cells[0] == "AntiZeno"
    assert float(cells[1]) == pytest.approx(0.1)
    assert float(cells[2]) == pytest.approx(3.0)


def test_floquet_spectrum_rows(capsys):
    assert run(["floquet-spectrum", "--n-cavities", "5", "--truncation", "4", "--delta", "1", "--chi", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "index,quasi_energy,edge_weight"
    assert len(out) == 1 + 6 * 9
    energies = [float(line.split(",")[1]) for line in out[1:]]
    assert energies == sorted(energies)


def test_survival_oracle_method(capsys):
    argv = ["survival", "--method", "oracle", "--n-cavities", "11", "--delta", "1", "--chi", "1", "--t-max", "2", "--t-steps", "4"]
    assert run(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,P_e"
    values = [float(line.split(",")[1]) for line in out[1:]]
    assert len(values) == 4
    assert all(0.0 < v <= 1.0 for v in values)


@pytest.mark.parametrize("flag, value", [("--g", "1e6"), ("--omega", "1e300")])
def test_oracle_run_past_the_step_budget_is_refused_upfront(flag, value, capsys):
    # Each would take about two minutes of stepping before the in-loop check.
    argv = ["survival", "--method", "oracle", "--n-cavities", "5", "--t-max", "1", "--t-steps", "2", flag, value]
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "StepLimitExceeded" in err[0]


def test_survival_methods_agree_weak_coupling(capsys):
    base = ["survival", "--g", "0.05", "--delta", "1", "--drive-amp", "0", "--t-max", "4", "--t-steps", "4"]
    curves = {}
    for method in ("perturbative", "oracle"):
        assert run(base + ["--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        curves[method] = [float(line.split(",")[1]) for line in lines]
    diffs = [abs(a - b) for a, b in zip(curves["perturbative"], curves["oracle"])]
    assert max(diffs) <= 1e-2


def test_reproduce_fig3(tmp_path, capsys):
    out_dir = tmp_path / "fig3"
    assert run(["reproduce-fig3", "--out-dir", str(out_dir), "--t-steps", "40"]) == 0
    err = capsys.readouterr().err
    names = ["fig3_blue.csv", "fig3_red.csv", "fig3_green.csv"]
    curves = {}
    for name in names:
        path = out_dir / name
        assert path.exists()
        assert name in err
        table = rows(path.read_bytes())
        assert table[0] == ["t", "R"]
        curves[name] = [float(r[1]) for r in table[1:]]
        assert len(curves[name]) == 40
    assert curves["fig3_blue.csv"][-1] > curves["fig3_blue.csv"][0]
    assert curves["fig3_red.csv"][-1] < curves["fig3_red.csv"][0]
    assert max(curves["fig3_green.csv"]) <= 1e-10


def test_time_grid_validation(tmp_path):
    assert run(["decay-rate", "--t-max", "0"]) == 2
    assert run(["decay-rate", "--t-steps", "0"]) == 2
    assert run(["decay-rate", "--t-min", "30", "--t-max", "20"]) == 2
    assert run(["decay-rate", "--t-min", "5", "--t-max", "5", "--t-steps", "3"]) == 2
    assert run(["reproduce-fig3", "--t-steps", "0", "--out-dir", str(tmp_path)]) == 2


def test_invalid_physical_parameters_exit_2():
    assert run(["decay-rate", "--xi", "-1"]) == 2
    assert run(["decay-rate", "--n-cavities", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--g", "nan"],
        ["decay-rate", "--omega", "inf"],
        ["decay-rate", "--drive-amp", "nan"],
        ["sweep", "--param", "g", "--start", "nan", "--stop", "1", "--count", "3"],
        ["sweep", "--param", "omega", "--start=-1e308", "--stop", "1e308", "--count", "5", "--omega-c", "1e308"],
        ["sweep", "--param", "g", "--start", "0.1", "--stop", "0.2", "--count", "3", "--t", "inf"],
        ["survival", "--t-max", "inf"],
        ["classify", "--t", "inf"],
        ["classify", "--t", "1e-320"],
        ["spectral-density", "--omega", "nan"],
        ["spectral-density", "--omega", "inf"],
        ["sweep", "--param", "g", "--start", "0.1", "--stop", "0.2", "--count", "3", "--quantity", "regime", "--t", "1e-320"],
    ],
)
def test_non_finite_input_exits_2(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--drive-freq", "1e-313"],  # -delta / nu overflows: no finite sideband
        ["decay-rate", "--g", "1.4e154"],  # g^2 overflows: NonFiniteResult
        ["spectral-density", "--xi", "1e-320", "--omega", "0"],  # rho = 1/(2 pi xi) exceeds the float range
    ],
)
def test_overflowing_input_exits_3(argv, capsys):
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    # One line: no numpy RuntimeWarning ahead of it.
    assert err.startswith("numerical error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("extra", [[], ["--g", "0"], ["--omega", "4"]], ids=["defaults", "g-0", "omega-4"])
def test_perturbative_survival_past_the_float_range_exits_3(extra, capsys):
    # t^2 overflows in the amplitude (t^2 g^2 is nan at g = 0, and omega t / 2
    # overflows at omega = 4): refused before any row, where the rows once
    # held nan or math.cos raised a bare ValueError.
    assert run(["survival", "--t-max", "1e308"] + extra) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: NonFiniteResult: the perturbative amplitude overflows at t = 1e+308\n"


def test_perturbative_overshoot_is_one_warning_line(capsys):
    argv = ["survival", "--g", "2", "--omega-c", "2", "--drive-amp", "0", "--n-cavities", "5",
            "--t-max", "3", "--t-steps", "3"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert out == "t,P_e\n1,0.487333055362\n2,1\n3,1\n"
    assert err.startswith("warning: perturbative P_e up to ") and err.count("\n") == 1, err
    assert "overshoots 1 at 2 of 3 times" in err


def test_overflowing_sinc_argument_exits_0(capsys):
    # At t = 1e308 some arguments (delta - 2 xi cos k) t / 2 pass the float
    # range; those terms are their phase average and R(t) stays finite, not
    # an error.
    assert run(["decay-rate", "--t-max", "1e308", "--t-steps", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *table = rows(out.encode())
    assert header == ["t", "R"] and len(table) == 2
    assert all(math.isfinite(float(cell)) for row in table for cell in row)


def test_far_detunings_exit_0(capsys):
    # Every detuning is about 1e307 at sideband -1, so each term is its
    # phase average, which underflows: R = 0, not a nan row.
    argv = ["decay-rate", "--delta", "1e308", "--drive-freq", "0.9e308", "--chi", "1", "--sideband", "-1",
            "--t-max", "100", "--t-steps", "2"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert rows(out.encode()) == [["t", "R"], ["50", "0"], ["100", "0"]]


def test_exponential_survival_up_to_the_float_range(capsys):
    # R(t) t stays O(1) at every time, also where (delta - 2 xi cos k) t
    # overflows for some modes: no P_e rounds to 0 or 1.
    assert run(["survival", "--method", "exponential", "--t-max", "1e308", "--t-steps", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *table = rows(out.encode())
    assert header == ["t", "P_e"] and len(table) == 4
    assert all(0.0 < float(p) < 1.0 for _, p in table), table


@pytest.mark.parametrize("command", [["classify"], ["decay-rate", "--t-steps", "5"]])
def test_subnormal_drive_amplitude_exits_0(command, capsys):
    # chi = 5e-324: J_0 = 1 exactly, so sideband 0 gives the undriven rows.
    assert run(command + ["--drive-amp", "5e-324", "--drive-freq", "1", "--sideband", "0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *table = rows(out.encode())
    assert table and all(math.isfinite(float(cell)) for row in table for cell in row[1:])
    assert run(command + ["--drive-amp", "0", "--drive-freq", "1", "--sideband", "0"]) == 0
    assert capsys.readouterr().out == out


TWO_SIDEBANDS = ["--delta", "1.4", "--chi", "1", "--drive-freq", "3", "--g", "0.05", "--n-cavities", "301"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decay-rate", "--t-steps", "3"] + TWO_SIDEBANDS,
        ["survival", "--t-steps", "3"] + TWO_SIDEBANDS,
        ["survival", "--method", "exponential", "--t-steps", "3"] + TWO_SIDEBANDS,
        ["classify"] + TWO_SIDEBANDS,
        # Undriven at nu = 1: the default sideband -1 has J_-1(0) = 0, while
        # sideband 0, also in band, carries the whole decay.
        ["classify", "--drive-amp", "0", "--drive-freq", "1"],
        ["decay-rate", "--t-steps", "5", "--drive-amp", "0", "--drive-freq", "1"],
        ["decay-rate", "--t-steps", "5", "--drive-amp", "5e-324", "--drive-freq", "1"],
        # The sideband check comes before the cavity ceiling, as in classify and a sweep cell.
        ["decay-rate", "--t-steps", "3", *TWO_SIDEBANDS, "--n-cavities", "2000000"],
        ["survival", "--n-cavities", "2000000", "--drive-freq", "3", "--delta", "1.5", "--chi", "1"],
    ],
)
def test_second_sideband_in_band_exits_3(argv, capsys):
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error: SecondSideband: ") and err.count("\n") == 1, err


def test_explicit_sideband_returns_that_channel(tmp_path):
    argv = ["decay-rate", "--t-max", "20", "--t-steps", "2", "--sideband", "0"] + TWO_SIDEBANDS
    table = rows(run_to_file(argv, tmp_path / "r.csv"))
    # Sideband 0 alone, near its golden rate 2 pi g^2 J_0(1)^2 rho(1.4) = 0.00205.
    assert float(table[-1][1]) == pytest.approx(0.00205, rel=0.01)
    sweep = ["sweep", "--param", "drive_freq", "--start", "3", "--stop", "6", "--count", "2"] + TWO_SIDEBANDS[:4]
    table = rows(run_to_file(sweep, tmp_path / "s.csv"))
    assert table[1] == ["3", "", "SecondSideband"]
    assert float(table[2][1]) > 0.0 and table[2][2] == ""


def test_reproduce_fig3_nu(tmp_path, capsys):
    assert run(["reproduce-fig3", "--nu", "0", "--out-dir", str(tmp_path / "zero")]) == 2
    assert not (tmp_path / "zero").exists()
    capsys.readouterr()
    # At nu = 4 sideband -1 reaches the band for delta = 3 (red, green), not for delta = 1 (blue).
    assert run(["reproduce-fig3", "--nu", "4", "--out-dir", str(tmp_path), "--t-steps", "3"]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fig3_blue.csv", "fig3_green.csv", "fig3_red.csv"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
    assert [line.split(":")[1].strip() for line in warnings] == ["fig3_red.csv", "fig3_green.csv"]


@pytest.mark.parametrize("nu", ["6", "4"])
def test_reproduce_fig3_files_are_decay_rate_at_sideband_0(nu, tmp_path, capsys):
    # At nu = 4 the red and green curves warn; their files stay the
    # explicit-sideband decay-rate tables all the same.
    grid = ["--t-max", "7", "--t-steps", "9"]
    assert run(["reproduce-fig3", "--nu", nu, "--out-dir", str(tmp_path)] + grid) == 0
    capsys.readouterr()
    for name, delta, chi in (("blue", "1", "1"), ("red", "3", "1"), ("green", "3", repr(bessel_j_zero(0, 1)))):
        argv = ["decay-rate", "--delta", delta, "--chi", chi, "--drive-freq", nu, "--sideband", "0"] + grid
        assert run(argv) == 0
        assert (tmp_path / f"fig3_{name}.csv").read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["floquet-spectrum", "--truncation", "1000000"],  # (2M+1)^2 couplings alone: 29.1 TiB
        ["decay-rate", "--n-cavities", "100000000000"],
        ["decay-rate", "--t-steps", "1000000000000"],
        ["reproduce-fig3", "--t-steps", "1000000000000"],
        ["sweep", "--param", "chi", "--start", "0", "--stop", "1", "--count", "1000000000000"],
    ],
)
def test_size_past_its_ceiling_exits_3_at_once(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error: SizeTooLarge: ") and err.count("\n") == 1, err


def test_row_and_cavity_ceilings_admit_their_size(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ROWS", 3)
    monkeypatch.setattr(bath, "MAX_CAVITIES", 5)
    sweep = ["sweep", "--param", "g", "--start", "0.1", "--stop", "0.2"]
    for argv, code in (
        (["decay-rate", "--t-steps", "3", "--n-cavities", "5"], 0),
        (["decay-rate", "--t-steps", "4", "--n-cavities", "5"], 3),
        (["decay-rate", "--t-steps", "3", "--n-cavities", "6"], 3),
        (sweep + ["--count", "3", "--n-cavities", "5"], 0),
        (sweep + ["--count", "4", "--n-cavities", "5"], 3),
    ):
        assert run(argv) == code, argv
    assert "SizeTooLarge" in capsys.readouterr().err
    # A swept N past the ceiling fails that point only.
    argv = ["sweep", "--param", "n_cavities", "--start", "5", "--stop", "6", "--count", "2"]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == "6,,SizeTooLarge"


def test_sweep_reports_overflow_per_point(tmp_path):
    argv = ["sweep", "--param", "g", "--start", "0.25", "--stop", "1.4e154", "--count", "2", "--quantity", "rate"]
    table = rows(run_to_file(argv, tmp_path / "overflow.csv"))
    assert float(table[1][1]) > 0.0 and table[1][2] == ""
    assert table[2][1:] == ["", "NonFiniteResult"]


def test_no_subcommand_exits_2():
    assert run([]) == 2


def _run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_bench_sweeps_keep_their_frozen_digests_and_labels():
    # The benchmark refuses a run whose sweep stdout differs from the digests
    # frozen in bench/reference.json; this reads them and checks the same bytes.
    frozen = json.loads((Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text(encoding="utf-8"))
    for name, argv in BENCH.SWEEPS:
        code, out, err = _run_captured(argv)
        assert (code, err) == (0, ""), name
        assert hashlib.sha256(out.encode()).hexdigest() == frozen[f"digest:{name}"], name
        if name == "sweep-regime":
            assert [row[1] for row in rows(out.encode())[1:]] == frozen["sweep-regime:regimes"]


def test_rate_sweep_over_n_holds_one_grid_at_a_time():
    # A grid at N near 2^20 holds two arrays of floor(N/2)+1 floats (8.4 MB), and
    # building one peaks at three. A sweep over N holds one grid while it builds
    # the next: 21.2 MB traced over these 20 grids, where a sweep that held every
    # grid until its J_n(chi) were evaluated peaked at 168 MB.
    argv = ["sweep", "--param", "n_cavities", "--start", "1000000", "--stop", "1048576", "--count", "20", "--t", "7"]
    tracemalloc.start()
    try:
        code, out, err = _run_captured(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert all(error == "" for *_, error in rows(out.encode())[1:])
    assert peak < 6 * 8 * (bath.MAX_CAVITIES // 2 + 1), peak


def test_rate_sweep_holds_its_points_as_columns():
    # A 20000-point chi sweep resolves its points as arrays and keeps no
    # SystemParams or dict of floats per point: 9.0 MB traced through run(),
    # stdout included, where one object per point peaked at 11.3 MB.
    argv = ["sweep", "--param", "chi", "--start", "0", "--stop", "5", "--count", "20000", "--n-cavities", "2001",
            "--delta", "1", "--t", "10"]
    tracemalloc.start()
    try:
        code, out, err = _run_captured(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "") and len(out.splitlines()) == 20001
    assert peak < 10e6, peak


def test_regime_sweep_lists_its_points_a_block_at_a_time():
    # A 20000-point delta sweep builds each point's SystemParams from fields listed
    # cli.BLOCK points at a time: 7.0 MB traced through run(), stdout
    # included, where listing each sideband's points at once peaked at 8.5 MB.
    argv = ["sweep", "--param", "delta", "--start", "-5", "--stop", "5", "--count", "20000", "--quantity", "regime",
            "--chi", "1", "--t", "10"]
    tracemalloc.start()
    try:
        code, out, err = _run_captured(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "") and len(out.splitlines()) == 20001
    assert {line.split(",", 1)[1] for line in out.splitlines()[1:]} == {"AntiZeno,", "Indeterminate,"}
    assert peak < 7.6e6, peak


def test_one_parser_serves_every_run_in_a_process(tmp_path):
    # run() parses with one parser per process. The benchmark's argv lists,
    # run twice interleaved, give the same bytes, and no flag carries over.
    work = tmp_path / "work"
    work.mkdir()
    (work / "bad.cfg").write_text(BENCH.BAD_CONFIG, encoding="utf-8")
    argvs = [argv for _, argv in BENCH.SWEEPS] + [argv for _, argv, _ in BENCH.CLI_COMMANDS]
    argvs = [[word.replace("{work}", str(work)) for word in argv] for argv in argvs]
    first = [_run_captured(argv) for argv in argvs]
    files = sorted((p.name, p.read_bytes()) for p in (work / "fig3").iterdir())
    assert [_run_captured(argv) for argv in argvs] == first
    assert sorted((p.name, p.read_bytes()) for p in (work / "fig3").iterdir()) == files
    assert [code for code, _, _ in first[len(BENCH.SWEEPS):]] == [code for _, _, code in BENCH.CLI_COMMANDS]

    plain = _run_captured(["classify"])
    assert _run_captured(["classify", "--sideband", "1"]) != plain
    assert _run_captured(["classify"]) == plain
    assert _run_captured(["--out", str(tmp_path / "c.csv"), "classify"])[1] == ""
    assert _run_captured(["classify"]) == plain
    assert _run_captured(["classify", "--config", str(work / "bad.cfg")])[0] == 2
    assert _run_captured(["classify"]) == plain
