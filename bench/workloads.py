"""Benchmark operations: each input from inputs.py becomes one Op.

An Op's `run` is the timed call into the program. `check` verifies the
result outside the timed region and returns the number of result values
(CSV value cells for the CLI; elements of returned rates, probabilities,
eigenvalues and amplitudes in-process). Anchored ops also compare
`extract(result)` with values frozen from the seed commit in
reference.json, and CLI ops report a digest of their output bytes.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checks import require

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
CLI_TIMEOUT_S = 60.0

# name -> (header, data rows, numeric columns) of each cold CLI command.
CLI_SHAPES = {
    "decay-rate": ("t,R", 200, (0, 1)),
    "survival-oracle": ("t,P_e", 10, (0, 1)),
    "spectral-density": ("omega,rho", 1, (0, 1)),
    "floquet-spectrum": ("index,quasi_energy,edge_weight", 12 * 17, (0, 1, 2)),
    "classify": ("regime,delta_f,omega_f,delta_g,omega_g", 1, (1, 2, 3, 4)),
    "sweep-golden": ("chi,golden_rate,error", 51, (0, 1)),
}
CLI_NAMES = {name for name, _argv, _code in inputs.CLI_COMMANDS}
FIG3_FILES = ("fig3_blue.csv", "fig3_red.csv", "fig3_green.csv")
REGIMES = {"Zeno", "AntiZeno", "Decoupled", "Indeterminate"}


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable  # result -> number of result values; raises CheckFailed
    key: str | None = None  # reference.json entry, for anchored ops
    extract: Callable | None = None  # result -> list of floats to freeze
    rel: float = checks.FROZEN_REL
    abs_tol: float = 1e-15
    digest: Callable | None = None  # result -> sha256 of the output bytes
    quad_values: int = 0  # result values that come from adaptive quadrature
    repeat: int = 1  # runs per pass


def program_env(root: Path) -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _anchor_key(kind: str, point: dict, *extra) -> str | None:
    if point["name"] not in {a[0] for a in inputs.ANCHORS}:
        return None
    return ":".join([kind, point["name"], *map(str, extra)])


class Program:
    """The floquet_zeno modules, looked up by attribute at call time so
    that tracer wrappers installed later are seen."""

    def __init__(self):
        from floquet_zeno import bath, cli, decay, floquet, oracle, params, specfun

        self.bath, self.cli, self.decay = bath, cli, decay
        self.floquet, self.oracle, self.params, self.specfun = floquet, oracle, params, specfun

    def system(self, point: dict, g: float = 0.25, n_cavities: int = 41):
        return self.params.from_mapping(
            {
                "omega": 2.0,
                "omega_c": 2.0 + point["delta"],
                "xi": 1.0,
                "g": g,
                "n_cavities": n_cavities,
                "drive_amp": point["chi"] * inputs.NU,
                "drive_freq": inputs.NU,
            }
        )

    def run_cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.run(list(argv))
        return code, out.getvalue()


# --- perturbative ---------------------------------------------------------


def _curve(prog: Program, spec: dict) -> Op:
    point, n_cav = spec["point"], spec["n_cavities"]
    times = np.linspace(*spec["grid"])

    def run():
        p = prog.system(point, n_cavities=n_cav)
        grid = prog.bath.build_grid(p)
        return prog.decay.decay_curve(p, grid, prog.params.default_sideband(p), times).rates

    def check(rates):
        rates = checks.finite(rates, "decay_curve")
        require(rates.shape == times.shape and bool(np.all(rates >= 0.0)), "decay_curve: shape or sign")
        ref = checks.lattice_rates(point["delta"], point["chi"], 0.25, n_cav, times)
        checks.close(rates, ref, checks.LATTICE_REL, 1e-15, "decay_curve vs lattice reference")
        i2, i10 = (int(np.argmin(np.abs(times - t))) for t in (2.0, 10.0))
        if point["name"] == "blue":
            require(rates[i10] > rates[i2] > 0.0, "Zeno anchor: R(10) > R(2) > 0 fails")
        elif point["name"] == "red":
            require(rates[i10] < rates[i2], "anti-Zeno anchor: R(10) < R(2) fails")
        elif point["name"] == "green":
            require(float(rates.max()) <= checks.SUPPRESSED_MAX, "decoupled anchor: rate not suppressed")
        return rates.size

    key = _anchor_key(spec["kind"], point, spec["grid"][1])
    return Op(spec["kind"], run, check, key, lambda r: list(map(float, r)))


def _routes(prog: Program, spec: dict) -> Op:
    point, t = spec["point"], spec["t"]

    def run():
        p = prog.system(point)
        n = prog.params.default_sideband(p)
        return prog.decay.decay_rate_continuum(p, n, t), prog.decay.decay_rate_overlap(p, n, t)

    def check(result):
        cont, over = checks.finite(result, "continuum/overlap")
        require(abs(cont - over) <= checks.ROUTES_REL * max(abs(cont), abs(over)),
                f"routes disagree at t={t}: {cont!r} vs {over!r}")
        golden = checks.golden_rate(point["delta"], point["chi"], 0.25)
        if t >= 200.0 and golden > 0.0:
            require(abs(cont - golden) <= checks.GOLDEN_REL * golden, f"R(200) {cont!r} vs golden {golden!r}")
        return 2

    return Op("routes", run, check, _anchor_key("routes", point, t), list, rel=checks.FROZEN_ROUTE_REL,
              quad_values=2)


def _survival(prog: Program, spec: dict) -> Op:
    point, t_max = spec["point"], spec["t_max"]
    times = np.linspace(0.0, t_max, 50)

    def run():
        p = prog.system(point, g=inputs.WEAK_G)
        grid = prog.bath.build_grid(p)
        n = prog.params.default_sideband(p)
        return prog.decay.survival_curve(p, grid, n, times).probabilities

    def check(probs):
        probs = checks.finite(probs, "survival_curve")
        require(probs.shape == times.shape and probs[0] == 1.0, "survival_curve: shape or P(0)")
        require(bool(np.all((probs >= 0.0) & (probs <= 1.0))), "survival_curve: P outside [0, 1]")
        rates = checks.lattice_rates(point["delta"], point["chi"], inputs.WEAK_G, 41, times[1:])
        checks.close(probs[1:], np.exp(-rates * times[1:]), 0.0, checks.ORACLE_ABS, "P_e vs exp(-R t)")
        return probs.size

    return Op("survival", run, check, _anchor_key("survival", point, t_max), lambda r: list(map(float, r)),
              quad_values=times.size - 1)


def _bessel_zero(prog: Program, spec: dict) -> Op:
    def check(root):
        require(abs(root - inputs.J0_ROOT) <= checks.ROOT_ABS, f"J_0 root {root!r}")
        return 1

    return Op("bessel-zero", lambda: prog.specfun.bessel_j_zero(0, 1), check)


def _sweep_check(kind: str, text: str, frozen: dict) -> int:
    argv = dict(inputs.SWEEPS)[kind]
    count = int(argv[argv.index("--count") + 1])
    column = {"sweep-rate": "R", "sweep-regime": "regime", "sweep-golden": "golden_rate"}[kind]
    param = argv[argv.index("--param") + 1]
    table = checks.csv_table(text, f"{param},{column},error", count, kind)
    require(all(row[2] == "" for row in table), f"{kind}: unexpected error cell")
    if kind == "sweep-regime":
        regimes = [row[1] for row in table]
        require(set(regimes) <= REGIMES, f"{kind}: unknown regime")
        require(regimes == frozen[f"{kind}:regimes"], f"{kind}: regimes differ from the seed commit")
        return count
    checks.numeric_cells(table, (0, 1), kind)
    chis = [float(row[0]) for row in table]
    values = np.array([float(row[1]) for row in table])
    if kind == "sweep-rate":
        n_cav = int(argv[argv.index("--n-cavities") + 1])
        ref = [checks.lattice_rates(1.0, chi, 0.25, n_cav, [10.0])[0] for chi in chis]
    else:
        ref = [checks.golden_rate(0.0, chi, 0.25) for chi in chis]
    checks.close(values, ref, checks.LATTICE_REL, 1e-15, kind)
    return count


def _sweep(prog: Program, spec: dict, frozen: dict) -> Op:
    kind = spec["kind"]

    def check(result):
        code, text = result
        checks.exit_code(code, 0, kind)
        return _sweep_check(kind, text, frozen)

    return Op(kind, lambda: prog.run_cli(spec["argv"]), check,
              digest=lambda r: sha256(r[1].encode()))


# --- exact ----------------------------------------------------------------


def _floquet(prog: Program, spec: dict, shared: dict) -> Op:
    """Build + quasi_energies + edge_weights. The matrix is kept for the
    resolvent and averaged-probability ops on the same point, and its
    checked eigen-decomposition for their checks. A point's ops are
    consecutive, so the previous point's matrix is dropped first."""
    point = spec["point"]

    def run():
        shared.clear()
        p = prog.system(point)
        grid = prog.bath.build_grid(p)
        fm = prog.floquet.build_floquet_matrix(p, grid, prog.floquet.default_truncation(p))
        shared[point["name"]] = {"fm": fm}
        spectrum = prog.floquet.quasi_energies(fm)
        return fm, spectrum, prog.floquet.edge_weights(fm, spectrum)

    def check(result):
        fm, spectrum, weights = result
        eig = checks.finite(spectrum.eigenvalues, "quasi_energies")
        vecs = spectrum.eigenvectors
        require(eig.shape == (fm.dim,) and vecs.shape == (fm.dim, fm.dim), "quasi_energies: shape")
        require(bool(np.all(np.diff(eig) >= 0.0)), "quasi_energies: not ascending")
        weights = checks.finite(weights, "edge_weights")
        require(bool(np.all((weights >= 0.0) & (weights <= 1.0 + 1e-9))), "edge_weights outside [0, 1]")
        interior = eig[weights < checks.INTERIOR_WEIGHT]
        require(interior.size > 100, f"only {interior.size} interior quasi-energies")
        dev = 0.0
        for shift in (inputs.NU, -inputs.NU):
            target = interior + shift
            idx = np.clip(np.searchsorted(eig, target), 1, eig.size - 1)
            nearest = np.minimum(np.abs(eig[idx] - target), np.abs(eig[idx - 1] - target))
            dev = max(dev, float(nearest.max()))
        require(dev <= checks.LADDER_ABS, f"quasi-energy ladder deviation {dev:.3g}")
        shared[point["name"]].update(eig=eig, vecs=vecs)
        return eig.size

    def zone(result):
        _fm, spectrum, weights = result
        eig = spectrum.eigenvalues
        keep = (weights < checks.INTERIOR_WEIGHT) & (eig > -inputs.NU / 2) & (eig <= inputs.NU / 2)
        return list(map(float, eig[keep]))

    return Op("floquet", run, check, _anchor_key("floquet", point), zone, abs_tol=checks.LADDER_ABS)


def _green(prog: Program, spec: dict, shared: dict) -> Op:
    point = spec["point"]
    energies = [complex(e, 0.05) for e in spec["energies"]]

    def run():
        fm = shared[point["name"]]["fm"]
        return [prog.floquet.green_coefficient(fm, e, (0, 0), (0, 0)) for e in energies]

    def check(values):
        values = checks.finite(values, "green_coefficient")
        state = shared[point["name"]]
        row = state["vecs"][state["fm"].index(0, 0)]
        ref = [complex(np.sum(row * row.conj() / (e - state["eig"]))) for e in energies]
        checks.close(values, ref, checks.SPECTRAL_REL, 1e-12, "resolvent vs eigen-decomposition")
        return len(energies)

    return Op("green", run, check)


def _averaged(prog: Program, spec: dict, shared: dict) -> Op:
    point, t = spec["point"], spec["t"]

    def run():
        return prog.floquet.averaged_transition_probability(shared[point["name"]]["fm"], 0, 0, t)

    def check(prob):
        checks.finite([prob], "averaged_transition_probability")
        require(0.0 <= prob <= 1.0 + 1e-9, f"probability {prob!r} outside [0, 1]")
        state = shared[point["name"]]
        fm, eig, vecs = state["fm"], state["eig"], state["vecs"]
        amp = vecs @ (np.exp(-1j * eig * t) * vecs[fm.index(0, 0)].conj())
        rows = [fm.index(0, m) for m in range(-fm.truncation, fm.truncation + 1)]
        ref = float(np.sum(np.abs(amp[rows]) ** 2))
        checks.close([prob], [ref], 0.0, checks.SPECTRAL_REL, "averaged probability vs eigen-decomposition")
        return 1

    return Op("averaged", run, check)


def _reduced(prog: Program, spec: dict) -> Op:
    point, n = spec["point"], spec["sideband"]

    def run():
        p = prog.system(point)
        fm = prog.floquet.reduced_hamiltonian(p, prog.bath.build_grid(p), n)
        return prog.floquet.quasi_energies(fm).eigenvalues

    def check(eig):
        eig = checks.finite(eig, "reduced spectrum")
        require(eig.shape == (42,), "reduced spectrum: shape")
        k = 2.0 * math.pi * np.arange(41) / 41
        diag = np.concatenate(([1.0], 2.0 + point["delta"] - 2.0 * np.cos(k) - 1.0 + n * inputs.NU))
        c = 0.25 * checks.bessel_ref(n, point["chi"]) / math.sqrt(41)
        checks.close(eig.sum(), diag.sum(), 1e-10, 1e-10, "reduced spectrum trace")
        frob = float((diag * diag).sum() + 2 * 41 * c * c)
        checks.close(float((eig * eig).sum()), frob, 1e-10, 1e-10, "reduced spectrum Frobenius norm")
        return eig.size

    key = _anchor_key("reduced", point, n)
    return Op("reduced", run, check, key, lambda r: list(map(float, r)), abs_tol=1e-12)


def _oracle_survival(prog: Program, spec: dict) -> Op:
    point, t_max = spec["point"], spec["t_max"]
    times = np.linspace(t_max / 50, t_max, 50)

    def run():
        p = prog.system(point, g=inputs.WEAK_G)
        return prog.oracle.survival_curve_exact(p, prog.bath.build_grid(p), times).probabilities

    def check(probs):
        probs = checks.finite(probs, "survival_curve_exact")
        require(probs.shape == times.shape, "survival_curve_exact: shape")
        require(bool(np.all((probs >= 0.0) & (probs <= 1.0 + checks.NORM_ABS))), "P outside [0, 1]")
        rates = checks.lattice_rates(point["delta"], point["chi"], inputs.WEAK_G, 41, times)
        checks.close(probs, np.exp(-rates * times), 0.0, checks.ORACLE_ABS, "oracle vs perturbative")
        return probs.size

    key = _anchor_key(spec["kind"], point, round(t_max, 6))
    return Op(spec["kind"], run, check, key, lambda r: list(map(float, r)), rel=0.0,
              abs_tol=checks.FROZEN_ORACLE_ABS)


def _reversal(prog: Program, spec: dict) -> Op:
    point, t = spec["point"], spec["t"]

    def run():
        p = prog.system(point)
        grid = prog.bath.build_grid(p)
        forward = prog.oracle.propagate(p, grid, prog.oracle.excited_state(grid), t)
        return forward, prog.oracle.propagate(p, grid, forward, 0.0)

    def check(result):
        forward, back = result
        checks.finite(np.concatenate(([forward.c_e, back.c_e], forward.c_k, back.c_k)), "propagate")
        drift = abs(forward.norm_sq() - 1.0)
        require(drift <= checks.NORM_ABS, f"norm drift {drift:.3g}")
        reversal = abs(back.c_e - 1.0) + float(np.max(np.abs(back.c_k)))
        require(reversal <= checks.NORM_ABS, f"forward/back reversal {reversal:.3g}")
        return 2 * (1 + forward.c_k.size)

    extract = lambda r: [r[0].c_e.real, r[0].c_e.imag]  # noqa: E731
    return Op("reversal", run, check, _anchor_key("reversal", point), extract, rel=0.0,
              abs_tol=checks.FROZEN_ORACLE_ABS)


# --- cold CLI -------------------------------------------------------------


class ColdCli:
    """Runs each command as a fresh `python -m floquet_zeno` process, or,
    traced, through cli_child.py, which wraps the layers before `run`."""

    def __init__(self, root: Path, work: Path, trace_dir: Path | None = None):
        self.root, self.work, self.trace_dir = root, work, trace_dir
        self.env = program_env(root)
        (work / "bad.cfg").write_text(inputs.BAD_CONFIG, encoding="utf-8")
        self.calls = 0

    def command(self, argv) -> list[str]:
        argv = [a.replace("{work}", str(self.work)) for a in argv]
        if self.trace_dir is None:
            return [sys.executable, "-m", "floquet_zeno", *argv]
        self.calls += 1
        stats = self.trace_dir / f"{self.calls}.json"
        return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(stats), *argv]

    def run(self, argv) -> tuple[int, bytes]:
        proc = subprocess.run(self.command(argv), env=self.env, cwd=self.root, capture_output=True,
                              timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout


def _cli(runner: ColdCli, spec: dict) -> Op:
    name, expect = spec["name"], spec["expect"]
    fig3_dir = runner.work / "fig3"

    def run():
        if name == "reproduce-fig3":
            for f in FIG3_FILES:
                (fig3_dir / f).unlink(missing_ok=True)
        return runner.run(spec["argv"])

    def check(result):
        code, out = result
        checks.exit_code(code, expect, name)
        if expect != 0 or name == "reproduce-fig3":
            require(out == b"", f"{name}: unexpected stdout")
        if expect != 0:
            return 0
        if name == "reproduce-fig3":
            total = 0
            for f in FIG3_FILES:
                table = checks.csv_table((fig3_dir / f).read_text(encoding="utf-8"), "t,R", 200, f)
                total += checks.numeric_cells(table, (0, 1), f)
            return total
        header, rows, columns = CLI_SHAPES[name]
        table = checks.csv_table(out.decode("ascii"), header, rows, name)
        count = checks.numeric_cells(table, columns, name)
        if name == "classify":
            require(table[0][0] in REGIMES, f"classify: unknown regime {table[0][0]!r}")
            count += 1
        return count

    def digest(result):
        if name == "reproduce-fig3":
            return sha256(b"".join((fig3_dir / f).read_bytes() for f in FIG3_FILES))
        return sha256(result[1])

    return Op(name, run, check, digest=digest)


def build(workload: str, seed: int, prog: Program | None, frozen: dict, runner: ColdCli | None = None) -> list[Op]:
    specs = inputs.generate(workload, seed)
    if workload == "cli-cold":
        return [_cli(runner, s) for s in specs]
    shared = {}
    makers = {
        "bessel-zero": _bessel_zero,
        "curve41": _curve,
        "curve4001": _curve,
        "routes": _routes,
        "survival": _survival,
        "sweep-rate": lambda p, s: _sweep(p, s, frozen),
        "sweep-regime": lambda p, s: _sweep(p, s, frozen),
        "sweep-golden": lambda p, s: _sweep(p, s, frozen),
        "floquet": lambda p, s: _floquet(p, s, shared),
        "green": lambda p, s: _green(p, s, shared),
        "averaged": lambda p, s: _averaged(p, s, shared),
        "reduced": _reduced,
        "short": _oracle_survival,
        "long": _oracle_survival,
        "reversal": _reversal,
    }
    ops = [makers[s["kind"]](prog, s) for s in specs]
    for op, spec in zip(ops, specs):
        op.repeat = spec.get("repeat", 1)
    return ops
