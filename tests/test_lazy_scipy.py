"""The library runs on numpy alone: no scipy module is loaded at run time.

No CLI subcommand and neither continuum-rate route imports scipy; the
routes are band sums, and the oracle steps with the package's own
`dop853.DOP853`, bound at import as `oracle.RK45` (the name the
benchmark's tracer replaces) and looked up on the module at each run,
so a replaced stepper is used. `decay.quad` is a plain name bound to
None, there only for the tracer to wrap; it loads nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import floquet_zeno
from floquet_zeno import oracle
from floquet_zeno.bath import build_grid
from floquet_zeno.params import SystemParams, validate

SRC = str(Path(floquet_zeno.__file__).resolve().parent.parent)

SCRIPT = """
import sys

from floquet_zeno import cli, decay
from floquet_zeno.params import SystemParams


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


out_dir = sys.argv[1]
for argv in (
    ["classify", "--delta", "3", "--chi", "1", "--t", "10"],
    ["decay-rate", "--delta", "1", "--chi", "1", "--t-steps", "20"],
    ["spectral-density", "--xi", "1", "--omega", "0.5"],
    ["floquet-spectrum", "--n-cavities", "5", "--truncation", "4"],
    ["sweep", "--param", "chi", "--start", "0", "--stop", "2", "--count", "5", "--quantity", "rate"],
    ["sweep", "--param", "chi", "--start", "0", "--stop", "5", "--count", "5", "--quantity", "golden-rate", "--delta", "0"],
    ["sweep", "--param", "delta", "--start", "1", "--stop", "3", "--count", "4", "--quantity", "regime"],
    ["survival", "--method", "perturbative", "--t-steps", "10"],
    ["survival", "--method", "exponential", "--t-steps", "10"],
    ["reproduce-fig3", "--out-dir", out_dir, "--t-steps", "10"],
    ["survival", "--method", "oracle", "--n-cavities", "5", "--t-max", "1", "--t-steps", "2"],
    ["survival", "--method", "oracle", "--n-cavities", "5", "--t-max", "20", "--t-steps", "3"],
):
    assert cli.run(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
p = SystemParams(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=5, drive_amp=6.0, drive_freq=6.0)
assert decay.decay_rate_continuum(p, 0, 5.0) > 0.0
assert decay.decay_rate_overlap(p, 0, 5.0) > 0.0
assert not scipy_modules(), scipy_modules()
"""


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=5, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def test_no_subcommand_loads_scipy_integrate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["fig3_blue.csv", "fig3_green.csv", "fig3_red.csv"]


def test_oracle_steps_through_a_replaced_rk45(monkeypatch):
    steps = []

    class CountingRK45(oracle.RK45):
        def step(self):
            steps.append(self.t)
            return super().step()

    monkeypatch.setattr(oracle, "RK45", CountingRK45)
    p = make()
    grid = build_grid(p)
    curve = oracle.survival_curve_exact(p, grid, [0.5, 1.0])
    assert curve.probabilities.size == 2
    curve_steps = len(steps)
    assert curve_steps >= 1
    state = oracle.propagate(p, grid, oracle.excited_state(grid), 1.0)
    assert state.time == 1.0
    assert len(steps) > curve_steps
