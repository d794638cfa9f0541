"""Seeded random runs of every subcommand, one line of digests each, for diffing two checkouts.

    python tools/cli_bytes.py SRC --seed S --count N > out.txt

SRC is the directory that holds the `floquet_zeno` package (a checkout's
`src`). Each line is a seeded random argv, its exit code and the sha256 of
its stdout, of its stderr and of the files it wrote, tab separated. The
argvs depend on the seed and count alone, not on the code under SRC, so
the files of two checkouts at one seed and count diff line by line:

    python tools/cli_bytes.py old/src --seed 5 --count 400 > old.txt
    python tools/cli_bytes.py new/src --seed 5 --count 400 > new.txt
    diff old.txt new.txt

Every subcommand is drawn. About half the draws are sweeps over every
sweepable key and all three quantities, with ends at +-0, the band edges,
J_0 and J_1 roots, g^2 overflow and the ends of the float range, subnormal
and tiny drive frequencies, and forced sidebands up to 10^400. The others
are decay-rate, survival by all three methods (the oracle at N <= 15 and
t <= 3), spectral-density, floquet-spectrum at N <= 12 and M <= 6, classify
and reproduce-fig3, each with ordinary values and now and then the same
edge values, sizes past their ceilings, malformed numbers and a config
file, so that exits 2 and 3 are drawn too. A share of the table commands
writes to --out. Every run goes through `cli.run` in this one process, in
an emptied scratch directory; the files digest covers every file the run
left there (the --out table, reproduce-fig3's three curves), by relative
path. An exception that escapes `run` is recorded in place of the exit code.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import random
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

# The CLI's sweepable keys, listed here so the draws do not depend on the code under test.
SWEEPABLE = ("omega", "omega_c", "xi", "g", "n_cavities", "drive_amp", "drive_freq", "chi", "delta")
QUANTITIES = ("rate", "golden-rate", "regime")
J0_ROOT, J1_ROOT = 2.4048255576957733, 3.8317059702075125
# Band edges at xi = 1 and beside them, Bessel roots, g^2 overflow (g > 1.34e154), the float range's ends.
SPECIAL_ENDS = (0.0, -0.0, 2.0, -2.0, 1.999, -1.999, 2.001, -2.001, J0_ROOT, J1_ROOT, 1.3e154, 1.4e154,
                5e-324, -5e-324, 1e-300, 8e307, -8e307, 1.7e308, -1.7e308)
# Drive frequencies: below 4 xi a second sideband can reach the band. Far ones: subnormal and tiny,
# and one where n nu passes the float range at n = 1000.
DRIVE_FREQS, FAR_DRIVE_FREQS = (1.5, 3.0, 3.9, 4.1, 6.0), (5e-324, 1e-300, 1e-12, 1e306)
SIDEBANDS, FAR_SIDEBANDS = (-3, -2, -1, 0, 1, 2, 3), (1000, -2000, 10**40, 10**400)
CAVITY_ENDS = (-2, 0, 1, 2, 41, 1048575, 1048577, 10**19)
TIMES, REFUSED_TIMES = (0.5, 7.0, 10.0, 100.0), (0.0, 5e-324)
SIGNED = ("omega", "omega_c", "delta")  # the keys a negative value is valid for
REFUSED_STEPS = (0, -1, 1048577)  # below 1 and past the row ceiling
# Config files beside the scratch directory: one that sets two fields, one with an unknown key.
CONFIG_TEXTS = {"fields.cfg": "g = 0.1\nn_cavities = 7\n", "bad.cfg": "bogus = 1\n"}
CONFIGS = ("../fields.cfg", "../bad.cfg", "../absent.cfg")


def _pick(rng: random.Random, near, far, far_share: float):
    return rng.choice(far if rng.random() < far_share else near)


def _end(rng: random.Random, signed: bool = True) -> float:
    kind = rng.random()
    if kind < 0.35:
        return rng.choice(SPECIAL_ENDS)
    if kind < 0.8:
        return rng.uniform(-12.0 if signed else 0.0, 12.0)
    return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024))  # any finite double


def _flag_value(rng: random.Random, low: float, high: float) -> float:
    return rng.uniform(low, high) if rng.random() < 0.7 else _end(rng)


def sweep_argv(rng: random.Random) -> list[str]:
    """One random sweep argv; its draws are a function of rng's state alone."""
    param = rng.choice(SWEEPABLE)
    while True:
        if param == "n_cavities":
            start, stop = (rng.choice(CAVITY_ENDS) if rng.random() < 0.2 else rng.randint(-2, 60) for _ in range(2))
        else:
            start, stop = _end(rng, param in SIGNED), _end(rng, param in SIGNED)
        if start != stop and math.isfinite(stop - start):
            break
    count = rng.randint(2, 9) if rng.random() < 0.9 else rng.randint(10, 300)
    argv = [
        "sweep", f"--param={param}", f"--start={start!r}", f"--stop={stop!r}", f"--count={count}",
        f"--quantity={rng.choice(QUANTITIES)}", f"--t={_pick(rng, TIMES, REFUSED_TIMES, 0.05)!r}",
        f"--drive-freq={_pick(rng, DRIVE_FREQS, FAR_DRIVE_FREQS, 0.4)!r}",
    ]
    if param != "n_cavities":
        argv.append(f"--n-cavities={rng.randint(1, 41)}")
    for flag, low, high in (("omega", -4.0, 4.0), ("delta", -8.0, 8.0), ("chi", 0.0, 6.0), ("xi", 0.2, 2.0),
                            ("g", 0.0, 1.0)):
        if rng.random() < 0.5:
            argv.append(f"--{flag}={_flag_value(rng, low, high)!r}")
    if rng.random() < 0.4:
        argv.append(f"--sideband={_pick(rng, SIDEBANDS, FAR_SIDEBANDS, 0.3)}")
    return argv


def _param_flags(rng: random.Random, small: bool = False) -> list[str]:
    """A random subset of the parameter flags; small keeps N, g, omega and the drive where the oracle is quick."""
    argv = []
    if rng.random() < 0.5:
        cavities = rng.randint(1, 15) if small else _pick(rng, range(1, 61), CAVITY_ENDS, 0.2)
        argv.append(f"--n-cavities={cavities}")
    ranges = (("omega", -4.0, 4.0), ("delta", -8.0, 8.0), ("chi", 0.0, 6.0), ("xi", 0.2, 2.0), ("g", 0.0, 1.0))
    for flag, low, high in ranges:
        if rng.random() < 0.4:
            value = rng.uniform(low, high) if small or rng.random() < 0.8 else _end(rng)
            argv.append(f"--{flag}={value!r}")
    if rng.random() < 0.5:
        far = 0.0 if small else 0.2
        argv.append(f"--drive-freq={_pick(rng, DRIVE_FREQS, FAR_DRIVE_FREQS, far)!r}")
    return argv


def _time_flags(rng: random.Random, t_max: float, steps: int) -> list[str]:
    """--t-max and --t-steps, now and then --t-min; a share of them refused or past the row ceiling."""
    argv = [f"--t-max={rng.uniform(0.05, t_max) if rng.random() < 0.9 else _end(rng)!r}"]
    argv.append(f"--t-steps={rng.randint(1, steps) if rng.random() < 0.9 else rng.choice(REFUSED_STEPS)}")
    if rng.random() < 0.2:
        argv.append(f"--t-min={rng.uniform(0.0, t_max)!r}")
    return argv


def _sideband_flag(rng: random.Random) -> list[str]:
    return [f"--sideband={_pick(rng, SIDEBANDS, FAR_SIDEBANDS, 0.2)}"] if rng.random() < 0.3 else []


def table_argv(rng: random.Random) -> list[str]:
    """One random argv of a subcommand other than sweep; its draws are a function of rng's state alone."""
    command = rng.choice(("decay-rate", "survival", "spectral-density", "floquet-spectrum", "classify",
                          "reproduce-fig3"))
    if command == "decay-rate":
        argv = [command, *_param_flags(rng), *_sideband_flag(rng), *_time_flags(rng, 40.0, 300)]
    elif command == "survival":
        method = rng.choice(("perturbative", "exponential", "oracle"))
        oracle = method == "oracle"
        argv = [command, f"--method={method}", *_param_flags(rng, small=oracle)]
        argv += [] if oracle else _sideband_flag(rng)
        argv += _time_flags(rng, 3.0, 20) if oracle else _time_flags(rng, 20.0, 300)
    elif command == "spectral-density":
        argv = [command, f"--omega={rng.uniform(-2.5, 2.5) if rng.random() < 0.7 else _end(rng)!r}"]
        if rng.random() < 0.5:
            argv.append(f"--xi={rng.uniform(0.2, 2.0) if rng.random() < 0.7 else _end(rng)!r}")
    elif command == "floquet-spectrum":
        truncation = rng.randint(2, 6) if rng.random() < 0.9 else rng.choice((-1, 0, 10**6))
        # The last --n-cavities wins over one the parameter flags may draw.
        argv = [command, *_param_flags(rng, True), f"--n-cavities={rng.randint(1, 12)}", f"--truncation={truncation}"]
    elif command == "classify":
        argv = [command, *_param_flags(rng), *_sideband_flag(rng), f"--t={_pick(rng, TIMES, REFUSED_TIMES, 0.1)!r}"]
    else:
        nu = _pick(rng, DRIVE_FREQS, (0.0, -1.0, 1e-12), 0.1)
        argv = [command, "--out-dir=fig3", f"--nu={nu!r}", *_time_flags(rng, 20.0, 50)]
    if command != "reproduce-fig3" and rng.random() < 0.2:
        argv.insert(0, "--out=table.csv")
    if rng.random() < 0.05:
        argv.append(f"--config={rng.choice(CONFIGS)}")
    if rng.random() < 0.03:
        argv.append("--g=abc")  # argparse's own refusal, exit 2
    return argv


def digest_line(run, argv: list[str], scratch: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(run(argv))
        except Exception as exc:  # an exception that escapes run() is an outcome to record
            code = "raised " + type(exc).__name__
    files = hashlib.sha256()
    for path in sorted(p for p in scratch.rglob("*") if p.is_file()):
        files.update(f"{path.relative_to(scratch)}\0".encode() + path.read_bytes())
    for path in scratch.iterdir():  # emptied, not replaced: it is the working directory
        shutil.rmtree(path) if path.is_dir() else path.unlink()
    digests = [hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err)]
    return "\t".join((shlex.join(argv), code, *digests, files.hexdigest()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the floquet_zeno package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from floquet_zeno.cli import run

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as root:
        # The runs see relative paths only, so their stderr does not name the scratch directory.
        for name, text in CONFIG_TEXTS.items():
            Path(root, name).write_text(text, encoding="utf-8")
        scratch = Path(root, "run")
        scratch.mkdir()
        os.chdir(scratch)
        try:
            for _ in range(args.count):
                argv = sweep_argv(rng) if rng.random() < 0.5 else table_argv(rng)
                print(digest_line(run, argv, scratch), flush=True)
        finally:
            os.chdir(root)


if __name__ == "__main__":
    main()
