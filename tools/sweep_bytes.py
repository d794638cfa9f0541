"""Seeded random `sweep` runs, one line of digests each, for diffing two checkouts.

    python tools/sweep_bytes.py SRC --seed S --count N > out.txt

SRC is the directory that holds the `floquet_zeno` package (a checkout's
`src`). Each line is a seeded random `sweep` argv, its exit code and the
sha256 of its stdout and of its stderr, tab separated. The argvs depend on
the seed and count alone, not on the code under SRC, so the files of two
checkouts at one seed and count diff line by line:

    python tools/sweep_bytes.py old/src --seed 5 --count 400 > old.txt
    python tools/sweep_bytes.py new/src --seed 5 --count 400 > new.txt
    diff old.txt new.txt

The draws cover every sweepable key and all three quantities, with ends at
+-0, the band edges, J_0 and J_1 roots, g^2 overflow and the ends of the
float range, subnormal and tiny drive frequencies, and forced sidebands up
to 10^400. Every sweep runs in this one process through `cli.run`; an
exception that escapes it is recorded in place of the exit code.
"""

import argparse
import contextlib
import hashlib
import io
import math
import random
import shlex
import sys

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


def digest_line(run, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(run(argv))
        except Exception as exc:  # an exception that escapes run() is an outcome to record
            code = "raised " + type(exc).__name__
    digests = (hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))
    return "\t".join((shlex.join(argv), code, *digests))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the floquet_zeno package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from floquet_zeno.cli import run

    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(digest_line(run, sweep_argv(rng)), flush=True)


if __name__ == "__main__":
    main()
