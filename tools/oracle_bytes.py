"""Seeded random oracle runs, one line of digests each, for diffing two checkouts.

    python tools/oracle_bytes.py SRC --seed S --count N > out.txt

SRC is the directory that holds the `floquet_zeno` package (a checkout's
`src`). Each draw makes two lines, tab separated: the draw's parameters
and times, the run's kind, and the sha256 of its result bytes (or the
name of the error it raised):

- `survival`: `survival_curve_exact` from t = 0 over increasing sample
  times; the digest is of the probabilities;
- `propagate`: a random normalized state at a time t0 != 0, propagated
  forward to t1 and back to t0; the digest is of both states' amplitudes
  and times.

The draws depend on the seed and count alone, not on the code under SRC,
so the files of two checkouts at one seed and count diff line by line:

    python tools/oracle_bytes.py old/src --seed 5 --count 120 > old.txt
    python tools/oracle_bytes.py new/src --seed 5 --count 120 > new.txt
    diff old.txt new.txt

N runs 1 .. 60, odd and even (an even N has the single mode j = N/2),
and half the draws have no drive. Spans run 0.1 to 8 drive periods,
which falls on both sides of the oracle's direct/period-map break-even
(about 1.4 periods at N = 11 and 2.4 at N = 60), so both routes run.
"""

import argparse
import hashlib
import random
import sys

import numpy as np


def draw(rng: random.Random) -> dict:
    """One random system and run; a function of rng's state alone."""
    drive_freq = rng.uniform(1.5, 9.0)
    fields = dict(
        omega=rng.uniform(-3.0, 3.0), omega_c=rng.uniform(-3.0, 3.0), xi=rng.uniform(0.5, 1.5),
        g=rng.uniform(0.01, 0.4), n_cavities=rng.randint(1, 60),
        drive_amp=rng.uniform(0.0, 4.0) * drive_freq if rng.random() < 0.5 else 0.0, drive_freq=drive_freq,
    )
    period = 2.0 * np.pi / drive_freq
    span = rng.uniform(0.1, 8.0) * period
    samples = sorted(rng.uniform(0.0, span) for _ in range(rng.randint(1, 30)))
    t0 = rng.uniform(-20.0, 20.0)
    state = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(fields["n_cavities"] + 1)]
    return dict(fields=fields, times=samples + [span], t0=t0, state=state)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def runs(d: dict, oracle, bath, params):
    """(kind, digest) of the draw's survival run and its forward-then-backward run."""
    p = params.validate(params.SystemParams(**d["fields"]))
    grid = bath.build_grid(p)
    state = np.array(d["state"])
    state /= np.sqrt(np.vdot(state, state).real)
    initial = oracle.OneQuantumState(c_e=complex(state[0]), c_k=state[1:], time=d["t0"])

    def survival():
        return digest(oracle.survival_curve_exact(p, grid, d["times"]).probabilities)

    def reversal():
        forward = oracle.propagate(p, grid, initial, d["t0"] + d["times"][-1])
        back = oracle.propagate(p, grid, forward, d["t0"])
        return digest(*(np.concatenate(([s.c_e], s.c_k, [s.time])) for s in (forward, back)))

    for kind, run in (("survival", survival), ("propagate", reversal)):
        try:
            yield kind, run()
        except Exception as exc:  # an error is an outcome to record
            yield kind, "raised " + type(exc).__name__


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the floquet_zeno package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from floquet_zeno import bath, oracle, params

    rng = random.Random(args.seed)
    for _ in range(args.count):
        d = draw(rng)
        label = f"{d['fields']} times={len(d['times'])}:{d['times'][-1]!r} t0={d['t0']!r}"
        for kind, value in runs(d, oracle, bath, params):
            print(f"{label}\t{kind}\t{value}", flush=True)


if __name__ == "__main__":
    main()
