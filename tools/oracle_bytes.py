"""Seeded random oracle runs, one line of digests each, for diffing two checkouts.

    python tools/oracle_bytes.py SRC --seed S --count N > out.txt

SRC is the directory that holds the `floquet_zeno` package (a checkout's
`src`). The first line names the numpy build that computed the digests
(`environment()`). Each draw then makes two lines, tab separated: the
draw's parameters and times, the run's kind, and the sha256 of its
result bytes (or the name of the error it raised):

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

N runs 1 .. 200, log-uniform, odd and even (an even N has the single
mode j = N/2), and half the draws have no drive. Spans run 0.1 to 12 drive periods,
which falls on both sides of the oracle's direct/period-map break-even
(about 1.4 periods at N = 11, 2.4 at N = 60 and 9.7 at N = 200), so both
routes run. The sample times take one of three layouts: spread over the
span; clustered, 20 to 200 of them in a window of at most a hundredth of
a period, so that one step reads many; or phased, the same one to six
phases in every period of the span, so that the map reads many samples
at each remainder and powers each over its own number of periods.

`tests/oracle_bytes_seed5.txt` freezes the output at seed 5, count 60;
`tests/test_oracle_bytes.py` reruns it in process. Re-freeze it with

    python tools/oracle_bytes.py src --seed 5 --count 60 > tests/oracle_bytes_seed5.txt
"""

import argparse
import hashlib
import os
import platform
import random
import sys

import numpy as np

LAYOUTS = ("spread", "clustered", "phased")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> str:
    """The header line: what the digests' last bits depend on beyond the code.

    numpy's SIMD loops round some complex products unlike its scalar ones,
    and the BLAS splits a large matrix-vector product's sums by its thread
    count, one per CPU unless an environment variable sets it.
    """
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = " ".join(f"{name}={os.environ.get(name, '')}" for name in THREAD_VARIABLES)
    return (f"# numpy {np.__version__}; blas {blas['name']} {blas['version']}; {platform.machine()} SIMD {simd};"
            f" {cpus} CPUs; {threads}")


def draw(rng: random.Random) -> dict:
    """One random system and run; a function of rng's state alone."""
    drive_freq = rng.uniform(1.5, 9.0)
    fields = dict(
        omega=rng.uniform(-3.0, 3.0), omega_c=rng.uniform(-3.0, 3.0), xi=rng.uniform(0.5, 1.5),
        g=rng.uniform(0.01, 0.4), n_cavities=round(200.0 ** rng.random()),
        drive_amp=rng.uniform(0.0, 4.0) * drive_freq if rng.random() < 0.5 else 0.0, drive_freq=drive_freq,
    )
    period = 2.0 * np.pi / drive_freq
    span = rng.uniform(0.1, 12.0) * period
    layout = rng.choice(LAYOUTS)
    if layout == "spread":
        samples = [rng.uniform(0.0, span) for _ in range(rng.randint(1, 30))]
    elif layout == "clustered":
        start, width = rng.uniform(0.0, span), rng.uniform(1e-6, 1e-2) * period
        samples = [start + rng.uniform(0.0, width) for _ in range(rng.randint(20, 200))]
    else:
        phases = [rng.uniform(0.0, period) for _ in range(rng.randint(1, 6))]
        samples = [k * period + phase for k in range(int(span / period) + 1) for phase in phases]
    samples = sorted({t for t in samples if t < span})
    t0 = rng.uniform(-20.0, 20.0)
    state = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(fields["n_cavities"] + 1)]
    return dict(fields=fields, layout=layout, times=samples + [span], t0=t0, state=state)


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


def lines(seed: int, count: int, oracle, bath, params):
    """The output lines after the header, for the package modules given."""
    rng = random.Random(seed)
    for _ in range(count):
        d = draw(rng)
        label = f"{d['fields']} {d['layout']} times={len(d['times'])}:{d['times'][-1]!r} t0={d['t0']!r}"
        for kind, value in runs(d, oracle, bath, params):
            yield f"{label}\t{kind}\t{value}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the floquet_zeno package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from floquet_zeno import bath, oracle, params

    print(environment(), flush=True)
    for line in lines(args.seed, args.count, oracle, bath, params):
        print(line, flush=True)


if __name__ == "__main__":
    main()
