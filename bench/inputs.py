"""Seeded workload inputs: plain data only, no program imports.

Every workload mixes fixed anchors (the three Fig. 3 points) with points
drawn from the seed. Drawn points stay clear of the band edge
|delta + n nu| = 2 xi, where the spectral density diverges and the
program raises BandEdgeSingularity, and clear of the J_0 root, where
every rate vanishes and relative checks lose meaning. With nu = 6 and
|delta| < 3 the near-resonant sideband is n = 0 for every point.
"""

import random

J0_ROOT = 2.4048255576957733
NU = 6.0
PERIOD = 2.0 * 3.141592653589793 / NU
WEAK_G = 0.05

# (name, delta, chi): climbing, descending and suppressed Fig. 3 curves.
ANCHORS = (("blue", 1.0, 1.0), ("red", 3.0, 1.0), ("green", 3.0, J0_ROOT))

# linspace(start, stop, count) time grids of 200 points; the first is reproduce-fig3's.
CURVE_GRIDS = ((0.1, 20.0, 200), (0.2, 40.0, 200))
ROUTE_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0)
SURVIVAL_HORIZONS = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
SHORT_HORIZONS = (0.15, 0.3, 0.5, 0.7, 0.9)  # fractions of one drive period
REDUCED_SIDEBANDS = (-3, -2, -1, 0, 1, 2)
LONG_HORIZON = 11.0  # more than ten drive periods
REVERSAL_TIME = 4.0

# In-process sweeps at README sizes; fixed so their CSV bytes can be frozen.
SWEEPS = (
    ("sweep-rate", ["sweep", "--param", "chi", "--start", "0", "--stop", "5", "--count", "401",
                    "--n-cavities", "2001", "--delta", "1", "--t", "10"]),
    ("sweep-regime", ["sweep", "--param", "delta", "--start", "-5", "--stop", "5", "--count", "401",
                      "--quantity", "regime", "--chi", "1", "--t", "10"]),
    ("sweep-golden", ["sweep", "--param", "chi", "--start", "0", "--stop", "5", "--count", "51",
                      "--quantity", "golden-rate", "--delta", "0"]),
)

# Cold CLI commands: (name, argv, expected exit code). "{work}" is the
# per-run scratch directory; the bad config file there holds an unknown key.
CLI_COMMANDS = (
    ("decay-rate", ["decay-rate", "--delta", "1", "--chi", "1", "--t-max", "20", "--t-steps", "200"], 0),
    ("survival-oracle", ["survival", "--method", "oracle", "--g", "0.05", "--delta", "1", "--drive-amp", "0",
                         "--t-max", "2", "--t-steps", "10"], 0),
    ("spectral-density", ["spectral-density", "--xi", "1", "--omega", "0"], 0),
    ("floquet-spectrum", ["floquet-spectrum", "--n-cavities", "11", "--truncation", "8"], 0),
    ("classify", ["classify", "--delta", "3", "--chi", "1", "--t", "10"], 0),
    ("sweep-golden", dict(SWEEPS)["sweep-golden"], 0),
    ("reproduce-fig3", ["reproduce-fig3", "--out-dir", "{work}/fig3"], 0),
    ("band-edge", ["spectral-density", "--omega", "2"], 3),
    ("unknown-key", ["classify", "--config", "{work}/bad.cfg"], 2),
)
BAD_CONFIG = "# written by the benchmark\nbogus = 1\n"


def _in_band(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.6)


def _out_of_band(rng: random.Random) -> tuple[float, float]:
    return rng.choice((-1.0, 1.0)) * rng.uniform(2.5, 2.9), rng.uniform(0.6, 1.6)


def _point(name: str, delta: float, chi: float) -> dict:
    return {"name": name, "delta": delta, "chi": chi}


def anchors() -> list[dict]:
    return [_point(*a) for a in ANCHORS]


def cli_cold(seed: int) -> list[dict]:
    """The fixed command list in a seed-dependent order."""
    ops = [{"kind": "cli", "name": name, "argv": list(argv), "expect": code} for name, argv, code in CLI_COMMANDS]
    random.Random(seed).shuffle(ops)
    return ops


# The op mixes are sized so that op_s.p50 and op_s.tail, taken over every
# timed op of a run, fall inside groups of ops whose cost does not depend
# on the seed. The ops of the median groups run REPEAT times per pass, so
# they make up most of a run: the N=41 decay curves in perturbative and
# the anchored short-horizon oracle runs in exact. The ten slowest ops of
# a run, which bound the tail, are the longest anchored survival curves in
# perturbative and the dim-798 eigen-decompositions at the J_0 root in
# exact. A repeated op's extra runs are spread over the pass (see
# worker.schedule), so its times sample the whole run.
REPEAT = 10


def perturbative(seed: int) -> list[dict]:
    rng = random.Random(seed)
    drawn = [
        _point("in1", *_in_band(rng)),
        _point("out1", *_out_of_band(rng)),
        _point("in2", *_in_band(rng)),
    ]
    blue, red, green = anchors()
    points = [blue, red, green] + drawn
    ops = [{"kind": "bessel-zero"}]
    ops += [{"kind": "curve41", "point": p, "n_cavities": 41, "grid": g, "repeat": REPEAT}
            for p in points for g in CURVE_GRIDS]
    ops += [{"kind": "curve4001", "point": p, "n_cavities": 4001, "grid": CURVE_GRIDS[0]} for p in points]
    ops += [{"kind": "routes", "point": p, "t": t} for p in (blue, drawn[0], drawn[2]) for t in ROUTE_TIMES]
    ops += [{"kind": "survival", "point": p, "t_max": h} for p in (blue, red) for h in SURVIVAL_HORIZONS]
    ops += [{"kind": "survival", "point": p, "t_max": 3.0} for p in [green] + drawn]
    ops += [{"kind": name, "argv": list(argv)} for name, argv in SWEEPS]
    return ops


def exact(seed: int) -> list[dict]:
    rng = random.Random(seed)
    points = anchors() + [_point("in1", *_in_band(rng))]
    ops = []
    for p in points:
        if p["name"] != "in1":
            ops += [{"kind": "short", "point": p, "t_max": f * PERIOD, "repeat": REPEAT} for f in SHORT_HORIZONS]
        ops.append({"kind": "floquet", "point": p})
        ops.append({"kind": "green", "point": p, "energies": [rng.uniform(-3.0, 3.0) for _ in range(3)]})
        ops += [{"kind": "averaged", "point": p, "t": rng.uniform(1.0, 5.0)} for _ in range(2)]
        ops += [{"kind": "reduced", "point": p, "sideband": n} for n in REDUCED_SIDEBANDS]
        ops.append({"kind": "long", "point": p, "t_max": LONG_HORIZON})
        ops.append({"kind": "reversal", "point": p, "t": REVERSAL_TIME})
    return ops


WORKLOADS = {"cli-cold": cli_cold, "perturbative": perturbative, "exact": exact}


def generate(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)
