"""Benchmark entry point.

    python3 bench/run.py --workload {cli-cold,perturbative,exact} --seed N --seconds S --trace {0,1}

Run from any directory; the program is taken from src/ beside this
directory. Every workload runs in fresh worker processes (worker.py).
With --trace 0, SETUP_SAMPLES processes time their set-up, and the last
one then repeats whole passes over the workload's op list for S seconds;
op_s.p50 and op_s.tail are taken over every timed op of the run, and
they and values_per_s are scaled to the reference machine speed
measured by calibration.py (the wall values are in the details). With
--trace 1, one process alternates untraced and traced passes, and
per-layer metrics are reported per pass. The last line of stdout is the
result object; the line before it holds the details (environment, tail
percentile, per-kind medians, wall values, calibration, failures).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import program_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "perturbative", "exact")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10  # samples that must lie above the reported tail
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "import floquet_zeno.cli\n"
    "print(json.dumps([time.perf_counter() - start, len(sys.modules)]))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child(cmd: list, deadline: float) -> dict:
    """Run one process in its own session; return its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[1:4])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd[1:4])} printed nothing")
    return json.loads(lines[-1])


def _worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(time.perf_counter())]
    return _child(cmd, deadline)


def tail(times: list) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile). Falls back to the maximum for short runs."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _per_kind(kinds: list, index: list, times: list) -> dict:
    groups = {}
    for i, t in zip(index, times):
        groups.setdefault(kinds[i], []).append(t)
    return {kind: [statistics.median(ts), len(ts)] for kind, ts in groups.items()}


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = [_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _worker("measure", args, deadline)
    setups.append(run)
    times, factor = run["times"], run["calibration"]["factor"]
    tail_s, tail_pct = tail(times)
    wall = {"op_s.p50": statistics.median(times), "op_s.tail": tail_s, "values_per_s": run["values"] / sum(times)}
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_s.p50": wall["op_s.p50"] * factor,
        "op_s.tail": wall["op_s.tail"] * factor,
        "values_per_s": wall["values_per_s"] / factor,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    warm = [f for s in setups for f in s["warm_failures"]]
    details = {
        "setup_samples_s": [s["setup_s"] for s in setups],
        "passes": run["passes"],
        "op_s": {"samples": len(times), "tail_percentile": tail_pct, "tail_beyond": TAIL_BEYOND},
        "wall": wall,
        "calibration": run["calibration"],
        "error_rate": run["failed"] / run["attempted"],
        "stdout_identical": [run["identical"], run["digested"]],
        "per_kind_median_s": _per_kind(run["kinds"], run["index"], times),
        "failures": run["failures"] + warm[:5],
    }
    result = {"attempted": run["attempted"], "failed": run["failed"], "correct": run["failed"] == 0 and not warm}
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}, {
        "details": details, "result": result}


def trace(args, deadline: float) -> tuple[dict, dict]:
    probes = [_child([sys.executable, "-c", IMPORT_PROBE], deadline) for _ in range(IMPORT_SAMPLES)]
    run = _worker("trace", args, deadline)
    layer = dict(run["per_layer"])
    layer["cli.import_s"] = statistics.median(p[0] for p in probes)
    layer["cli.modules_loaded"] = probes[0][1]
    details = {
        "passes": run["passes"],
        "import_samples": probes,
        "error_rate": run["failed"] / run["attempted"],
        "failures": run["failures"] + run["warm_failures"][:5],
    }
    result = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "correct": run["failed"] == 0 and not run["warm_failures"] and len({p[1] for p in probes}) == 1,
    }
    return {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}, {
        "details": details, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floquet_zeno" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'floquet_zeno'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, info = (trace if args.trace else measure)(args, deadline)
        env = _child([sys.executable, str(BENCH / "worker.py"), "--mode", "env"], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["details"].update(workload=args.workload, seed=args.seed, seconds=args.seconds, environment=env)
    print(json.dumps(info["details"]))
    print(json.dumps({**info["result"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
