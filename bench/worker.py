"""One fresh benchmark process; run.py starts it and reads its last line.

Modes:
  setup    import the program, build the inputs, run one warm-up op of
           each kind, report the time since the process was started;
  measure  the same, then whole passes over the op list until the time
           is up (at least one); every op is timed, then checked with
           the clock off, and the calibration work (calibration.py)
           runs between ops;
  trace    warm up, run passes untraced, then as many passes with every
           layer wrapped (see tracer.py), and report per-pass layer
           metrics and the tracing overhead;
  env      report the versions and thread settings the run used.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from calibration import Calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _warm_up(ops) -> list:
    """One op of each kind, so lazy imports and caches are filled before
    timing. Cold CLI ops share no process state: one of them is enough."""
    seen, failures = set(), []
    for op in ops[:1] if ops[0].kind in workloads.CLI_NAMES else ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.check(op.run())
            except Exception as exc:  # reported; the measured passes count it
                failures.append(f"warm-up {op.kind}: {type(exc).__name__}: {exc}")
    return failures


class Pass:
    """Accumulates the outcome of timed ops."""

    def __init__(self, frozen: dict):
        self.frozen = frozen
        self.times, self.index = [], []  # per execution: wall time, op position in the list
        self.values = self.quad_values = self.attempted = self.failed = 0
        self.identical = self.digested = 0
        self.failures = []

    def run(self, op, position: int, tracer=None) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.times.append(time.perf_counter() - start)
        self.index.append(position)
        if error is None:
            with tracer.paused() if tracer else contextlib.nullcontext():
                error = self._verify(op, result, position)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {error}")

    def _verify(self, op, result, position: int):
        try:
            count = op.check(result)
            if op.key is not None:
                expected = self.frozen[op.key]
                checks.close(op.extract(result), expected, op.rel, op.abs_tol, f"{op.key} vs seed commit")
            if op.digest is not None:
                self.digested += 1
                self.identical += op.digest(result) == self.frozen.get(f"digest:{op.kind}")
        except Exception as exc:  # a check that cannot run counts as failed
            return f"{type(exc).__name__}: {exc}"
        self.values += count
        self.quad_values += op.quad_values
        return None


def schedule(ops) -> list[int]:
    """The op positions of one pass: every op once in list order, with
    the extra runs of the ops that repeat, round-robin, spread evenly
    between them. A repeated op is then timed all through the pass, not
    in one stretch of it, so a few slow seconds of the machine cannot set
    its median. Only repeated ops move, and none runs twice in a row
    unless nothing else is left to run."""
    extra = [i for round_ in range(1, max(op.repeat for op in ops))
             for i, op in enumerate(ops) if op.repeat > round_]
    order, pending = [], []
    for i in range(len(ops)):
        order.append(i)
        pending += extra[i * len(extra) // len(ops):(i + 1) * len(extra) // len(ops)]
        while (j := next((j for j, e in enumerate(pending) if e != order[-1]), None)) is not None:
            order.append(pending.pop(j))
        if order[-1] == i + 1:
            pending.insert(0, order.pop())
    return order + pending


def _one_pass(ops, order, result: Pass, tracer=None, calibration=None) -> None:
    for position in order:
        result.run(ops[position], position, tracer)
        if calibration is not None:
            calibration.tick()


def _timed_passes(ops, result: Pass, seconds: float, calibration: Calibration) -> int:
    """Whole passes until `seconds` are up; returns their number."""
    order, passes, start = schedule(ops), 0, time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        _one_pass(ops, order, result, calibration=calibration)
        passes += 1
    return passes


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _setup(args, work: Path):
    """Everything before the first timed op: imports, inputs, warm-up."""
    frozen = workloads.load_reference()
    if args.workload == "cli-cold":
        runner = workloads.ColdCli(ROOT, work)
        ops = workloads.build(args.workload, args.seed, None, frozen, runner)
    else:
        _check_program_source()
        ops = workloads.build(args.workload, args.seed, workloads.Program(), frozen)
    return frozen, ops, _warm_up(ops)


def _check_program_source() -> None:
    import floquet_zeno

    if Path(floquet_zeno.__file__).resolve().parent != ROOT / "src" / "floquet_zeno":
        raise SystemExit(f"floquet_zeno imported from {floquet_zeno.__file__}, not from this checkout")


def _summary(result: Pass, ops) -> dict:
    return {
        "times": result.times,
        "index": result.index,
        "kinds": [op.kind for op in ops],
        "values": result.values,
        "quad_values": result.quad_values,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "identical": result.identical,
        "digested": result.digested,
    }


def measure(args, work: Path) -> dict:
    frozen, ops, warm_failures = _setup(args, work)
    setup_s = time.perf_counter() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s, "warm_failures": warm_failures}
    result, calibration = Pass(frozen), Calibration()
    passes = _timed_passes(ops, result, args.seconds, calibration)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    out = _summary(result, ops)
    out.update(setup_s=setup_s, passes=passes, peak_rss_mb=_peak_rss_mb(who), warm_failures=warm_failures,
               calibration=calibration.summary())
    return out


def trace(args, work: Path) -> dict:
    """Alternate untraced and traced passes until the time is up, so
    that drift in machine load falls on both sides of the overhead."""
    frozen, ops, warm_failures = _setup(args, work)
    tracer = tracing.Tracer()
    if args.workload == "cli-cold":
        spans = work / "spans"
        spans.mkdir()
        traced_ops = workloads.build(args.workload, args.seed, None, frozen, workloads.ColdCli(ROOT, work, spans))
    plain, traced, order = Pass(frozen), Pass(frozen), schedule(ops)
    plain_s = traced_s = 0.0
    passes, start = 0, time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        _one_pass(ops, order, plain)
        t1 = time.perf_counter()
        if args.workload == "cli-cold":
            _one_pass(traced_ops, order, traced)
        else:
            uninstall = tracing.install(tracer)
            try:
                t1 = time.perf_counter()
                _one_pass(ops, order, traced, tracer)
            finally:
                uninstall()
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        passes += 1
    if args.workload == "cli-cold":
        for path in sorted(spans.glob("*.json")):
            tracer.merge(json.loads(path.read_text(encoding="utf-8")))
    metrics = tracing.layer_metrics(tracer, passes, traced.quad_values)
    metrics["trace.overhead_s"] = (traced_s - plain_s) / passes
    metrics["cli.stdout_identical_share"] = plain.identical / plain.digested if plain.digested else 0.0
    return {
        "per_layer": metrics,
        "passes": passes,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "warm_failures": warm_failures,
    }


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    from floquet_zeno import cli

    _check_program_source()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.strip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    worker_count = getattr(cli, "_worker_count", None)
    sources = sorted((ROOT / "src" / "floquet_zeno").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "sweep_pool_401": worker_count(401) if worker_count else None,
        "FLOQUET_ZENO_THREADS": os.environ.get("FLOQUET_ZENO_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "env"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--t0", type=float, help="perf_counter when the parent started us")
    args = parser.parse_args(argv)
    if args.mode == "env":
        print(json.dumps(environment()))
        return 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        out = trace(args, work) if args.mode == "trace" else measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
