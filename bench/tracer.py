"""Per-layer tracing from outside the program.

Every public function of a layer module is replaced, in every
floquet_zeno module namespace that holds it, by a wrapper that opens a
span. Modules bind names at import (`from .specfun import bessel_j`),
so wrapping only the defining module would miss the calls from the
other layers. scipy's `quad` (looked up in `decay`), `RK45` (in
`oracle`) and numpy's `eigh` get counting wrappers instead of spans.

A span's self time is its duration minus the durations of the spans it
directly encloses in the same thread. Each thread keeps its own span
stack, so a span opened in a pool thread (the `cli` sweep) is a root of
its own and is not subtracted from the `cli.run` that waits for it.
Spans are folded into per-name totals as they close, under a lock, so
memory stays flat however long the run.
"""

import contextlib
import importlib
import inspect
import threading
import time

LAYERS = ("params", "specfun", "bath", "decay", "floquet", "oracle", "cli")
MILLER_ABOVE = 12.0  # specfun switches from the series to Miller recurrence


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.maxima = {}
        self.active = True

    @property
    def stack(self) -> list:
        """This thread's open spans: [name, start, child_total, first_arg]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, start: float, first_arg=None) -> None:
        self.stack.append([name, start, 0.0, first_arg])

    def exit(self, end: float) -> None:
        stack = self.stack
        name, start, child, _ = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self._add_span(name, 1, duration, duration - child)

    def _add_span(self, name: str, calls: int, total: float, own: float) -> None:
        with self._lock:
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def innermost(self, prefix: str):
        for frame in reversed(self.stack):
            if frame[0].startswith(prefix):
                return frame
        return None

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "maxima": self.maxima}

    def merge(self, snap: dict) -> None:
        """Add another process's snapshot into this tracer."""
        for name, (calls, total, own) in snap["spans"].items():
            self._add_span(name, calls, total, own)
        for key, value in snap["counts"].items():
            self.count(key, value)
        for key, value in snap["maxima"].items():
            self.maximum(key, value)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _observe(tracer: Tracer, label: str, args, result) -> None:
    if label == "specfun.bessel_j" and len(args) > 1 and abs(float(args[1])) > MILLER_ABOVE:
        tracer.count("specfun.bessel_j.miller")
    elif label in ("floquet.build_floquet_matrix", "floquet.reduced_hamiltonian"):
        dim = result.dim
        tracer.count("floquet.matrices")
        tracer.count("floquet.dense_bytes", dim * dim * 16)
        tracer.maximum("floquet.dense_dim", dim)
    elif label == "floquet.green_coefficient":
        tracer.count("floquet.dense_bytes", args[0].dim ** 2 * 16)  # the np.eye(dim) shift


def _span(tracer: Tracer, label: str, func):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        tracer.enter(label, clock(), args[0] if args else None)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(clock())
        _observe(tracer, label, args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _quad(tracer: Tracer, quad):
    def traced_quad(*args, **kwargs):
        result = quad(*args, **kwargs)
        if tracer.active:
            tracer.count("decay.quad.calls")
            if kwargs.get("full_output"):
                tracer.count("decay.quad.neval", result[2]["neval"])
        return result

    return traced_quad


def _eigh(tracer: Tracer, eigh):
    def traced_eigh(*args, **kwargs):
        stack = tracer.stack
        if tracer.active and stack and stack[-1][0].startswith("floquet."):
            tracer.count("floquet.eigh.calls")
        return eigh(*args, **kwargs)

    return traced_eigh


def _rk45(tracer: Tracer, base):
    class TracedRK45(base):
        def __init__(self, fun, t0, y0, t_bound, **kwargs):
            super().__init__(fun, t0, y0, t_bound, **kwargs)
            self._norm0 = float((abs(self.y) ** 2).sum())
            if tracer.active:
                tracer.count("oracle.rhs_evals", self.nfev)
                frame = tracer.innermost("oracle.")
                period = getattr(frame[3], "period", None) if frame else None
                if period:
                    tracer.count("oracle.periods", abs(t_bound - t0) / period)

        def step(self):
            before = self.nfev
            message = super().step()
            if tracer.active:
                tracer.count("oracle.steps")
                tracer.count("oracle.rhs_evals", self.nfev - before)
                if self.status != "running":
                    drift = abs(float((abs(self.y) ** 2).sum()) - self._norm0)
                    tracer.maximum("oracle.norm_drift", drift)
            return message

    return TracedRK45


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it."""
    modules = {layer: importlib.import_module(f"floquet_zeno.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = _span(tracer, f"{layer}.{name}", obj)
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    namespaces = [importlib.import_module("floquet_zeno")] + list(modules.values())
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                replace(module, attr, wrappers[value])
    decay, oracle = modules["decay"], modules["oracle"]
    replace(decay, "quad", _quad(tracer, decay.quad))
    replace(oracle, "RK45", _rk45(tracer, oracle.RK45))
    linalg = modules["floquet"].np.linalg
    replace(linalg, "eigh", _eigh(tracer, linalg.eigh))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


DECAY_FUNCS = ("decay_rate_finite", "decay_rate_longtime", "decay_rate_continuum", "decay_rate_overlap",
               "decay_curve", "survival_curve", "classify_regime")
FLOQUET_FUNCS = ("build_floquet_matrix", "quasi_energies", "edge_weights", "green_coefficient",
                 "averaged_transition_probability", "reduced_hamiltonian")
ORACLE_FUNCS = ("survival_curve_exact", "propagate")

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.modules_loaded", "count"), ("cli.run.calls", "count"),
     ("cli.run.self_s", "s"), ("cli.stdout_identical_share", "share"),
     ("params.calls", "count"), ("params.self_s", "s"),
     ("specfun.bessel_j.calls", "count"), ("specfun.bessel_j.self_s", "s"),
     ("specfun.bessel_j.miller_share", "share"), ("specfun.bessel_j_zero.self_s", "s"),
     ("bath.memory_function.calls", "count"), ("bath.memory_function.self_s", "s"),
     ("bath.build_grid.calls", "count"), ("bath.build_grid.self_s", "s")]
    + [(f"decay.{f}.{q}", u) for f in DECAY_FUNCS for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("decay.quad.calls", "count"), ("decay.quad.neval", "count"), ("decay.quad.evals_per_value", "evals/value")]
    + [(f"floquet.{f}.{q}", u) for f in FLOQUET_FUNCS for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("floquet.eigh.calls", "count"), ("floquet.eigh_per_matrix", "ratio"), ("floquet.dense_dim.max", "count"),
       ("floquet.dense_bytes", "B-computed")]
    + [(f"oracle.{f}.{q}", u) for f in ORACLE_FUNCS for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("oracle.rhs_evals", "count"), ("oracle.steps", "count"), ("oracle.steps_per_period", "steps/period"),
       ("oracle.norm_drift.max", "abs")]
    + [("trace.overhead_s", "s")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, quad_values: int) -> dict:
    """Per-pass layer metrics from a traced run of `passes` identical passes.

    cli.import_s, cli.modules_loaded, cli.stdout_identical_share and
    trace.overhead_s are measured by the caller.
    """
    out = {}
    per_pass = lambda value: value / passes  # noqa: E731
    for label in (["cli.run", "specfun.bessel_j", "bath.memory_function", "bath.build_grid"]
                  + [f"decay.{f}" for f in DECAY_FUNCS] + [f"floquet.{f}" for f in FLOQUET_FUNCS]
                  + [f"oracle.{f}" for f in ORACLE_FUNCS]):
        out[f"{label}.calls"] = per_pass(tracer.calls(label))
        out[f"{label}.self_s"] = per_pass(tracer.self_s(label))
    params = [name for name in tracer.spans if name.startswith("params.")]
    out["params.calls"] = per_pass(sum(tracer.calls(n) for n in params))
    out["params.self_s"] = per_pass(sum(tracer.self_s(n) for n in params))
    out["specfun.bessel_j.miller_share"] = _ratio(tracer.counts.get("specfun.bessel_j.miller", 0),
                                                  tracer.calls("specfun.bessel_j"))
    out["specfun.bessel_j_zero.self_s"] = per_pass(tracer.self_s("specfun.bessel_j_zero"))
    neval = tracer.counts.get("decay.quad.neval", 0)
    out["decay.quad.calls"] = per_pass(tracer.counts.get("decay.quad.calls", 0))
    out["decay.quad.neval"] = per_pass(neval)
    out["decay.quad.evals_per_value"] = _ratio(neval, quad_values)
    eigh = tracer.counts.get("floquet.eigh.calls", 0)
    out["floquet.eigh.calls"] = per_pass(eigh)
    out["floquet.eigh_per_matrix"] = _ratio(eigh, tracer.counts.get("floquet.matrices", 0))
    out["floquet.dense_dim.max"] = tracer.maxima.get("floquet.dense_dim", 0)
    out["floquet.dense_bytes"] = per_pass(tracer.counts.get("floquet.dense_bytes", 0))
    steps = tracer.counts.get("oracle.steps", 0)
    out["oracle.rhs_evals"] = per_pass(tracer.counts.get("oracle.rhs_evals", 0))
    out["oracle.steps"] = per_pass(steps)
    out["oracle.steps_per_period"] = _ratio(steps, tracer.counts.get("oracle.periods", 0))
    out["oracle.norm_drift.max"] = tracer.maxima.get("oracle.norm_drift", 0.0)
    return out
