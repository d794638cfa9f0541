"""Tests of the benchmark itself: checks, inputs, schedule, tracing and calibration arithmetic."""

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Pass, schedule  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return workloads.Program()


def _op(ops, kind, name=None):
    return next(op for op in ops if op.kind == kind and (name is None or op.key == name))


def test_checker_flags_a_wrong_value(prog):
    frozen = workloads.load_reference()
    op = _op(workloads.build("perturbative", 0, prog, frozen), "curve41", "curve41:blue:20.0")
    rates = op.run()
    assert op.check(rates) == rates.size
    wrong = rates.copy()
    wrong[17] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        op.check(wrong)
    outcome = Pass(frozen)
    outcome.run(workloads.Op(op.kind, lambda: wrong, lambda r: r.size, op.key, op.extract), 0)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_checker_flags_a_wrong_exit_code(tmp_path):
    ops = workloads.build("cli-cold", 0, None, {}, workloads.ColdCli(BENCH.parent, tmp_path))
    band_edge = _op(ops, "band-edge")
    assert band_edge.check((3, b"")) == 0
    with pytest.raises(checks.CheckFailed):
        band_edge.check((0, b""))
    with pytest.raises(checks.CheckFailed):
        _op(ops, "classify").check((2, b""))


def test_same_seed_gives_identical_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    for workload in ("perturbative", "exact"):
        assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_drawn_points_avoid_the_band_edge_and_the_j0_root():
    for seed in range(200):
        for workload in ("perturbative", "exact"):
            for spec in inputs.generate(workload, seed):
                point = spec.get("point")
                if point is None or point["name"] in {a[0] for a in inputs.ANCHORS}:
                    continue
                assert abs(abs(point["delta"]) - 2.0) >= 0.5
                assert abs(point["delta"]) < 3.0
                assert abs(point["chi"] - inputs.J0_ROOT) > 0.5


def test_self_time_on_a_synthetic_span_tree():
    t = tracing.Tracer()
    t.enter("a", 0.0)
    t.enter("b", 1.0)
    t.enter("c", 2.0)
    t.exit(4.0)
    t.exit(5.0)
    t.enter("b", 6.0)
    t.exit(7.0)
    t.exit(10.0)
    assert t.spans == {"a": [1, 10.0, 5.0], "b": [2, 5.0, 3.0], "c": [1, 2.0, 2.0]}
    other = tracing.Tracer()
    other.merge(t.snapshot())
    other.merge(t.snapshot())
    assert other.calls("b") == 4 and other.self_s("a") == 10.0


def test_each_thread_keeps_its_own_span_stack():
    t = tracing.Tracer()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def first():
        t.enter("a", 1.0)
        a_in.set()
        b_in.wait()
        t.exit(5.0)
        a_out.set()

    def second():
        a_in.wait()
        t.enter("b", 2.0)
        b_in.set()
        a_out.wait()
        t.exit(6.0)

    t.enter("run", 0.0)
    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t.exit(10.0)
    assert t.spans == {"run": [1, 10.0, 10.0], "a": [1, 4.0, 4.0], "b": [1, 4.0, 4.0]}


def _traced_sweep(prog, monkeypatch, threads: int) -> tracing.Tracer:
    monkeypatch.setenv("FLOQUET_ZENO_THREADS", str(threads))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code, _text = prog.run_cli(["sweep", "--param", "delta", "--start", "-1", "--stop", "1", "--count", "40",
                                    "--quantity", "regime", "--chi", "1", "--t", "10"])
    finally:
        uninstall()
    assert code == 0
    return tracer


def test_traced_pool_threads_keep_their_own_spans(prog, monkeypatch):
    pooled = _traced_sweep(prog, monkeypatch, 2)
    serial = _traced_sweep(prog, monkeypatch, 1)
    assert all(own >= 0.0 for _calls, _total, own in pooled.spans.values())
    assert {n: a[0] for n, a in pooled.spans.items()} == {n: a[0] for n, a in serial.spans.items()}
    assert pooled.calls("cli.run") == 1 and pooled.calls("decay.classify_regime") == 40


def test_schedule_spreads_repeats_over_the_pass():
    ops = [workloads.Op(k, None, None, repeat=r) for k, r in (("a", 3), ("b", 1), ("c", 3))]
    assert schedule(ops) == [0, 1, 0, 2, 0, 2, 2]
    repeats = (1, 4, 4, 1, 1, 4, 1, 1, 1, 1)
    order = schedule([workloads.Op("x", None, None, repeat=r) for r in repeats])
    assert [order.count(i) for i in range(len(repeats))] == list(repeats)
    assert all(a != b for a, b in zip(order, order[1:]))
    assert [i for i in order if repeats[i] == 1] == [0, 3, 4, 6, 7, 8, 9]
    half = len(order) // 2
    assert {1, 2, 5} <= set(order[:half]) and {1, 2, 5} <= set(order[half:])


def test_tail_keeps_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(30, 0, -1)])
    assert value == 20.0
    assert percentile == pytest.approx(100.0 * 20 / 30)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_calibration_factor_follows_machine_speed():
    cal = calibration.Calibration()
    cal.tick()
    cal.tick()  # within EVERY_S of the first: skipped
    assert len(cal.loop_s) == len(cal.eigh_s) == 1
    ref_loop, ref_eigh = calibration.REFERENCE_S
    cal.loop_s, cal.eigh_s = [ref_loop, 9.0, ref_loop], [ref_eigh, ref_eigh, 9.0]
    assert cal.summary()["factor"] == pytest.approx(1.0)
    cal.loop_s, cal.eigh_s = [2 * ref_loop], [2 * ref_eigh]
    assert cal.summary()["factor"] == pytest.approx(0.5)
