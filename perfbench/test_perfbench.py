"""Tests of the benchmark's own tracer and of its declared metric names.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oneshot  # noqa: E402
import oneshot.cli  # noqa: E402
from oneshot.linear_model import random_contraction, save_problem  # noqa: E402
from oneshot.solvers import ConvergenceTrace  # noqa: E402

import rep  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from workloads import SETUP  # noqa: E402


@pytest.fixture
def tracer():
    t = tr.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def traced_sweep(tmp_path, tracer):
    path = tmp_path / "problem.json"
    save_problem(random_contraction(6, 2, 4, 0.5, seed=1), path)
    rc = oneshot.cli.main(["sweep", "--problem", str(path),
                           "--method", "gd,sgd,kshot,skshot", "--k", "1,2",
                           "--tau", "0.01,0.02", "--max-outer", "50",
                           "--out", str(tmp_path / "out")])
    assert rc == 0
    return tracer.spans()


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = tr.bindings()
    t = tr.Tracer()
    t.install()
    try:
        wrapped = oneshot.linear_model.exact_state
        assert wrapped.__wrapped__ is before[("oneshot.linear_model", "exact_state")]
        # the same stand-in in every namespace that imported the function
        assert oneshot.solvers.exact_state is wrapped
        assert oneshot.cli.exact_state is wrapped
        assert oneshot.exact_state is wrapped
        assert oneshot.spectral.s_functional is not before[
            ("oneshot.spectral", "s_functional")]
        assert oneshot.cli.ThreadPoolExecutor is not ThreadPoolExecutor
        assert ConvergenceTrace.__dict__["write_csv"].__wrapped__ is before[
            ("oneshot.solvers", "ConvergenceTrace.write_csv")]
    finally:
        t.uninstall()
    after = tr.bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_pool_spans_nest_under_the_sweep_that_caused_them(tmp_path, tracer):
    table = traced_sweep(tmp_path, tracer)
    name_of = lambda i: table.names[table.name[i]]  # noqa: E731
    [main] = table.ids("cli.main").tolist()
    [pool] = table.ids("cli.pool").tolist()
    assert table.parent[pool] == main
    cells = table.ids("cli._run_cell").tolist()
    assert len(cells) == 16
    threads = set()
    for cell in cells:
        task = int(table.parent[cell])
        assert name_of(task) == "cli.pool.task"
        assert table.parent[task] == pool
        assert (table.start[pool] <= table.start[task]
                <= table.end[task] <= table.end[pool])
        threads.add(int(table.thread[cell]))
    assert int(table.thread[main]) not in threads
    for run_span in table.ids("solvers.run_method").tolist():
        assert name_of(int(table.parent[run_span])) == "cli._run_cell"


def test_self_times_are_never_negative(tmp_path, tracer):
    table = traced_sweep(tmp_path, tracer)
    assert (table.self_ns() >= 0).all()
    for name in ("cli.main", "cli.pool", "solvers.run_method"):
        for i in table.ids(name).tolist():
            assert table.function_self_ns(i) >= 0
    metrics = tr.layer_metrics(table)
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))
    assert metrics["solvers.run_method.calls"] == 16
    assert metrics["cli.sweep.duplicate_cell_ratio"] == 4 / 16


def test_overlapping_children_on_other_threads_count_once():
    # a 10-unit parent whose two children ran at once on other threads
    table = tr.SpanTable(
        names=["cli.pool", "cli.pool.task"],
        name=_arr([0, 1, 1]), start=_arr([0, 1, 2]), end=_arr([10, 8, 9]),
        parent=_arr([-1, 0, 0]), thread=_arr([1, 2, 3]), attrs={},
        counters={})
    assert table.self_ns().tolist() == [2, 7, 7]
    assert table.function_self_ns(0) == 10      # same layer: its own time


def test_exception_closes_its_span_and_is_recorded():
    t = tr.Tracer()

    def boom():
        raise ZeroDivisionError("x")

    traced = t.wrap("scalar.kappa", boom)
    with pytest.raises(ZeroDivisionError):
        traced()
    assert t.current() == tr.NO_PARENT
    table = t.spans()
    assert table.attrs[0]["error"] == "ZeroDivisionError"
    assert tr.layer_metrics(table)["scalar.errors"] == 1


def test_concurrent_recording_keeps_every_span_and_parent():
    t = tr.Tracer()
    inner = t.wrap("scalar.fk", lambda: None)

    def outer_fn():
        for _ in range(50):
            inner()

    outer = t.wrap("scalar.eta", outer_fn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(20)])
                   for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    table = t.spans()
    outer_ids = set(table.ids("scalar.eta").tolist())
    inner_ids = table.ids("scalar.fk")
    assert len(outer_ids) == 8 * 20 and len(inner_ids) == 8 * 20 * 50
    for i in inner_ids.tolist():
        p = int(table.parent[i])
        assert p in outer_ids and table.thread[p] == table.thread[i]
        assert table.start[p] <= table.start[i] <= table.end[i] <= table.end[p]


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(SETUP)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.PER_LAYER_UNITS


def test_digest_does_not_depend_on_the_work_directory():
    files = {"summary.csv": b"method,k\n"}
    digests = {rep._digest(f".perfbench_work/{pid}/solve/trace.csv\n", files,
                           Path(f".perfbench_work/{pid}"))
               for pid in (11, 2222)}
    assert len(digests) == 1


def test_converged_run_far_from_sigma_ex_fails_its_check():
    row = "1,1,0.5,1e-9,{err},converged"
    facts = {"n_sigma": 1, "max_outer": 10}
    good = "\n".join([workloads.TRACE_HEADER, row.format(err=0.1)])
    bad = "\n".join([workloads.TRACE_HEADER, row.format(err=5.0)])
    assert workloads._check_trace_csv(good, facts)["status"] == "converged"
    with pytest.raises(workloads.CheckError):
        workloads._check_trace_csv(bad, facts)


def _arr(values):
    import numpy as np
    return np.array(values, dtype=np.int64)
