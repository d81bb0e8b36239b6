"""Span tracer that wraps the library from the outside, plus per-layer metrics.

The tracer replaces every public function of each ``oneshot`` layer module
(and a few private boundaries the metrics need) with a wrapper that records a
span: name, start, end, parent span and thread id.  A function is replaced in
every ``oneshot`` module namespace that binds it, so ``solvers`` calling its
own imported ``exact_state`` is traced too.  ``uninstall`` puts the original
objects back.  Spans are kept in compact in-memory arrays until the run ends;
``layer_metrics`` turns them into the per-layer report.

Recording is thread-safe: one lock guards the span arrays and the counters,
and each thread keeps its own current span.  The sweep's thread pool is
replaced by a subclass that hands the submitting thread's span to the worker,
so cell spans nest under the pool span that caused them.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "oneshot"
LAYERS = ("cli", "linear_model", "solvers", "spectral", "bounds", "scalar")

# private boundaries that some per-layer metrics need
EXTRA_FUNCTIONS = (("cli", "_run_cell"), ("spectral", "_boundary_norms"))
EXTRA_METHODS = (("solvers", "ConvergenceTrace", "write_csv"),)

NO_PARENT = -1


class Tracer:
    """Records spans and counters for calls into the ``oneshot`` layers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def current(self) -> int:
        return getattr(self._local, "span", NO_PARENT)

    def _set_current(self, span: int) -> None:
        self._local.span = span

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def open_span(self, name_id: int, parent: int | None = None) -> int:
        if parent is None:
            parent = self.current()
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.start.append(time.perf_counter_ns())
            self.end.append(-1)
            self.parent.append(parent)
            self.thread.append(threading.get_native_id())
        self._set_current(idx)
        return idx

    def close_span(self, idx: int) -> None:
        now = time.perf_counter_ns()
        with self._lock:
            self.end[idx] = now
        self._set_current(self.parent[idx])

    def set_attr(self, idx: int, key: str, value) -> None:
        with self._lock:
            self.attrs.setdefault(idx, {})[key] = value

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, span_name: str, fn, around=None):
        """Return a traced stand-in for ``fn``.

        ``around(tracer, span, call, args, kwargs)`` may replace the plain
        call to record attributes or counters; it runs inside the span.
        """
        nid = self.name_id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open_span(nid)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(self, idx, fn, args, kwargs)
            except Exception as exc:
                self.set_attr(idx, "error", type(exc).__name__)
                raise
            finally:
                self.close_span(idx)

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions in all namespaces binding them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _package_modules()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            targets = {name: obj for name, obj in vars(module).items()
                       if not name.startswith("_") and inspect.isfunction(obj)
                       and obj.__module__ == module.__name__}
            for mod_layer, name in EXTRA_FUNCTIONS:
                if mod_layer == layer:
                    targets[name] = getattr(module, name)
            for name, fn in targets.items():
                wrapper = self.wrap(f"{layer}.{name}", fn,
                                    AROUND.get(f"{layer}.{name}"))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for layer, cls_name, meth in EXTRA_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self.wrap(f"{layer}.{meth}", fn,
                                             AROUND.get(f"{layer}.{meth}")))
        traced_pool = _traced_executor(self)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is ThreadPoolExecutor:
                    self._patch(ns, attr, traced_pool)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original object, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def spans(self) -> "SpanTable":
        with self._lock:
            return SpanTable(
                names=list(self.names),
                name=np.frombuffer(self.name, dtype=np.int64).copy(),
                start=np.frombuffer(self.start, dtype=np.int64).copy(),
                end=np.frombuffer(self.end, dtype=np.int64).copy(),
                parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
                thread=np.frombuffer(self.thread, dtype=np.int64).copy(),
                attrs=dict(self.attrs),
                counters=dict(self.counters))


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def bindings() -> dict[tuple[str, str], object]:
    """Every function and thread-pool class bound in any of the package's
    module namespaces, and the traced methods: what ``install`` may replace."""
    found = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) or value is ThreadPoolExecutor:
                found[(mod.__name__, attr)] = value
    for layer, cls_name, meth in EXTRA_METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        found[(cls.__module__, f"{cls_name}.{meth}")] = cls.__dict__[meth]
    return found


def _traced_executor(tracer: Tracer):
    """A ThreadPoolExecutor whose lifetime is a span and whose tasks run
    under it, with the time each task waited in the queue."""
    pool_id = tracer.name_id("cli.pool")
    task_id = tracer.name_id("cli.pool.task")

    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.open_span(pool_id)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = time.perf_counter_ns()

            def task():
                idx = tracer.open_span(task_id, parent=parent)
                tracer.set_attr(idx, "submitted", submitted)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close_span(idx)
                    tracer._set_current(NO_PARENT)

            return super().submit(task)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            if self._span is not None and wait:
                tracer.close_span(self._span)
                self._span = None

    return TracedThreadPoolExecutor


# -- attribute and counter hooks ------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dense_solve(tracer, idx, call, args, kwargs):
    n = _arg(args, kwargs, 0, "problem").n_u
    # LU factorization plus one forward and one backward substitution
    tracer.add("dense_solve_flops", 2.0 * n**3 / 3.0 + 2.0 * n**2)
    return call(*args, **kwargs)


def _run_method(tracer, idx, call, args, kwargs):
    method = _arg(args, kwargs, 0, "method")
    problem = _arg(args, kwargs, 1, "problem")
    config = _arg(args, kwargs, 4, "config")
    trace = call(*args, **kwargs)
    n_u, n_f, n_s = problem.n_u, problem.n_f, problem.n_sigma
    outer = len(trace)
    one_shot = method.kind.value in ("kshot", "skshot")
    sweeps = (trace.accumulated_inner[-1] - 1) if one_shot and outer else 0
    # matrix operands read by the loop's products: B, B^T and H twice per
    # inner sweep; H once and M three times per outer iteration
    tracer.add("matvec_bytes", 8.0 * (sweeps * (2 * n_u * n_u + 2 * n_f * n_u)
                                      + outer * (n_f * n_u + 3 * n_u * n_s)))
    tracer.add("inner_sweeps", sweeps)
    tracer.add("outer_iters", outer)
    tracer.set_attr(idx, "cell", (method.kind.value, float(config.tau)))
    tracer.set_attr(idx, "status", trace.status.value)
    return trace


def _matrix_bound(tracer, idx, call, args, kwargs):
    bound = call(*args, **kwargs)
    tracer.set_attr(idx, "formula", bound.formula_id)
    return bound


def _iteration_matrix(tracer, idx, call, args, kwargs):
    it = call(*args, **kwargs)
    tracer.set_attr(idx, "dim", int(it.matrix.shape[0]))
    return it


def _boundary_norms(tracer, idx, call, args, kwargs):
    T = _arg(args, kwargs, 0, "T")
    phis = _arg(args, kwargs, 1, "phis")
    # the batched complex matrices handed to the SVD
    tracer.add("svd_bytes", 16.0 * len(phis) * T.shape[0] * T.shape[0])
    return call(*args, **kwargs)


class _CountingWriter:
    def __init__(self, fh):
        self.fh = fh
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.fh.write(text)


def _write_csv(tracer, idx, call, args, kwargs):
    trace = args[0]
    fh = _CountingWriter(_arg(args, kwargs, 1, "fh"))
    result = call(trace, fh)
    tracer.add("write_csv_bytes", fh.chars)   # the CSV is ASCII
    return result


AROUND = {
    "linear_model.exact_state": _dense_solve,
    "linear_model.adjoint_from_state": _dense_solve,
    "solvers.run_method": _run_method,
    "bounds.matrix_bound": _matrix_bound,
    "spectral.build_iteration_matrix": _iteration_matrix,
    "spectral._boundary_norms": _boundary_norms,
    "solvers.write_csv": _write_csv,
}


# -- span analysis ----------------------------------------------------------

def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanTable:
    """Finished spans as parallel arrays, with self-time queries."""

    def __init__(self, names, name, start, end, parent, thread, attrs,
                 counters):
        self.names = names
        self.name, self.start, self.end = name, start, end
        self.parent, self.thread = parent, thread
        self.attrs, self.counters = attrs, counters
        open_spans = np.flatnonzero(end < 0)
        if open_spans.size:
            raise ValueError(f"{open_spans.size} spans were never closed")
        self.dur = end - start
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names],
                                 dtype=np.int64)
        self.layer = layer_of_name[name]
        # children grouped by parent, for descending the tree
        self._order = np.argsort(parent, kind="stable")
        self._sorted_parent = parent[self._order]

    def __len__(self) -> int:
        return len(self.start)

    def ids(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(span_name))

    def children(self, idx: int) -> np.ndarray:
        lo, hi = np.searchsorted(self._sorted_parent, [idx, idx + 1])
        return self._order[lo:hi]

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the part its child spans cover."""
        n = len(self)
        has_parent = self.parent >= 0
        child_sum = np.bincount(self.parent[has_parent],
                                weights=self.dur[has_parent], minlength=n)
        result = self.dur - child_sum.astype(np.int64)
        # children on other threads may overlap each other: take the union
        cross = has_parent & (self.thread != self.thread[np.maximum(self.parent, 0)])
        for idx in np.unique(self.parent[cross]):
            kids = self.children(int(idx))
            result[idx] = self.dur[idx] - covered_ns(
                zip(self.start[kids].tolist(), self.end[kids].tolist()),
                int(self.start[idx]), int(self.end[idx]))
        return result

    def function_self_ns(self, idx: int) -> int:
        """Duration of span ``idx`` minus what spans of other layers cover
        beneath it; calls within its own layer count as its own time."""
        own = self.layer[idx]
        frontier, stack = [], [idx]
        while stack:
            for kid in self.children(stack.pop()).tolist():
                if self.layer[kid] == own:
                    stack.append(kid)
                else:
                    frontier.append((int(self.start[kid]), int(self.end[kid])))
        lo, hi = int(self.start[idx]), int(self.end[idx])
        return (hi - lo) - covered_ns(frontier, lo, hi)

    def nearest(self, idx: int, span_name: str) -> int:
        """Closest ancestor of ``idx`` with the given name, or NO_PARENT."""
        target = self.names.index(span_name) if span_name in self.names else -2
        p = int(self.parent[idx])
        while p >= 0 and self.name[p] != target:
            p = int(self.parent[p])
        return p


# -- per-layer metrics ------------------------------------------------------

NS = 1e-9

# name -> unit, in report order; every traced run reports all of them
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.total_s": "s",
    "cli.main.self_s": "s",
    "cli.sweep.parallel_speedup": "1",
    "cli.sweep.cell_wait_s": "s",
    "cli.sweep.duplicate_cell_ratio": "1",
    "linear_model.helmholtz_toy.calls": "count",
    "linear_model.helmholtz_toy.total_s": "s",
    "linear_model.validate.total_s": "s",
    "linear_model.load_problem.total_s": "s",
    "linear_model.exact_state.calls": "count",
    "linear_model.exact_state.total_s": "s",
    "linear_model.adjoint_from_state.calls": "count",
    "linear_model.adjoint_from_state.total_s": "s",
    "linear_model.dense_solve_flops": "flop",
    "solvers.run_method.calls": "count",
    "solvers.run_method.total_s": "s",
    "solvers.run_method.self_s": "s",
    "solvers.outer_iters": "count",
    "solvers.inner_sweeps": "count",
    "solvers.us_per_outer": "us",
    "solvers.status.converged": "count",
    "solvers.status.max_iter": "count",
    "solvers.status.diverged": "count",
    "solvers.matvec_bytes": "B",
    "solvers.write_csv.total_s": "s",
    "solvers.write_csv.bytes": "B",
    "spectral.build_iteration_matrix.calls": "count",
    "spectral.build_iteration_matrix.total_s": "s",
    "spectral.iteration_matrix_dim": "count",
    "spectral.spectral_radius.calls": "count",
    "spectral.spectral_radius.total_s": "s",
    "spectral.s_functional.calls": "count",
    "spectral.s_functional.total_s": "s",
    "spectral.s_functional.svd_bytes": "B",
    "spectral.tux.calls": "count",
    "spectral.tux.total_s": "s",
    "bounds.matrix_bound.calls": "count",
    "bounds.matrix_bound.total_s": "s",
    "bounds.matrix_bound.self_s": "s",
    "bounds.gd_bound.calls": "count",
    "bounds.gd_bound.total_s": "s",
    "bounds.closed_form_share": "1",
    "bounds.s_unused_ratio": "1",
    "scalar.eta.calls": "count",
    "scalar.eta.total_s": "s",
    "scalar.kappa.calls": "count",
    "scalar.kappa.total_s": "s",
    "scalar.us_per_threshold": "us",
    "scalar.errors": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    """A share or rate; 0 when its base is empty (the layer was not used)."""
    return num / den if den else 0.0


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_ratio``, which needs
    an untraced run to compare with."""
    m: dict[str, float] = {}

    def calls(name):
        return len(table.ids(name))

    def total_s(name):
        return float(table.dur[table.ids(name)].sum()) * NS

    def func_self_s(name):
        return sum(table.function_self_ns(int(i)) for i in table.ids(name)) * NS

    for name in ("cli.main", "linear_model.helmholtz_toy",
                 "linear_model.exact_state", "linear_model.adjoint_from_state",
                 "solvers.run_method", "spectral.build_iteration_matrix",
                 "spectral.spectral_radius", "spectral.s_functional",
                 "spectral.tux", "bounds.matrix_bound", "bounds.gd_bound",
                 "scalar.eta", "scalar.kappa"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.total_s"] = total_s(name)
    for name in ("linear_model.validate", "linear_model.load_problem",
                 "solvers.write_csv"):
        m[f"{name}.total_s"] = total_s(name)
    for name in ("cli.main", "solvers.run_method", "bounds.matrix_bound"):
        m[f"{name}.self_s"] = func_self_s(name)

    # sweep: cell busy time against the pool's lifetime, queueing, repeats
    pool_s = total_s("cli.pool")
    m["cli.sweep.parallel_speedup"] = _ratio(total_s("cli._run_cell"), pool_s)
    tasks = table.ids("cli.pool.task")
    m["cli.sweep.cell_wait_s"] = sum(
        int(table.start[i]) - table.attrs[int(i)]["submitted"]
        for i in tasks) * NS
    runs = sorted(table.ids("solvers.run_method").tolist(),
                  key=lambda i: table.start[i])
    seen, repeats = set(), 0
    for i in runs:
        cell = table.attrs.get(i, {}).get("cell")
        if cell is None:
            continue
        if cell[0] in ("gd", "sgd"):
            repeats += cell in seen
            seen.add(cell)
    m["cli.sweep.duplicate_cell_ratio"] = _ratio(repeats, len(runs))

    c = table.counters
    m["linear_model.dense_solve_flops"] = c.get("dense_solve_flops", 0.0)
    m["solvers.outer_iters"] = c.get("outer_iters", 0.0)
    m["solvers.inner_sweeps"] = c.get("inner_sweeps", 0.0)
    m["solvers.us_per_outer"] = _ratio(m["solvers.run_method.self_s"] * 1e6,
                                       m["solvers.outer_iters"])
    statuses = [table.attrs.get(i, {}).get("status") for i in runs]
    for status in ("converged", "max_iter", "diverged"):
        m[f"solvers.status.{status}"] = statuses.count(status)
    m["solvers.matvec_bytes"] = c.get("matvec_bytes", 0.0)
    m["solvers.write_csv.bytes"] = c.get("write_csv_bytes", 0.0)

    dims = [table.attrs[int(i)]["dim"]
            for i in table.ids("spectral.build_iteration_matrix")
            if "dim" in table.attrs.get(int(i), {})]
    m["spectral.iteration_matrix_dim"] = max(dims, default=0)
    m["spectral.s_functional.svd_bytes"] = c.get("svd_bytes", 0.0)

    formulas = [table.attrs.get(int(i), {}).get("formula", "")
                for i in table.ids("bounds.matrix_bound")]
    one_shot = [f for f in formulas if "one-shot" in f]
    m["bounds.closed_form_share"] = _ratio(
        sum(f.endswith(":closed-form") for f in one_shot), len(one_shot))
    s_calls = table.ids("spectral.s_functional")
    unused = 0
    for i in s_calls.tolist():
        owner = table.nearest(i, "bounds.matrix_bound")
        if owner >= 0 and table.attrs.get(owner, {}).get(
                "formula", "").endswith(":closed-form"):
            unused += 1
    m["bounds.s_unused_ratio"] = _ratio(unused, len(s_calls))

    thresholds = m["scalar.eta.calls"] + m["scalar.kappa.calls"]
    m["scalar.us_per_threshold"] = _ratio(
        (m["scalar.eta.total_s"] + m["scalar.kappa.total_s"]) * 1e6, thresholds)
    m["scalar.errors"] = sum(
        "error" in table.attrs.get(int(i), {})
        for name in ("scalar.eta", "scalar.kappa") for i in table.ids(name))

    self_ns = table.self_ns()
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(self_ns[table.layer == k].sum()) * NS
    return {name: float(m[name]) for name in PER_LAYER_UNITS
            if name != "trace_overhead_ratio"}
