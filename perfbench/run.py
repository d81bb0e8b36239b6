"""Seeded end-to-end and per-layer benchmark of the ``oneshot`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
A closed loop with one client: each repetition is a fresh child process
(``rep.py``) that sets up the workload's inputs from the seed and then issues
its CLI commands one at a time through ``oneshot.cli.main``.  Repetitions
continue while the next one is expected to finish within ``--seconds``.
Every repetition runs on one CPU with one BLAS thread, so that load elsewhere
on the host does not multiply its times (see ``BLAS_ENV`` and ``main``).

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``wall_s`` and ``cpu_s`` sum each op's median time, the others
are medians of whole repetitions.  ``setup_s`` also counts the set-ups of a
few children that stop once their inputs are ready, one before the
repetitions and more in the time left after them.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones (medians), plus ``trace_overhead_ratio``: traced over untraced
wall time, each summed from per-op medians, minus one.

Workloads (see ``workloads.py``):

bound         ``oneshot bound`` on H12 (kshot k=1: the closed form wins and
              s(T) is wasted; skshot k=3: the resolvent bound wins), on a
              seeded non-normal problem with ||B|| = 1.5 (kshot k=2: only
              s(B^2) decides) and the cheap gd/sgd bounds, where s(T)
              dominates; plus the exact scalar thresholds (scalar-region for
              k = 1..8 on 20001 b values) and scalar solves of kshot/skshot
              k in 1,2,3,5 at 0.99 of the exact threshold, where per-call
              Python overhead, not BLAS, sets the cost.
solve-long    kshot k=3 on H24 at 0.05 of the GD supremum, about 7,700 outer
              iterations and a ~620 KB trace CSV: BLAS-bound inner sweeps and
              trace output.  Then a 4-cell H12 sweep (gd and kshot, k 1 and
              2, at 0.7 of the GD supremum): exact GD solves, the dense
              eigen-oracle per cell and the thread pool.  Never touches s(T),
              bounds or scalar.
The scalar ops ride in ``bound`` rather than in a workload of their own.
Alone, their ~4 s of interpreter-bound work took 2.6 to 4.9 s from run to run
on a 2-vCPU virtual machine whose CPU speed follows its host's load, an
inter-quartile spread of about 25 % of the median; beside 13 s of LAPACK work
the same swings stay well inside the bound.  The 16-cell H12 sweep is not a
workload either: its many small dense solves (LU of 144x144) slowed by up to
2x in phases of host load lasting tens of seconds, so ten runs of it spread
0.1-0.2 of their median, against 0.03-0.08 for the H24 solve.  The small
sweep in ``solve-long`` keeps that layer measured at a sixth of the time.

Every op's output is checked, and each output's digest must repeat across
the repetitions of one seed.  Known failures when this benchmark was added: the
``scalar-region`` ops for k = 6, 7 and 8 raise ZeroDivisionError (a
cancellation defect in ``scalar.kappa``).  They count as failed ops, in
``failed`` and ``fail_ratio``; ``correct`` is false only when an op fails
that is not listed in ``workloads.EXPECTED_FAILURES``, an output check fails,
or a digest differs between repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
list every metric with its unit, the correctness metrics, the machine and
version record, and the output digests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0      # the whole run, set-up included, must end by then
# set-ups timed per run, the untraced repetitions' own included, as far as
# --seconds allows; setup_s is their median
SETUP_SAMPLES = 20

# BLAS runs one thread in this process and in every repetition.  With the
# default one thread per core, OpenBLAS threads spin while they wait; beside
# the sweep's thread pool and any other load on the host they turned an 11 s
# sweep into 40-48 s when one of two cores was busy elsewhere, so the
# figures followed the host, not the program.  Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# CPUs this process may use before main() narrows it to one of them
NPROC = len(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import EXPECTED_FAILURES, SETUP  # noqa: E402


def _blas_threads():
    """OpenBLAS thread count, asked from the library numpy loaded."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count() or 1
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oneshot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV,
        "cpu_count": cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_pool_default_workers": min(32, cpus + 4),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_rep(args, traced: bool, index: int, deadline: float,
            setup_only: bool = False) -> dict:
    """Spawn one repetition; returns its result with ``setup_s`` and ``rep_s``."""
    work = WORK / str(os.getpid())
    result_file = work.with_name(f"{os.getpid()}-rep{index}.json")
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work", str(work.relative_to(ROOT)), "--result", str(result_file)]
    if setup_only:
        cmd.append("--setup-only")
    if index == 0:
        # every later repetition's output must match this one's digest, so
        # one check of the bound values covers the run; it takes about a
        # second of each `bound` repetition
        cmd.append("--check-bounds")
    spawn = time.perf_counter()
    # the child inherits stderr, so a crash shows its traceback
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - spawn), check=False)
    end = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {index} exited with {proc.returncode}")
    result = json.loads(result_file.read_text())
    result_file.unlink()
    result["traced"] = traced
    # perf_counter is the system-wide CLOCK_MONOTONIC on Linux, so the
    # child's readiness stamp and this spawn stamp share one time base
    result["setup_s"] = result["ready"] - spawn
    result["rep_s"] = end - spawn
    return result


def run_reps(args) -> tuple[list[dict], list[float]]:
    """Repetitions until the next one would overrun ``--seconds``; with
    tracing, untraced and traced ones alternate and both kinds run.  One
    set-up-only child runs first, and more fill the time left, up to
    ``SETUP_SAMPLES`` set-ups.  Returns the repetitions and the set-up times
    of every untraced child."""
    start = time.perf_counter()
    deadline = start + args.seconds
    hard = start + HARD_LIMIT_S
    setups: list[float] = []

    def setup_child() -> float:
        result = run_rep(args, False, -1 - len(setups), hard, setup_only=True)
        setups.append(result["setup_s"])
        return result["rep_s"]

    setup_cost = setup_child()       # also compiles the checkout's bytecode
    kinds = [False, True] if args.trace else [False]
    reps: list[dict] = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        reps.append(run_rep(args, traced, len(reps), hard))
        nxt = kinds[len(reps) % len(kinds)]
        same = [r["rep_s"] for r in reps if r["traced"] == nxt] or \
               [r["rep_s"] for r in reps]
        # the median, not the slowest: a run in a slow phase of the host
        # would otherwise stop a repetition early and keep fewer samples
        expected_end = time.perf_counter() + statistics.median(same)
        if len(reps) < len(kinds):
            continue
        if expected_end > deadline or expected_end > hard:
            break
    setups += [r["setup_s"] for r in reps if not r["traced"]]
    while (len(setups) < SETUP_SAMPLES
           and time.perf_counter() + setup_cost <= deadline):
        setup_cost = setup_child()
    return reps, setups


def op_median_sum(reps: list[dict], name: str) -> float:
    """Sum over the ops of each op's median time across ``reps``.  A burst
    of load elsewhere on the host that slows one op in one repetition drops
    out here, while a median of whole repetitions keeps it once it spans two
    of them."""
    per_op: dict[str, list[float]] = {}
    for rep in reps:
        for op in rep["ops"]:
            per_op.setdefault(op["label"], []).append(op[name])
    return sum(statistics.median(times) for times in per_op.values())


def aggregate(workload: str, reps: list[dict], setups: list[float]) -> dict:
    expected = set(EXPECTED_FAILURES.get(workload, ()))
    attempted = failed = 0
    problems: list[str] = []
    first_digest: dict[str, str] = {}
    for i, rep in enumerate(reps):
        if not rep["originals_intact"]:
            problems.append(f"rep {i}: library functions not the originals")
        for op in rep["ops"]:
            attempted += 1
            if op["ok"]:
                ref = first_digest.setdefault(op["label"], op["digest"])
                if op["digest"] == ref:
                    continue
                error = "output differs from the first repetition"
            elif (op["label"] in expected
                  and not op["error"].startswith("check failed")):
                failed += 1          # the known defect: counted, not a problem
                continue
            else:
                error = op["error"]
            failed += 1
            problems.append(f"rep {i}: {op['label']}: {error}")
    untraced = [r for r in reps if not r["traced"]]
    e2e = {"setup_s": statistics.median(setups),
           "wall_s": op_median_sum(untraced, "wall_s"),
           "cpu_s": op_median_sum(untraced, "cpu_s"),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
    sums: dict[str, float] = {}
    for rep in reps:
        for key, value in rep["summary"].items():
            if key == "sigma_rel_err":
                sums[key] = max(sums.get(key, 0.0), value)
            else:
                sums[key] = sums.get(key, 0) + value
    checks = {"fail_ratio": failed / attempted}
    if "verdict_judged" in sums:
        checks["verdict_agree_ratio"] = (sums["verdict_agree"]
                                         / max(sums["verdict_judged"], 1))
    if "bound_computed" in sums:
        checks["bound_sufficient_ratio"] = (sums["bound_sufficient"]
                                            / max(sums["bound_computed"], 1))
    if "sigma_rel_err" in sums:
        checks["sigma_rel_err"] = sums["sigma_rel_err"]
    traced = [r["layers"] for r in reps if r["traced"]]
    layers = None
    if traced:
        layers = {name: statistics.median(t[name] for t in traced)
                  for name in traced[0]}
        layers["trace_overhead_ratio"] = (
            op_median_sum([r for r in reps if r["traced"]], "wall_s")
            / e2e["wall_s"] - 1.0)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "e2e": e2e, "checks": checks, "layers": layers,
            "digests": first_digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "oneshot" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Every repetition inherits one CPU.  The sweep's pool threads hand the
    # GIL to each other; across two CPUs a hand-off waits until the other
    # CPU is scheduled, so when the host was busy a sweep of 11-12.7 s of CPU
    # time took 16-20 s of wall time.  On one CPU wall time stays within 1 %
    # of CPU time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    try:
        reps, setups = run_reps(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
    agg = aggregate(args.workload, reps, setups)

    n_untraced = sum(not r["traced"] for r in reps)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {n_untraced} untraced, {len(reps) - n_untraced} traced "
          "(closed loop, one client; values are medians)")
    for name, unit in END_TO_END_UNITS.items():
        value = agg["e2e"][name]
        each = " ".join(f"{x:.4g}" for x in (
            setups if name == "setup_s"
            else [r[name] for r in reps if not r["traced"]]))
        print(f"  {name:<24} {value:12.6g} {unit:<5} "
              f"(each: {each})")
    for name, value in agg["checks"].items():
        print(f"  {name:<24} {value:12.6g} 1")
    if agg["layers"]:
        for name, value in agg["layers"].items():
            print(f"  {name:<40} {value:14.6g} {PER_LAYER_UNITS[name]}")
    expected = EXPECTED_FAILURES.get(args.workload)
    if expected:
        print(f"  known failures, counted in failed: {', '.join(expected)}")
    for line in agg["problems"]:
        print(f"  problem: {line}")
    print(json.dumps({"machine": machine_record(args.seed),
                      "digests": agg["digests"]}))

    if args.trace:
        metrics = {name: {"value": agg["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": agg["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not agg["problems"],
                      "attempted": agg["attempted"], "failed": agg["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
