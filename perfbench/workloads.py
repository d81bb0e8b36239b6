"""The benchmark's workloads: seeded inputs, the CLI ops, and output checks.

Every op is one ``oneshot`` command line.  ``setup`` builds a workload's ops
from its seed, writing any problem file it needs; ``check`` validates one
op's output after the timed region; ``summarize`` turns the checked outputs
of one repetition into the workload's correctness metrics.

The Helmholtz generator seed is the workload seed, so ``--seed 3`` gives the
exact commands of the project's examples.  Across seeds the work stays the
same size: the grids are fixed and the solver iteration counts move by well
under one percent.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TWO_PI = repr(2.0 * math.pi)
H12 = f"12,{TWO_PI},0.01"
H24 = f"24,{TWO_PI},0.01"
SIGMA_EX = 10.0                  # the CLI's default exact parameter per component
VERDICT_BAND = 1e-3              # |rho - 1| below this is too close to call
# a converged run must recover sigma to this share of ||sigma_ex||; the
# solves here reached 0.004 at most when the benchmark was added
SIGMA_REL_TOL = 0.05
TRACE_HEADER = "n,accumulated_inner,cost,grad_norm,err_sigma,status"
STATUSES = ("converged", "max_iter", "diverged")

# Ops that failed when this benchmark was added, from a known library defect:
# scalar.kappa raises ZeroDivisionError in kappa22 for k >= 6 near b = 0
# (cancellation in v = t^2 - y), and the 20001-point grid hits it.  They are
# counted as failed ops; a run is still correct when nothing else fails.
EXPECTED_FAILURES = {
    "bound": ("scalar-region k=6", "scalar-region k=7", "scalar-region k=8"),
}


@dataclass
class Op:
    label: str
    argv: list[str]
    out_dir: str | None = None          # directory the op writes into
    facts: dict = field(default_factory=dict)   # what the check needs


@dataclass
class OpResult:
    label: str
    ok: bool
    error: str | None
    digest: str | None
    facts: dict


# -- set-up ------------------------------------------------------------------

def _gd_sup(grid_n: int, seed: int) -> float:
    from oneshot.bounds import gd_bound
    from oneshot.linear_model import helmholtz_toy
    return gd_bound(helmholtz_toy(grid_n, 2.0 * math.pi, 0.01, seed=seed)).value


def nonnormal_problem(seed: int):
    """A problem whose B has ||B|| = 1.5 but rho(B) <= 0.6.

    B is an orthogonal similarity of an upper-triangular matrix: the diagonal
    fixes the spectrum, the scaled strict upper part fixes the norm.  With
    ||B|| >= 1 no closed-form bound exists, so s(B^k) decides the bound;
    rho(B) well below 1 keeps the problem valid (the state fixed-point
    iteration contracts).
    """
    import numpy as np
    from oneshot.linear_model import RealInverseProblem, validate
    n_u, n_sigma, n_f = 128, 8, 32
    norm_b, rho_b = 1.5, 0.6
    rng = np.random.default_rng(seed)
    diag = np.diag(rng.uniform(-rho_b, rho_b, n_u))
    upper = np.triu(rng.standard_normal((n_u, n_u)), 1)
    lo, hi = 0.0, 1.0
    while np.linalg.norm(diag + hi * upper, 2) < norm_b:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(diag + mid * upper, 2) < norm_b:
            lo = mid
        else:
            hi = mid
    q, _ = np.linalg.qr(rng.standard_normal((n_u, n_u)))
    problem = RealInverseProblem(
        B=q @ (diag + hi * upper) @ q.T,
        M=rng.standard_normal((n_u, n_sigma)),
        H=rng.standard_normal((n_f, n_u)),
        F=rng.standard_normal(n_u))
    if not validate(problem).is_valid:
        raise RuntimeError(f"seed {seed} gave an invalid non-normal problem")
    return problem


def setup_bound(seed: int, work: Path) -> list[Op]:
    """Matrix step bounds, where s(T) dominates, and the exact scalar
    thresholds with near-threshold 1x1 solves, where Python overhead does;
    the seed fixes the non-normal problem and the order of the ops."""
    import numpy as np
    from oneshot.linear_model import save_problem
    path = work / "nonnormal.json"
    save_problem(nonnormal_problem(seed), path)
    helm = ["--helmholtz", H12, "--seed", str(seed)]
    # checking the file exercises load_problem and validate
    ops = [Op("check nonnormal", ["check", "--problem", str(path)])]
    specs = [("H12 kshot k=1", helm, "kshot", 1),      # closed form wins
             ("H12 skshot k=3", helm, "skshot", 3),    # resolvent bound wins
             ("nonnormal kshot k=2", ["--problem", str(path)], "kshot", 2),
             ("H12 gd", helm, "gd", 1),
             ("H12 sgd", helm, "sgd", 1)]
    ops += [Op(f"bound {label}",
               ["bound", *source, "--method", method, "--k", str(k)],
               facts={"source": source, "method": method, "k": k})
            for label, source, method, k in specs]
    ops += _scalar_ops(work)
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def setup_solve_long(seed: int, work: Path) -> list[Op]:
    """A long BLAS-bound one-shot solve on H24, plus a small H12 sweep that
    keeps the GD solves, the per-cell eigen-oracle and the thread pool
    measured: gd and kshot, k 1 and 2, at 0.7 of the GD supremum (the two
    GD cells repeat each other; kshot k=1 diverges, the rest converge)."""
    tau = 0.05 * _gd_sup(24, seed)
    solve_out = work / "solve"
    sweep_out = work / "sweep"
    return [
        Op("solve H24 kshot k=3",
           ["solve", "--helmholtz", H24, "--seed", str(seed),
            "--method", "kshot", "--k", "3", "--tau", repr(tau),
            "--max-outer", "20000", "--out", str(solve_out)],
           out_dir=str(solve_out),
           facts={"n_sigma": 9, "max_outer": 20000,
                  "statuses": ("converged",)}),
        Op("sweep H12 4 cells",
           ["sweep", "--helmholtz", H12, "--seed", str(seed),
            "--method", "gd,kshot", "--k", "1,2",
            "--tau", repr(0.7 * _gd_sup(12, seed)),
            "--max-outer", "3000", "--out", str(sweep_out)],
           out_dir=str(sweep_out),
           facts={"cells": 2 * 2, "max_outer": 3000, "n_sigma": 9}),
    ]


def _scalar_ops(work: Path) -> list[Op]:
    from oneshot.scalar import eta, kappa
    ops = []
    for k in range(1, 9):
        out = work / f"region_k{k}"
        ops.append(Op(f"scalar-region k={k}",
                      ["scalar-region", "--k", str(k), "--b-count", "20001",
                       "--out", str(out / "region.csv")],
                      out_dir=str(out), facts={"rows": 20001 * 4}))
    for method, threshold in (("kshot", eta), ("skshot", kappa)):
        for k in (1, 2, 3, 5):
            # just inside the exact stability threshold, so the run is long
            tau = 0.99 * threshold(k, 0.2).value
            ops.append(Op(f"solve scalar {method} k={k}",
                          ["solve", "--scalar", "0.2,1,1", "--method", method,
                           "--k", str(k), "--tau", repr(tau),
                           "--max-outer", "20000"],
                          facts={"n_sigma": 1, "max_outer": 20000,
                                 # below the exact threshold: must not diverge
                                 "statuses": ("converged", "max_iter")}))
    return ops


SETUP = {
    "bound": setup_bound,
    "solve-long": setup_solve_long,
}


# -- output checks ------------------------------------------------------------

class CheckError(Exception):
    """An op's output is not what the command promises."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_trace_csv(text: str, facts: dict) -> dict:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == TRACE_HEADER, "bad trace CSV header")
    rows = list(csv.reader(lines[1:]))
    _require(len(rows) >= 1, "empty trace")
    _require(all(len(r) == 6 for r in rows), "trace row with wrong width")
    _require([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)),
             "trace rows are not numbered 1..len(trace)")
    _require(len(rows) <= facts["max_outer"] + 1, "trace longer than max-outer")
    status = rows[-1][5]
    _require(status in STATUSES and all(r[5] == status for r in rows),
             "trace status column inconsistent")
    allowed = facts.get("statuses", STATUSES)
    _require(status in allowed, f"run ended {status}, expected {allowed}")
    rel_err = float(rows[-1][4]) / (SIGMA_EX * math.sqrt(facts["n_sigma"]))
    _require(status != "converged" or rel_err <= SIGMA_REL_TOL,
             f"converged with sigma error {rel_err:.3g} of ||sigma_ex||")
    return {"status": status, "rows": len(rows), "sigma_rel_err": rel_err}


def check(op: Op, stdout: str, files: dict[str, bytes]) -> dict:
    """Validate one op's output; returns facts for the workload's metrics."""
    cmd = op.argv[0]
    if cmd == "bound":
        out = json.loads(stdout)
        value = out["value"]
        _require(isinstance(value, float) and math.isfinite(value)
                 and value > 0.0, f"bound value {value!r} not finite positive")
        return {"value": value}
    if cmd == "check":
        _require(json.loads(stdout)["is_valid"] is True, "problem not valid")
        return {}
    if cmd == "solve":
        if op.out_dir is None:
            return _check_trace_csv(stdout, op.facts)
        _require(len(files) == 1, f"expected one trace file, got {sorted(files)}")
        (name, data), = files.items()
        _require(stdout.strip() == str(Path(op.out_dir) / name),
                 "solve did not print its trace path")
        return _check_trace_csv(data.decode(), op.facts)
    if cmd == "sweep":
        summary = files.get("summary.csv")
        _require(summary is not None, "no summary.csv")
        rows = list(csv.DictReader(io.StringIO(summary.decode())))
        _require(len(rows) == op.facts["cells"],
                 f"summary has {len(rows)} rows, expected {op.facts['cells']}")
        agree = judged = 0
        for r in rows:
            status, rho = r["status"], float(r["rho"])
            _require(status in STATUSES, f"cell failed: {status}")
            name = f"trace_{r['method']}_k{r['k']}_tau{float(r['tau']):.17g}.csv"
            _require(name in files, f"missing {name}")
            facts = _check_trace_csv(files[name].decode(), op.facts)
            _require(facts["rows"] == int(r["outer_iters"])
                     and facts["status"] == status,
                     f"{name} disagrees with its summary row")
            if abs(rho - 1.0) >= VERDICT_BAND:
                judged += 1
                agree += (status == "converged") == (rho < 1.0)
        return {"agree": agree, "judged": judged}
    if cmd == "scalar-region":
        data = files.get("region.csv")
        _require(data is not None, "no region CSV")
        lines = data.decode().splitlines()
        _require(lines[0] == "b,k,method,threshold,branch", "bad region header")
        _require(len(lines) - 1 == op.facts["rows"],
                 f"region has {len(lines) - 1} rows, expected {op.facts['rows']}")
        for line in lines[1:]:
            value = line.split(",")[3]
            _require(value == "inf" or float(value) > 0.0,
                     f"threshold {value} not positive")
        return {}
    raise CheckError(f"no check for {cmd}")


def bound_sufficient(op: Op, value: float, seed: int) -> bool:
    """Whether the reported step bound really converges, at 0.99 x value.
    A bound that does not is a wrong output: the caller fails the op."""
    from oneshot.linear_model import helmholtz_toy, load_problem
    from oneshot.solvers import MethodSpec, SolverKind
    from oneshot.spectral import converges
    source = op.facts["source"]
    if source[0] == "--problem":
        problem = load_problem(source[1])
    else:
        problem = helmholtz_toy(12, 2.0 * math.pi, 0.01, seed=seed)
    method = MethodSpec(SolverKind(op.facts["method"]), k=op.facts["k"])
    return converges(problem, method, 0.99 * value)[0]


def summarize(results: list[OpResult]) -> dict[str, float]:
    """Correctness counts of one repetition, from its checked ops; an op
    that failed its check still counts with the facts it had established."""
    facts = [r.facts for r in results]
    m = {}
    sweeps = [f for f in facts if "judged" in f]
    if sweeps:
        m["verdict_agree"] = sum(f["agree"] for f in sweeps)
        m["verdict_judged"] = sum(f["judged"] for f in sweeps)
    bounds = [f for f in facts if "sufficient" in f]
    if bounds:
        m["bound_sufficient"] = sum(f["sufficient"] for f in bounds)
        m["bound_computed"] = len(bounds)
    errs = [f["sigma_rel_err"] for f in facts if "sigma_rel_err" in f]
    if errs:
        m["sigma_rel_err"] = max(errs)
    return m
