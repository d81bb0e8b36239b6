"""Command-line harness: problem checks, bounds, solver runs and sweeps.

Subcommands
-----------
check          validate a JSON problem file (exit 0 valid, 1 invalid, 2 parse error)
bound          print a descent-step bound / exact scalar threshold as JSON
solve          run one method and emit its trace CSV
sweep          run a method x k x tau grid, one trace CSV per cell + summary
scalar-region  tabulate the exact scalar thresholds over a b grid

Problems come from exactly one source: a file (--problem), the scalar triple
(--scalar b,h,m) or a generator (--random nu,nsigma,nf,norm / --helmholtz n,kt,delta).
Synthetic data uses sigma_ex = 10 and initial guess 12 per component, unless
overridden; all randomness is seeded, and rerunning a command with the same
seed reproduces byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds, scalar, spectral
from .linear_model import (RealInverseProblem, ScalarProblem, exact_state, cost,
                           gradient, helmholtz_toy, load_problem, random_contraction,
                           validate)
from .solvers import MethodSpec, SolverConfig, SolverKind, run_method

EXIT_INVALID = 1
EXIT_PARSE = 2
LINE_SEARCH_SHRINK = 0.5        # --line-search-first: step factor per try,
LINE_SEARCH_ARMIJO = 1e-4       # sufficient-decrease slope,
LINE_SEARCH_TRIES = 30          # and tries before the last step is kept


def _method_kind(name: str) -> SolverKind:
    """The solver kind of a method name; the one lookup of CLI names."""
    try:
        return SolverKind(name)
    except ValueError:
        raise ValueError(f"unknown method {name!r}, choose from "
                         f"{', '.join(kind.value for kind in SolverKind)}") from None


def _fields(flag: str, text: str, names: str, *types) -> list:
    """The comma fields of a source flag, one per type, or an error naming it."""
    try:
        return [cast(x) for cast, x in zip(types, text.split(","), strict=True)]
    except ValueError:
        raise ValueError(f"--{flag} expects {names}, got {text!r}") from None


def _parse_scalar(text: str) -> ScalarProblem:
    return ScalarProblem(*_fields("scalar", text, "b,h,m", float, float, float))


def _read_problem(path):
    """Load a problem file, reporting any failure as a problem-file error."""
    try:
        return load_problem(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read problem file: {exc}") from exc


def _load_problem_arg(args) -> RealInverseProblem:
    if args.problem is not None:
        return _read_problem(args.problem)
    if args.scalar is not None:
        return _parse_scalar(args.scalar).as_problem()
    if args.random is not None:
        return random_contraction(*_fields("random", args.random, "nu,nsigma,nf,norm",
                                           int, int, int, float), seed=args.seed)
    return helmholtz_toy(*_fields("helmholtz", args.helmholtz, "grid_n,wavenumber,delta",
                                  int, float, float), seed=args.seed)


def _synthetic_data(problem, args):
    """Exact parameter, measurement and initial guess for a solver run."""
    sigma_ex = np.full(problem.n_sigma, args.sigma_ex)
    sigma0 = np.full(problem.n_sigma, args.sigma0)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        f = problem.H @ exact_state(problem, sigma_ex)
    if not np.isfinite(f).all():
        raise ValueError(f"argument --sigma-ex: {args.sigma_ex:g} overflows the measurement")
    return sigma_ex, sigma0, f


def _line_search_tau(problem, f, sigma0, tau) -> float:
    """Backtracking line search on the first step, with direct solves."""
    with np.errstate(over="ignore", invalid="ignore"):   # a try that overflows fails
        j0 = cost(problem, sigma0, f)
        g = gradient(problem, sigma0, f)
        g2 = float(g @ g)
        if g2 == 0.0 or not math.isfinite(j0 + g2):   # flat, or no finite cost to cut
            return tau
        t = tau
        for _ in range(LINE_SEARCH_TRIES):
            if cost(problem, sigma0 - t * g, f) <= j0 - LINE_SEARCH_ARMIJO * t * g2:
                break
            t *= LINE_SEARCH_SHRINK
    return t


def _write(path, write) -> None:
    """Hand ``write`` the file at path (parent made) and print path, else stdout."""
    if not path:   # None or "": an empty --out writes to stdout too
        write(sys.stdout)
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        write(fh)
    print(path)


def _cmd_check(args) -> int:
    problem = _read_problem(args.problem)
    report = validate(problem)
    print(json.dumps(report.as_dict()))
    return 0 if report.is_valid else EXIT_INVALID


def _cmd_bound(args) -> int:
    method = MethodSpec(_method_kind(args.method), k=args.k)
    kind = method.kind
    given = {k: v for k in ("theta0", "delta0") if (v := getattr(args, k)) is not None}
    if given and (args.scalar is not None or not kind.one_shot):
        bound = ("exact scalar threshold" if args.scalar is not None
                 else f"{args.method} bound")
        raise ValueError(f"argument --{next(iter(given))}: the {bound} "
                         "takes no bound parameters")
    if args.scalar is not None:
        sp = _parse_scalar(args.scalar)
        thr = scalar.threshold(kind, args.k, sp.b)
        value = thr.value / (sp.h**2 * sp.m**2)   # sp keeps h^2 m^2 a float
        if not 0.0 < value < math.inf:   # the quotient may leave the range
            raise ValueError("h^2 m^2 puts the step bound out of the float range")
        print(json.dumps({"b": sp.b, "h": sp.h, "m": sp.m, "k": args.k,
                          "method": args.method, "value": value,
                          "branch": thr.branch}))
        return 0
    params = replace(bounds.default_params(kind.shifted, args.k), **given)
    try:    # an out-of-range theta0 is bad input, not an unusable problem
        bounds._check_params(params, kind.shifted, args.k)
    except ValueError as exc:
        raise ValueError(f"argument --theta0: {exc}") from None
    problem = _load_problem_arg(args)
    try:   # exit 1: the input was read, but has no matrix bound
        sb = bounds.matrix_bound(problem, method, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(sb.as_dict()))
    return 0


def _trace_path(out_dir: Path, method: str, k: int, tau: float) -> Path:
    return out_dir / f"trace_{method}_k{k}_tau{tau:.17g}.csv"


def _run(problem, f, sigma0, sigma_ex, method, tau, args):
    """One solver run; its config is checked before any line search."""
    config = SolverConfig(tau=tau, max_outer=args.max_outer)
    if args.line_search_first:
        config = replace(config, tau=_line_search_tau(problem, f, sigma0, tau))
    return run_method(method, problem, f, sigma0, config, sigma_exact=sigma_ex)


def _cmd_solve(args) -> int:
    method = MethodSpec(_method_kind(args.method), k=args.k)
    problem = _load_problem_arg(args)
    sigma_ex, sigma0, f = _synthetic_data(problem, args)
    trace = _run(problem, f, sigma0, sigma_ex, method, args.tau, args)
    _write(args.out and _trace_path(Path(args.out), args.method, args.k, trace.tau),
           trace.write_csv)
    return 0


def _run_cell(problem, f, sigma0, sigma_ex, kind, k, tau, args):
    method, trace, rho = None, None, math.nan
    try:
        method = MethodSpec(kind, k=k)
        trace = _run(problem, f, sigma0, sigma_ex, method, tau, args)
        status, outer, final_cost = trace.status.value, len(trace), trace.final_cost
    except Exception as exc:  # a failed cell must not kill the sweep
        status, outer, final_cost = f"error:{exc}", 0, math.nan
    if method is not None:
        try:   # the radius at the tau the run used, else at the requested one
            rho = spectral.converges(
                problem, method, tau if trace is None else trace.tau)[1]
        except Exception:  # no oracle radius: the row reports nan
            pass
    return kind.value, k, tau, trace, status, outer, final_cost, rho


def _cmd_sweep(args) -> int:
    # a mistyped name or list item fails the command, not its cells
    kinds = [_method_kind(name) for name in args.method.split(",")]
    ks = _fields("k", args.k, "a comma list of inner counts",
                 *[int] * (args.k.count(",") + 1))
    taus = _fields("tau", args.tau, "a comma list of steps",
                   *[float] * (args.tau.count(",") + 1))
    cells = [(kind, k, tau) for kind in kinds for k in ks for tau in taus]
    problem = _load_problem_arg(args)
    sigma_ex, sigma0, f = _synthetic_data(problem, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor() as pool:
        results = list(pool.map(
            lambda c: _run_cell(problem, f, sigma0, sigma_ex, *c, args), cells))

    results.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        # quotes only a field that needs it, such as an error with a comma
        summary = csv.writer(fh, lineterminator="\n")
        summary.writerow(["method", "k", "tau", "status", "outer_iters",
                          "final_cost", "rho"])
        for method_name, k, tau, trace, status, outer, final_cost, rho in results:
            if trace is not None:
                with open(_trace_path(out_dir, method_name, k, tau), "w") as tf:
                    trace.write_csv(tf)
            summary.writerow([method_name, k, f"{tau:.17g}", status, outer,
                              f"{final_cost:.17g}", f"{rho:.17g}"])
    print(str(out_dir / "summary.csv"))
    return 0


def _cmd_scalar_region(args) -> int:
    ks = _fields("k", args.k, "a comma list of inner counts",
                 *[int] * (args.k.count(",") + 1))
    if args.b_count < 0:
        raise ValueError(f"argument --b-count: must be at least 0, got {args.b_count}")
    with np.errstate(invalid="ignore", over="ignore"):   # threshold rejects nan and inf
        bs = np.linspace(args.b_min, args.b_max, args.b_count)
    kinds = ([_method_kind(name) for name in args.method.split(",")]
             if args.method else list(SolverKind))
    columns = []   # per (method, k): the rows' middle, values and branches
    for kind in kinds:
        # GD rows come once per b and carry k = 0: no inner iterations
        for k in (ks if kind.one_shot else ks[:1]):
            thr = scalar.threshold(kind, k, bs)
            columns.append((f",{thr.k},{kind.value},", thr.value.tolist(),
                            thr.branch.tolist()))
    lines = itertools.chain(["b,k,method,threshold,branch\n"], (
        f"{b}{mid}{values[i]:.17g},{branches[i]}\n"   # made as it is written
        for i, b in enumerate(f"{b:.17g}" for b in bs.tolist())
        for mid, values, branches in columns))
    _write(args.out, lambda fh: fh.writelines(lines))
    return 0


def _add_problem_sources(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)   # exactly one
    source.add_argument("--problem", help="JSON problem file")
    source.add_argument("--scalar", help="scalar triple b,h,m")
    source.add_argument("--random", help="random contraction nu,nsigma,nf,norm")
    source.add_argument("--helmholtz", help="Helmholtz toy grid_n,wavenumber,delta")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    def finite_float(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    p.add_argument("--sigma-ex", dest="sigma_ex", type=finite_float, default=10.0,
                   help="exact parameter value per component")
    p.add_argument("--sigma0", type=finite_float, default=12.0,
                   help="initial guess per component")
    p.add_argument("--max-outer", dest="max_outer", type=int,
                   default=SolverConfig.max_outer)
    p.add_argument("--line-search-first", action="store_true",
                   help="backtracking line search on the first step")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # main() prints it as the one error line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oneshot",
        description="multi-step one-shot inversion: checks, bounds, sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a problem file")
    p.add_argument("--problem", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bound", help="descent-step bound / scalar threshold")
    _add_problem_sources(p)
    p.add_argument("--method", required=True, help="gd, sgd, kshot or skshot")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--delta0", type=float, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("solve", help="run one method, emit trace CSV")
    _add_problem_sources(p)
    p.add_argument("--method", required=True, help="gd, sgd, kshot or skshot")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tau", type=float, required=True, help="descent step")
    p.add_argument("--out", help="output directory (default: CSV to stdout)")
    _add_run_options(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="method x k x tau grid with summary")
    _add_problem_sources(p)
    p.add_argument("--method", required=True,
                   help="comma list from gd,sgd,kshot,skshot")
    p.add_argument("--k", default="1", help="comma list of inner counts")
    p.add_argument("--tau", required=True, help="comma list of steps")
    p.add_argument("--out", required=True, help="output directory")
    _add_run_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scalar-region",
                       help="exact scalar thresholds over a b grid")
    p.add_argument("--k", default="1", help="comma list of inner counts")
    p.add_argument("--b-min", dest="b_min", type=float, default=-0.95)
    p.add_argument("--b-max", dest="b_max", type=float, default=0.95)
    p.add_argument("--b-count", dest="b_count", type=int, default=39)
    p.add_argument("--method", default=None,
                   help="comma list from gd,sgd,kshot,skshot (default all)")
    p.add_argument("--out", help="output CSV file (default: stdout)")
    p.set_defaults(func=_cmd_scalar_region)
    for p in (parser, *sub.choices.values()):  # -1e-3, -0.5,2,0.5: values, as -0.5 is
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:   # bad input: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
