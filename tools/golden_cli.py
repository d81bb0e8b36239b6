"""Capture and compare golden outputs of the ``oneshot`` command line.

A refactor of the library should leave every CLI output unchanged.  This
script runs a fixed, seeded list of commands through ``oneshot.cli.main``
in process and records, per command, stdout, stderr, the exit code and
every file the command wrote.  Two captures, say of a parent commit and of
a change, are then compared command by command.

    python tools/golden_cli.py capture before.json --src /path/to/parent/src
    python tools/golden_cli.py capture after.json
    python tools/golden_cli.py compare before.json after.json

``--src`` puts that source tree first on ``sys.path`` (default: this
checkout's ``src``).  Run both captures with the same ``OPENBLAS_NUM_THREADS``,
since BLAS threading can change the last bits of dense products; the
capture records the BLAS environment and ``compare`` warns when it differs.

``compare`` goes through the commands of the first capture only, so a
change may add commands.  It prints one line per command whose output
moved: the largest relative change between corresponding numbers, and any
change of exit code, of text other than numbers, or of a ``formula_id``,
``branch`` or ``status`` value.  It exits 0 when every command is
byte-identical and 1 otherwise.  Needs only the standard library and numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

WORK = "<WORK>"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
H12 = ["--helmholtz", "12,6.283185307179586,0.01", "--seed", "3"]
H12_TAU = "0.0007"            # about 0.64 of usual GD's exact supremum on H12
METHODS = ("gd", "sgd", "kshot", "skshot")
LABELS = ("formula_id", "branch", "status")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


# -- problem files ------------------------------------------------------------

def _rows(a) -> list:
    return np.asarray(a, dtype=float).ravel().tolist()


def _real_file(rng, n_u, n_sigma, n_f, B) -> dict:
    return {"n_u": n_u, "n_sigma": n_sigma, "n_f": n_f, "B": _rows(B),
            "M": _rows(rng.standard_normal((n_u, n_sigma))),
            "H": _rows(rng.standard_normal((n_f, n_u))),
            "F": _rows(rng.standard_normal(n_u))}


def _complex_file(rng, n_u, n_sigma, n_f) -> dict:
    B = rng.standard_normal((n_u, n_u)) + 1j * rng.standard_normal((n_u, n_u))
    parts = {"B": B * (0.5 / np.linalg.norm(B, 2)),
             "M": rng.standard_normal((n_u, n_sigma)) + 1j * rng.standard_normal((n_u, n_sigma)),
             "H": rng.standard_normal((n_f, n_u)) + 1j * rng.standard_normal((n_f, n_u)),
             "F": rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)}
    return {"n_u": n_u, "n_sigma": n_sigma, "n_f": n_f,
            "complex": {name: {"re": _rows(a.real), "im": _rows(a.imag)}
                        for name, a in parts.items()}}


def write_problem_files(root: Path) -> None:
    """Seeded problem files, built with numpy alone so that both captures
    read the same bytes whatever library version they run."""
    rng = np.random.default_rng(20220721)
    B = rng.standard_normal((8, 8))
    files = {"real.json": _real_file(rng, 8, 3, 5, 0.6 * B / np.linalg.norm(B, 2))}
    # ||B|| > 1 but rho(B) = 0.5: only the resolvent bounds apply
    nonnormal = 0.5 * np.eye(6) + np.diag(np.full(5, 1.2), 1)
    files["nonnormal.json"] = _real_file(rng, 6, 2, 4, nonnormal)
    files["invalid.json"] = _real_file(rng, 4, 2, 3, 1.1 * np.eye(4))
    files["complex.json"] = _complex_file(rng, 5, 2, 4)
    # 2 complex rows for 3 real parameters: injective only over real sigma
    files["complex6.json"] = _complex_file(np.random.default_rng(0), 6, 3, 2)
    real = files["real.json"]
    files["nonfinite.json"] = dict(real, M=[*real["M"][:-1], math.inf])
    # a non-numeric entry, and a dimension that reads as infinity
    files["nonnumeric.json"] = dict(real, B=[{}, *real["B"][1:]])
    files["infdim.json"] = dict(real, n_u=math.inf)
    for name, data in files.items():
        (root / name).write_text(json.dumps(data))


# -- the command list ---------------------------------------------------------

def commands() -> list[list[str]]:
    """The fixed command list; ``{work}`` stands for the capture directory."""
    real = ["--problem", "{work}/real.json"]
    cplx = ["--problem", "{work}/complex.json"]
    nonnormal = ["--problem", "{work}/nonnormal.json"]
    cmds = [["check", "--problem", f"{{work}}/{name}.json"]
            for name in ("real", "complex", "nonnormal", "invalid", "complex6",
                         "nonfinite")]

    bound_sources = [["--scalar", "0.2,1,1"], ["--scalar=-0.5,2,0.5"], real,
                     cplx, nonnormal, ["--random", "20,3,10,0.5", "--seed", "1"],
                     ["--random", "6,2,4,0", "--seed", "2"], H12]
    for source in bound_sources:
        for method in METHODS:
            for k in (1, 2, 3, 4):
                cmds.append(["bound", *source, "--method", method, "--k", str(k)])
    cmds.append(["bound", *real, "--method", "skshot", "--k", "2",
                 "--theta0", "0.3", "--delta0", "2"])

    for method in METHODS:
        cmds.append(["solve", "--scalar", "0.2,1,1", "--method", method,
                     "--k", "2", "--tau", "0.5", "--max-outer", "400"])
        cmds.append(["solve", *cplx, "--method", method, "--k", "3",
                     "--tau", "0.01", "--max-outer", "300"])
        cmds.append(["solve", *H12, "--method", method, "--k", "2",
                     "--tau", H12_TAU, "--max-outer", "150"])
    # deep k: many inner sweeps per outer step
    for method in ("kshot", "skshot"):
        for k in ("5", "8"):
            cmds.append(["solve", *H12, "--method", method, "--k", k,
                         "--tau", H12_TAU, "--max-outer", "150"])
    # n_u = 400: B^k spans two row panels of the fused one-shot step
    cmds.append(["solve", "--helmholtz", "20,6.283185307179586,0.01", "--seed", "3",
                 "--method", "kshot", "--k", "2", "--tau", "0.0004",
                 "--max-outer", "200"])
    # ... and at k = 3, 2 k n_f = 480 > n_u: the dense U_k serves each step
    cmds.append(["solve", "--helmholtz", "20,6.283185307179586,0.01", "--seed", "3",
                 "--method", "kshot", "--k", "3", "--tau", "0.0004",
                 "--max-outer", "100"])
    # the benchmark's H24 kshot k = 3 solve, cut short: ||B^3|| is certified
    # below 1, so its rows come from the outputs' impulse response
    cmds.append(["solve", "--helmholtz", "24,6.283185307179586,0.01", "--seed", "1",
                 "--method", "kshot", "--k", "3", "--tau", "2.8720878938107805e-05",
                 "--max-outer", "300"])
    # impulse rows come in blocks of 48: runs that end at a block's edges,
    # and the benchmark sweep's kshot k = 1 cell, which diverges at row 127
    for method in ("kshot", "skshot"):
        for max_outer in ("47", "48", "49"):
            cmds.append(["solve", *H12, "--method", method, "--k", "2",
                         "--tau", H12_TAU, "--max-outer", max_outer])
    cmds.append(["solve", "--helmholtz", "12,6.283185307179586,0.01", "--seed", "1",
                 "--method", "kshot", "--k", "1", "--tau", "0.0007648244503808194"])
    # ||B^3|| is certified below 1 here too, but the taps would cost more
    # than a step, so the run stays on the state
    cmds.append(["solve", "--random", "40,2,10,0.9", "--seed", "1", "--method",
                 "kshot", "--k", "3", "--tau", "0.001", "--max-outer", "300"])
    # exact start, sigma0 = sigma_ex: data and state come from the same solve,
    # so the misfit is exactly 0 and the run stops at its first row
    for method in ("gd", "sgd"):
        cmds.append(["solve", *H12, "--method", method, "--tau", "0.001",
                     "--sigma0", "10"])
    cmds.append(["solve", *real, "--method", "kshot", "--k", "2", "--tau", "0.5",
                 "--line-search-first", "--max-outer", "500",
                 "--out", "{work}/out/solve"])

    cmds.append(["sweep", "--random", "20,3,10,0.5", "--seed", "1",
                 "--method", "gd,sgd,kshot,skshot", "--k", "1,3",
                 "--tau", "0.001,0.004", "--max-outer", "300",
                 "--out", "{work}/out/sweep_random"])
    cmds.append(["sweep", *H12, "--method", "gd,kshot", "--k", "1,2",
                 "--tau", "0.002", "--line-search-first", "--max-outer", "150",
                 "--out", "{work}/out/sweep_h12"])

    cmds.append(["scalar-region", "--k", "1,2,3,5", "--b-count", "391"])
    cmds.append(["scalar-region", "--k", "2,8", "--method", "kshot,skshot,sgd",
                 "--out", "{work}/out/region.csv"])
    # the benchmark's own grid: 20001 b values, k = 1..8
    cmds.append(["scalar-region", "--k", "1,2,3,4,5,6,7,8", "--b-count", "20001",
                 "--out", "{work}/out/region_bench.csv"])
    # near b = 0 at high k, where t_k^2 - y_k cancels worst; b = 0 takes
    # kappa22's v -> 0 limit and drops out of the b^(k-1) branches
    cmds.append(["scalar-region", "--k", "6,7,8,16", "--b-min", "-0.001",
                 "--b-max", "0.001", "--b-count", "2001",
                 "--out", "{work}/out/region_near_zero.csv"])

    # bad input: pins the error line and exit code of each path
    scalar_gd = ["--scalar", "0.2,1,1", "--method", "gd"]
    cmds.append(["bound", "--scalar", "0.2,1,1", "--method", "foo"])
    cmds.append(["solve", *scalar_gd, "--k", "x", "--tau", "0.5"])
    cmds.append(["solve", *scalar_gd, "--tau", "0.5,9"])
    cmds.append(["solve", *scalar_gd, "--tau", "nan", "--line-search-first"])
    cmds.append(["sweep", *scalar_gd, "--tau", "nan", "--line-search-first",
                 "--out", "{work}/out/sweep_nan"])
    # a non-finite exact parameter or initial guess is named before any run
    cmds.append(["solve", *scalar_gd, "--tau", "0.1", "--sigma0", "inf"])
    cmds.append(["sweep", *scalar_gd, "--tau", "0.1", "--sigma-ex", "nan",
                 "--out", "{work}/out/sweep_nan_sigma"])
    random8 = ["--random", "8,3,4,0.5", "--method", "skshot", "--k", "2"]
    cmds.append(["bound", *random8, "--delta0", "nan"])
    cmds.append(["bound", *random8, "--delta0", "1e308"])
    # a complex file runs as its realification; a non-finite entry exits 2
    for name in ("complex6", "nonfinite"):
        cmds.append(["bound", "--problem", f"{{work}}/{name}.json", "--method", "gd"])
        cmds.append(["solve", "--problem", f"{{work}}/{name}.json", "--method", "gd",
                     "--tau", "0.01"])
    # malformed problem files, and h^2 m^2 out of the float range, exit 2
    for name in ("nonnumeric", "infdim"):
        cmds.append(["check", "--problem", f"{{work}}/{name}.json"])
    cmds.append(["bound", "--scalar", "0.2,1e200,1", "--method", "kshot"])
    cmds.append(["bound", "--scalar", "0.2,1e-200,1e-200", "--method", "kshot"])
    # the scalar problem keeps h^2 in range for solve and sweep as well
    cmds.append(["solve", "--scalar", "0.2,1e200,1", "--method", "kshot",
                 "--tau", "0.1"])
    cmds.append(["sweep", "--scalar", "0.2,1e200,1", "--method", "gd",
                 "--tau", "0.1", "--out", "{work}/out/sweep_big_h"])
    # a threshold branch that overflows to +inf warns nothing
    cmds.append(["bound", "--scalar", "3.1622776601683795e-09,1,1",
                 "--method", "skshot", "--k", "20"])
    # an end of the b grid outside (-1, 1) is named as the first bad b
    cmds.append(["scalar-region", "--b-min", "-1", "--b-max", "0.5",
                 "--b-count", "3"])
    # exactly one problem source; a malformed generator list names its flag
    cmds.append(["solve", "--scalar", "0.2,1,1", "--random", "4,1,2,0.5",
                 "--method", "gd", "--tau", "0.1"])
    cmds.append(["bound", "--scalar", "0.2,1,1", "--helmholtz", "6,1,0.01",
                 "--method", "gd"])
    cmds.append(["bound", "--random", "4,2", "--method", "gd"])
    cmds.append(["bound", "--helmholtz", "6,x,0.01", "--method", "gd"])
    # a bound parameter that no bound takes, or out of its range, is named
    cmds.append(["bound", "--scalar", "0.2,1,1", "--method", "kshot", "--theta0", "5"])
    cmds.append(["bound", "--random", "4,1,2,0.5", "--method", "gd", "--theta0", "5"])
    cmds.append(["bound", "--random", "4,1,2,0.5", "--method", "kshot", "--theta0", "5"])
    # an overflow to inf ends the run as diverged, and numpy warns nothing
    overflow = ["--random", "4,1,2,0.5", "--method", "kshot", "--tau", "1e300",
                "--max-outer", "5"]
    cmds.append(["solve", *overflow])
    cmds.append(["sweep", *overflow, "--out", "{work}/out/sweep_overflow"])
    cmds.append(["solve", "--scalar", "0.2,1,1", "--method", "kshot", "--tau", "0.1",
                 "--sigma0", "1e308"])
    # the scalar threshold checks k as the matrix bounds do
    cmds.append(["bound", "--scalar", "0.2,1,1", "--method", "gd", "--k", "-5"])
    cmds.append(["bound", "--scalar", "0.2,1,1", "--method", "sgd", "--k", "0"])
    # a malformed list item or a negative grid size names its flag
    cmds.append(["sweep", *scalar_gd, "--k", "1,x", "--tau", "0.1",
                 "--out", "{work}/out/sweep_bad_k"])
    cmds.append(["sweep", *scalar_gd, "--tau", "0.1,x",
                 "--out", "{work}/out/sweep_bad_tau"])
    cmds.append(["scalar-region", "--k", "1,x"])
    cmds.append(["scalar-region", "--b-count", "-3"])
    # a measurement that overflows names --sigma-ex; -1e-3 is a value
    cmds.append(["solve", "--helmholtz", "12,6.283185307179586,0.01", "--method",
                 "kshot", "--k", "3", "--tau", "1e-3", "--sigma-ex", "1e308",
                 "--max-outer", "5"])
    cmds.append(["scalar-region", "--k", "1", "--b-min", "-1e-3", "--b-max", "1e-3",
                 "--b-count", "3"])
    # A11 is solved in the grid sine basis: H24's GD bounds; a wavenumber
    # whose square is an eigenvalue of the n = 6 grid Laplacian, and a
    # non-finite delta, exit 2
    for method in ("gd", "sgd"):
        cmds.append(["bound", "--helmholtz", "24,6.283185307179586,0.01", "--seed", "1",
                     "--method", method])
    cmds.append(["bound", "--helmholtz", "6,4.405689717981266,0.01", "--method", "gd"])
    cmds.append(["bound", "--helmholtz", "6,1,nan", "--method", "gd"])
    # the GD oracle's closed form at 0.25, 0.5, 0.99 and 1.01 of H12's GD
    # supremum: both verdicts, and sgd's real and complex root branches
    cmds.append(["sweep", *H12, "--method", "gd,sgd", "--tau",
                 "0.0002714251576757575,0.000542850315351515,"
                 "0.0010748436243959996,0.0010965576370100603",
                 "--max-outer", "300", "--out", "{work}/out/sweep_gd_oracle"])
    return cmds


# -- capture ------------------------------------------------------------------

def run_one(main, argv: list[str], work: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:              # argparse exits, e.g. --help
            code = exc.code
        except Exception as exc:               # recorded, not fatal
            code = f"exception:{type(exc).__name__}: {exc}"
    files = {}
    out_root = work / "out"
    if out_root.exists():
        for path in sorted(out_root.rglob("*")):
            if path.is_file():
                files[path.relative_to(work).as_posix()] = path.read_text()
                path.unlink()
    text = str(work)
    return {"exit": code, "stdout": out.getvalue().replace(text, WORK),
            "stderr": err.getvalue().replace(text, WORK), "files": files}


def capture(out_path: str, src: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    from oneshot import cli
    record = {"oneshot": str(Path(cli.__file__).resolve().parent),
              "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
              "numpy": np.__version__, "commands": []}
    with tempfile.TemporaryDirectory(prefix="golden_cli_") as tmp:
        work = Path(tmp)
        write_problem_files(work)
        for argv in commands():
            argv = [a.replace("{work}", str(work)) for a in argv]
            result = run_one(cli.main, argv, work)
            result["argv"] = [a.replace(str(work), WORK) for a in argv]
            record["commands"].append(result)
    Path(out_path).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record['commands'])} commands captured to {out_path}")
    return 0


# -- compare ------------------------------------------------------------------

def _max_rel_change(a: str, b: str):
    """Largest relative change between corresponding numbers, or None when
    the texts differ in something other than numbers."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x == y:
            continue
        fx, fy = float(x), float(y)
        if math.isnan(fx) or math.isnan(fy) or math.isinf(fx) or math.isinf(fy):
            return math.inf
        worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def _labels(text: str) -> list:
    """formula_id/branch/status values of JSON output or of a CSV table."""
    lines = text.splitlines()
    try:
        objs = [json.loads(line) for line in lines]
    except ValueError:                          # not JSON: read it as CSV
        header = lines[0].split(",") if lines else []
        cols = [(i, name) for i, name in enumerate(header) if name in LABELS]
        return [(name, fields[i]) for fields in (l.split(",") for l in lines[1:])
                for i, name in cols if i < len(fields)]
    return [(key, obj[key]) for obj in objs if isinstance(obj, dict)
            for key in LABELS if key in obj]


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["blas_env"] != b["blas_env"]:
        print(f"warning: BLAS environments differ: {a['blas_env']} vs {b['blas_env']}")
    by_argv = {" ".join(c["argv"]): c for c in b["commands"]}
    differ = 0
    for ca in a["commands"]:
        key = " ".join(ca["argv"])
        cb = by_argv.get(key)
        if cb is None:
            print(f"MISSING in {path_b}: {key}")
            differ += 1
            continue
        notes = []
        if ca["exit"] != cb["exit"]:
            notes.append(f"exit {ca['exit']} -> {cb['exit']}")
        streams = {"stdout": (ca["stdout"], cb["stdout"]),
                   "stderr": (ca["stderr"], cb["stderr"])}
        for name in sorted(set(ca["files"]) | set(cb["files"])):
            streams[name] = (ca["files"].get(name), cb["files"].get(name))
        for name, (x, y) in streams.items():
            if x == y:
                continue
            if x is None or y is None:
                notes.append(f"{name} only in one capture")
                continue
            la, lb = _labels(x), _labels(y)
            if la != lb:
                moved = sum(p != q for p, q in zip(la, lb)) + abs(len(la) - len(lb))
                notes.append(f"{name}: {moved} formula_id/branch/status values changed")
            rel = _max_rel_change(x, y)
            notes.append(f"{name}: text other than numbers changed" if rel is None
                         else f"{name}: max relative change {rel:.3g}")
        if notes:
            differ += 1
            print(f"{key}\n    " + "; ".join(notes))
    print(f"{differ} of {len(a['commands'])} commands differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("capture", help="run the command list, write JSON")
    p.add_argument("out")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="source tree holding the oneshot package")
    p = sub.add_parser("compare", help="compare two captures")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "capture":
        return capture(args.out, args.src)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
