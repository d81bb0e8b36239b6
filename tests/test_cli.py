"""End-to-end tests of the command-line harness."""
import csv
import json
import math

import numpy as np
import pytest

from oneshot import cli, solvers
from oneshot.cli import main
from oneshot.linear_model import (RealInverseProblem, ScalarProblem,
                                  random_contraction, save_problem)
from oneshot.solvers import MethodSpec, SolverConfig, SolverKind, run_method
from oneshot.linear_model import exact_state


@pytest.fixture
def valid_problem_file(tmp_path):
    path = tmp_path / "problem.json"
    save_problem(random_contraction(4, 2, 3, 0.4, seed=12), path)
    return path


class TestCheck:
    def test_valid_exits_zero(self, valid_problem_file, capsys):
        rc = main(["check", "--problem", str(valid_problem_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_valid"] is True

    def test_invalid_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_problem(RealInverseProblem(B=[[2.0]], M=[[1.0]], H=[[1.0]],
                                        F=[0.0]), path)
        rc = main(["check", "--problem", str(path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["is_valid"] is False
        assert report["messages"]

    def test_malformed_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--problem", str(path)]) == 2
        path.write_text(json.dumps({"n_u": 2}))
        assert main(["check", "--problem", str(path)]) == 2


class TestBadInput:
    """Bad input exits 2 with a single ``error:`` line and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["bound", "--scalar", "0.2,1", "--method", "gd"],
        ["scalar-region", "--k", "0"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "-1"],
        ["bound", "--random", "4,2,3,0.4", "--method", "skshot",
         "--theta0", "-1"],
        ["solve", "--problem", "no/such/file.json", "--method", "gd",
         "--tau", "0.1"],
        ["bound", "--random", "4,2", "--method", "gd"],
        ["scalar-region", "--method", "foo"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "nan"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "inf"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.5",
         "--max-outer", "-3"],
        ["bound", "--random", "20,3,10,0.5", "--method", "kshot", "--k", "0"],
        # argparse's own rejections take the same exit as the checks above
        ["bound", "--scalar", "0.2,1,1", "--method", "foo"],
        ["solve", "--scalar", "0.2,1,1", "--method", "foo", "--tau", "0.5"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--k", "x",
         "--tau", "0.5"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.5,9"],
        ["sweep", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.5"],
        ["foo"],
        # bound parameters must be finite, and delta0 squared as well
        ["bound", "--random", "8,3,4,0.5", "--method", "skshot", "--k", "2",
         "--delta0", "nan"],
        ["bound", "--random", "8,3,4,0.5", "--method", "skshot", "--k", "2",
         "--delta0", "inf"],
        ["bound", "--random", "8,3,4,0.5", "--method", "skshot", "--k", "2",
         "--delta0", "1e308"],
        ["bound", "--random", "8,3,4,0.5", "--method", "skshot", "--k", "2",
         "--theta0", "nan"],
        # the scalar triple's h and m must be finite
        ["bound", "--scalar", "0.2,nan,1", "--method", "kshot", "--k", "2"],
        ["bound", "--scalar", "0.2,1,inf", "--method", "gd"],
        # every b of the grid is checked, for the GD kinds as well
        ["scalar-region", "--b-min", "nan"],
        ["scalar-region", "--method", "gd", "--b-min", "nan"],
        # kappa11 divides by zero at b = 1 - 2^-30, alone or next to another b
        ["scalar-region", "--method", "skshot", "--k", "2",
         "--b-min", "0.99999999906867742538", "--b-max", "0.999999999",
         "--b-count", "2"],
        ["bound", "--scalar", "0.99999999906867742538,1,1", "--method",
         "skshot", "--k", "2"],
        # h^2 m^2 overflows, or underflows to 0
        ["bound", "--scalar", "0.2,1e200,1", "--method", "kshot"],
        ["bound", "--scalar", "0.2,1e-200,1e-200", "--method", "kshot"],
        # the scalar problem itself keeps h^2, m^2 and h^2 m^2 in range
        ["solve", "--scalar", "0.2,1e200,1", "--method", "kshot", "--tau", "0.1"],
        ["sweep", "--scalar", "0.2,1e200,1", "--method", "gd", "--tau", "0.1",
         "--out", "never_written"],
        ["solve", "--scalar", "0.2,1e-200,1e-200", "--method", "kshot",
         "--tau", "0.1"],
        ["sweep", "--scalar", "0.2,1e-200,1e-200", "--method", "gd",
         "--tau", "0.1", "--out", "never_written"],
        # the exact parameter and the initial guess must be finite
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
         "--sigma0", "inf"],
        ["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
         "--sigma-ex", "nan"],
        ["sweep", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
         "--sigma0", "nan", "--out", "never_written"],
        ["sweep", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
         "--sigma-ex", "inf", "--out", "never_written"],
        # exactly one problem source: a second one is an error, not ignored
        ["solve", "--scalar", "0.2,1,1", "--random", "4,1,2,0.5", "--method",
         "gd", "--tau", "0.1"],
        ["bound", "--scalar", "0.2,1,1", "--helmholtz", "6,1,0.01", "--method",
         "gd"],
        # bound parameters where no bound takes them, or out of their range
        ["bound", "--scalar", "0.2,1,1", "--method", "kshot", "--theta0", "5"],
        ["bound", "--random", "4,1,2,0.5", "--method", "gd", "--theta0", "5"],
        ["bound", "--random", "4,1,2,0.5", "--method", "kshot", "--theta0", "5"],
    ])
    def test_exit_two_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--scalar", "0.2,1,1", "--method", "kshot", "--theta0", "5"],
         "argument --theta0: the exact scalar threshold takes no bound parameters"),
        (["--scalar", "0.2,1,1", "--method", "skshot", "--delta0", "2"],
         "argument --delta0: the exact scalar threshold takes no bound parameters"),
        (["--random", "4,1,2,0.5", "--method", "gd", "--theta0", "5"],
         "argument --theta0: the gd bound takes no bound parameters"),
        (["--random", "4,1,2,0.5", "--method", "sgd", "--delta0", "2"],
         "argument --delta0: the sgd bound takes no bound parameters"),
        (["--random", "4,1,2,0.5", "--method", "kshot", "--theta0", "5"],
         "argument --theta0: theta0 must not exceed 0.785398, got 5"),
        (["--random", "4,1,2,0.5", "--method", "skshot", "--k", "2",
          "--theta0", "0.5236"],
         "argument --theta0: theta0 must be strictly below 0.523599 for k >= 2, "
         "got 0.5236"),
    ])
    def test_bound_parameters_are_named_before_any_problem(
            self, argv, message, monkeypatch, capsys):
        # they exited 0 and were ignored, or exited 1 as if the problem failed
        built = []
        monkeypatch.setattr(cli, "_load_problem_arg", built.append)
        assert main(["bound", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oneshot")

    def test_bad_tau_is_rejected_before_the_line_search(self, monkeypatch,
                                                        capsys):
        calls = []
        monkeypatch.setattr(cli, "cost", lambda *a: calls.append(a))
        assert main(["solve", "--scalar", "0.2,1,1", "--method", "gd",
                     "--tau", "nan", "--line-search-first"]) == 2
        assert capsys.readouterr().err == (
            "error: tau must be positive and finite, got nan\n")
        assert calls == []

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--sigma0", "inf"),
                                             ("--sigma-ex", "nan")])
    def test_non_finite_run_value_is_named_before_any_problem(
            self, command, flag, value, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "_load_problem_arg", built.append)
        argv = [command, "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
                flag, value, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: argument {flag}: must be finite, got {value}\n")
        assert built == [] and not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_overflowing_measurement_names_sigma_ex(self, command, tmp_path, capsys):
        # numpy warned, and the overflowed data ran as a diverged trace
        argv = [command, "--helmholtz", "12,6.283185307179586,0.01", "--method",
                "kshot", "--k", "3", "--tau", "1e-3", "--sigma-ex", "1e308",
                "--max-outer", "5", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: argument --sigma-ex: 1e+308 overflows the measurement\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_singular_wavenumber_is_named(self, capsys):
        # 4.405689717981266^2 is the least eigenvalue of the n = 6 grid
        # Laplacian, so a divisor of the sine solve is exactly 0
        argv = ["bound", "--helmholtz", "6,4.405689717981266,0.01", "--method", "gd"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: wavenumber 4.405689717981266: its square must be finite and off "
            "the grid Laplacian's eigenvalues, where A11 is singular\n")

    @pytest.mark.parametrize("source, message", [
        (["--random", "4,2"], "--random expects nu,nsigma,nf,norm, got '4,2'"),
        (["--random", "4.5,1,2,0.5"],
         "--random expects nu,nsigma,nf,norm, got '4.5,1,2,0.5'"),
        (["--helmholtz", "6,1"],
         "--helmholtz expects grid_n,wavenumber,delta, got '6,1'"),
        (["--helmholtz", "6,x,0.01"],
         "--helmholtz expects grid_n,wavenumber,delta, got '6,x,0.01'"),
        (["--scalar", "0.2,1"], "--scalar expects b,h,m, got '0.2,1'"),
        (["--scalar", "0.2,x,1"], "--scalar expects b,h,m, got '0.2,x,1'"),
    ])
    def test_malformed_source_names_its_flag(self, source, message, capsys):
        for cmd in (["bound"], ["solve", "--tau", "0.1"]):
            assert main([*cmd, *source, "--method", "gd"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, flags", [
        (["--scalar", "0.2,1,1", "--random", "4,1,2,0.5"], ("--random", "--scalar")),
        (["--problem", "p.json", "--helmholtz", "6,1,0.01"],
         ("--helmholtz", "--problem")),
        ([], ("--problem", "--scalar", "--random", "--helmholtz")),
    ])
    def test_problem_source_count_names_the_flags(self, argv, flags,
                                                  monkeypatch, capsys):
        built = []   # argparse rejects the command before any problem is built
        monkeypatch.setattr(cli, "_load_problem_arg", built.append)
        for cmd in (["bound"], ["solve", "--tau", "0.1"],
                    ["sweep", "--tau", "0.1", "--out", "never_written"]):
            assert main([*cmd, *argv, "--method", "gd"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert all(flag in err for flag in flags)
        assert built == []

    def test_unknown_sweep_method_runs_no_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--scalar", "0.2,1,1", "--method", "foo,gd",
                     "--tau", "0.5", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: unknown method 'foo', choose from "
                       "gd, sgd, kshot, skshot\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", [["--scalar", "0.2,1,1"],
                                        ["--random", "4,1,2,0.5"]])
    @pytest.mark.parametrize("method, k", [("gd", "-5"), ("sgd", "0")])
    def test_bound_checks_k_on_every_source(self, source, method, k, capsys):
        # the scalar threshold ignored the GD kinds' k: it exited 0 with it
        assert main(["bound", *source, "--method", method, "--k", k]) == 2
        assert capsys.readouterr() == ("", f"error: k must be at least 1, got {k}\n")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--scalar", "0.2,1,1", "--method", "gd", "--k", "1,x",
          "--tau", "0.1"], "--k expects a comma list of inner counts, got '1,x'"),
        (["sweep", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1,x"],
         "--tau expects a comma list of steps, got '0.1,x'"),
        (["scalar-region", "--k", "1,x"],
         "--k expects a comma list of inner counts, got '1,x'"),
        (["scalar-region", "--b-count", "-3"],
         "argument --b-count: must be at least 0, got -3"),
    ])
    def test_list_flag_names_itself(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unreadable_problem_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        for cmd in (["check"], ["bound", "--method", "gd"]):
            assert main([*cmd, "--problem", str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: cannot read problem file: ")


    @pytest.mark.parametrize("entry", [math.inf, math.nan, None])
    def test_non_finite_problem_file(self, valid_problem_file, entry, capsys):
        # json writes inf and nan as Infinity and NaN; null reads as nan
        data = json.loads(valid_problem_file.read_text())
        data["M"][-1] = entry
        valid_problem_file.write_text(json.dumps(data))
        path = str(valid_problem_file)
        for argv in (["check", "--problem", path],
                     ["bound", "--problem", path, "--method", "gd"],
                     ["solve", "--problem", path, "--method", "gd",
                      "--tau", "0.01"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: cannot read problem file: "
                           "M has a non-finite entry\n")

    @pytest.mark.parametrize("field,entry", [("B", [{}]), ("n_u", 1e400)])
    def test_malformed_problem_file(self, valid_problem_file, field, entry,
                                    capsys):
        # a non-numeric entry, and a dimension that reads as infinity
        data = json.loads(valid_problem_file.read_text())
        data[field] = entry
        valid_problem_file.write_text(json.dumps(data))
        assert main(["check", "--problem", str(valid_problem_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read problem file: ")
        assert err.count("\n") == 1


@pytest.fixture
def complex_problem_file(tmp_path):
    """A seeded 6x6 complex-state file with 2 complex measurement rows for
    3 real parameters: injective over real sigma only."""
    rng = np.random.default_rng(0)
    n_u, n_sigma, n_f = 6, 3, 2
    B = rng.standard_normal((n_u, n_u)) + 1j * rng.standard_normal((n_u, n_u))
    parts = {"B": B * (0.5 / np.linalg.norm(B, 2)),
             "M": rng.standard_normal((n_u, n_sigma)) + 1j * rng.standard_normal((n_u, n_sigma)),
             "H": rng.standard_normal((n_f, n_u)) + 1j * rng.standard_normal((n_f, n_u)),
             "F": rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "n_u": n_u, "n_sigma": n_sigma, "n_f": n_f,
        "complex": {name: {"re": a.real.ravel().tolist(),
                           "im": a.imag.ravel().tolist()}
                    for name, a in parts.items()}}))
    return str(path)


class TestNegativeValues:
    """A value that starts as a negative number is one, in exponent form or
    as a list too: argparse took -1e-3 for an option ("expected one argument")."""

    @pytest.mark.parametrize("argv, flag, value", [
        (["scalar-region", "--k", "1", "--b-count", "3"], "--b-min", "-1e-3"),
        (["scalar-region", "--k", "1", "--b-count", "3", "--b-min", "-0.01"],
         "--b-max", "-1e-3"),
        (["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
          "--max-outer", "3"], "--sigma0", "-1.5e1"),
        (["solve", "--scalar", "0.2,1,1", "--method", "gd", "--tau", "0.1",
          "--max-outer", "3"], "--sigma-ex", "-2E+0"),
        (["bound", "--method", "kshot"], "--scalar", "-5e-1,2,0.5"),
    ])
    def test_spaced_value_reads_as_with_equals(self, argv, flag, value, capsys):
        assert main([*argv, flag, value]) == 0
        spaced = capsys.readouterr()
        assert main([*argv, f"{flag}={value}"]) == 0
        assert capsys.readouterr() == spaced and spaced.err == ""


class TestComplexFile:
    """Every command runs the realification of a complex problem file."""

    def test_check_judges_the_realified_problem(self, complex_problem_file,
                                                capsys):
        assert main(["check", "--problem", complex_problem_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_valid"] is True and report["messages"] == []
        assert main(["bound", "--problem", complex_problem_file,
                     "--method", "gd"]) == 0
        bound = json.loads(capsys.readouterr().out)
        assert (report["max_singular_value"]
                == bound["norm_inputs"]["data_map_norm"])

    def test_gd_solve_converges(self, complex_problem_file, capsys):
        assert main(["solve", "--problem", complex_problem_file,
                     "--method", "gd", "--tau", "0.01"]) == 0
        last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
        assert last[5] == "converged"


class TestBound:
    def test_scalar_usual_gd(self, capsys):
        rc = main(["bound", "--scalar", "0,1,1", "--method", "gd"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 2.0

    def test_scalar_shifted_one_step_golden_ratio(self, capsys):
        rc = main(["bound", "--scalar", "0,1,1", "--method", "skshot", "--k", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - 0.6180339887) < 1e-9

    def test_matrix_bound_smoke(self, valid_problem_file, capsys):
        rc = main(["bound", "--problem", str(valid_problem_file),
                   "--method", "kshot", "--k", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] > 0 and math.isfinite(out["value"])
        assert "formula_id" in out and "norm_inputs" in out

    def test_scalar_threshold_scales_with_h_m(self, capsys):
        rc = main(["bound", "--scalar", "0.2,2,1", "--method", "kshot", "--k", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - 2.0836173913043483 / 4.0) < 1e-10


class TestSolve:
    def test_single_run_equals_library_call(self, valid_problem_file, tmp_path,
                                            capsys):
        out_dir = tmp_path / "run"
        rc = main(["solve", "--problem", str(valid_problem_file),
                   "--method", "gd", "--tau", "0.05", "--out", str(out_dir),
                   "--max-outer", "50"])
        assert rc == 0
        csv_path = capsys.readouterr().out.strip()
        lines = open(csv_path).read().strip().split("\n")

        problem = random_contraction(4, 2, 3, 0.4, seed=12)
        sigma_ex = np.full(2, 10.0)
        f = problem.H @ exact_state(problem, sigma_ex)
        trace = run_method(MethodSpec(SolverKind.USUAL_GD), problem, f,
                           np.full(2, 12.0), SolverConfig(tau=0.05, max_outer=50),
                           sigma_exact=sigma_ex)
        assert len(lines) == len(trace) + 1
        last = lines[-1].split(",")
        assert float(last[2]) == trace.cost[-1]
        assert last[5] == trace.status.value

    def test_stdout_csv(self, capsys):
        rc = main(["solve", "--scalar", "0,1,1", "--method", "gd",
                   "--tau", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("n,accumulated_inner,cost,grad_norm,err_sigma,status")

    def test_line_search_rescues_large_step(self, capsys):
        # tau far above the threshold: the first-step backtracking search
        # shrinks it into the stable region
        rc = main(["solve", "--scalar", "0.2,1,1", "--method", "gd",
                   "--tau", "5.0", "--line-search-first", "--max-outer", "4000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1].split(",")[-1] == "converged"


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, rows", [
        (["--random", "4,1,2,0.5", "--tau", "1e300", "--max-outer", "5"],
         ["1,1,147.52198872231872,0,2", "2,2,16.029138585589557,30.025260024487608,2",
          "3,3,inf,7.3753285763690579,inf"]),
        (["--scalar", "0.2,1,1", "--tau", "0.1", "--sigma0", "1e308"],
         ["1,1,78.125,0,inf", "2,2,inf,12.5,inf"]),
    ])
    def test_overflow_ends_the_run_quietly(self, argv, rows, tmp_path, capsys):
        # an overflow to inf warned from numpy before the diverged trace
        trace = solvers.CSV_HEADER + "\n" + "".join(f"{r},diverged\n" for r in rows)
        assert main(["solve", *argv, "--method", "kshot"]) == 0
        assert capsys.readouterr() == (trace, "")
        assert main(["sweep", *argv, "--method", "kshot",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        [path] = tmp_path.glob("trace_*.csv")
        assert path.read_text() == trace

    def test_shifted_gd_solves_once_per_step(self, monkeypatch, capsys):
        # the state at sigma0 serves both the first row and the first
        # refresh, so N rows take N - 1 exact state solves
        calls = []

        def counting_exact_state(problem, sigma):
            calls.append(sigma)
            return exact_state(problem, sigma)

        monkeypatch.setattr(solvers, "exact_state", counting_exact_state)
        assert main(["solve", "--scalar", "0.2,1,1", "--method", "sgd",
                     "--tau", "0.5"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) >= 2
        assert len(calls) == len(rows) - 1


class TestSweep:
    def test_counterintuitive_instance_grid(self, tmp_path):
        out_dir = tmp_path / "sweep"
        tau_small = 0.99 * 1.28
        rc = main(["sweep", "--scalar", "0.2,1,1",
                   "--method", "gd,kshot", "--k", "2",
                   "--tau", f"{tau_small},2.08",
                   "--out", str(out_dir), "--max-outer", "30000"])
        assert rc == 0
        rows = {}
        for line in (out_dir / "summary.csv").read_text().strip().split("\n")[1:]:
            method, k, tau, status, outer, cost, rho = line.split(",")
            rows[(method, round(float(tau), 6))] = (status, float(rho))
        assert rows[("gd", round(tau_small, 6))][0] == "converged"
        assert rows[("gd", 2.08)][0] == "diverged"
        assert rows[("kshot", round(tau_small, 6))][0] == "converged"
        assert rows[("kshot", 2.08)][0] == "converged"
        # oracle radii agree with the verdicts
        assert rows[("gd", 2.08)][1] > 1.0
        assert rows[("kshot", 2.08)][1] < 1.0

    def test_failing_cell_does_not_stop_the_sweep(self, tmp_path):
        # k = 0 fails MethodSpec validation; its error, which contains a
        # comma, must stay one quoted field of a 7-column row
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "--scalar", "0.2,1,1", "--method", "kshot",
                   "--k", "0,1", "--tau", "0.5", "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(None not in row and len(row) == 7 for row in rows)
        by_k = {row["k"]: row for row in rows}
        assert by_k["0"]["status"] == "error:k must be at least 1, got 0"
        assert by_k["0"]["outer_iters"] == "0"
        assert by_k["1"]["status"] == "converged"
        assert float(by_k["1"]["rho"]) < 1.0
        assert not (out_dir / "trace_kshot_k0_tau0.5.csv").exists()
        assert (out_dir / "trace_kshot_k1_tau0.5.csv").exists()

    @pytest.mark.parametrize("option, value, named", [
        ("--tau", "nan", "got nan"),
        ("--tau", "inf", "got inf"),
        ("--max-outer", "-3", "got -3"),
    ])
    def test_bad_solver_setting_is_named_in_the_row(self, tmp_path, option,
                                                     value, named):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--scalar", "0.2,1,1", "--method", "gd,kshot",
                "--tau", "0.5", "--out", str(out_dir), option, value]
        assert main(argv) == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["status"].startswith("error:")
            assert named in row["status"]
            assert row["outer_iters"] == "0"
        assert sorted(p.name for p in out_dir.iterdir()) == ["summary.csv"]

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["sweep", "--random", "4,2,3,0.5", "--seed", "7",
                "--method", "gd,skshot", "--k", "1,2", "--tau", "0.02,0.1",
                "--max-outer", "300"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        files1 = sorted(f.name for f in d1.iterdir())
        files2 = sorted(f.name for f in d2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_helmholtz_source_all_methods_converge(self, tmp_path):
        from oneshot.bounds import gd_bound
        from oneshot.linear_model import helmholtz_toy
        problem = helmholtz_toy(6, 6.283185307179586, 0.01, seed=3)
        tau = 0.3 * gd_bound(problem).value
        out_dir = tmp_path / "helm"
        rc = main(["sweep", "--helmholtz", "6,6.283185307179586,0.01",
                   "--seed", "3", "--method", "gd,sgd,kshot,skshot",
                   "--k", "2", "--tau", f"{tau}", "--out", str(out_dir),
                   "--max-outer", "8000"])
        assert rc == 0
        for line in (out_dir / "summary.csv").read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            assert parts[3] == "converged"
            assert float(parts[6]) < 1.0

    def test_summary_status_matches_oracle_radius(self, tmp_path):
        out_dir = tmp_path / "agree"
        rc = main(["sweep", "--random", "5,2,3,0.5", "--seed", "21",
                   "--method", "gd,kshot,skshot", "--k", "1,2",
                   "--tau", "0.01,0.05,0.3,1.0", "--out", str(out_dir),
                   "--max-outer", "20000"])
        assert rc == 0
        for line in (out_dir / "summary.csv").read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            status, rho = parts[3], float(parts[6])
            if abs(rho - 1.0) < 1e-3:
                continue  # near-threshold cells are not classified
            if rho < 1.0:
                assert status == "converged", line
            else:
                assert status == "diverged", line


class TestScalarRegion:
    def test_b_zero_row_values(self, capsys):
        rc = main(["scalar-region", "--k", "2", "--b-min", "0", "--b-max", "0",
                   "--b-count", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "b,k,method,threshold,branch"
        vals = {parts[2]: float(parts[3])
                for parts in (l.split(",") for l in lines[1:])}
        assert vals["gd"] == 2.0
        assert vals["sgd"] == 1.0
        assert vals["kshot"] == 2.0
        assert vals["skshot"] == 1.0

    def test_k1_closed_form_row(self, capsys):
        rc = main(["scalar-region", "--k", "1", "--b-min", "0.5",
                   "--b-max", "0.5", "--b-count", "1", "--method", "kshot"])
        assert rc == 0
        line = capsys.readouterr().out.strip().split("\n")[1]
        assert abs(float(line.split(",")[3]) - 0.1875) < 1e-14

    def test_thresholds_monotone_toward_gd(self, capsys):
        rc = main(["scalar-region", "--k", "2,8,32", "--b-min", "-0.6",
                   "--b-max", "0.6", "--b-count", "5", "--method", "kshot"])
        assert rc == 0
        rows = [l.split(",") for l in
                capsys.readouterr().out.strip().split("\n")[1:]]
        by_b = {}
        for b, k, _, thr, _ in rows:
            by_b.setdefault(float(b), {})[int(k)] = float(thr)
        for b, thrs in by_b.items():
            gd = 2.0 * (1.0 - b)**2
            # deviation from the GD threshold shrinks as k grows
            assert abs(thrs[32] - gd) <= abs(thrs[2] - gd) + 1e-12

    def test_rejects_bad_grid(self):
        assert main(["scalar-region", "--b-min", "-1.0", "--b-max", "0.5",
                     "--b-count", "3"]) == 2
