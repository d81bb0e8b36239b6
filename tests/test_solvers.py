"""Tests for the four inversion iterations and their traces."""
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneshot import solvers
from oneshot.bounds import gd_bound
from oneshot.linear_model import (RealInverseProblem, ScalarProblem,
                                  adjoint_from_state, exact_adjoint, exact_state,
                                  helmholtz_toy, random_contraction, realify)
from oneshot.solvers import (CSV_HEADER, MethodSpec, SolverConfig, SolverKind,
                             Status, run_method)
from oneshot.spectral import build_iteration_matrix, spectral_radius

GD = MethodSpec(SolverKind.USUAL_GD)
SGD = MethodSpec(SolverKind.SHIFTED_GD)


def _setup(problem, sigma_ex):
    u_ex = exact_state(problem, sigma_ex)
    f = problem.H @ u_ex
    p_ex = exact_adjoint(problem, sigma_ex, f)
    return f, u_ex, p_ex


class TestUsualGD:
    def test_exact_start_converges_immediately(self):
        p = random_contraction(5, 2, 3, 0.5, seed=1)
        s_ex = np.array([1.0, -1.0])
        f, _, _ = _setup(p, s_ex)
        tr = run_method(GD, p, f, s_ex, SolverConfig(tau=0.1), sigma_exact=s_ex)
        assert tr.status is Status.CONVERGED
        assert len(tr) == 1
        assert tr.cost[0] == 0.0

    def test_one_step_exact_kill(self):
        # b = 0, h = m = 1, tau = 1: the parameter error factor is 1 - tau = 0
        p = ScalarProblem(b=0.0, h=1.0, m=1.0).as_problem()
        f, _, _ = _setup(p, np.array([3.0]))
        tr = run_method(GD, p, f, np.array([7.0]), SolverConfig(tau=1.0),
                        sigma_exact=np.array([3.0]))
        assert tr.status is Status.CONVERGED
        assert len(tr) == 2
        assert tr.err_sigma[-1] < 1e-12

    def test_showcase_instance_diverges(self):
        p = ScalarProblem(b=0.2, h=1.0, m=1.0).as_problem()
        f, _, _ = _setup(p, np.array([10.0]))
        tr = run_method(GD, p, f, np.array([12.0]), SolverConfig(tau=2.08),
                        sigma_exact=np.array([10.0]))
        assert tr.status is Status.DIVERGED


class TestShiftedGD:
    def test_exact_start(self):
        p = random_contraction(4, 2, 2, 0.4, seed=2)
        s_ex = np.array([0.5, 2.0])
        f, _, _ = _setup(p, s_ex)
        tr = run_method(SGD, p, f, s_ex, SolverConfig(tau=0.05), sigma_exact=s_ex)
        assert tr.status is Status.CONVERGED
        assert len(tr) == 1

    def test_scalar_threshold_is_one(self):
        # error cubic lambda^3 - lambda^2 + tau lambda = 0: stable iff tau < 1
        p = ScalarProblem(b=0.0, h=1.0, m=1.0).as_problem()
        f, _, _ = _setup(p, np.array([1.0]))
        ok = run_method(SGD, p, f, np.array([4.0]), SolverConfig(tau=0.5),
                        sigma_exact=np.array([1.0]))
        assert ok.status is Status.CONVERGED
        bad = run_method(SGD, p, f, np.array([4.0]), SolverConfig(tau=1.5),
                         sigma_exact=np.array([1.0]))
        assert bad.status is Status.DIVERGED
        roots = np.roots([1.0, -1.0, 1.5, 0.0])
        assert np.max(np.abs(roots)) > 1.0


class TestOneShot:
    def test_k1_matches_hand_rolled_recurrence(self):
        p = random_contraction(4, 2, 2, 0.5, seed=3)
        s_ex = np.array([1.0, 1.0])
        f, _, _ = _setup(p, s_ex)
        tau = 0.05
        cfg = SolverConfig(tau=tau, max_outer=6, tol_cost=1e-300, tol_grad=1e-300)
        rng = np.random.default_rng(0)
        s0, u0, p0 = rng.standard_normal(2), rng.standard_normal(4), rng.standard_normal(4)
        tr = run_method(MethodSpec(SolverKind.K_STEP, 1), p, f, s0, cfg, u0, p0,
                        sigma_exact=s_ex)
        s, u, q = s0.copy(), u0.copy(), p0.copy()
        for n in range(len(tr)):
            assert np.allclose(tr.sigma[n], s, atol=1e-13)
            s_new = s - tau * (p.M.T @ q)
            u, q = (p.B @ u + p.M @ s_new + p.F,
                    p.B.T @ q + p.H.T @ (p.H @ u - f))
            s = s_new

    def test_shifted_k1_matches_hand_rolled_recurrence(self):
        p = random_contraction(4, 1, 2, 0.5, seed=4)
        s_ex = np.array([2.0])
        f, _, _ = _setup(p, s_ex)
        tau = 0.05
        cfg = SolverConfig(tau=tau, max_outer=6, tol_cost=1e-300, tol_grad=1e-300)
        rng = np.random.default_rng(1)
        s0, u0, p0 = rng.standard_normal(1), rng.standard_normal(4), rng.standard_normal(4)
        tr = run_method(MethodSpec(SolverKind.SHIFTED_K_STEP, 1), p, f, s0, cfg,
                        u0, p0, sigma_exact=s_ex)
        s, u, q = s0.copy(), u0.copy(), p0.copy()
        for n in range(len(tr)):
            assert np.allclose(tr.sigma[n], s, atol=1e-13)
            s_new = s - tau * (p.M.T @ q)
            u, q = (p.B @ u + p.M @ s + p.F,
                    p.B.T @ q + p.H.T @ (p.H @ u - f))
            s = s_new

    def test_showcase_instance_two_step_converges(self):
        p = ScalarProblem(b=0.2, h=1.0, m=1.0).as_problem()
        f, _, _ = _setup(p, np.array([10.0]))
        cfg = SolverConfig(tau=2.08, max_outer=30000)
        tr = run_method(MethodSpec(SolverKind.K_STEP, 2), p, f, np.array([12.0]),
                        cfg, sigma_exact=np.array([10.0]))
        assert tr.status is Status.CONVERGED

    def test_large_k_matches_usual_gd(self):
        p = random_contraction(5, 2, 3, 0.5, seed=5)
        s_ex = np.array([1.0, -2.0])
        f, u_ex, p_ex = _setup(p, s_ex)
        s0 = np.array([2.0, 0.5])
        tau = 0.2 * 2.0 / np.linalg.norm(
            p.H @ np.linalg.solve(np.eye(5) - p.B, p.M), 2)**2
        cfg = SolverConfig(tau=tau, max_outer=30, tol_cost=1e-300, tol_grad=1e-300)
        gd = run_method(GD, p, f, s0, cfg, sigma_exact=s_ex)
        os = run_method(MethodSpec(SolverKind.K_STEP, 200), p, f, s0, cfg,
                        exact_state(p, s0), exact_adjoint(p, s0, f),
                        sigma_exact=s_ex)
        for a, b in zip(gd.sigma, os.sigma):
            assert np.linalg.norm(a - b) < 1e-6

    def test_large_k_matches_shifted_gd(self):
        p = random_contraction(5, 2, 3, 0.5, seed=6)
        s_ex = np.array([1.0, 0.0])
        f, _, _ = _setup(p, s_ex)
        s0 = np.array([-1.0, 0.5])
        tau = 0.1 / np.linalg.norm(
            p.H @ np.linalg.solve(np.eye(5) - p.B, p.M), 2)**2
        cfg = SolverConfig(tau=tau, max_outer=30, tol_cost=1e-300, tol_grad=1e-300)
        gd = run_method(SGD, p, f, s0, cfg, sigma_exact=s_ex)
        os = run_method(MethodSpec(SolverKind.SHIFTED_K_STEP, 200), p, f, s0, cfg,
                        exact_state(p, s0), exact_adjoint(p, s0, f),
                        sigma_exact=s_ex)
        for a, b in zip(gd.sigma, os.sigma):
            assert np.linalg.norm(a - b) < 1e-6

    def test_exact_triple_is_stationary(self):
        p = random_contraction(5, 2, 3, 0.5, seed=7)
        s_ex = np.array([3.0, 1.0])
        f, u_ex, p_ex = _setup(p, s_ex)
        cfg = SolverConfig(tau=0.3, max_outer=20, tol_cost=1e-300, tol_grad=1e-300)
        for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
            tr = run_method(MethodSpec(kind, 3), p, f, s_ex, cfg, u_ex, p_ex,
                            sigma_exact=s_ex)
            assert max(tr.err_sigma) < 1e-12


def _sweep_loop(problem, f, k):
    """Reference for the fused step: the k coupled sweeps run one by one in
    np.longdouble, each outer step's (u, p) rounded once to float.  It gives
    no impulse-map parts; its run takes the state path with ``_realize``
    patched to None."""
    B, M, H, F, f = (np.asarray(a, dtype=np.longdouble)
                     for a in (problem.B, problem.M, problem.H, problem.F, f))

    def sweep(u, p, sigma):
        u, p = np.asarray(u, dtype=np.longdouble), np.asarray(p, dtype=np.longdouble)
        rhs_u = M @ sigma + F
        for _ in range(k):
            # both updates read the previous (u, p) pair
            u, p = B @ u + rhs_u, B.T @ p + H.T @ (H @ u - f)
        return u.astype(float), p.astype(float)
    return sweep, ()


def _norm_bound(a):
    # the router's bound of ||a||_2
    return math.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))


def _routes(monkeypatch):
    """The path each later one-shot run takes, "impulse" or "state"."""
    taken, realize = [], solvers._realize

    def spy(*args):
        realization = realize(*args)
        taken.append("state" if realization is None else "impulse")
        return realization
    monkeypatch.setattr(solvers, "_realize", spy)
    return taken


def _nonnormal(n, norm, rho, seed):
    # orthogonal similarity of an upper-triangular T scaled to ||B|| = norm:
    # the eigenvalues are T's diagonal, within +-rho, times norm / ||T||
    rng = np.random.default_rng(seed)
    T = np.diag(rng.uniform(-rho, rho, n)) + np.triu(rng.standard_normal((n, n)), 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    B = q @ (norm / np.linalg.norm(T, 2) * T) @ q.T
    return RealInverseProblem(B=B, M=rng.standard_normal((n, 2)),
                              H=rng.standard_normal((10, n)),
                              F=rng.standard_normal(n))


@pytest.fixture(scope="module")
def fused_problems():
    # U_k is applied factored where 2 k n_f <= n_u: on H12 at k = 1, and on
    # the few-measurement and the two-panel problems for k <= 5
    return {"scalar": ScalarProblem(0.2, 1.0, 1.0).as_problem(),
            "random": random_contraction(20, 3, 10, 0.5, seed=1),
            "H12": helmholtz_toy(12, 2.0 * math.pi, 0.01, seed=3),
            "few-measurements": random_contraction(40, 3, 4, 0.5, seed=2),
            "two-panels": random_contraction(400, 3, 40, 0.5, seed=4)}


class TestFusedStep:
    def test_the_large_problem_spans_two_panels(self, fused_problems):
        n = fused_problems["two-panels"].n_u
        rows = solvers.PANEL_BYTES // (8 * n)
        assert rows < n <= 2 * rows
        assert 8 * fused_problems["H12"].n_u ** 2 <= solvers.PANEL_BYTES

    @pytest.mark.parametrize("name", ["scalar", "random", "H12", "few-measurements",
                                      "two-panels"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_matches_the_sweep_loop(self, fused_problems, name, k, kind,
                                    monkeypatch):
        if ((name, k, kind) == ("two-panels", 8, SolverKind.SHIFTED_K_STEP)
                and np.finfo(np.longdouble).eps == np.finfo(float).eps):
            pytest.skip("np.longdouble is a plain double here, so the reference is "
                        "the float loop, whose own error on this case is 0.85 of "
                        "the 1e-12 tolerance")
        p = fused_problems[name]
        rng = np.random.default_rng(k)
        s_ex = rng.standard_normal(p.n_sigma)
        f = p.H @ exact_state(p, s_ex)
        u0, p0 = rng.standard_normal(p.n_u), rng.standard_normal(p.n_u)
        cfg = SolverConfig(tau=0.1 * gd_bound(p).value, max_outer=49,
                           tol_cost=1e-300, tol_grad=1e-300)
        args = (MethodSpec(kind, k), p, f, np.zeros(p.n_sigma), cfg, u0, p0, s_ex)
        fused = run_method(*args)
        monkeypatch.setattr(solvers, "_sweep_map", _sweep_loop)
        monkeypatch.setattr(solvers, "_realize", lambda *a: None)
        loop = run_method(*args)
        assert len(fused) == len(loop) == 50
        assert fused.status is loop.status
        assert fused.accumulated_inner == loop.accumulated_inner
        for a, b in ((fused.sigma, loop.sigma), (fused.cost, loop.cost),
                     (fused.grad_norm, loop.grad_norm)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("path", ["state", "impulse"])
    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_sweep_map_is_built_once_per_run(self, kind, path, fused_problems,
                                             monkeypatch):
        calls = []
        for name in ("_sweep_map", "tux", "_realize"):
            def counting(*args, _fn=getattr(solvers, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(solvers, name, counting)
        taken = _routes(monkeypatch)
        p = (random_contraction(6, 2, 3, 0.5, seed=11) if path == "state"
             else fused_problems["H12"])
        f = p.H @ exact_state(p, np.ones(p.n_sigma))
        cfg = SolverConfig(tau=0.1 * gd_bound(p).value, max_outer=30,
                           tol_cost=1e-300, tol_grad=1e-300)
        trace = run_method(MethodSpec(kind, 3), p, f, np.zeros(p.n_sigma), cfg)
        assert len(trace) == 31
        one_shot = kind.one_shot
        assert calls == (["_sweep_map", "tux", "_realize"] if one_shot else [])
        assert taken == ([path] if one_shot else [])

    @pytest.mark.parametrize("max_outer", [0, 40, 300])
    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_block_map_is_built_once_per_run(self, kind, max_outer, fused_problems,
                                             monkeypatch):
        calls, block_map = [], solvers._block_map
        monkeypatch.setattr(solvers, "_block_map",
                            lambda *a: calls.append(a) or block_map(*a))
        taken = _routes(monkeypatch)
        p = fused_problems["H12"]
        f = p.H @ exact_state(p, np.ones(p.n_sigma))
        cfg = SolverConfig(tau=0.1 * gd_bound(p).value, max_outer=max_outer,
                           tol_cost=1e-300, tol_grad=1e-300)
        trace = run_method(MethodSpec(kind, 3), p, f, np.zeros(p.n_sigma), cfg)
        assert len(trace) == max_outer + 1
        assert taken == ["impulse"] and len(calls) == 1

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_complex_problem_must_be_realified(self, kind):
        # run_method takes the container, which holds real data only
        data = dict(B=0.3j * np.eye(3), M=np.ones((3, 1)), H=np.eye(3),
                    F=np.zeros(3))
        with pytest.raises(ValueError, match="realify"):
            RealInverseProblem(**data)
        trace = run_method(MethodSpec(kind, 2), realify(**data), np.ones(6),
                           np.zeros(1), SolverConfig(tau=0.1, max_outer=3))
        assert len(trace) == 4


class TestImpulseRouting:
    """A one-shot run computes its rows from the outputs' impulse response
    where ||B^k|| is certified below 1 and a row costs no more than a step."""

    @pytest.mark.parametrize("name, k, path", [
        ("H12", 2, "impulse"), ("H12", 3, "impulse"), ("H12", 5, "impulse"),
        ("H12", 8, "impulse"),
        ("scalar", 1, "state"), ("scalar", 3, "state"),   # 1 < (n_f + 1) 1
        ("nonnormal", 1, "state"), ("nonnormal", 2, "state"),   # bound >= 1
        ("slow", 3, "state")])      # bound < 1, but too many taps to pay
    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_path_of_each_problem(self, fused_problems, name, k, path, kind,
                                  monkeypatch):
        p = {"nonnormal": lambda: _nonnormal(40, 1.5, 0.6, seed=1),
             "slow": lambda: random_contraction(40, 2, 10, 0.9, seed=1)
             }.get(name, lambda: fused_problems[name])()
        beta = _norm_bound(solvers.tux(p.B, p.H, k).Bk)
        if name == "nonnormal":
            assert np.linalg.norm(p.B, 2) == pytest.approx(1.5) and beta >= 1.0
            assert max(abs(np.linalg.eigvals(p.B))) < 0.6
        if name == "slow":
            assert beta < 1.0
        taken = _routes(monkeypatch)
        f = p.H @ exact_state(p, np.ones(p.n_sigma))
        run_method(MethodSpec(kind, k), p, f, np.zeros(p.n_sigma),
                   SolverConfig(tau=0.1 * gd_bound(p).value, max_outer=3))
        assert taken == [path]

    def test_a_transient_too_long_to_certify_takes_the_state_path(self, monkeypatch):
        # (u*, p*) is the sweeps' fixed point at the anchor r, and H, H B, ...,
        # H B^k all map delta to 0: from (u* + delta, p*) the forward run's first
        # difference has outputs at rounding level, but its later ones do not
        p, k = random_contraction(31, 2, 4, 0.54, seed=6), 2
        f = p.H @ exact_state(p, np.ones(p.n_sigma))
        sweep, parts = solvers._sweep_map(p, f, k)
        zero = np.zeros(p.n_u)
        realization = solvers._realize(p, f, zero, zero, sweep, *parts)
        assert realization is not None
        u_s = exact_state(p, realization[1])
        p_s = adjoint_from_state(p, u_s, f)
        stacked = np.vstack([p.H @ np.linalg.matrix_power(p.B, j) for j in range(k + 1)])
        delta = np.linalg.svd(stacked)[2][-1]
        assert np.linalg.norm(stacked @ delta) < 1e-14
        assert solvers._realize(p, f, u_s + delta, p_s, sweep, *parts) is None
        taken = _routes(monkeypatch)
        trace = run_method(MethodSpec(SolverKind.K_STEP, k), p, f, np.zeros(p.n_sigma),
                           SolverConfig(tau=0.1 * gd_bound(p).value, max_outer=3),
                           u_s + delta, p_s)
        assert taken == ["state"] and len(trace) == 4

    def test_one_realization_serves_every_tau_and_kind(self, fused_problems,
                                                      monkeypatch):
        # nothing in (K, r, z) depends on tau or on shifted, so one realization
        # gives the rows of four fresh runs bit for bit
        p = fused_problems["H12"]
        s_ex, sigma0, zero = np.ones(p.n_sigma), np.zeros(p.n_sigma), np.zeros(p.n_u)
        f = p.H @ exact_state(p, s_ex)
        sweep, parts = solvers._sweep_map(p, f, 2)
        realization = solvers._realize(p, f, zero, zero, sweep, *parts)
        taken = _routes(monkeypatch)
        for frac in (0.1, 0.3):
            tau = frac * gd_bound(p).value
            cfg = SolverConfig(tau=tau, max_outer=59, tol_cost=1e-300, tol_grad=1e-300)
            for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
                trace = run_method(MethodSpec(kind, 2), p, f, sigma0, cfg, sigma_exact=s_ex)
                rows = solvers._impulse_rows(realization, np.array([sigma0, s_ex]),
                                             tau, kind.shifted)
                sigma, cost, grad, _, err = zip(*itertools.islice(rows, 60))
                assert len(trace) == len(cost) == 60
                assert np.array_equal(trace.sigma, sigma)
                assert (trace.cost, trace.grad_norm, trace.err_sigma) == (
                    list(cost), list(grad), list(err))
        assert taken == ["impulse"] * 4


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_sigma=st.integers(1, 4), n_f_extra=st.integers(0, 12),
       n_u_extra=st.integers(0, 30), norm=st.floats(0.0, 0.6),
       k=st.integers(1, 8), shifted=st.booleans(), seed=st.integers(0, 2**16))
def test_impulse_rows_agree_with_the_state(data, n_sigma, n_f_extra, n_u_extra,
                                           norm, k, shifted, seed):
    p = random_contraction(n_sigma + n_u_extra, n_sigma, n_sigma + n_f_extra,
                           norm, seed=seed)
    rng = np.random.default_rng(seed)
    s_ex = rng.standard_normal(n_sigma)
    f = p.H @ exact_state(p, s_ex)
    start = data.draw(st.sampled_from(["zero", "random"]))
    u0, p0 = ((None, None) if start == "zero"
              else (rng.standard_normal(p.n_u), rng.standard_normal(p.n_u)))
    frac = data.draw(st.sampled_from([0.05, 0.3, 1.0]))
    kind = SolverKind.SHIFTED_K_STEP if shifted else SolverKind.K_STEP
    args = (MethodSpec(kind, k), p, f, np.zeros(n_sigma),
            SolverConfig(tau=frac * gd_bound(p).value, max_outer=300), u0, p0, s_ex)
    with pytest.MonkeyPatch.context() as mp:
        taken = _routes(mp)
        routed = run_method(*args)
        mp.setattr(solvers, "_realize", lambda *a: None)
        state = run_method(*args)
    beta = _norm_bound(solvers.tux(p.B, p.H, k).Bk)
    assert beta < 1.0 or taken == ["state"]
    assert routed.status is state.status and len(routed) == len(state)
    # a value that has fallen to 1e-12 of the run's largest is rounding-bound
    for a, b in ((routed.cost, state.cost), (routed.grad_norm, state.grad_norm)):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12 * max(b))


def _both_paths(args):
    """A run on the path its problem takes, and the same run on the state."""
    with pytest.MonkeyPatch.context() as mp:
        taken = _routes(mp)
        routed = run_method(*args)
        mp.setattr(solvers, "_realize", lambda *a: None)
        state = run_method(*args)
    assert taken == ["impulse"]
    assert routed.status is state.status and len(routed) == len(state)
    for a, b in ((routed.cost, state.cost), (routed.grad_norm, state.grad_norm)):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12 * max(b))
    return routed


class TestRowBlocks:
    """Impulse rows come ROW_BLOCK at a time; wherever in a block a run stops,
    it keeps the state path's status and row count."""

    M = solvers.ROW_BLOCK

    def _args(self, p, kind, max_outer, tol=1e-300, start=False, frac=0.3):
        rng = np.random.default_rng(5)
        f = p.H @ exact_state(p, rng.standard_normal(p.n_sigma))
        u0, p0 = ((rng.standard_normal(p.n_u), rng.standard_normal(p.n_u)) if start
                  else (None, None))
        cfg = SolverConfig(tau=frac * gd_bound(p).value, max_outer=max_outer,
                           tol_cost=tol, tol_grad=tol)
        return MethodSpec(kind, 2), p, f, np.zeros(p.n_sigma), cfg, u0, p0

    @pytest.mark.parametrize("max_outer", [0, 1, M - 1, M, M + 1])
    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_max_outer_at_a_block_edge(self, fused_problems, kind, max_outer):
        trace = _both_paths(self._args(fused_problems["H12"], kind, max_outer))
        assert trace.status is Status.MAX_ITER and len(trace) == max_outer + 1

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("place", [0, M // 2, M - 1])
    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_convergence_at_each_place_in_a_block(self, fused_problems, kind, place,
                                                  start):
        p = fused_problems["H12"]
        ref = run_method(*self._args(p, kind, 8 * self.M, start=start))
        # a tolerance between row n's larger relative value and all earlier
        # ones stops the run at row n, a record low past the first block
        rel = np.maximum(*(np.divide(v, next(x for x in v if x > 0.0))
                           for v in (ref.cost, ref.grad_norm)))
        n = next(n for n in range(self.M, len(rel))
                 if n % self.M == place and rel[n] < rel[:n].min())
        tol = math.sqrt(rel[n] * rel[:n].min())
        trace = _both_paths(self._args(p, kind, 2000, tol=tol, start=start))
        assert trace.status is Status.CONVERGED and len(trace) == n + 1

    def test_diverging_run(self):
        # the benchmark sweep's kshot k = 1 cell on H12, seed 1
        p = helmholtz_toy(12, 2.0 * math.pi, 0.01, seed=1)
        args = (MethodSpec(SolverKind.K_STEP, 1), p,
                p.H @ exact_state(p, np.full(p.n_sigma, 10.0)),
                np.full(p.n_sigma, 12.0),
                SolverConfig(tau=0.7 * gd_bound(p).value, max_outer=3000))
        trace = _both_paths(args)
        assert trace.status is Status.DIVERGED and len(trace) == 127

    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    def test_transient_longer_than_a_block(self, fused_problems, kind, monkeypatch):
        reached, block_map = [], solvers._block_map
        monkeypatch.setattr(solvers, "_block_map",
                            lambda *a: reached.append(a[2]) or block_map(*a))
        args = self._args(fused_problems["H12"], kind, 60, start=True)
        trace = run_method(*args)
        monkeypatch.setattr(solvers, "ROW_BLOCK", 4)
        short = _both_paths(args)
        # z's transient lasts 11 rows: part of one block, or three blocks of 4
        assert reached == [11, 4]
        assert short.status is trace.status and len(short) == len(trace) == 61
        np.testing.assert_allclose(short.sigma, trace.sigma, rtol=1e-12,
                                   atol=1e-12 * np.abs(trace.sigma).max())


class TestErrorRecurrenceEquivalence:
    def test_all_methods_match_matrix_powers(self):
        p = random_contraction(6, 2, 3, 0.5, seed=8)
        s_ex = np.array([1.0, 2.0])
        f, u_ex, p_ex = _setup(p, s_ex)
        s0 = np.array([-1.0, 0.25])
        tau = 0.1
        cfg = SolverConfig(tau=tau, max_outer=40, tol_cost=1e-300, tol_grad=1e-300)
        cases = [(MethodSpec(SolverKind.USUAL_GD), None, None)]
        cases.append((MethodSpec(SolverKind.SHIFTED_GD), None, None))
        rng = np.random.default_rng(2)
        for k in range(1, 6):
            u0, p0 = rng.standard_normal(6), rng.standard_normal(6)
            cases.append((MethodSpec(SolverKind.K_STEP, k), u0, p0))
            cases.append((MethodSpec(SolverKind.SHIFTED_K_STEP, k), u0, p0))
        for method, u0, p0 in cases:
            tr = run_method(method, p, f, s0, cfg, u0=u0, p0=p0, sigma_exact=s_ex)
            mat = build_iteration_matrix(p, method, tau).matrix
            if u0 is None:
                # GD kinds derive (u, p) from sigma by exact solves
                e = np.concatenate([exact_adjoint(p, s0, f) - p_ex,
                                    exact_state(p, s0) - u_ex, s0 - s_ex])
            else:
                e = np.concatenate([p0 - p_ex, u0 - u_ex, s0 - s_ex])
            for n in range(len(tr)):
                sig_err = e[2 * p.n_u:]
                # tau is not tuned per method here, so some runs blow up;
                # the comparison then only makes sense relative to the size
                scale = max(1.0, np.linalg.norm(sig_err))
                assert np.linalg.norm((tr.sigma[n] - s_ex) - sig_err) < 1e-10 * scale
                e = mat @ e


class TestEmpiricalVsSpectralVerdict:
    def test_scalar_agreement_outside_band(self):
        from oneshot.scalar import eta, kappa
        for b in (-0.5, 0.0, 0.3, 0.7):
            sp = ScalarProblem(b=b, h=1.0, m=1.0)
            p = sp.as_problem()
            f, _, _ = _setup(p, np.array([10.0]))
            for kind, thr in ((SolverKind.K_STEP, eta),
                              (SolverKind.SHIFTED_K_STEP, kappa)):
                for k in (1, 2, 3):
                    t_star = thr(k, b).value
                    for frac in (0.5, 0.9, 1.1, 1.6):
                        tau = frac * t_star
                        if abs(frac - 1.0) < 0.01:
                            continue
                        method = MethodSpec(kind, k)
                        rho = spectral_radius(
                            build_iteration_matrix(p, method, tau).matrix)
                        # margins on this grid are >= 7e-3, so 20000 outer
                        # iterations decide every cell
                        cfg = SolverConfig(tau=tau, max_outer=20000)
                        tr = run_method(method, p, f, np.array([12.0]), cfg,
                                        sigma_exact=np.array([10.0]))
                        if rho < 1.0:
                            assert tr.status is Status.CONVERGED
                        else:
                            assert tr.status is Status.DIVERGED


class TestTraceFormat:
    def test_csv_layout_and_inner_counts(self):
        p = random_contraction(4, 2, 2, 0.4, seed=9)
        s_ex = np.array([1.0, 1.0])
        f, _, _ = _setup(p, s_ex)
        cfg = SolverConfig(tau=0.05, max_outer=9, tol_cost=1e-300, tol_grad=1e-300)
        tr = run_method(MethodSpec(SolverKind.K_STEP, 3), p, f,
                        np.array([0.0, 0.0]), cfg, sigma_exact=s_ex)
        assert tr.accumulated_inner[0] == 1
        for i, acc in enumerate(tr.accumulated_inner):
            n = i + 1
            assert acc == 1 + (n - 1) * 3
        buf = io.StringIO()
        tr.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "n,accumulated_inner,cost,grad_norm,err_sigma,status"
        assert len(lines) == len(tr) + 1
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        # 17 significant digits survive a round trip
        assert float(first[2]) == tr.cost[0]

    def test_unknown_exact_parameter_gives_nan(self):
        p = random_contraction(3, 1, 2, 0.3, seed=10)
        f = np.zeros(2)
        cfg = SolverConfig(tau=0.05, max_outer=3, tol_cost=1e-300, tol_grad=1e-300)
        tr = run_method(GD, p, f, np.array([1.0]), cfg)
        assert np.isnan(tr.err_sigma[0])


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name, n", [("f", 3), ("sigma0", 2), ("sigma_exact", 2),
                                     ("u0", 6), ("p0", 6)])
def test_vector_of_wrong_length_is_named(kind, name, n):
    # a length-1 vector would otherwise broadcast, or fail inside a product
    p = random_contraction(6, 2, 3, 0.5, seed=1)
    vectors = {"f": np.zeros(3), "sigma0": np.ones(2), name: [1.0]}
    with pytest.raises(ValueError,
                       match=rf"^{name} must have length {n}, got \(1,\)$"):
        run_method(MethodSpec(kind, k=2), p, config=SolverConfig(tau=0.01),
                   **vectors)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, tol_cost=0.0)
    with pytest.raises(ValueError):
        MethodSpec(SolverKind.K_STEP, k=0)


@pytest.mark.parametrize("settings", [
    {"tau": float("nan")},
    {"tau": float("inf")},
    {"tau": 0.1, "tol_cost": float("nan")},
    {"tau": 0.1, "tol_grad": float("inf")},
    {"tau": 0.1, "max_outer": -3},
])
def test_config_rejects_non_finite_and_negative_settings(settings):
    with pytest.raises(ValueError):
        SolverConfig(**settings)


def test_config_allows_zero_outer_steps():
    p = random_contraction(3, 1, 2, 0.3, seed=1)
    trace = run_method(GD, p, np.zeros(2), np.ones(1),
                       SolverConfig(tau=0.1, max_outer=0))
    assert len(trace) == 1 and trace.status is Status.MAX_ITER

