"""Tests for iteration matrices, T/U/X operators, radii and s(T)."""
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot import solvers, spectral
from oneshot.bounds import matrix_bound
from oneshot.linear_model import (RealInverseProblem, ScalarProblem, TUXTriple,
                                  exact_state, helmholtz_toy,
                                  random_contraction, realify, spectral_norm)
from oneshot.solvers import MethodSpec, SolverKind
from oneshot.spectral import (build_iteration_matrix, converges,
                              eigenvalue_one_check, s_functional,
                              spectral_radius, tux)

GOLDEN = (-1.0 + np.sqrt(5.0)) / 2.0


def _tux_by_summation(B, H, k):
    # direct evaluation of the defining sums, as an independent oracle
    n = B.shape[0]
    HtH = H.T @ H
    powers = [np.eye(n)]
    for _ in range(k):
        powers.append(powers[-1] @ B)
    T = sum(powers[j] for j in range(k))
    U = sum(powers[i].T @ HtH @ powers[j]
            for i in range(k) for j in range(k) if i + j == k - 1)
    X = np.zeros((n, n))
    for l in range(1, k):
        X = X + sum(powers[i].T @ HtH @ powers[j]
                    for i in range(l) for j in range(l) if i + j == l - 1)
    return T, U, X


class TestTUX:
    def test_k1(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3))
        H = rng.standard_normal((2, 3))
        t = tux(B, H, 1)
        assert np.allclose(t.T, np.eye(3))
        assert np.allclose(t.U, H.T @ H)
        assert np.all(t.X == 0.0)

    def test_scalar_values_k2(self):
        t = tux(np.array([[0.5]]), np.array([[1.0]]), 2)
        assert abs(t.T[0, 0] - 1.5) < 1e-15
        assert abs(t.U[0, 0] - 1.0) < 1e-15
        assert abs(t.X[0, 0] - 1.0) < 1e-15
        # u t - x b^2 + x = h^2 t^2
        lhs = t.U[0, 0] * t.T[0, 0] - t.X[0, 0] * 0.25 + t.X[0, 0]
        assert abs(lhs - 2.25) < 1e-15

    def test_recursion_matches_summation(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 4))
        H = rng.standard_normal((3, 4))
        for k in range(1, 6):
            t = tux(B, H, k)
            T, U, X = _tux_by_summation(B, H, k)
            scale = max(1.0, np.linalg.norm(X))
            assert np.linalg.norm(t.T - T) < 1e-12 * scale
            assert np.linalg.norm(t.U - U) < 1e-12 * scale
            assert np.linalg.norm(t.X - X) < 1e-12 * scale

    def test_self_adjointness(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((5, 5)) * 0.4
        H = rng.standard_normal((2, 5))
        for k in (2, 4, 7):
            t = tux(B, H, k)
            assert np.allclose(t.U, t.U.T, atol=1e-12)
            assert np.allclose(t.X, t.X.T, atol=1e-12)

    def test_structural_identity(self):
        # U_k T_k - X_k B^k + X_k = T_k* H*H T_k
        rng = np.random.default_rng(7)
        for trial in range(4):
            n = 3 + trial
            B = rng.standard_normal((n, n))
            H = rng.standard_normal((2, n))
            for k in range(1, 9):
                t = tux(B, H, k)
                Bk = np.linalg.matrix_power(B, k)
                rhs = t.T.T @ (H.T @ H) @ t.T
                lhs = t.U @ t.T - t.X @ Bk + t.X
                assert (np.linalg.norm(lhs - rhs)
                        <= 1e-10 * max(1.0, np.linalg.norm(rhs)))

    def test_norm_bounds_for_contractions(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((5, 5))
        B *= 0.7 / spectral_norm(B)
        H = rng.standard_normal((3, 5))
        b, nh = spectral_norm(B), spectral_norm(H)
        for k in range(1, 9):
            t = tux(B, H, k)
            assert spectral_norm(t.T) <= (1 - b**k) / (1 - b) + 1e-12
            xbound = nh**2 * (1 - k * b**(k - 1) + (k - 1) * b**k) / (1 - b)**2
            assert spectral_norm(t.X) <= xbound + 1e-12


def _tux_by_recursion(B, H, k):
    # the coupled three-matrix recursion tux ran before it built L:
    # T_{l+1} = T_l + B^l, U_{l+1} = B* U_l + H*H B^l, X_{l+1} = B* X_l + H*H T_l
    HtH = H.T @ H
    T, U, X, Bl = np.eye(len(B)), HtH.copy(), np.zeros(B.shape), np.eye(len(B))
    for _ in range(1, k):
        X = B.T @ X + HtH @ T
        Bl = Bl @ B
        U = B.T @ U + HtH @ Bl
        T = T + Bl
    return T, U, X, Bl @ B


@pytest.fixture(scope="module")
def tux_problems():
    rng = np.random.default_rng(3)
    nonnormal = 0.5 * np.eye(6) + np.diag(np.full(5, 1.2), 1)
    return {"H12": helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=3),
            "random": random_contraction(40, 5, 20, 0.7, seed=1),
            "nonnormal": RealInverseProblem(B=nonnormal, M=rng.standard_normal((6, 2)),
                                            H=rng.standard_normal((4, 6)),
                                            F=np.zeros(6))}


class TestStackedConstruction:
    """tux builds T_k, B^k and L from the powers of B, X_k as one stacked
    product and U_k = L* R on first use; the recursion it replaced is the
    reference."""

    @pytest.mark.parametrize("name", ["H12", "random", "nonnormal"])
    def test_matches_the_recursion(self, tux_problems, name):
        B, H = tux_problems[name].B, tux_problems[name].H
        for k in range(1, 9):
            t = tux(B, H, k)
            T, U, X, Bk = _tux_by_recursion(B, H, k)
            L = np.vstack(list(itertools.accumulate([H] + [B] * (k - 1), np.matmul)))
            assert np.array_equal(t.T, T) and np.array_equal(t.Bk, Bk)
            assert t.L.shape == (k, *H.shape)
            assert np.array_equal(t.L.reshape(-1, B.shape[0]), L)
            for got, want in ((t.U, U), (t.X, X)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            if k == 1:
                assert not t.X.any()

    def test_first_power_is_b_itself(self, tux_problems):
        for p in tux_problems.values():
            assert tux(p.B, p.H, 1).Bk.tobytes() == p.B.tobytes()

    @pytest.mark.parametrize("name, k, reads", [
        ("H12", 1, 0), ("factored", 1, 0), ("factored", 3, 0), ("factored", 5, 0),
        ("H12", 2, 1), ("H12", 3, 1)])
    def test_sweep_map_forms_dense_u_only_past_the_crossover(
            self, tux_problems, monkeypatch, name, k, reads):
        p = (random_contraction(400, 3, 40, 0.5, seed=4) if name == "factored"
             else tux_problems[name])
        assert (2 * k * p.n_f <= p.n_u) == (reads == 0)
        calls = []
        dense_U = TUXTriple.U.func

        def counted(self):
            calls.append(k)
            return dense_U(self)
        monkeypatch.setattr(TUXTriple, "U", property(counted))
        rng = np.random.default_rng(k)
        f = p.H @ exact_state(p, np.ones(p.n_sigma))
        sweep, _ = solvers._sweep_map(p, f, k)
        for _ in range(3):
            u, q = sweep(rng.standard_normal(p.n_u), rng.standard_normal(p.n_u),
                         np.ones(p.n_sigma))
        assert np.isfinite(u).all() and np.isfinite(q).all()
        assert len(calls) == reads


class TestIterationMatrix:
    def test_shifted_one_step_scalar_layout(self):
        p = ScalarProblem(b=0.3, h=2.0, m=0.7).as_problem()
        m = build_iteration_matrix(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 1),
                                   tau=0.1).matrix
        expected = np.array([[0.3, 4.0, 0.0],
                             [0.0, 0.3, 0.7],
                             [-0.07, 0.0, 1.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_k1_specializes(self):
        p = random_contraction(4, 2, 3, 0.5, seed=12)
        for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
            a = build_iteration_matrix(p, MethodSpec(kind, 1), 0.2).matrix
            t = tux(p.B, p.H, 1)
            # with T=I, U=H*H, X=0 the k-step blocks reduce to the one-step ones
            assert np.allclose(a[:4, 4:8], t.U)
            assert np.allclose(a[4:8, 4:8], p.B)

    def test_matrix_action_equals_hand_rolled_inner_sweeps(self):
        # two coupled sweeps plus the parameter update, k = 2, non-shifted
        rng = np.random.default_rng(3)
        p = random_contraction(3, 2, 2, 0.6, seed=33)
        tau = 0.07
        mat = build_iteration_matrix(p, MethodSpec(SolverKind.K_STEP, 2), tau).matrix
        perr = rng.standard_normal(3)
        uerr = rng.standard_normal(3)
        serr = rng.standard_normal(2)
        s_new = serr - tau * (p.M.T @ perr)
        u, pe = uerr, perr
        for _ in range(2):
            u, pe = (p.B @ u + p.M @ s_new,
                     p.B.T @ pe + p.H.T @ (p.H @ u))
        got = mat @ np.concatenate([perr, uerr, serr])
        want = np.concatenate([pe, u, s_new])
        assert np.linalg.norm(got - want) < 1e-12

    def test_shifted_matrix_action(self):
        rng = np.random.default_rng(4)
        p = random_contraction(3, 1, 2, 0.5, seed=44)
        tau = 0.05
        mat = build_iteration_matrix(
            p, MethodSpec(SolverKind.SHIFTED_K_STEP, 3), tau).matrix
        perr = rng.standard_normal(3)
        uerr = rng.standard_normal(3)
        serr = rng.standard_normal(1)
        s_new = serr - tau * (p.M.T @ perr)
        u, pe = uerr, perr
        for _ in range(3):
            u, pe = (p.B @ u + p.M @ serr,       # old parameter here
                     p.B.T @ pe + p.H.T @ (p.H @ u))
        got = mat @ np.concatenate([perr, uerr, serr])
        assert np.linalg.norm(got - np.concatenate([pe, u, s_new])) < 1e-12


class TestOneBlockForm:
    """GD is the k -> infinity limit of the one-shot block form."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("one_shot, gd", [
        (SolverKind.K_STEP, SolverKind.USUAL_GD),
        (SolverKind.SHIFTED_K_STEP, SolverKind.SHIFTED_GD),
    ])
    def test_gd_is_the_many_sweep_limit(self, seed, one_shot, gd):
        # ||B|| = 0.5, so B^80 and the tails of T, U, X are below 1e-24
        p = random_contraction(30, 4, 12, 0.5, seed=seed)
        many = build_iteration_matrix(p, MethodSpec(one_shot, 80), 0.3).matrix
        exact = build_iteration_matrix(p, MethodSpec(gd), 0.3).matrix
        assert np.max(np.abs(many - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bk_is_the_matrix_power(self, k):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((6, 6))
        H = rng.standard_normal((3, 6))
        want = np.linalg.matrix_power(B, k)
        got = tux(B, H, k).Bk
        if k <= 3:      # the same products in the same order
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tau(self, tau):
        p = ScalarProblem(b=0.2, h=1.0, m=1.0).as_problem()
        for kind in SolverKind:
            with pytest.raises(ValueError):
                build_iteration_matrix(p, MethodSpec(kind, 2), tau)
            with pytest.raises(ValueError, match="tau"):     # the GD closed form too
                converges(p, MethodSpec(kind, 2), tau)


class TestSpectralRadius:
    def test_identity(self):
        assert abs(spectral_radius(np.eye(3)) - 1.0) < 1e-14

    def test_usual_gd_scalar_nilpotent(self):
        p = ScalarProblem(b=0.0, h=1.0, m=1.0).as_problem()
        m = build_iteration_matrix(p, MethodSpec(SolverKind.USUAL_GD), 1.0).matrix
        assert spectral_radius(m) < 1e-7

    def test_shifted_one_step_crossing(self):
        p = ScalarProblem(b=0.0, h=1.0, m=1.0).as_problem()
        spec = MethodSpec(SolverKind.SHIFTED_K_STEP, 1)
        below = spectral_radius(build_iteration_matrix(p, spec, 0.999 * GOLDEN).matrix)
        above = spectral_radius(build_iteration_matrix(p, spec, 1.001 * GOLDEN).matrix)
        assert below < 1.0 <= above
        # the cubic root structure: lambda^3 - lambda^2 + tau = 0
        tau = 0.4
        roots = np.roots([1.0, -1.0, 0.0, tau])
        m = build_iteration_matrix(p, spec, tau).matrix
        assert abs(spectral_radius(m) - np.max(np.abs(roots))) < 1e-12


class TestConverges:
    def test_tiny_step_converges(self):
        p = random_contraction(5, 2, 3, 0.7, seed=10)
        for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
            ok, rho = converges(p, MethodSpec(kind, 2), 1e-6)
            assert ok and rho < 1.0

    def test_counterintuitive_step_pair(self):
        p = ScalarProblem(b=0.2, h=1.0, m=1.0).as_problem()
        ok_gd, rho_gd = converges(p, MethodSpec(SolverKind.USUAL_GD), 2.08)
        ok_2, rho_2 = converges(p, MethodSpec(SolverKind.K_STEP, 2), 2.08)
        assert not ok_gd and rho_gd > 1.0
        assert ok_2 and rho_2 < 1.0


def _nonnormal_gd_problem():
    # ||B|| > 1 but rho(B) = 0.5: the GD matrix is far from normal
    rng = np.random.default_rng(5)
    return RealInverseProblem(B=0.5 * np.eye(6) + np.diag(np.full(5, 1.2), 1),
                              M=rng.standard_normal((6, 2)),
                              H=rng.standard_normal((4, 6)), F=np.zeros(6))


class TestGDClosedForm:
    """The GD kinds' oracle radius comes from the n_sigma eigenvalues of
    D* D; the dense iteration matrix is the independent check."""

    PROBLEMS = {
        "H12": lambda: helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=3),
        "random": lambda: random_contraction(40, 5, 20, 0.7, seed=1),
        "nonnormal": _nonnormal_gd_problem,
    }

    @pytest.mark.parametrize("kind", [SolverKind.USUAL_GD, SolverKind.SHIFTED_GD])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_matches_the_dense_radius(self, name, kind):
        p, method = self.PROBLEMS[name](), MethodSpec(kind)
        sup = matrix_bound(p, method).value
        for factor in (0.5, 0.99, 1.01, 1.5):
            ok, rho = converges(p, method, factor * sup)
            dense = spectral_radius(build_iteration_matrix(p, method, factor * sup).matrix)
            assert ok == (factor < 1.0) == (dense < 1.0 - spectral.CONVERGENCE_MARGIN)
            assert abs(rho - dense) <= 1e-12 * dense, (factor, rho, dense)

    @pytest.mark.parametrize("kind", [SolverKind.USUAL_GD, SolverKind.SHIFTED_GD])
    def test_no_eigensolve_of_size_n_u(self, kind, monkeypatch):
        p = helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=3)
        sizes = []
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            def counting(a, *args, _fn=getattr(np.linalg, name)):
                sizes.append(len(a))
                return _fn(a, *args)
            monkeypatch.setattr(np.linalg, name, counting)
        assert converges(p, MethodSpec(kind), 1e-4)[0]
        assert sizes == [p.n_sigma]


class TestSFunctional:
    def test_zero_matrix(self):
        assert s_functional(np.zeros((3, 3))) == 1.0

    def test_norm_half_bounded_by_two(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        A *= 0.5 / spectral_norm(A)
        assert s_functional(A) <= 2.0 + 1e-9

    def test_nilpotent_refinement_agreement(self):
        # I - c T has the singular values (sqrt(4.81) +- 0.9) / 2 for every
        # |c| = 1: a flat resolvent norm, so every angle is a peak
        T = np.array([[0.0, 0.9], [0.0, 0.0]])
        exact = (0.9 + math.sqrt(4.81)) / 2.0
        assert exact <= s_functional(T) <= (1.0 + 1e-11) * exact

    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError):
            s_functional(np.eye(2))

    def test_at_least_one(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            A = rng.standard_normal((3, 3))
            A *= 0.3 / spectral_norm(A)
            assert s_functional(A) >= 1.0

    def test_contraction_bound_holds_generally(self):
        # s(T) <= 1/(1 - ||T||) whenever ||T|| < 1, including for powers
        rng = np.random.default_rng(14)
        for norm in (0.2, 0.5, 0.8, 0.95):
            A = rng.standard_normal((4, 4))
            A *= norm / spectral_norm(A)
            assert s_functional(A) <= 1.0 / (1.0 - norm) + 1e-9
            A2 = A @ A
            n2 = spectral_norm(A2)
            assert s_functional(A2) <= 1.0 / (1.0 - n2) + 1e-9


def _s_by_sampling(T, n_samples=720):
    # the former s(T): equispaced samples of the whole unit circle, then a
    # golden-section search around the best one; a sampled lower value
    phis = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    vals = spectral._boundary_norms(T, phis)
    best = int(np.argmax(vals))
    span = 2.0 * np.pi / n_samples
    inv_gold = (np.sqrt(5.0) - 1.0) / 2.0
    a = phis[best] - span
    b = phis[best] + span
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    fc = spectral._boundary_norms(T, np.array([c]))[0]
    fd = spectral._boundary_norms(T, np.array([d]))[0]
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_gold * (b - a)
            fc = spectral._boundary_norms(T, np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + inv_gold * (b - a)
            fd = spectral._boundary_norms(T, np.array([d]))[0]
        if b - a < 1e-13:
            break
    return float(max(1.0, vals[best], fc, fd))


def _rotation(r, theta):
    return r * np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])


def _nonnormal(n, norm, rho, seed):
    # orthogonal similarity of an upper-triangular matrix: the diagonal fixes
    # the spectrum, the scaled strict upper part makes ||T|| = norm > rho
    rng = np.random.default_rng(seed)
    diag = np.diag(rng.uniform(-rho, rho, n))
    upper = np.triu(rng.standard_normal((n, n)), 1)
    upper *= (norm - rho) / spectral_norm(upper)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ (diag + upper) @ q.T


def _s_inputs(name):
    if name == "random":
        rng = np.random.default_rng(21)
        mats = []
        for n in (5, 12, 20):
            A = rng.standard_normal((n, n))
            mats.append(0.9 * A / spectral_radius(A))
        return mats
    if name == "nonnormal":
        mats = [_nonnormal(40, 1.5, 0.6, seed) for seed in (1, 2)]
        return mats + [mats[0] @ mats[0]]
    if name == "H12 B":
        return [helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=1).B]
    p = helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=3)
    return [tux(p.B, p.H, 3).Bk]


class TestSCertificate:
    """s(T) is a certified upper value: at least the true supremum, and
    only the 2e-12 level margin above it."""

    @pytest.mark.parametrize("theta", [0.1234, 1.0, 2.9, math.pi / 2.0])
    def test_rotation_peak_between_samples(self, theta, monkeypatch):
        # r R(theta) is normal with eigenvalues r e^{+-i theta}, so
        # s = 1 / (1 - r), attained at phi = theta, between the end angles
        # 0 and pi; at theta = pi/2 their norms tie, and the first level
        # takes QZ
        calls = []

        def counted(T, phis):
            calls.append(len(phis))
            return bare(T, phis)

        bare = spectral._boundary_norms
        monkeypatch.setattr(spectral, "_boundary_norms", counted)
        r = 0.7
        exact = 1.0 / (1.0 - r)
        s = s_functional(_rotation(r, theta))
        assert exact <= s <= (1.0 + 1e-11) * exact
        assert calls[0] == 2 and len(calls) >= 2    # the level set was refined
        assert bare(_rotation(r, theta), np.array([0.0, np.pi])).max() < (
            1.0 - 1e-4) * exact

    @pytest.mark.parametrize("theta", [0.1234, 1.0])
    def test_sharp_peak_still_certifies(self, theta):
        # a peak this narrow leaves the pencil eigenvalues within rounding of
        # the unit circle at the first margin, which must then grow
        r = 0.999
        exact = 1.0 / (1.0 - r)
        assert exact <= s_functional(_rotation(r, theta)) <= (1.0 + 1e-9) * exact

    def test_nonnormal_block_against_dense_samples(self):
        R = _rotation(0.8, 1.0)
        T = np.block([[R, 3.0 * np.eye(2)], [np.zeros((2, 2)), R / 2.0]])
        phis = np.linspace(0.0, np.pi, 400_001)
        dense = max(spectral._boundary_norms(T, chunk).max()
                    for chunk in np.array_split(phis, 8))
        s = s_functional(T)
        assert dense <= s <= (1.0 + 1e-8) * dense

    @pytest.mark.parametrize("name", ["random", "nonnormal", "H12 B^3"])
    def test_agrees_with_the_sampled_value(self, name):
        for T in _s_inputs(name):
            old, new = _s_by_sampling(T), s_functional(T)
            assert (1.0 - 1e-12) * old <= new <= (1.0 + 1e-11) * old


def _flat_plus_spike(rel, theta):
    # a nilpotent block with a flat resolvent norm L on the circle, beside a
    # rotation whose peak 1 / (1 - r) = (1 + rel) L lies off both end angles
    level = (999.0 + math.sqrt(999.0**2 + 4.0)) / 2.0
    T = np.zeros((4, 4))
    T[0, 1] = 999.0
    T[2:, 2:] = _rotation(1.0 - 1.0 / ((1.0 + rel) * level), theta)
    return T


class TestShiftInvert:
    """Each level's pencil eigenvalues come from a real shift-invert at
    z0 = +-1 where the shifted pencil is provably well conditioned, and from
    QZ elsewhere; both must give the same certified value."""

    @staticmethod
    def _s(T, monkeypatch, force_qz=False):
        shifts = []
        bare = spectral._level_eigvals

        def recorded(T, gamma, shift):
            shifts.append(None if force_qz else shift)
            return bare(T, gamma, shifts[-1])

        with monkeypatch.context() as m:
            m.setattr(spectral, "_level_eigvals", recorded)
            return s_functional(T), shifts

    @pytest.mark.parametrize("name", ["H12 B", "H12 B^3", "nonnormal", "random"])
    def test_shift_agrees_with_qz(self, name, monkeypatch):
        for T in _s_inputs(name):
            s, shifts = self._s(T, monkeypatch)
            qz, _ = self._s(T, monkeypatch, force_qz=True)
            assert None not in shifts
            assert abs(s - qz) <= 1e-12 * qz

    @pytest.mark.parametrize("rel, theta", [(1e-6, 0.1), (1e-4, 1.3)])
    def test_spike_between_samples_stays_an_upper_bound(self, rel, theta):
        # the shift at the flat level is ill conditioned: without the guard,
        # it returned 1e-6 below the peak at rel = 1e-6
        T = _flat_plus_spike(rel, theta)
        phis = np.linspace(theta - 1e-3, theta + 1e-3, 200_001)
        dense = max(spectral._boundary_norms(T, chunk).max()
                    for chunk in np.array_split(phis, 8))
        assert dense <= s_functional(T) <= (1.0 + 1e-9) * dense

    def test_double_peak_at_both_shifts_takes_qz(self, monkeypatch):
        s, shifts = self._s(np.diag([0.9, -0.9, 0.3]), monkeypatch)
        assert shifts == [None]
        assert s == 10.000000000020002


class TestComplexInputRejected:
    """The oracle, s(T) and the bounds are real-only: complex data must be
    realified, not silently stripped of its imaginary part."""

    @pytest.fixture
    def complex_arrays(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        B *= 0.6 / spectral_norm(B)
        return (B,
                rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)),
                rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)),
                np.zeros(6, dtype=complex))

    def test_s_functional(self):
        with pytest.raises(ValueError, match="realify"):
            s_functional(np.array([[0.5j, 0.0], [0.0, 0.1]]))

    def test_tux(self, complex_arrays):
        B, _, H, _ = complex_arrays
        with pytest.raises(ValueError, match="realify"):
            tux(B, H, 2)

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_oracle_and_bound(self, complex_arrays, kind):
        # the oracle and the bounds take the container, which holds no
        # complex data; the realified problem goes through each of them
        with pytest.raises(ValueError, match="realify"):
            RealInverseProblem(*complex_arrays)
        rp, method = realify(*complex_arrays), MethodSpec(kind, 2)
        assert build_iteration_matrix(rp, method, 0.01).matrix.dtype == np.float64
        assert converges(rp, method, 1e-4)[0]
        assert eigenvalue_one_check(rp, method, 0.01) > 0.0
        assert matrix_bound(rp, method).value > 0.0

    def test_realified_problem_is_accepted(self, complex_arrays):
        rp = realify(*complex_arrays)
        method = MethodSpec(SolverKind.K_STEP, 2)
        assert converges(rp, method, 1e-4)[0]
        assert matrix_bound(rp, method).value > 0.0


def _python_stdout(code):
    """Standard output of ``code`` run by a fresh interpreter on this ``src``."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_package_leaves_scipy_unloaded():
    # importing scipy costs about 0.2 s, and only s(T)'s QZ fallback needs it
    code = "import sys, oneshot, oneshot.cli; print('scipy' in sys.modules)"
    assert _python_stdout(code).strip() == "False"


def test_helmholtz_solve_leaves_scipy_unloaded():
    # the Helmholtz set-up and every solve step need numpy alone
    code = ("import sys, contextlib, io; from oneshot.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['solve', '--helmholtz', '6,6.283185307179586,0.01',"
            " '--method', 'kshot', '--k', '2', '--tau', '1e-3', '--max-outer', '5'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python_stdout(code).strip() == "0 []"


def test_bound_through_the_shift_leaves_scipy_unloaded():
    # s(B^2) of the n = 6 Helmholtz problem passes the shift's guard
    code = ("import sys; from oneshot.cli import main\n"
            "code = main(['bound', '--helmholtz', '6,6.283185307179586,0.01',"
            " '--method', 'kshot', '--k', '2'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python_stdout(code).splitlines() == [
        '{"formula_id": "one-shot:closed-form", "value": 1.0278532999159354e-05, '
        '"params": {"theta0": 0.7775441817634738, "delta0": 1.0}, "norm_inputs": '
        '{"norm_B": 0.10207540070415791, "norm_H": 10.042126367723277, '
        '"norm_M": 9.029925919994449, "s_Bk": 1.0103832030912967, '
        '"norm_Tk": 1.0145639182202537, "norm_Xk": 100.84430198532309, '
        '"norm_Bk": 0.010346712759589238}}',
        "0 []"]


class TestEigenvalueOneCheck:
    def test_scalar_grid(self):
        for b in (-0.9, -0.3, 0.0, 0.4, 0.8):
            p = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
            for kind in SolverKind:
                for k in range(1, 5):
                    for tau in (0.05, 0.5, 2.0):
                        d = eigenvalue_one_check(p, MethodSpec(kind, k), tau)
                        assert d > 1e-8

    def test_m_zero_control(self):
        p = RealInverseProblem(B=0.3 * np.eye(2), M=np.zeros((2, 1)),
                               H=np.eye(2), F=np.zeros(2))
        d = eigenvalue_one_check(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 2), 0.5)
        assert d < 1e-12

    def test_random_valid_problem(self):
        p = random_contraction(6, 2, 3, 0.5, seed=77)
        d = eigenvalue_one_check(p, MethodSpec(SolverKind.K_STEP, 3), 0.3)
        assert d > 1e-8
