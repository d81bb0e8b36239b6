"""Tests for problem containers, validation, exact solves and generators."""
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from oneshot.linear_model import (RealInverseProblem, ScalarProblem, cost,
                                  data_map, exact_adjoint, exact_state, gradient,
                                  helmholtz_toy, load_problem,
                                  problem_from_dict, problem_to_dict,
                                  random_contraction, realify, save_problem,
                                  spectral_norm, validate)
from oneshot import linear_model, spectral
from oneshot.bounds import matrix_bound
from oneshot.linear_model import (_div_grad, _five_point_operator,
                                  _sine_solver, adjoint_from_state)
from oneshot.solvers import MethodSpec, SolverConfig, SolverKind, run_method
from oneshot.spectral import build_iteration_matrix


def fixed_point_state(problem, sigma, tol, max_iter=200000):
    """The state by the plain fixed-point iteration ``u <- B u + M sigma + F``,
    which converges geometrically whenever ``rho(B) < 1``: an oracle for
    :func:`exact_state` that solves nothing."""
    rhs = problem.M @ np.asarray(sigma, dtype=float) + problem.F
    u = np.zeros(problem.n_u)
    for _ in range(max_iter):
        u_next = problem.B @ u + rhs
        if np.linalg.norm(u_next - u) <= tol * (1.0 + np.linalg.norm(u_next)):
            return u_next
        u = u_next
    raise RuntimeError(f"no fixed point to {tol:g} in {max_iter} sweeps")


def _rho_oracle(B):
    # independent route: roots of the characteristic polynomial
    return float(np.max(np.abs(np.roots(np.poly(B)))))


def _smin_smax_oracle(G):
    # independent route: eigenvalues of the Gram matrix
    w = np.linalg.eigvalsh(G.T @ G)
    w = np.clip(w, 0.0, None)
    return float(np.sqrt(w[0])), float(np.sqrt(w[-1]))


class TestValidate:
    def test_scalar_identity_free(self):
        p = RealInverseProblem(B=[[0.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
        r = validate(p)
        assert r.is_valid
        assert r.spectral_radius_B == 0.0
        assert abs(r.min_singular_value - 1.0) < 1e-14

    def test_contraction_violated(self):
        p = RealInverseProblem(B=[[2.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
        r = validate(p)
        assert not r.is_valid
        assert abs(r.spectral_radius_B - 2.0) < 1e-14
        assert r.messages

    def test_matches_independent_oracle(self):
        p = random_contraction(8, 3, 4, 0.6, seed=42)
        r = validate(p)
        assert abs(r.spectral_radius_B - _rho_oracle(p.B)) < 1e-10
        G = p.H @ np.linalg.solve(np.eye(8) - p.B, p.M)
        smin, smax = _smin_smax_oracle(G)
        assert abs(r.min_singular_value - smin) < 1e-10 * max(1.0, smax)
        assert abs(r.max_singular_value - smax) < 1e-10 * max(1.0, smax)
        assert r.is_valid == (r.spectral_radius_B < 1 - 1e-8
                              and smin > 1e-10 * smax)

    @pytest.mark.parametrize("gap, valid", [(5e-9, False), (2e-8, True)])
    def test_contraction_margin_is_1e_8(self, gap, valid):
        p = RealInverseProblem(B=[[1.0 - gap]], M=[[1.0]], H=[[1.0]], F=[0.0])
        r = validate(p)
        assert r.is_valid is valid
        assert bool(r.messages) is not valid

    @pytest.mark.parametrize("m, valid", [(5e-11, False), (2e-10, True)])
    def test_injectivity_margin_is_1e_10(self, m, valid):
        p = RealInverseProblem(B=np.zeros((2, 2)), M=np.diag([1.0, m]),
                               H=np.eye(2), F=np.zeros(2))
        r = validate(p)
        assert r.is_valid is valid
        assert r.min_singular_value == pytest.approx(m, rel=1e-12)

    def test_singular_state_operator(self):
        p = RealInverseProblem(B=[[1.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
        r = validate(p)
        assert not r.is_valid
        assert any("singular" in m for m in r.messages)

    def test_too_few_measurements(self):
        p = RealInverseProblem(B=np.zeros((2, 2)), M=np.eye(2),
                               H=[[1.0, 0.0]], F=[0.0, 0.0])
        r = validate(p)
        assert not r.is_valid


class TestExactSolves:
    def test_zero_b_reduces_to_m_sigma(self):
        p = RealInverseProblem(B=np.zeros((3, 3)), M=np.eye(3),
                               H=np.eye(3), F=np.zeros(3))
        s = np.array([1.0, -2.0, 0.5])
        assert np.allclose(exact_state(p, s), s, atol=1e-14)

    def test_scalar_geometric_factor(self):
        p = ScalarProblem(b=0.5, h=1.0, m=1.0).as_problem()
        assert abs(exact_state(p, [1.0])[0] - 2.0) < 1e-14

    def test_state_residual(self):
        p = random_contraction(7, 2, 3, 0.8, seed=3)
        s = np.linspace(-1, 1, 2)
        u = exact_state(p, s)
        res = np.linalg.norm(u - p.B @ u - p.M @ s - p.F)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(u))

    def test_fixed_point_iteration_agrees(self):
        p = random_contraction(6, 2, 3, 0.5, seed=11)
        s = np.array([0.3, -0.7])
        u_iter = fixed_point_state(p, s, tol=1e-14)
        assert np.linalg.norm(u_iter - exact_state(p, s)) < 1e-10

    def test_adjoint_zero_at_exact_data(self):
        p = random_contraction(5, 2, 3, 0.4, seed=5)
        s_ex = np.array([1.0, 2.0])
        f = p.H @ exact_state(p, s_ex)
        assert np.linalg.norm(exact_adjoint(p, s_ex, f)) < 1e-12

    def test_adjoint_scalar_passthrough(self):
        # b = 0, h = 1: p equals the data residual
        p = RealInverseProblem(B=[[0.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
        s, f = np.array([2.0]), np.array([0.5])
        assert abs(exact_adjoint(p, s, f)[0] - 1.5) < 1e-14

    def test_gradient_matches_finite_differences(self):
        p = random_contraction(8, 3, 4, 0.6, seed=21)
        rng = np.random.default_rng(0)
        s = rng.standard_normal(3)
        f = rng.standard_normal(4)
        g = gradient(p, s, f)
        eps = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd[i] = (cost(p, s + e, f) - cost(p, s - e, f)) / (2 * eps)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def _complex_valid(B, M, H):
    """validate's verdict taken in complex arithmetic, i.e. with injectivity
    of H (I - B)^{-1} M over complex sigma."""
    if np.max(np.abs(np.linalg.eigvals(B))) >= 1.0 - 1e-8 or len(H) < M.shape[1]:
        return False
    s = np.linalg.svd(H @ np.linalg.solve(np.eye(len(B)) - B, M),
                      compute_uv=False)
    return s[-1] > 1e-10 * s[0]


def _complex_arrays(rng, n_u, n_sigma, n_f, norm):
    """Random complex (B, M, H, F) with ||B|| = norm."""
    B = rng.standard_normal((n_u, n_u)) + 1j * rng.standard_normal((n_u, n_u))
    return (norm * B / spectral_norm(B),
            rng.standard_normal((n_u, n_sigma)) + 1j * rng.standard_normal((n_u, n_sigma)),
            rng.standard_normal((n_f, n_u)) + 1j * rng.standard_normal((n_f, n_u)),
            rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u))


class TestRealify:
    def test_real_input_gives_block_diagonal(self):
        rng = np.random.default_rng(1)
        B = 0.5 * rng.standard_normal((3, 3))
        rp = realify(B.astype(complex),
                     rng.standard_normal((3, 2)).astype(complex),
                     rng.standard_normal((2, 3)).astype(complex),
                     np.zeros(3, dtype=complex))
        assert np.allclose(rp.B[:3, :3], B)
        assert np.allclose(rp.B[3:, 3:], B)
        assert np.allclose(rp.B[:3, 3:], 0.0)
        assert np.allclose(rp.B[3:, :3], 0.0)

    def test_pure_imaginary_rotation(self):
        rp = realify([[1j]], [[1.0 + 0j]], [[1.0 + 0j]], [0.0 + 0j])
        assert np.allclose(rp.B, [[0.0, -1.0], [1.0, 0.0]])
        eig = np.sort_complex(np.linalg.eigvals(rp.B))
        assert np.allclose(eig, [-1j, 1j])

    def test_spectrum_is_spec_plus_conjugate(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B *= 0.7 / spectral_norm(B)
            M = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            expected = np.concatenate([np.linalg.eigvals(B),
                                       np.conj(np.linalg.eigvals(B))])
            got = np.linalg.eigvals(realify(B, M, H, np.zeros(4)).B)
            # multiset comparison by sorting lexicographically
            key = lambda z: (np.round(z.real, 8), np.round(z.imag, 8))
            expected = sorted(expected, key=key)
            got = sorted(got, key=key)
            assert np.allclose(expected, got, atol=1e-8)

    def test_validity_is_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B *= 0.6 / spectral_norm(B)
            M = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            if _complex_valid(B, M, H):
                assert validate(realify(B, M, H, np.zeros(4))).is_valid


class TestGenerators:
    def test_zero_target_norm(self):
        p = random_contraction(4, 2, 2, 0.0, seed=0)
        assert np.all(p.B == 0.0)

    def test_determinism(self):
        # one draw from the seed: B rescaled to the target norm, then M, H, F
        rng = np.random.default_rng(123)
        B = rng.standard_normal((5, 5))
        B *= 0.5 / np.linalg.norm(B, 2)
        M, H, F = (rng.standard_normal(shape) for shape in ((5, 2), (3, 5), 5))
        p = random_contraction(5, 2, 3, 0.5, seed=123)
        for got, want in ((p.B, B), (p.M, M), (p.H, H), (p.F, F)):
            assert np.array_equal(got, want)

    def test_norm_is_pinned_and_valid(self):
        p = random_contraction(6, 2, 4, 0.5, seed=9)
        assert abs(spectral_norm(p.B) - 0.5) < 1e-12
        assert validate(p).is_valid

    def test_invalid_draw_raises(self):
        # ||B|| = 1 - 1e-9 sits inside validate's 1e-8 margin
        with pytest.raises(ValueError, match="spectral radius of B"):
            random_contraction(1, 1, 1, 1 - 1e-9, seed=0)

    def test_bad_target_norm(self):
        with pytest.raises(ValueError):
            random_contraction(4, 2, 2, 1.0, seed=0)

    def test_impossible_shape(self):
        with pytest.raises(ValueError):
            random_contraction(2, 3, 5, 0.3, seed=0)

    def test_helmholtz_delta_zero(self):
        p = helmholtz_toy(8, 2 * np.pi, 0.0, seed=4)
        assert np.all(p.B == 0.0)
        assert np.all(p.F == 0.0)

    def test_helmholtz_validates(self):
        p = helmholtz_toy(16, 2 * np.pi, 0.01, seed=3)
        assert p.n_u == 256 and p.n_sigma == 9 and p.n_f == 64
        assert validate(p).is_valid

    def test_helmholtz_deterministic(self):
        a = helmholtz_toy(8, 2 * np.pi, 0.01, seed=5)
        b = helmholtz_toy(8, 2 * np.pi, 0.01, seed=5)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.M, b.M)
        assert np.array_equal(a.H, b.H)

    @pytest.mark.parametrize("delta", [-0.01, np.nan, np.inf])
    def test_helmholtz_rejects_bad_delta(self, delta):
        # nan and inf ran into an eigensolve that named neither
        with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
            helmholtz_toy(6, 1.0, delta, seed=1)

    def test_helmholtz_rejects_non_contracting(self):
        with pytest.raises(ValueError, match="delta"):
            helmholtz_toy(8, 2 * np.pi, 50.0, seed=3)


def _idx(i, j, n):
    return (j - 1) * n + (i - 1)


def _five_point_loop(coeff, n, h):
    # node-by-node reference for the vectorized assembly
    A = np.zeros((n * n, n * n))
    inv_h2 = 1.0 / (h * h)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            row = _idx(i, j, n)
            ce = 0.5 * (coeff[i, j] + coeff[i + 1, j])
            cw = 0.5 * (coeff[i, j] + coeff[i - 1, j])
            cn = 0.5 * (coeff[i, j] + coeff[i, j + 1])
            cs = 0.5 * (coeff[i, j] + coeff[i, j - 1])
            A[row, row] = (ce + cw + cn + cs) * inv_h2
            if i < n:
                A[row, _idx(i + 1, j, n)] = -ce * inv_h2
            if i > 1:
                A[row, _idx(i - 1, j, n)] = -cw * inv_h2
            if j < n:
                A[row, _idx(i, j + 1, n)] = -cn * inv_h2
            if j > 1:
                A[row, _idx(i, j - 1, n)] = -cs * inv_h2
    return A


def _boundary_rhs_loop(coeff, g, n, h):
    rhs = np.zeros(n * n)
    inv_h2 = 1.0 / (h * h)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            row = _idx(i, j, n)
            if i == n:
                rhs[row] += 0.5 * (coeff[i, j] + coeff[i + 1, j]) * g[i + 1, j] * inv_h2
            if i == 1:
                rhs[row] += 0.5 * (coeff[i, j] + coeff[i - 1, j]) * g[i - 1, j] * inv_h2
            if j == n:
                rhs[row] += 0.5 * (coeff[i, j] + coeff[i, j + 1]) * g[i, j + 1] * inv_h2
            if j == 1:
                rhs[row] += 0.5 * (coeff[i, j] + coeff[i, j - 1]) * g[i, j - 1] * inv_h2
    return rhs


def _div_grad_loop(coeff, u, n, h):
    # node-by-node reference for the applied stencil: the four scaled edge
    # terms summed in east, west, north, south order
    out = np.zeros(n * n)
    inv_h2 = 1.0 / (h * h)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            row = _idx(i, j, n)
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                out[row] += 0.5 * (coeff[i, j] + coeff[a, b]) * (u[i, j] - u[a, b]) * inv_h2
    return out


def _grid_problem(n):
    rng = np.random.default_rng(n)
    coeff = rng.uniform(0.5, 2.0, size=(n + 2, n + 2))
    return coeff, rng.standard_normal((n + 2, n + 2)), 1.0 / (n + 1)


class TestHelmholtzAgainstLoops:
    """The vectorized grid assembly and stencil keep the arithmetic of the
    node-by-node loops, so they must agree with them bit for bit."""

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_operator_and_boundary_rhs(self, n):
        coeff, g, h = _grid_problem(n)
        assert np.array_equal(_five_point_operator(coeff, n, h),
                              _five_point_loop(coeff, n, h))
        g_boundary = g.copy()
        g_boundary[1:-1, 1:-1] = 0.0
        assert np.array_equal(-_div_grad(coeff, g_boundary, h),
                              _boundary_rhs_loop(coeff, g, n, h))

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_applied_stencil(self, n):
        coeff, u, h = _grid_problem(n)
        assert np.array_equal(_div_grad(coeff, u, h), _div_grad_loop(coeff, u, n, h))

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_applied_and_assembled_stencils_agree(self, n):
        # the applied stencil on each unit field is a column of the matrix:
        # off the diagonal one edge term, so equal; on it the matrix sums the
        # four edge coefficients before it scales, so within 4 eps
        coeff, _, h = _grid_problem(n)
        A = _five_point_operator(coeff, n, h)
        applied = np.empty_like(A)
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                unit = np.zeros((n + 2, n + 2))
                unit[i, j] = 1.0
                applied[:, _idx(i, j, n)] = _div_grad(coeff, unit, h)
        off = ~np.eye(n * n, dtype=bool)
        assert np.array_equal(applied[off], A[off])
        np.testing.assert_allclose(np.diag(applied), np.diag(A),
                                   rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("n", [4, 7])
    def test_patches_and_flux_rows(self, n):
        kt, delta, seed = 2 * np.pi, 0.01, 3
        p = helmholtz_toy(n, kt, delta, seed)
        h = 1.0 / (n + 1)
        sigma_r = np.random.default_rng(seed).uniform(1.0, 2.0, size=(n + 2, n + 2))
        coeff = np.ones((n + 2, n + 2)) + delta * sigma_r
        rows = []
        for i in range(1, n + 1):
            for node, c in ((_idx(i, 1, n), coeff[i, 0]), (_idx(i, n, n), coeff[i, n + 1])):
                rows.append(np.zeros(n * n))
                rows[-1][node] = -c / h
        for j in range(1, n + 1):
            for node, c in ((_idx(1, j, n), coeff[0, j]), (_idx(n, j, n), coeff[n + 1, j])):
                rows.append(np.zeros(n * n))
                rows[-1][node] = -c / h
        assert np.array_equal(p.H, np.vstack(rows))

        xs = np.arange(n + 2) * h
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        g = np.cos(kt * gx) + np.sin(kt * gy)
        shift = kt**2 * np.eye(n * n)
        u0 = np.linalg.solve(_five_point_loop(coeff, n, h) - shift,
                             _boundary_rhs_loop(coeff, g, n, h))
        u0_full = g.copy()
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                u0_full[i, j] = u0[_idx(i, j, n)]
        columns = []
        for py in range(3):
            for px in range(3):
                chi = np.zeros((n + 2, n + 2))
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if (min(int(xs[i] * 3), 2) == px
                                and min(int(xs[j] * 3), 2) == py):
                            chi[i, j] = 1.0
                columns.append(_div_grad_loop(chi, u0_full, n, h))
        # the loop-assembled columns through the same sine solve: this checks
        # the assembly; TestSineSolve checks the solve against LU
        assert np.array_equal(p.M, _sine_solver(n, h, kt)(np.column_stack(columns)))


class TestSineSolve:
    """A11 = -Delta_h - k^2 I is solved in the grid sine basis, never
    factored; the solve must agree with LU of the loop-assembled A11."""

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_matches_dense_lu(self, n):
        kt, h = 2 * np.pi, 1.0 / (n + 1)
        rng = np.random.default_rng(n)
        A11 = _five_point_loop(np.ones((n + 2, n + 2)), n, h) - kt**2 * np.eye(n * n)
        # the stiffness that B solves for, and a block of 9 columns as for M
        for rhs in (_five_point_loop(rng.uniform(1.0, 2.0, (n + 2, n + 2)), n, h),
                    rng.standard_normal((n * n, 9))):
            want = np.linalg.solve(A11, rhs)
            got = _sine_solver(n, h, kt)(rhs)
            assert got.shape == rhs.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    @pytest.mark.parametrize("wavenumber", [4.405689717981266, np.nan, np.inf, 1e200])
    def test_singular_or_non_finite_wavenumber_is_named(self, wavenumber, delta):
        # at n = 6, 4.405689717981266^2 is the grid Laplacian's least eigenvalue
        # 2 lam_1 to the last bit: a divisor of the sine solve is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"wavenumber {wavenumber!r}: ")):
                helmholtz_toy(6, wavenumber, delta, seed=1)


class TestJsonRoundTrip:
    def test_real_round_trip(self, tmp_path):
        p = random_contraction(4, 2, 3, 0.4, seed=2)
        path = tmp_path / "problem.json"
        save_problem(p, path)
        data = json.loads(path.read_text())
        assert set(data) == {"n_u", "n_sigma", "n_f", "B", "M", "H", "F"}
        assert data["n_u"] == 4 and len(data["B"]) == 16
        q = load_problem(path)
        assert np.array_equal(p.B, q.B) and np.array_equal(p.M, q.M)
        assert np.array_equal(p.H, q.H) and np.array_equal(p.F, q.F)

    def test_complex_round_trip(self, tmp_path):
        # a complex file loads as the realification of its arrays, which
        # then saves and loads exactly
        rng = np.random.default_rng(3)
        arrays = _complex_arrays(rng, 2, 1, 2, 0.5)
        d = {"n_u": 2, "n_sigma": 1, "n_f": 2,
             "complex": {name: {"re": a.real.ravel().tolist(),
                                "im": a.imag.ravel().tolist()}
                         for name, a in zip("BMHF", arrays)}}
        q, want = problem_from_dict(d), realify(*arrays)
        assert type(q) is RealInverseProblem
        for name in "BMHF":
            assert np.array_equal(getattr(q, name), getattr(want, name))
        path = tmp_path / "realified.json"
        save_problem(q, path)
        assert set(json.loads(path.read_text())) == {
            "n_u", "n_sigma", "n_f", "B", "M", "H", "F"}
        r = load_problem(path)
        for name in "BMHF":
            assert np.array_equal(getattr(q, name), getattr(r, name))

    def test_malformed(self):
        with pytest.raises(ValueError):
            problem_from_dict({"n_u": 2, "n_sigma": 1, "n_f": 1,
                               "B": [1.0], "M": [1, 0], "H": [1, 0],
                               "F": [0, 0]})


def test_exact_state_raises_on_singular_operator():
    p = RealInverseProblem(B=[[1.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
    with pytest.raises(np.linalg.LinAlgError):
        exact_state(p, [1.0])


def test_problem_arrays_are_frozen():
    p = random_contraction(3, 1, 2, 0.3, seed=1)
    with pytest.raises(ValueError):
        p.B[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.F[0] = 1.0


def test_problem_container_is_frozen():
    # the kept (I - B)^{-1} cannot go stale: B cannot be rebound, and a
    # replaced problem is a new object that inverts its own I - B
    p = random_contraction(4, 2, 3, 0.5, seed=2)
    old = p.state_inverse
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.B = np.zeros((4, 4))
    with pytest.raises(ValueError):
        old[0, 0] = 1.0
    q = dataclasses.replace(p, B=0.5 * p.B)
    assert type(q) is RealInverseProblem and p.state_inverse is old
    np.testing.assert_allclose(q.state_inverse @ (np.eye(4) - 0.5 * p.B),
                               np.eye(4), atol=1e-12)
    assert not np.allclose(q.state_inverse, old)


def test_container_coerces_real_data_to_float64():
    p = RealInverseProblem(B=[[0]], M=[[1]], H=[[2]], F=[0])
    assert all(getattr(p, name).dtype == np.float64 for name in "BMHF")
    assert repr(p).startswith("RealInverseProblem(")


@pytest.mark.parametrize("name", list("BMHF"))
@pytest.mark.parametrize("bad", [0.3j, 1.0 + 0j, np.inf, -np.inf, np.nan])
def test_container_rejects_complex_and_non_finite_data(name, bad):
    # complex data is rejected before any cast to float (which would drop
    # the imaginary part with only a ComplexWarning), as an array or a list
    data = dict(B=[[0.5]], M=[[1.0]], H=[[2.0]], F=[0.0])
    match = "realify" if isinstance(bad, complex) else f"{name} has a non-finite"
    for wrap in (list, np.array):
        data[name] = wrap([[bad]] if name != "F" else [bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                RealInverseProblem(**data)


def test_data_map_is_the_parameter_to_data_map():
    p = random_contraction(6, 2, 4, 0.5, seed=5)
    sigma = np.array([0.3, -1.2])
    u = exact_state(p, sigma) - exact_state(p, np.zeros(2))  # F drops out
    assert np.allclose(data_map(p) @ sigma, p.H @ u, atol=1e-12)


def test_scalar_problem_invariants():
    with pytest.raises(ValueError):
        ScalarProblem(b=1.0, h=1.0, m=1.0)
    with pytest.raises(ValueError):
        ScalarProblem(b=0.5, h=0.0, m=1.0)
    for h, m in ((np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite and nonzero"):
            ScalarProblem(b=0.2, h=h, m=m)
    sp = ScalarProblem(b=-0.25, h=2.0, m=0.5)
    p = sp.as_problem()
    assert p.n_u == p.n_sigma == p.n_f == 1
    assert p.B[0, 0] == -0.25


def test_geometric_convergence_of_state_iteration():
    # contraction factor close to ||B|| per sweep
    p = random_contraction(5, 2, 2, 0.5, seed=31)
    s = np.array([1.0, 1.0])
    u_star = exact_state(p, s)
    u = np.zeros(5)
    errs = []
    for _ in range(30):
        u = p.B @ u + p.M @ s + p.F
        errs.append(np.linalg.norm(u - u_star))
    rate = (errs[-1] / errs[4]) ** (1.0 / 25.0)
    assert rate < 0.55
    assert errs[-1] < 1e-7 * errs[0]


def _nonnormal_problem():
    # ||B|| > 1 but rho(B) = 0.5
    rng = np.random.default_rng(7)
    return RealInverseProblem(B=0.5 * np.eye(6) + np.diag(np.full(5, 1.2), 1),
                              M=rng.standard_normal((6, 2)),
                              H=rng.standard_normal((4, 6)),
                              F=rng.standard_normal(6))


def _complex_problem():
    return realify(*_complex_arrays(np.random.default_rng(8), 5, 2, 4, 0.5))


class TestStateInverse:
    """One kept (I - B)^{-1} per problem serves every exact solve."""

    PROBLEMS = {
        "random": lambda: random_contraction(20, 3, 10, 0.5, seed=1),
        "H12": lambda: helmholtz_toy(12, 2.0 * np.pi, 0.01, seed=3),
        "nonnormal": _nonnormal_problem,
        "complex": _complex_problem,
    }

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_matches_direct_solves(self, name):
        p = self.PROBLEMS[name]()
        rng = np.random.default_rng(4)
        sigma = rng.standard_normal(p.n_sigma)
        u, f = rng.standard_normal(p.n_u), rng.standard_normal(p.n_f)
        A = np.eye(p.n_u) - p.B
        refs = {
            "state": (exact_state(p, sigma),
                      np.linalg.solve(A, p.M @ sigma + p.F)),
            "adjoint": (adjoint_from_state(p, u, f),
                        np.linalg.solve(A.T, p.H.T @ (p.H @ u - f))),
            "data_map": (data_map(p), p.H @ np.linalg.solve(A, p.M)),
        }
        for what, (got, want) in refs.items():
            gap = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert gap <= 1e-12, (what, gap)

    @pytest.mark.parametrize("kind", [SolverKind.USUAL_GD, SolverKind.SHIFTED_GD])
    def test_one_inverse_and_no_solve_per_problem(self, kind, monkeypatch):
        q = random_contraction(8, 2, 5, 0.5, seed=6)
        f = q.H @ exact_state(q, np.ones(2))
        calls = []
        for name in ("inv", "solve"):
            def counting(*args, _fn=getattr(np.linalg, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, counting)
        p = RealInverseProblem(B=q.B, M=q.M, H=q.H, F=q.F)   # nothing kept yet
        cfg = SolverConfig(tau=0.01, max_outer=30, tol_cost=1e-300, tol_grad=1e-300)
        assert len(run_method(MethodSpec(kind), p, f, np.zeros(2), cfg)) == 31
        data_map(p)
        build_iteration_matrix(p, MethodSpec(kind), 0.01)
        assert calls == ["inv"]


@pytest.mark.parametrize("h,m", [(1e200, 1.0), (1.0, 1e-170), (1e-200, 1e-200),
                                 (1e100, 1e110)])
def test_scalar_problem_squares_stay_in_the_float_range(h, m):
    # h^2, m^2 or h^2 m^2 overflows, or underflows to 0
    with pytest.raises(ValueError, match="h\\^2, m\\^2 and h\\^2 m\\^2"):
        ScalarProblem(b=0.2, h=h, m=m)
    ScalarProblem(b=0.2, h=1e-160, m=1.0)    # h^2 m^2 is subnormal, not 0


class TestContractionCertificate:
    """rho(B) <= ||B|| in any induced norm: below 1, it settles rho(B) < 1
    with no eigensolve; otherwise the radius is computed and reported."""

    @pytest.fixture
    def radius_calls(self, monkeypatch):
        calls, radius = [], linear_model.spectral_radius
        monkeypatch.setattr(linear_model, "spectral_radius",
                            lambda a: calls.append(a) or radius(a))
        return calls

    def test_helmholtz_small_norm_needs_no_eigensolve(self, radius_calls):
        p = helmholtz_toy(8, 2 * np.pi, 0.01, seed=3)
        assert np.linalg.norm(p.B, np.inf) < 0.15
        assert radius_calls == []

    def test_helmholtz_norm_above_one_takes_the_eigensolve(self, radius_calls):
        p = helmholtz_toy(8, 2 * np.pi, 0.08, seed=3)
        assert np.linalg.norm(p.B, np.inf) > 1.0
        assert len(radius_calls) == 1
        assert 0.7 < np.max(np.abs(np.linalg.eigvals(p.B))) < 0.75

    def test_helmholtz_rejection_reports_the_radius(self, radius_calls):
        with pytest.raises(ValueError, match=r"\(rho\(B\) = [0-9.]+ >= 1\)"):
            helmholtz_toy(8, 2 * np.pi, 50.0, seed=3)
        assert len(radius_calls) == 1

    def test_bound_and_s_need_no_eigensolve_below_norm_one(self, radius_calls):
        p = random_contraction(8, 2, 4, 0.5, seed=1)
        radius_calls.clear()            # validate's own eigensolve
        for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
            for k in (1, 2):
                matrix_bound(p, MethodSpec(kind, k))
        spectral.s_functional(p.B)
        assert radius_calls == []

    def test_non_normal_B_takes_the_eigensolve(self, radius_calls):
        p = _nonnormal_problem()       # ||B|| > 1, rho(B) = 0.5
        sb = matrix_bound(p, MethodSpec(SolverKind.K_STEP, 1))
        assert sb.formula_id.endswith("resolvent")
        assert radius_calls[0] is p.B

    def test_error_texts_name_the_radius(self):
        B = 1.1 * np.eye(3)
        p = RealInverseProblem(B=B, M=np.ones((3, 1)), H=np.eye(3), F=np.zeros(3))
        with pytest.raises(ValueError, match=r"bounds need rho\(B\) < 1, got 1\.1$"):
            matrix_bound(p, MethodSpec(SolverKind.K_STEP, 2))
        with pytest.raises(ValueError, match=r"rho\(T\) < 1, got rho = 1\.1$"):
            spectral.s_functional(B)
