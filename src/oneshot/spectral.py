"""Block iteration matrices and the spectral convergence oracle.

Every method in :mod:`oneshot.solvers` is, on the error triple (p, u, sigma),
multiplication by a fixed block matrix; an iteration converges for all
initial data iff that matrix has spectral radius below one.  This module
assembles those matrices exactly from T_k, U_k, X_k (``linear_model.tux``),
takes the GD kinds' radius in closed form from the n_sigma eigenvalues of
D* D (D the data map), and computes a certified resolvent-type constant

    s(T) = sup_{|z| >= 1} || (I - T/z)^{-1} ||_2

used by the descent-step bounds when ||B|| >= 1.  It starts from the end
angles 0 and pi; its level sets are eigenvalues of a pencil, found by a
real shift-invert in numpy, and scipy's QZ is imported only for a level
where that shift is ill conditioned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_model import (RealInverseProblem, TUXTriple, _contraction_bound,
                           _require_real, data_map, spectral_radius, tux)
from .solvers import MethodSpec

CONVERGENCE_MARGIN = 1e-10
LEVEL_MARGIN = 2e-12        # first relative gap of the s(T) level above the best value
UNIT_CIRCLE_TOL = 1e-8      # pencil eigenvalues this close to |z| = 1 are crossings
MAX_LEVELS = 30


@dataclass(frozen=True)
class IterationMatrix:
    matrix: np.ndarray


def build_iteration_matrix(problem: RealInverseProblem, method: MethodSpec,
                           tau: float) -> IterationMatrix:
    """Exact error-propagation matrix of the method, on (p, u, sigma).

    All four methods share one block form in (B^k, T_k, U_k, X_k).  An exact
    solve is the limit of infinitely many sweeps, so the GD kinds take the
    k -> infinity limits B^k = U_k = 0, T_k = (I-B)^{-1} and X_k = G* G,
    where G = H (I-B)^{-1} = sum_j H B^j.  The shifted kinds refresh
    (u, p) from the previous sigma, so their first block column lacks the
    -tau M M* coupling to the fresh one.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    B, M, H = problem.B, problem.M, problem.H
    n_u, n_s = problem.n_u, problem.n_sigma
    if method.kind.one_shot:
        t = tux(B, H, method.k)
        Bk, T, U, X = t.Bk, t.T, t.U, t.X
    else:
        T, G = problem.state_inverse, H @ problem.state_inverse
        X = G.T @ G
        Bk = U = np.zeros((n_u, n_u))
    if method.kind.shifted:
        P, Q = Bk.T, np.zeros((n_u, n_u))
    else:
        P, Q = Bk.T - tau * X @ M @ M.T, -tau * T @ M @ M.T
    mat = np.block([
        [P, U, X @ M],
        [Q, Bk, T @ M],
        [-tau * M.T, np.zeros((n_s, n_u)), np.eye(n_s)],
    ])
    return IterationMatrix(matrix=mat)


def converges(problem: RealInverseProblem, method: MethodSpec,
              tau: float) -> tuple[bool, float]:
    """Ground-truth convergence verdict: radius of the iteration matrix
    strictly below one (with a small margin against threshold flapping), by a
    dense eigensolve for the one-shot kinds.  gd's matrix is W V, W = [X M; T M;
    I], V = [-tau M*, 0, I], with the nonzero spectrum of V W = I - tau D* D
    (D = data_map); sgd's sigma obeys z^2 - z + tau D* D.  So each eigenvalue
    lam of tau D* D gives roots 1 - lam (gd) or (1 +- sqrt(1 - 4 lam)) / 2 (sgd)."""
    if method.kind.one_shot:
        rho = spectral_radius(build_iteration_matrix(problem, method, tau).matrix)
    elif not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    else:
        D = data_map(problem)
        lam = tau * np.linalg.eigvalsh(D.T @ D)
        rho = float(np.max(np.abs(1.0 + np.sqrt(1.0 - 4.0 * lam + 0j))) / 2.0
                    if method.kind.shifted else np.max(np.abs(1.0 - lam)))
    return rho < 1.0 - CONVERGENCE_MARGIN, rho


def eigenvalue_one_check(problem: RealInverseProblem, method: MethodSpec,
                         tau: float) -> float:
    """Distance of the iteration-matrix spectrum to the point 1.

    Strictly positive for valid problems; collapses to ~0 when the
    parameter-to-data map loses injectivity (e.g. M = 0).
    """
    mat = build_iteration_matrix(problem, method, tau).matrix
    return float(np.min(np.abs(np.linalg.eigvals(mat) - 1.0)))


def _boundary_norms(T: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """|| (I - e^{-i phi} T)^{-1} ||_2 for each angle, via batched SVD."""
    A = np.eye(len(T)) - np.exp(-1j * phis)[:, None, None] * T
    return 1.0 / np.linalg.svd(A, compute_uv=False)[:, -1]


def _level_eigvals(T: np.ndarray, gamma: float, shift: float | None) -> np.ndarray:
    """Eigenvalues z of the level-gamma pencil a - z b (see ``s_functional``):
    by QZ if ``shift`` is None, else as shift + 1/mu for the eigenvalues mu
    of (a - shift b)^{-1} b, less the infinite ones (mu = 0)."""
    eye, zero = np.eye(T.shape[0]), np.zeros(T.shape)
    a = np.block([[T, eye / gamma], [zero, eye]])
    b = np.block([[eye, zero], [eye / gamma, T.T]])
    with np.errstate(over="ignore", invalid="ignore"):   # z near inf: no crossing
        if shift is None:
            import scipy.linalg     # deferred: the import costs about 0.2 s
            return scipy.linalg.eigvals(a, b)
        mu = np.linalg.eigvals(np.linalg.solve(a - shift * b, b))
        return shift + 1.0 / mu[mu != 0.0]


def s_functional(T: np.ndarray) -> float:
    """Certified upper value of s(T) = 1 / min_phi sigma_min(e^{i phi} I - T).

    best starts as the larger resolvent norm at the end angles 0 and pi
    (-phi gives the conjugate for a real T).  Then the level sets of Boyd
    and Balakrishnan (1990): 1 / gamma is a singular value of e^{i phi} I - T
    iff e^{i phi} is an eigenvalue of z b - a, a = [[T, I/gamma], [0, I]],
    b = [[I, 0], [I/gamma, T^T]].  At gamma = (1 + 2e-12) * best, the
    midpoints of the crossing angles raise best until no eigenvalue lies on
    the unit circle; that gamma bounds s(T) from above, whatever the start.
    Needs real T, rho(T) < 1 (certified by ||T||_inf < 1, else eigensolved).

    A level's eigenvalues come from a real shift-invert at z0 = +-1, the
    end angle of smaller resolvent norm r0.  Scaled by rows,
    a - z0 b is [[-A, I/gamma], [I/gamma, -A*]] with A = z0 I - T, whose
    singular values are |sigma_j(A) +- 1/gamma|; so its condition number is
    at most (1 + ||T|| + 1/gamma) / (1/r0 - 1/gamma).  Where eps times that
    exceeds UNIT_CIRCLE_TOL / 1000, the level takes QZ (scipy) instead.
    """
    T = _require_real(T)
    if not T.any():
        return 1.0          # the resolvent is I
    rho = _contraction_bound(T)
    if rho >= 1.0:
        raise ValueError(f"s(T) requires rho(T) < 1, got rho = {rho:.6g}")
    norms = _boundary_norms(T, np.array([0.0, np.pi]))
    best = float(np.max(norms))
    shift, r0 = (1.0, norms[0]) if norms[0] <= norms[1] else (-1.0, norms[1])
    norm_a = 1.0 + math.sqrt(np.linalg.norm(T, 1) * np.linalg.norm(T, np.inf))
    margin = LEVEL_MARGIN
    for _ in range(MAX_LEVELS):
        gamma = (1.0 + margin) * best
        safe = (np.finfo(float).eps * (norm_a + 1.0 / gamma)
                <= UNIT_CIRCLE_TOL / 1000.0 * (1.0 / r0 - 1.0 / gamma))
        z = _level_eigvals(T, gamma, shift if safe else None)
        crossings = z[np.abs(np.abs(z) - 1.0) < UNIT_CIRCLE_TOL]
        phis = np.unique(np.abs(np.angle(crossings)))
        if phis.size == 0:
            return gamma
        raised = np.max(_boundary_norms(T, (phis[1:] + phis[:-1]) / 2.0), initial=best)
        if raised <= best:
            margin *= 10.0      # a near-tangency blurred by rounding: widen
        best = float(raised)
    raise ValueError(f"s(T) not certified after {MAX_LEVELS} levels")
