"""Block iteration matrices and the spectral convergence oracle.

Every method in :mod:`oneshot.solvers` is, on the error triple (p, u, sigma),
multiplication by a fixed block matrix; an iteration converges for all
initial data iff that matrix has spectral radius below one.  This module
assembles those matrices exactly from T_k, U_k, X_k (``linear_model.tux``)
and computes a certified resolvent-type constant

    s(T) = sup_{|z| >= 1} || (I - T/z)^{-1} ||_2

used by the descent-step bounds when ||B|| >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_model import (RealInverseProblem, TUXTriple, _contraction_bound,
                           _require_real, spectral_radius, tux)
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
    strictly below one (with a small margin against threshold flapping)."""
    rho = spectral_radius(build_iteration_matrix(problem, method, tau))
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


def s_functional(T: np.ndarray, n_samples: int = 16) -> float:
    """Certified upper value of s(T) = 1 / min_phi sigma_min(e^{i phi} I - T).

    n_samples + 1 starting angles lie on [0, pi], since -phi gives the
    conjugate of a real T.  The level-set iteration of Boyd and Balakrishnan
    (1990) follows: 1 / gamma is a singular value of e^{i phi} I - T iff
    e^{i phi} is an eigenvalue of z [[I, 0], [I/gamma, T^T]] -
    [[T, I/gamma], [0, I]].  At gamma = (1 + 2e-12) * best, the midpoints of
    the crossing angles raise best, until no eigenvalue lies on the unit
    circle; that gamma bounds s(T) from above.  Needs real T, rho(T) < 1
    (certified by ||T||_inf < 1 where it holds, else by an eigensolve).
    """
    import scipy.linalg     # deferred: the import costs about 0.25 s

    T = _require_real(T)
    if n_samples < 8:
        raise ValueError(f"n_samples too small: {n_samples}")
    if not T.any():
        return 1.0          # the resolvent is I
    rho = _contraction_bound(T)
    if rho >= 1.0:
        raise ValueError(f"s(T) requires rho(T) < 1, got rho = {rho:.6g}")
    eye, zero = np.eye(T.shape[0]), np.zeros(T.shape)
    phis = np.linspace(0.0, np.pi, n_samples + 1)
    best = float(np.max(_boundary_norms(T, phis)))
    margin = LEVEL_MARGIN
    for _ in range(MAX_LEVELS):
        gamma = (1.0 + margin) * best
        z = scipy.linalg.eigvals(np.block([[T, eye / gamma], [zero, eye]]),
                                 np.block([[eye, zero], [eye / gamma, T.T]]))
        crossings = z[np.abs(np.abs(z) - 1.0) < UNIT_CIRCLE_TOL]
        phis = np.unique(np.abs(np.angle(crossings)))
        if phis.size == 0:
            return gamma
        raised = np.max(_boundary_norms(T, (phis[1:] + phis[:-1]) / 2.0), initial=best)
        if raised <= best:
            margin *= 10.0      # a near-tangency blurred by rounding: widen
        best = float(raised)
    raise RuntimeError(f"s(T) not certified after {MAX_LEVELS} levels")
