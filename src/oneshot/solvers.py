"""The four inversion iterations on (sigma, u, p), with trace recording.

Two reference methods solve state and adjoint exactly each outer step (usual
and shifted gradient descent); the one-shot methods replace those solves by k
warm-started coupled fixed-point sweeps, using either the fresh parameter
iterate (k-step one-shot) or the previous one (shifted k-step one-shot, whose
three updates can run simultaneously).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linear_model import adjoint_from_state, exact_state


class SolverKind(enum.Enum):
    USUAL_GD = "gd"
    SHIFTED_GD = "sgd"
    K_STEP = "kshot"
    SHIFTED_K_STEP = "skshot"


ONE_SHOT_KINDS = (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP)
DIVERGENCE_THRESHOLD = 1e12     # ||sigma - sigma0|| beyond this: diverged


@dataclass(frozen=True)
class MethodSpec:
    """Which algorithm to run; k counts inner sweeps (ignored for GD kinds)."""

    kind: SolverKind
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    @property
    def shifted(self) -> bool:
        return self.kind in (SolverKind.SHIFTED_GD, SolverKind.SHIFTED_K_STEP)


@dataclass(frozen=True)
class SolverConfig:
    tau: float
    max_outer: int = 2000
    tol_cost: float = 1e-5
    tol_grad: float = 1e-5

    def __post_init__(self):
        # written as "not 0 < x < inf" so that nan fails too
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0.0 < self.tol_cost < math.inf and 0.0 < self.tol_grad < math.inf):
            raise ValueError("stopping tolerances must be positive and finite, "
                             f"got {self.tol_cost}, {self.tol_grad}")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be at least 0, got {self.max_outer}")


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


CSV_HEADER = "n,accumulated_inner,cost,grad_norm,err_sigma,status"


@dataclass
class ConvergenceTrace:
    """Per-outer-iteration record of a solver run.

    Row n (1-based) holds the n-th iterate: its parameter vector, misfit,
    gradient norm, error norm against the exact parameter when known, and the
    accumulated inner-iteration count (1 for the first iterate, then
    1 + (n-1)*k for the one-shot kinds).
    """

    method: MethodSpec
    tau: float
    status: Status = Status.MAX_ITER
    sigma: list[np.ndarray] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    err_sigma: list[float] = field(default_factory=list)
    accumulated_inner: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cost)

    @property
    def final_cost(self) -> float:
        return self.cost[-1]

    def rows(self):
        for i in range(len(self.cost)):
            yield (i + 1, self.accumulated_inner[i], self.cost[i],
                   self.grad_norm[i], self.err_sigma[i])

    def write_csv(self, fh) -> None:
        """Write the trace in the fixed CSV layout, 17 significant digits."""
        fh.write(CSV_HEADER + "\n")
        for n, acc, c, g, e in self.rows():
            fh.write(f"{n},{acc},{c:.17g},{g:.17g},{e:.17g},{self.status.value}\n")


def _relative(value: float, ref: float | None) -> float:
    if value == 0.0:
        return 0.0
    if ref is None or ref <= 0.0:
        return math.inf
    return value / ref


def run_method(method: MethodSpec, problem, f, sigma0, config,
               u0=None, p0=None, sigma_exact=None) -> ConvergenceTrace:
    """Run any of the four iterations: the one loop behind all of them.

    Each outer step moves sigma along -M* p, then refreshes (u, p) from the
    fresh sigma, or from the previous one for the shifted kinds.  The GD
    kinds refresh by exact solves (shifted GD's first is the one at sigma0
    made before the loop); the one-shot kinds run k coupled sweeps
    warm-started from (u0, p0), zero by default.  After each recorded row
    the run stops as diverged, or as converged once cost and gradient fall
    below their tolerances relative to their first nonzero values;
    otherwise it ends after max_outer steps.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    sigma0 = np.asarray(sigma0, dtype=float).reshape(-1)
    if sigma0.shape != (problem.n_sigma,):
        raise ValueError(
            f"sigma0 must have length {problem.n_sigma}, got {sigma0.shape}")
    if sigma_exact is not None:
        sigma_exact = np.asarray(sigma_exact, dtype=float).reshape(-1)
    trace = ConvergenceTrace(method=method, tau=config.tau)
    cost_ref = grad_ref = None
    sigma = sigma0.copy()
    one_shot = method.kind in ONE_SHOT_KINDS
    if one_shot:
        u = (np.zeros(problem.n_u) if u0 is None
             else np.asarray(u0, dtype=float).reshape(-1).copy())
        p = (np.zeros(problem.n_u) if p0 is None
             else np.asarray(p0, dtype=float).reshape(-1).copy())
    else:
        u = exact_state(problem, sigma)
        p = adjoint_from_state(problem, u, f)
    B, M, H, F = problem.B, problem.M, problem.H, problem.F
    Bt, Ht = B.T, H.T
    tau = config.tau
    for n in range(config.max_outer + 1):
        r = H @ u - f
        c = 0.5 * float(r @ r)
        grad = M.T @ p
        g = float(np.linalg.norm(grad))
        trace.sigma.append(sigma.copy())
        trace.cost.append(c)
        trace.grad_norm.append(g)
        trace.err_sigma.append(
            math.nan if sigma_exact is None
            else float(np.linalg.norm(sigma - sigma_exact)))
        trace.accumulated_inner.append(1 + n * (method.k if one_shot else 1))
        if (not np.isfinite(c) or not np.isfinite(g)
                or not np.all(np.isfinite(sigma))
                or np.linalg.norm(sigma - sigma0) > DIVERGENCE_THRESHOLD):
            trace.status = Status.DIVERGED
            break
        if cost_ref is None and c > 0.0:
            cost_ref = c
        if grad_ref is None and g > 0.0:
            grad_ref = g
        if (_relative(c, cost_ref) < config.tol_cost
                and _relative(g, grad_ref) < config.tol_grad):
            trace.status = Status.CONVERGED
            break
        if n == config.max_outer:
            break           # the status stays MAX_ITER
        sigma_new = sigma - tau * grad
        sigma_state = sigma if method.shifted else sigma_new
        if one_shot:
            rhs_u = M @ sigma_state + F
            for _ in range(method.k):
                # coupled sweep: both updates read the previous (u, p) pair
                u_next = B @ u + rhs_u
                p_next = Bt @ p + Ht @ (H @ u - f)
                u, p = u_next, p_next
        elif n > 0 or not method.shifted:
            u = exact_state(problem, sigma_state)
            p = adjoint_from_state(problem, u, f)
        sigma = sigma_new
    return trace
