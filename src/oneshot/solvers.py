"""The four inversion iterations on (sigma, u, p), with trace recording.

Two reference methods solve state and adjoint exactly each outer step (usual
and shifted gradient descent); the one-shot methods replace those solves by k
warm-started coupled fixed-point sweeps, using either the fresh parameter
iterate (k-step one-shot) or the previous one (shifted k-step one-shot, whose
three updates can run simultaneously).  ``SolverKind`` names the four methods
and carries these two choices as its flags ``one_shot`` and ``shifted``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linear_model import _vector, adjoint_from_state, exact_state, tux


class SolverKind(enum.Enum):
    USUAL_GD = "gd"
    SHIFTED_GD = "sgd"
    K_STEP = "kshot"
    SHIFTED_K_STEP = "skshot"

    @property
    def one_shot(self) -> bool:
        """k inner sweeps per outer step, in place of exact solves."""
        return self in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP)

    @property
    def shifted(self) -> bool:
        """(u, p) are refreshed from the previous sigma, not the fresh one."""
        return self in (SolverKind.SHIFTED_GD, SolverKind.SHIFTED_K_STEP)


DIVERGENCE_THRESHOLD = 1e12     # ||sigma - sigma0|| beyond this: diverged
PANEL_BYTES = 1 << 20           # a B^k row panel, about half an L2 cache


@dataclass(frozen=True)
class MethodSpec:
    """Which algorithm to run; k counts inner sweeps (ignored for GD kinds)."""

    kind: SolverKind
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


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
        status = self.status.value
        for n, acc, c, g, e in self.rows():
            fh.write(f"{n},{acc},{c:.17g},{g:.17g},{e:.17g},{status}\n")


def _relative(value: float, ref: float | None) -> float:
    # ref is the first positive value, None while there has been none
    return 0.0 if value == 0.0 else math.inf if ref is None else value / ref


def _sweep_map(problem, f, k: int):
    """The k coupled sweeps as one affine map (u, p, sigma) -> (u, p):
    u <- B^k u + T_k (M sigma + F) and p <- (B*)^k p + U_k u
    + X_k (M sigma + F) - T_k* H* f, both from the old (u, p) (see TUXTriple).
    When L has at most n_u / 2 rows (a measured crossover) U_k u is L*(R u)
    and no dense U_k is formed.  Each row panel of B^k (one if B^k fits
    PANEL_BYTES) serves both products."""
    B, M, H, F, n = problem.B, problem.M, problem.H, problem.F, problem.n_u
    t = tux(B, H, k)
    TXM = np.vstack([t.T @ M, t.X @ M])
    c = np.concatenate([t.T @ F, t.X @ F - t.T.T @ (H.T @ f)])
    if 2 * k * problem.n_f <= n:
        L = t.L.reshape(-1, n)

        def apply_U(u):     # R u is L u with its k blocks in reverse order
            return L.T @ (L @ u).reshape(k, -1)[::-1].ravel()
    else:
        apply_U = t.U.__matmul__
    rows = max(1, PANEL_BYTES // (8 * n))
    panels = [(slice(i, i + rows), t.Bk[i:i + rows]) for i in range(0, n, rows)]

    def sweep(u, p, sigma):
        w = TXM @ sigma + c     # [T_k M; X_k M] sigma + the constant parts
        u_new, p_new = np.empty(n), apply_U(u)
        for r, A in panels:
            np.matmul(A, u, out=u_new[r])
            p_new += A.T @ p[r]     # while the panel is still in cache
        return u_new + w[:n], p_new + w[n:]
    return sweep


def run_method(method: MethodSpec, problem, f, sigma0, config,
               u0=None, p0=None, sigma_exact=None) -> ConvergenceTrace:
    """Run any of the four iterations: the one loop behind all of them.

    Each outer step moves sigma along -M* p, then refreshes (u, p) from the
    fresh sigma, or from the previous one for the shifted kinds.  The GD
    kinds refresh by exact solves (shifted GD's first is the one at sigma0
    made before the loop); the one-shot kinds apply k coupled sweeps as one
    affine map, built once per run, to (u, p) from (u0, p0), zero by
    default.  After each recorded row the run stops as diverged, or as
    converged once cost and gradient fall below their tolerances relative
    to their first nonzero values; otherwise it ends after max_outer steps.
    """
    f = _vector("f", f, problem.n_f)
    sigma = sigma0 = _vector("sigma0", sigma0, problem.n_sigma)
    u, p = (np.zeros(problem.n_u) if v is None else _vector(name, v, problem.n_u)
            for name, v in (("u0", u0), ("p0", p0)))
    if sigma_exact is not None:
        sigma_exact = _vector("sigma_exact", sigma_exact, problem.n_sigma)
    trace = ConvergenceTrace(method=method, tau=config.tau)
    cost_ref = grad_ref = None
    one_shot, shifted = method.kind.one_shot, method.kind.shifted
    if one_shot:
        sweep = _sweep_map(problem, f, method.k)
    else:
        u = exact_state(problem, sigma)
        p = adjoint_from_state(problem, u, f)
    M, H, tau = problem.M, problem.H, config.tau
    for n in range(config.max_outer + 1):
        r = H @ u - f
        c = 0.5 * float(r @ r)
        grad = M.T @ p
        g = math.sqrt(grad @ grad)      # np.linalg.norm's formula, less overhead
        trace.sigma.append(sigma)       # a new array each step, never changed
        trace.cost.append(c)
        trace.grad_norm.append(g)
        d = None if sigma_exact is None else sigma - sigma_exact
        trace.err_sigma.append(math.nan if d is None else math.sqrt(d @ d))
        trace.accumulated_inner.append(1 + n * (method.k if one_shot else 1))
        d = sigma - sigma0      # a nan or inf fails the comparison below too
        if not (math.isfinite(c) and math.isfinite(g)
                and math.sqrt(d @ d) <= DIVERGENCE_THRESHOLD):
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
        sigma_state = sigma if shifted else sigma_new
        if one_shot:
            u, p = sweep(u, p, sigma_state)
        elif n > 0 or not shifted:
            u = exact_state(problem, sigma_state)
            p = adjoint_from_state(problem, u, f)
        sigma = sigma_new
    return trace
