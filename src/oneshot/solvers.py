"""The four inversion iterations on (sigma, u, p), with trace recording.

Two reference methods solve state and adjoint exactly each outer step (usual
and shifted gradient descent); the one-shot methods replace those solves by k
warm-started coupled fixed-point sweeps, using either the fresh parameter
iterate (k-step one-shot) or the previous one (shifted k-step one-shot, whose
three updates can run simultaneously).  ``SolverKind`` names the four methods
and carries these two choices as its flags ``one_shot`` and ``shifted``.  A
one-shot run steps (u, p), or, where ||B^k|| < 1 is certified and it costs
less, sums the impulse response of the rows' outputs over its last inputs.
Impulse rows are made ROW_BLOCK at a time, by one matrix product each.
"""
from __future__ import annotations

import enum
import itertools
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
ROW_BLOCK = 48                  # 32/48/64: H24 solve 85/76/77 ms, H12 k=1 cell 6.7/7.1/8.9


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

    def write_csv(self, fh) -> None:
        """Write the trace in the fixed CSV layout, 17 significant digits."""
        row = f"%d,%d,%.17g,%.17g,%.17g,{self.status.value}\n"
        fh.write(CSV_HEADER + "\n" + "".join(row % r for r in zip(
            itertools.count(1), self.accumulated_inner, self.cost,
            self.grad_norm, self.err_sigma)))


def _relative(value: float, ref: float | None) -> float:
    # ref is the first positive value, None while there has been none
    return 0.0 if value == 0.0 else math.inf if ref is None else value / ref


def _sweep_map(problem, f, k: int):
    """The k coupled sweeps as one affine map (u, p, sigma) -> (u, p):
    u <- B^k u + T_k (M sigma + F) and p <- (B*)^k p + U_k u
    + X_k (M sigma + F) - T_k* H* f, both from the old (u, p) (see TUXTriple).
    When L has at most n_u / 2 rows (a measured crossover) U_k u is L*(R u)
    and no dense U_k is formed.  Each row panel of B^k (one if B^k fits
    PANEL_BYTES) serves both products.  sigma None: unforced, on blocks too.
    Also returns [T_k M; X_k M], the constant forcing c and the ``tux`` triple."""
    B, M, H, F, n = problem.B, problem.M, problem.H, problem.F, problem.n_u
    t = tux(B, H, k)
    TXM = np.vstack([t.T @ M, t.X @ M])
    c = np.concatenate([t.T @ F, t.X @ F - t.T.T @ (H.T @ f)])
    if 2 * k * problem.n_f <= n:
        L = t.L.reshape(-1, n)

        def apply_U(u):     # R u is L u with its k blocks in reverse order
            Lu = (L @ u).reshape(k, -1, *u.shape[1:])[::-1]
            return L.T @ Lu.reshape(-1, *u.shape[1:])
    else:
        apply_U = t.U.__matmul__
    rows = max(1, PANEL_BYTES // (8 * n))
    panels = [(slice(i, i + rows), t.Bk[i:i + rows]) for i in range(0, n, rows)]

    def sweep(u, p, sigma=None):
        u_new, p_new = np.empty(u.shape), apply_U(u)
        for r, A in panels:
            np.matmul(A, u, out=u_new[r])
            p_new += A.T @ p[r]     # while the panel is still in cache
        if sigma is None:
            return u_new, p_new
        w = TXM @ sigma + c     # [T_k M; X_k M] sigma + the constant parts
        return u_new + w[:n], p_new + w[n:]
    return sweep, (TXM, c, t)


def _block_map(Kg, zg, q, tau, shifted):
    """A block's ROW_BLOCK gradients as one matrix of its first state x =
    (sigma_n - r, 1, e_{n-D}, ..., e_{n-1}, w), e = s - r, w the first q rows
    of z less its end zg: the loop run on (sigma_n - r, 1, a unit gradient
    step at row 0), the old inputs and w acting through the step's response h."""
    n_s, E, m = len(zg), Kg.shape[1], ROW_BLOCK
    e = np.zeros((E + m * n_s, 2 * n_s + 1))
    s, c = np.eye(n_s, 2 * n_s + 1), np.eye(m * n_s, 2 * n_s + 1, n_s + 1).reshape(m, n_s, -1)
    c[:, :, n_s] = zg
    G = np.empty_like(c)
    for j in range(m):
        G[j] = g = Kg @ e[j * n_s:j * n_s + E] + c[j]
        s_new = s - tau * g
        e[E + j * n_s:E + (j + 1) * n_s] = s if shifted else s_new
        s = s_new
    h, w = G[:, :, n_s + 1:], np.zeros((m, n_s, q * n_s))
    for i in range(q):          # a step at row i
        w[i:, :, i * n_s:(i + 1) * n_s] = h[:m - i]
    old = h @ Kg                # an old input acts at once, and a row later a tap on
    for j in range(1, m):
        old[j, :, n_s:] += old[j - 1, :, :-n_s]
    return np.concatenate([G[:, :, :n_s + 1], old, w], axis=2).reshape(m * n_s, -1)


def _impulse_rows(problem, f, u, p, ends, tau, shifted, sweep, TXM, c, t):
    """The state path's rows from the outputs' impulse response, in blocks,
    or None where that is not certified or would cost more than a state step.

    y_n = (H u_n - f, M* p_n) is z_n + sum_{d<D} G_d (s_{n-1-d} - r): z runs
    from (u, p) with every input r, which zeroes the steady gradient, and
    G_d = C A^d [T_k M; X_k M], C = diag(H, M*), A = ``sweep`` unforced; the
    forcing c of ``_sweep_map`` gives the taps of the constant part.  Both
    stop where a bound on all they drop, from bounds of ||B^k|| < 1, ||U_k||,
    ||H|| and ||M||, is at most 2^-53 of their first term (see README).
    Its generator makes the rows ROW_BLOCK at a time: gradients by one product
    of ``_block_map``, sigma their cumulative sum (s_n = sigma_{n+1}, or
    sigma_n shifted), norms at once (np.vecdot rounds as r @ r)."""
    n, n_f, n_s, H, M = problem.n_u, problem.n_f, problem.n_sigma, problem.H, problem.M
    ds = np.arange(1, n * n // ((n_f + n_s) * n_s) + 1)     # a row's cost <= B^k's
    norm = lambda a: math.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
    if not len(ds) or (beta := norm(t.Bk)) >= 1.0:
        return None
    ell = [norm(b) for b in t.L]        # ||H B^j||: U_k = sum L[i]* L[k-1-i]
    nH, nM = norm(H), norm(M)
    q = nM * sum(x * y for x, y in zip(ell, ell[::-1])) / (1.0 - beta)
    out = lambda u, p: np.concatenate([H @ u, M.T @ p])     # C, on blocks too

    def count(u, p, first):
        a, b = np.linalg.norm(u), np.linalg.norm(p)
        ok = (beta ** ds * (nH * a + nM * b + q * a) / (1.0 - beta)
              + ds * beta ** (ds - 1) * q * a) <= 2.0 ** -53 * first
        return ds[ok.argmax()] if ok.any() else len(ds) + 1
    W = (TXM[:n], TXM[n:])
    if (D := count(*W, math.sqrt(np.max(np.sum(out(*W) ** 2, axis=0))))) > len(ds):
        return None
    block = np.vsplit(np.column_stack([TXM, c]), 2)
    taps = [out(*block)]        # the taps of W and of c
    while len(taps) < D:
        block = sweep(*block)
        taps.append(out(*block))
    steady = np.sum(taps, axis=0)[n_f:]
    r = np.linalg.lstsq(steady[:, :n_s], -steady[:, n_s], rcond=None)[0]
    x = [(u, p), sweep(u, p, r)]
    d = (x[1][0] - u, x[1][1] - p)
    if (last := count(*d, np.linalg.norm(out(*d)))) > len(ds):
        return None
    while len(x) <= last:
        x.append(sweep(*x[-1], r))
    z = np.array([out(*v) for v in x]) - np.concatenate([f, np.zeros(n_s)])
    K = np.hstack([g[:, :n_s] for g in taps[::-1]])     # oldest input first
    Kr, Kg, m = K[:n_f], K[n_f:], ROW_BLOCK
    nw = min(last, m)           # rows of a block that z's transient reaches
    P = _block_map(Kg, z[last, n_f:], nw, tau, shifted)

    def rows(s):
        e = np.zeros((D + m) * n_s)     # inputs less r: the D before the block, its own
        windows = np.lib.stride_tricks.sliding_window_view(e, D * n_s)[:m * n_s:n_s]
        for n in itertools.count(0, m):
            zn = z[np.minimum(np.arange(n, n + m), last)]
            x = np.concatenate([s - r, [1.0], e[:D * n_s], (zn[:nw, n_f:] - z[last, n_f:]).ravel()])
            G = (P @ x).reshape(m, n_s)
            S = np.cumsum(np.vstack([s, -tau * G]), axis=0)
            e[D * n_s:] = ((S[:-1] if shifted else S[1:]) - r).ravel()
            R, d = zn[:, :n_f] + windows @ Kr.T, S[:-1, None] - ends
            yield from zip(S[:-1], (0.5 * np.vecdot(R, R)).tolist(),
                           np.sqrt(np.vecdot(G, G)).tolist(), *np.sqrt(np.vecdot(d, d)).T.tolist())
            e[:D * n_s], s = e[m * n_s:], S[-1]
    return rows(ends[0])


def run_method(method: MethodSpec, problem, f, sigma0, config,
               u0=None, p0=None, sigma_exact=None) -> ConvergenceTrace:
    """Run any of the four iterations: the one loop behind all of them.

    Each outer step moves sigma along -M* p, then refreshes (u, p) from the
    fresh sigma, or from the previous one for the shifted kinds.  The GD
    kinds refresh by exact solves (shifted GD's first is the one at sigma0
    made before the loop); the one-shot kinds apply k coupled sweeps as one
    affine map, built once per run, to (u, p) from (u0, p0), zero by
    default, or sum the outputs' impulse response (``_impulse_rows``).  After
    each recorded row the run stops as diverged, or as converged once cost
    and gradient fall below their tolerances relative to their first nonzero
    values; otherwise it ends after max_outer steps.
    """
    f = _vector("f", f, problem.n_f)
    sigma0 = _vector("sigma0", sigma0, problem.n_sigma)
    u, p = (np.zeros(problem.n_u) if v is None else _vector(name, v, problem.n_u)
            for name, v in (("u0", u0), ("p0", p0)))
    sigma_exact = (np.full(problem.n_sigma, math.nan) if sigma_exact is None
                   else _vector("sigma_exact", sigma_exact, problem.n_sigma))
    trace = ConvergenceTrace(method=method, tau=config.tau)
    cost_ref = grad_ref = None
    one_shot, shifted = method.kind.one_shot, method.kind.shifted

    def stepped(u, p, refresh):     # yield a row, then step to the next
        sigma = sigma0
        while True:
            r, grad, d, e = problem.H @ u - f, problem.M.T @ p, sigma - sigma0, sigma - sigma_exact
            yield sigma, 0.5 * float(r @ r), math.sqrt(grad @ grad), math.sqrt(d @ d), math.sqrt(e @ e)
            sigma_new = sigma - config.tau * grad
            u, p = refresh(u, p, sigma if shifted else sigma_new)
            sigma = sigma_new
    with np.errstate(over="ignore", invalid="ignore"):   # inf, nan: diverged
        if one_shot:
            sweep, parts = _sweep_map(problem, f, method.k)
            rows = (_impulse_rows(problem, f, u, p, np.array([sigma0, sigma_exact]),
                                  config.tau, shifted, sweep, *parts)
                    or stepped(u, p, sweep))
        else:
            def exact(u, p, s):     # shifted GD's first s is sigma0: (u, p) are there
                if s is not sigma0:
                    u = exact_state(problem, s)
                    p = adjoint_from_state(problem, u, f)
                return u, p
            u = exact_state(problem, sigma0)
            rows = stepped(u, adjoint_from_state(problem, u, f), exact)
        for n, (sigma, c, g, dist, err) in zip(range(config.max_outer + 1), rows):
            trace.sigma.append(sigma)       # never changed after
            trace.cost.append(c)
            trace.grad_norm.append(g)
            trace.err_sigma.append(err)
            trace.accumulated_inner.append(1 + n * (method.k if one_shot else 1))
            if not (math.isfinite(c) and math.isfinite(g)
                    and dist <= DIVERGENCE_THRESHOLD):  # ||sigma - sigma0||; nan fails
                trace.status = Status.DIVERGED
                break
            if cost_ref is None and c > 0.0:
                cost_ref = c
            if grad_ref is None and g > 0.0:
                grad_ref = g
            if (_relative(c, cost_ref) < config.tol_cost
                    and _relative(g, grad_ref) < config.tol_grad):
                trace.status = Status.CONVERGED
                break           # otherwise the status stays MAX_ITER
    return trace
