"""Exact scalar-case stability: admissible-step thresholds and the
Jury-Marden unit-circle criterion.

With scalar data (b, h, m) the 3x3 error matrices have cubic characteristic
polynomials, so membership of all eigenvalues in the open unit disk reduces
to three sign conditions on the coefficients.  Working those conditions out
gives *exact* (necessary and sufficient) admissible-step thresholds:
``tau < eta(k, b) / (h^2 m^2)`` for k-step one-shot and
``tau < kappa(k, b) / (h^2 m^2)`` for the shifted variant, next to the
classical ``2 (1-b)^2`` and ``(1-b)^2`` gradient-descent thresholds.

The branch structure of eta and kappa switches on the sign of
``f_k(b) = 1 - 2k b^{k-1} + 2k b^k - b^{2k}`` whose root locations in (-1, 1)
are pinned by bisection on intervals where the sign change is guaranteed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linear_model import ScalarProblem
from .solvers import SolverKind


# ---------------------------------------------------------------------------
# Jury-Marden criterion

@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of the monic cubic a0 + a1 z + a2 z^2 + z^3."""

    a0: float
    a1: float
    a2: float


@dataclass
class MardenTable:
    """Rows of coefficient arrays produced by the reduction
    P_{k+1} = a_0^(k) P_k - a_{n-k}^(k) reverse(P_k)."""

    rows: list[np.ndarray] = field(default_factory=list)
    leading_entries: list[float] = field(default_factory=list)


def jury_marden_cubic(c: CubicCoeffs) -> bool:
    """True iff all roots of the cubic lie strictly inside the unit circle."""
    a0, a1, a2 = c.a0, c.a1, c.a2
    return ((a0 - 1.0) * (a0 + 1.0) < 0.0
            and (a0*a0 - a2*a0 + a1 - 1.0) * (a0*a0 + a2*a0 - a1 - 1.0) > 0.0
            and (a0 + a2 - a1 - 1.0) * (a0 + a2 + a1 + 1.0) < 0.0)


def jury_marden_general(coeffs) -> tuple[bool | None, MardenTable]:
    """All-roots-inside test for a real polynomial of any degree.

    ``coeffs`` holds a_0 .. a_n in ascending order with a_n != 0.  Builds the
    reduction table; the verdict is True iff the first leading entry is
    negative and all later ones positive.  A zero leading entry leaves the
    criterion inapplicable: the verdict is None (indeterminate) and the
    partial table is still returned.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a polynomial of degree at least 1")
    if a[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    n = a.size - 1
    table = MardenTable(rows=[a.copy()])
    row = a
    for _ in range(n):
        nxt = row[0] * row - row[-1] * row[::-1]
        row = nxt[:-1]
        table.rows.append(row.copy())
        table.leading_entries.append(float(row[0]))
    if any(entry == 0.0 for entry in table.leading_entries):
        return None, table
    ok = table.leading_entries[0] < 0.0 and all(
        entry > 0.0 for entry in table.leading_entries[1:])
    return ok, table


# ---------------------------------------------------------------------------
# the polynomial f_k and its roots

def fk(k: int, b: float) -> float:
    """f_k(b) = 1 - 2k b^{k-1} + 2k b^k - b^{2k} (with 0^0 = 1)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return 1.0 - 2.0*k*b**(k-1) + 2.0*k*b**k - b**(2*k)


def _bisect(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _upper_bracket(k: int) -> float:
    # f_k(1) = 0 with f_k < 0 just inside, so back off from 1 until the sign shows
    gap = 1e-3
    while fk(k, 1.0 - gap) >= 0.0:
        gap *= 0.5
        if gap < 1e-9:
            raise RuntimeError(f"could not bracket the root of f_{k} near 1")
    return 1.0 - gap


def fk_roots(k: int) -> list[float]:
    """Roots of f_k in (-1, 1), by sign-guaranteed bisection.

    k = 1: none (f_1 < 0 throughout).  Even k: a single root in (0, 1).
    Odd k >= 3: one root in (-1, 0) and one in (0, 1).  k < 1 raises in fk.
    """
    if k == 1:
        return []
    hi = _upper_bracket(k)
    if k % 2 == 0:
        return [_bisect(lambda b: fk(k, b), 0.0, hi)]
    return [_bisect(lambda b: fk(k, b), -1.0, 0.0),
            _bisect(lambda b: fk(k, b), 0.0, hi)]


# ---------------------------------------------------------------------------
# threshold ingredients

def _yk(k: int, b: float) -> float:
    # X_k / h^2 in closed form; equals (1 - k b^{k-1} + (k-1) b^k) / (1-b)^2
    return (1.0 - k*b**(k-1) + (k-1)*b**k) / (1.0 - b)**2


def eta21(k: int, b: float) -> float:
    g = k - (k + 1)*b + k*b**k - (k - 1)*b**(k+1)
    return (1.0 - b)**2 * (1.0 + b**k) * (1.0 - b**k)**2 / (b**(k-1) * g)


def eta22(k: int, b: float) -> float:
    g = k - (k + 1)*b + k*b**k - (k - 1)*b**(k+1)
    return -(1.0 - b)**2 * (1.0 + b**k)**3 / (b**(k-1) * g)


def eta3(k: int, b: float) -> float:
    return 2.0 * (1.0 - b)**2 * (1.0 + b**k)**2 / fk(k, b)


def kappa11(k: int, b: float) -> float:
    w = k - (k + 1)*b + b**(k+1)
    return (1.0 - b)**2 * (1.0 + b**(2*k)) / (b**(k-1) * w)


def kappa12(k: int, b: float) -> float:
    w = k - (k + 1)*b + b**(k+1)
    return (1.0 - b)**2 * (-1.0 + b**(2*k)) / (b**(k-1) * w)


def _kappa2_pieces(k: int, b: float):
    # v = t_k^2 - y_k in factored form: the plain difference cancels near
    # b = 0 once k >= 6 and can even come out zero or of the wrong sign
    w = k - (k + 1)*b + b**(k+1)
    v = b**(k-1) * w / (1.0 - b)**2
    return b**k, _yk(k, b), v


def kappa21(k: int, b: float) -> float:
    """First quadratic-root threshold of the shifted family.

    The direct quotient of root formulas loses precision once v_k is tiny
    (large k), so the algebraically equivalent rewrite with the conjugate
    denominator is used.
    """
    s, y, v = _kappa2_pieces(k, b)
    disc = math.sqrt((-4.0*s + 5.0)*v*v + y*y + 2.0*(-2.0*s*s + 2.0*s + 1.0)*v*y)
    w = k - (k + 1)*b + b**(k+1)
    term1 = b * (1.0 - b)**2 * (b**k - 1.0) / w
    num2 = 2.0 * (-b**k + 1.0 + b*(1.0 - b)**2*(1.0 - b**k)*y / w)
    return term1 + num2 / (y + v + disc)


def kappa22(k: int, b: float) -> float:
    s, y, v = _kappa2_pieces(k, b)
    if v*v == 0.0:
        return math.inf              # the limit as v -> 0
    disc = math.sqrt((8.0*s*s + 12.0*s + 5.0)*v*v + y*y
                     + 2.0*(2.0*s*s + 2.0*s + 1.0)*v*y)
    return ((2.0*s*s + 2.0*s + 1.0)*v + y + disc) / (2.0*v*v)


def kappa3(k: int, b: float) -> float:
    # numerator carries (1 + b^k)^2: expanding the third sign condition for
    # the shifted family gives the constant term -2 (1 + b^k)^2, exactly as
    # in the non-shifted family (verified against the 3x3 eigenvalues)
    return 2.0 * (1.0 - b)**2 * (1.0 + b**k)**2 / (-fk(k, b))


# ---------------------------------------------------------------------------
# the exact thresholds

@dataclass(frozen=True)
class ScalarThreshold:
    """Normalized admissible-step supremum (the h = m = 1 factor)."""

    k: int
    b: float
    value: float
    branch: str


def eta(k: int, b: float) -> ScalarThreshold:
    """Exact threshold of k-step one-shot (tau < eta / (h^2 m^2))."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not -1.0 < b < 1.0:
        raise ValueError(f"b must lie in (-1, 1), got {b}")
    if k == 1:
        # eta21 collapses to a clean closed form at one inner sweep
        return ScalarThreshold(k=1, b=b, value=(1.0 - b)**3 * (1.0 + b),
                               branch="eta21")
    if b == 0.0:
        # zero contraction: the method is exactly usual gradient descent
        return ScalarThreshold(k=k, b=0.0, value=2.0, branch="gd-limit")
    cands = {}
    # both branches divide by b^(k-1) and tend to +inf where it underflows
    if b**(k-1) > 0.0:
        cands["eta21"] = eta21(k, b)
    elif b**(k-1) < 0.0:
        cands["eta22"] = eta22(k, b)
    if fk(k, b) > 0.0:
        cands["eta3"] = eta3(k, b)
    branch = min(cands, key=cands.get)
    return ScalarThreshold(k=k, b=b, value=cands[branch], branch=branch)


def kappa(k: int, b: float) -> ScalarThreshold:
    """Exact threshold of shifted k-step one-shot (tau < kappa / (h^2 m^2))."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not -1.0 < b < 1.0:
        raise ValueError(f"b must lie in (-1, 1), got {b}")
    if k >= 2 and b == 0.0:
        # zero contraction: the method is exactly shifted gradient descent
        return ScalarThreshold(k=k, b=0.0, value=1.0, branch="gd-limit")
    cands = {}
    # both branches divide by b^(k-1) and tend to +inf where it underflows
    if b**(k-1) > 0.0:
        cands["kappa11"] = kappa11(k, b)
    elif b**(k-1) < 0.0:
        cands["kappa12"] = kappa12(k, b)
    cands["kappa21"] = kappa21(k, b)
    cands["kappa22"] = kappa22(k, b)
    if fk(k, b) < 0.0:
        cands["kappa3"] = kappa3(k, b)
    branch = min(cands, key=cands.get)
    return ScalarThreshold(k=k, b=b, value=cands[branch], branch=branch)


def threshold(kind: SolverKind, k: int, b: float) -> ScalarThreshold:
    """Exact normalized threshold of any method kind.

    The one-shot kinds go to :func:`eta` and :func:`kappa`; the GD kinds
    have no inner sweeps, so they ignore k, report k = 0 and name their
    branch after the kind ("gd" or "sgd").
    """
    if kind is SolverKind.USUAL_GD:
        return ScalarThreshold(k=0, b=b, value=usual_gd_threshold(b), branch="gd")
    if kind is SolverKind.SHIFTED_GD:
        return ScalarThreshold(k=0, b=b, value=shifted_gd_threshold(b),
                               branch="sgd")
    return (eta if kind is SolverKind.K_STEP else kappa)(k, b)


def usual_gd_threshold(b: float) -> float:
    """Exact normalized threshold of usual gradient descent, 2 (1-b)^2."""
    return 2.0 * (1.0 - b)**2


def shifted_gd_threshold(b: float) -> float:
    """Exact normalized threshold of shifted gradient descent, (1-b)^2."""
    return (1.0 - b)**2


# ---------------------------------------------------------------------------
# scalar error-iteration matrices

def scalar_iteration_matrix(kind: SolverKind, k: int, sp: ScalarProblem,
                            tau: float) -> np.ndarray:
    """Exact 3x3 error matrix on (p, u, sigma) for the chosen method."""
    b, h, m = sp.b, sp.h, sp.m
    if kind is SolverKind.USUAL_GD:
        return np.array([
            [-h*h*m*m/(1.0-b)**2 * tau, 0.0, h*h*m/(1.0-b)**2],
            [-m*m/(1.0-b) * tau,        0.0, m/(1.0-b)],
            [-m*tau,                    0.0, 1.0],
        ])
    if kind is SolverKind.SHIFTED_GD:
        return np.array([
            [0.0, 0.0, h*h*m/(1.0-b)**2],
            [0.0, 0.0, m/(1.0-b)],
            [-m*tau, 0.0, 1.0],
        ])
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    s = b**k
    t = sum(b**j for j in range(k))
    u = k*h*h*b**(k-1)
    x = h*h*sum((j + 1)*b**j for j in range(k - 1))
    if kind is SolverKind.SHIFTED_K_STEP:
        return np.array([
            [s,      u,   m*x],
            [0.0,    s,   m*t],
            [-m*tau, 0.0, 1.0],
        ])
    return np.array([
        [s - m*m*x*tau, u,   m*x],
        [-m*m*t*tau,    s,   m*t],
        [-m*tau,        0.0, 1.0],
    ])
