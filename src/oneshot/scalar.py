"""Exact scalar-case stability: admissible-step thresholds and the
Jury-Marden unit-circle criterion.

With scalar data (b, h, m) the 3x3 error matrices have cubic characteristic
polynomials, so membership of all eigenvalues in the open unit disk reduces
to three sign conditions on the coefficients.  Working those conditions out
gives *exact* (necessary and sufficient) admissible-step thresholds:
``tau < eta(k, b) / (h^2 m^2)`` for k-step one-shot and
``tau < kappa(k, b) / (h^2 m^2)`` for the shifted variant, next to the
classical ``2 (1-b)^2`` and ``(1-b)^2`` gradient-descent thresholds.

The branches of eta and kappa switch on the sign of ``f_k(b) = 1 - 2k
b^{k-1} + 2k b^k - b^{2k}``, taken from the terms all branches share;
``fk_roots`` only locates its roots in (-1, 1), by sign-guaranteed bisection.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

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

def _pow(x, n):
    """``x**n`` with the bits of Python's float power, for a float or each
    entry of an array, which so gets the bits it gets alone: ``float_power``
    calls the libm ``pow`` that ``**`` calls, where the SIMD kernels of
    numpy's ``power`` may differ in the last bit, even for the square."""
    return np.float_power(x, float(n))


def fk(k: int, b):
    """f_k(b) = 1 - 2k b^{k-1} + 2k b^k - b^{2k} (with 0^0 = 1), for a
    float or an array of b: the ``f`` of :func:`_terms`."""
    return _terms(k, b).f


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
    f, hi = (lambda b: fk(k, b)), _upper_bracket(k)
    upper = [_bisect(f, 0.0, hi)]
    return upper if k % 2 == 0 else [_bisect(f, -1.0, 0.0), *upper]


# ---------------------------------------------------------------------------
# threshold ingredients

def _terms(k: int, b) -> SimpleNamespace:
    """The terms the branch formulas share, for a float or an array of b:
    bk1, bk, bk2, b2k = b^(k-1), b^k, b^(k+1), b^(2k), a = (1 - b)^2, f =
    f_k(b), the sums g and w, y = y_k = X_k / h^2 and v = t_k^2 - y_k."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    bk1, bk, bk2, b2k = _pow(b, k-1), _pow(b, k), _pow(b, k+1), _pow(b, 2*k)
    a, w = _pow(1.0 - b, 2), k - (k + 1)*b + bk2
    # v factored: t_k^2 - y_k cancels near b = 0 once k >= 6, even to zero
    # or the wrong sign; a = 0 only at b = 1, which fk accepts
    with np.errstate(divide="ignore", invalid="ignore"):
        y, v = np.divide(1.0 - k*bk1 + (k-1)*bk, a), np.divide(bk1 * w, a)
    return SimpleNamespace(b=b, bk1=bk1, bk=bk, bk2=bk2, b2k=b2k, a=a, w=w,
                           y=y, v=v, f=1.0 - 2.0*k*bk1 + 2.0*k*bk - b2k,
                           g=k - (k + 1)*b + k*bk - (k - 1)*bk2)


def eta21(k: int, t: SimpleNamespace):
    if k == 1:   # the only branch at k = 1 (f_1 < 0): a clean closed form
        return _pow(1.0 - t.b, 3) * (1.0 + t.b)
    return t.a * (1.0 + t.bk) * _pow(1.0 - t.bk, 2) / (t.bk1 * t.g)


def eta22(k: int, t: SimpleNamespace):
    return -t.a * _pow(1.0 + t.bk, 3) / (t.bk1 * t.g)


def eta3(k: int, t: SimpleNamespace):
    return 2.0 * t.a * _pow(1.0 + t.bk, 2) / t.f


def kappa11(k: int, t: SimpleNamespace):
    return t.a * (1.0 + t.b2k) / (t.bk1 * t.w)


def kappa12(k: int, t: SimpleNamespace):
    return t.a * (-1.0 + t.b2k) / (t.bk1 * t.w)


def kappa21(k: int, t: SimpleNamespace):
    """First quadratic-root threshold of the shifted family, with the
    conjugate denominator: the direct quotient of the root formulas loses
    precision once v_k is tiny (large k)."""
    s, y, v = t.bk, t.y, t.v
    disc = np.sqrt((-4.0*s + 5.0)*v*v + y*y + 2.0*(-2.0*s*s + 2.0*s + 1.0)*v*y)
    term1 = t.b * t.a * (s - 1.0) / t.w
    num2 = 2.0 * (-s + 1.0 + t.b*t.a*(1.0 - s)*y / t.w)
    return term1 + num2 / (y + v + disc)


def kappa22(k: int, t: SimpleNamespace):
    s, y, v = t.bk, t.y, t.v
    disc = np.sqrt((8.0*s*s + 12.0*s + 5.0)*v*v + y*y
                   + 2.0*(2.0*s*s + 2.0*s + 1.0)*v*y)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = ((2.0*s*s + 2.0*s + 1.0)*v + y + disc) / (2.0*v*v)
    return np.where(v*v == 0.0, np.inf, value)[()]   # the limit as v -> 0


def kappa3(k: int, t: SimpleNamespace):
    # the third sign condition of the shifted family expands with the constant
    # term -2 (1 + b^k)^2, as in eta3 (verified against the 3x3 eigenvalues)
    return 2.0 * t.a * _pow(1.0 + t.bk, 2) / (-t.f)


# ---------------------------------------------------------------------------
# the exact thresholds

@dataclass(frozen=True)
class ScalarThreshold:
    """Normalized admissible-step supremum (the h = m = 1 factor): arrays in
    the shape of b for an array b, a float and a str for a float b."""

    k: int
    b: float | np.ndarray
    value: float | np.ndarray
    branch: str | np.ndarray

    def __eq__(self, other):    # an array field compares as a whole
        return other.__class__ is self.__class__ and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))


def _grid(b) -> np.ndarray:
    """b as a flat float array, each entry checked to lie in (-1, 1)."""
    grid = np.asarray(b, dtype=float).ravel()
    outside = ~((-1.0 < grid) & (grid < 1.0))
    if outside.any():
        raise ValueError(f"b must lie in (-1, 1), got {grid[outside][0]}")
    return grid


def _least(k: int, b, terms, branches, gd_limit=None) -> ScalarThreshold:
    """The least candidate at each b of ``terms.b``, and its branch name.
    Each ``(name, mask, formula)`` is ``formula(k, terms at those b)`` where
    its mask holds and +inf elsewhere; ``argmin`` keeps the first of equal
    values, as ``min`` over the branches in order does.  A mask that is
    ``...`` or holds at every b reads ``terms`` itself, any other (an empty
    one too) a copy at its b.  A ``gd_limit`` wins at b = 0 once k >= 2."""
    grid = terms.b
    cands = np.full((len(branches), grid.size), np.inf)
    try:   # a zero divisor or a nan leaves no value; an overflow is +inf
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            for row, (name, mask, formula) in zip(cands, branches):
                whole = mask is ... or mask.all()
                row[mask] = formula(k, terms if whole else SimpleNamespace(
                    **{n: x[mask] for n, x in vars(terms).items()}))
    except FloatingPointError as exc:   # at a lone b or in any grid
        raise ValueError(f"{name} has no value at some b: {exc}") from None
    pick = np.argmin(cands, axis=0)
    value = cands[pick, np.arange(grid.size)]
    branch = np.array([name for name, _, _ in branches], dtype=object)[pick]
    if gd_limit is not None and k >= 2:   # zero contraction: exactly GD
        value[grid == 0.0], branch[grid == 0.0] = gd_limit, "gd-limit"
    value, branch = value.reshape(np.shape(b)), branch.reshape(np.shape(b))
    if value.ndim == 0:
        value, branch = value.item(), branch.item()
    return ScalarThreshold(k=k, b=b, value=value, branch=branch)


def eta(k: int, b) -> ScalarThreshold:
    """Exact threshold of k-step one-shot (tau < eta / (h^2 m^2)), for a
    float or an array of b.  k < 1 raises."""
    t = _terms(k, _grid(b))
    # the b^(k-1) branches (and kappa's) divide by it: +inf where it underflows
    return _least(k, b, t, [("eta21", t.bk1 > 0.0, eta21),
                            ("eta22", t.bk1 < 0.0, eta22),
                            ("eta3", t.f > 0.0, eta3)], gd_limit=_GD_LIMIT)


def kappa(k: int, b) -> ScalarThreshold:
    """Exact threshold of shifted k-step one-shot (tau < kappa / (h^2 m^2)),
    for a float or an array of b.  k < 1 raises."""
    t = _terms(k, _grid(b))
    return _least(k, b, t, [("kappa11", t.bk1 > 0.0, kappa11),
                            ("kappa12", t.bk1 < 0.0, kappa12),
                            ("kappa21", ..., kappa21),
                            ("kappa22", ..., kappa22),
                            ("kappa3", t.f < 0.0, kappa3)], gd_limit=_SGD_LIMIT)


def threshold(kind: SolverKind, k: int, b) -> ScalarThreshold:
    """Exact normalized threshold of any method kind, for a float or an
    array of b: :func:`eta` and :func:`kappa` for the one-shot kinds, the
    classical 2 (1-b)^2 and (1-b)^2 for usual and shifted GD, which ignore
    k, report k = 0 and name their branch after the kind ("gd" or "sgd")."""
    if kind.one_shot:
        return (kappa if kind.shifted else eta)(k, b)
    scale = 1.0 if kind.shifted else 2.0
    return _least(0, b, SimpleNamespace(b=_grid(b)),
                  [(kind.value, ..., lambda _, t: scale * _pow(1.0 - t.b, 2))])


# eta and kappa at b = 0 for k >= 2, where the one-shot method is exactly GD
_GD_LIMIT, _SGD_LIMIT = (threshold(kind, 0, 0.0).value for kind in
                         (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD))


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
