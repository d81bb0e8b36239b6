"""Descent-step bounds for all four methods, through :func:`matrix_bound`.

For the gradient-descent references the admissible step is known exactly:
tau < c / ||H (I-B)^{-1} M||^2, c = ``scalar.threshold`` at b = 0.  For the
one-shot methods the guarantees are sufficient only.  With ||B|| < 1 they
take the closed form tau < chi(k, ||B||) / (||H||^2 ||M||^2) for the shifted
family and psi(k, ||B||) for the non-shifted one, each a minimum over a
real-eigenvalue bound and the complex-eigenvalue case bounds parameterized by
an angle split theta0 and a slack delta0.  Without ||B|| < 1 the bounds fall
back to the resolvent constant s(B^k) and the operator norms of T_k and X_k.
Every bound is evaluated in IEEE doubles: a denominator that underflows to 0
gives inf (that case sets no bound), an overflowing power inf, and 0 inf nan,
which ``np.min`` keeps.  ``StepBound`` alone refuses a value outside (0, inf).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .linear_model import (RealInverseProblem, _contraction_bound, data_map,
                           spectral_norm, tux)
from .solvers import MethodSpec, SolverKind
from . import scalar, spectral

SQRT2 = math.sqrt(2.0)

SHIFTED_THETA0_MAX = math.pi / 6.0
NON_SHIFTED_THETA0_MAX = math.pi / 4.0
STRICT_THETA0_SCALE = 0.99          # k >= 2 needs theta0 strictly inside


@dataclass(frozen=True)
class BoundParams:
    """Tuning constants of the complex-eigenvalue case bounds."""

    theta0: float
    delta0: float = 1.0

    def __post_init__(self):
        # written as "not 0 < x < inf" so that nan fails too; delta0 must
        # also have a finite square, the range the case bounds are tested on
        if not (0.0 < self.delta0 < math.inf
                and self.delta0 * self.delta0 < math.inf):
            raise ValueError("delta0 must be positive with a finite square, "
                             f"got {self.delta0}")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError(f"theta0 must be positive and finite, got {self.theta0}")


def default_params(shifted: bool, k: int) -> BoundParams:
    theta_max = SHIFTED_THETA0_MAX if shifted else NON_SHIFTED_THETA0_MAX
    theta0 = theta_max if k == 1 else STRICT_THETA0_SCALE * theta_max
    return BoundParams(theta0=theta0)


def _check_params(params: BoundParams | None, shifted: bool,
                  k: int) -> BoundParams:
    """The given params, or the defaults when None, checked against theta_max."""
    if params is None:
        params = default_params(shifted, k)
    theta_max = SHIFTED_THETA0_MAX if shifted else NON_SHIFTED_THETA0_MAX
    if k >= 2:
        if not params.theta0 < theta_max:
            raise ValueError(
                f"theta0 must be strictly below {theta_max:.6g} for k >= 2, "
                f"got {params.theta0:.6g}")
    elif not params.theta0 <= theta_max:
        raise ValueError(
            f"theta0 must not exceed {theta_max:.6g}, got {params.theta0:.6g}")
    return params


@dataclass
class StepBound:
    """A sufficient step value together with its provenance."""

    value: float
    formula_id: str
    params: BoundParams | None
    norm_inputs: dict

    def __post_init__(self):
        # squared norms that underflow or overflow leave no bound in range
        if not 0.0 < self.value < math.inf:
            raise ValueError("the squared norms put the step bound out of the float range")

    def as_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "value": self.value,
            "params": None if self.params is None else asdict(self.params),
            "norm_inputs": dict(self.norm_inputs),
        }


# ---------------------------------------------------------------------------
# closed forms for ||B|| < 1

def _case_terms(params: BoundParams, shifted: bool) -> SimpleNamespace:
    """The constants of the complex-eigenvalue cases at th = theta0, d0 =
    delta0 and h = 2.5 (shifted) or 1.5: sin_half = sin(th/2), angle =
    sin(pi/2 - 3th) + cos(2th), cos_cap = cos(3th) (shifted) or cos(2th), the
    k = 1 slack cos(h th)^2 / (2 lin) for lin = 1/d0 + 2 sin(h th) + d0, and
    cd = c / d0, sc = sqrt(c), sq = sqrt(c) / d0 for c = d0 lin / cos(h th)^2,
    made without c, which overflows for large d0."""
    th, d0, half = params.theta0, params.delta0, 2.5 if shifted else 1.5
    lin = 1.0 / d0 + 2.0 * math.sin(half * th) + d0
    cos2 = np.float64(math.cos(half * th))**2
    cd = lin / cos2
    return SimpleNamespace(
        sin_half=math.sin(th / 2.0), cos_cap=math.cos((3.0 if shifted else 2.0) * th),
        angle=math.sin(math.pi / 2.0 - 3.0 * th) + math.cos(2.0 * th),
        slack=cos2 / (2.0 * lin),
        cd=cd, sc=math.sqrt(cd) * math.sqrt(d0), sq=math.sqrt(cd) / math.sqrt(d0))


def closed_form(k: int, b: float, params: BoundParams | None,
                shifted: bool) -> float:
    """chi(k, b) for the shifted family, psi(k, b) for the non-shifted one:
    the minimum over the real-eigenvalue bound and the complex-eigenvalue
    case bounds, in units of 1 / (||H||^2 ||M||^2), for b = ||B|| < 1.

    ``params`` None takes the family's defaults for this k.  k = 1 needs
    b > 0.  For k >= 2 at b = 0 the method is (shifted) gradient descent,
    whose exact bound is 1 (shifted) or 2.
    """
    name = "chi" if shifted else "psi"
    if k < 1:
        raise ValueError(f"{name} needs k >= 1, got {k}")
    if not (0.0 < b < 1.0 or (k >= 2 and b == 0.0)):
        raise ValueError(f"{name} needs {'0 <' if k == 1 else '0 <='} b < 1 "
                         f"at k = {k}, got {b}")
    if b == 0.0:
        kind = SolverKind.SHIFTED_GD if shifted else SolverKind.USUAL_GD
        return scalar.threshold(kind, k, 0.0).value
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c, b = _case_terms(_check_params(params, shifted, k), shifted), np.float64(b)
        if k == 1:
            # real eigenvalues impose no condition on the non-shifted family
            cases = [(1.0 - b)**4 / (4.0 * b**2),
                     2.0 * c.sin_half * (1.0 - b)**2 / (1.0 + b)**2,
                     c.slack * (1.0 - b)**4 / b**2]
            if shifted:
                cases += [2.0 * (1.0 - b)**2, c.angle * (1.0 - b)**2]
            return float(np.min(cases))

        # 1 - b^k = (1-b) S and geom = (1-b)^2 y_k >= (1-b)^2 ||X_k|| / ||H||^2
        t, bk = scalar._terms(k, b), b**k
        bkm2, geom = t.bkm[()]**2, (1.0 - b)**2 * t.y[()]
        front = (1.0 - b)**2 * bkm2
        cases = [front / (4.0 * b**(2 * k) + SQRT2 * geom * (1.0 + bk)**2),
                 front / ((bkm2 / (2.0 * c.sin_half)
                           + SQRT2 * geom) * (1.0 + bk)**2),
                 front / (2.0 * c.cd * c.sin_half * b**(2 * k)
                          + geom * (c.sq * (1.0 + b**(2 * k))
                                    + 2.0 * max(c.sq, c.sc / c.cos_cap) * bk))]
        if shifted:
            cases += [2.0 * front / (bkm2 + 2.0 * geom),
                      c.angle * front / (bkm2 + 2.0 * geom * (1.0 + bk)**2)]
        else:
            cases.append(front / geom)
        return float(np.min(cases))


# ---------------------------------------------------------------------------
# general bounds through the resolvent constant s(B^k)

def _general_min_k1(nH, nM, nB, s, params, shifted):
    c = _case_terms(params, shifted)
    hm2 = nH**2 * nM**2
    cases = [1.0 / (4.0 * hm2 * nB**2 * s**4),
             2.0 * c.sin_half / (hm2 * (1.0 + 2.0 * nB)**2 * s**4),
             c.slack / (hm2 * nB**2 * s**4)]
    if shifted:     # the real-eigenvalue case, then the angle case
        cases += [2.0 / (hm2 * s**2), c.angle / (hm2 * (1.0 + nB)**2 * s**2)]
    return np.min(cases)


def _general_min_k(nH, nM, nT, nX, nBk, s, params, shifted):
    c = _case_terms(params, shifted)
    ht2 = nH**2 * nM**2 * nT**2
    xk = nM**2 * nX
    cases = [1.0 / ((4.0 * ht2 * nBk**2 + SQRT2 * xk * (1.0 + 2.0 * nBk)**2) * s**4),
             1.0 / ((ht2 / (2.0 * c.sin_half) + SQRT2 * xk) * (1.0 + 2.0 * nBk)**2 * s**4),
             1.0 / ((2.0 * c.cd * c.sin_half * ht2 * nBk**2
                     + c.sq * xk * (1.0 + 2.0 * nBk + 2.0 * nBk**2)
                     + 2.0 * max(c.sq, c.sc / c.cos_cap) * xk * (nBk + nBk**2)) * s**4)]
    if shifted:     # the real-eigenvalue case, then the angle case
        cases += [1.0 / ((ht2 / 2.0 + xk) * s**2),
                  c.angle * (1.0 / ((ht2 * (1.0 + nBk)**2
                                     + 2.0 * xk * (1.0 + 2.0 * nBk)**2) * s**4))]
    else:
        cases.append(1.0 / (xk * s**2))                               # real
    return np.min(cases)


def matrix_bound(problem: RealInverseProblem, method: MethodSpec,
                 params: BoundParams | None = None) -> StepBound:
    """Step bound of any method kind for a matrix problem.

    The GD kinds get their exact supremum, ``scalar.threshold`` at b = 0
    over ||H (I-B)^{-1} M||^2.  The one-shot kinds need rho(B) < 1 and get
    the s(B^k)-based sufficient bounds from actual operator norms, or, when
    ||B|| < 1 and it is larger, the sharper closed form.
    """
    shifted, k = method.kind.shifted, method.k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not method.kind.one_shot:
            g = spectral_norm(data_map(problem))
            value = scalar.threshold(method.kind, k, 0.0).value / np.float64(g)**2
            return StepBound(float(value), "shifted-gd" if shifted else "usual-gd",
                             None, {"data_map_norm": g})
        nB = spectral_norm(problem.B)
        rho = _contraction_bound(problem.B, nB)
        if rho >= 1.0:
            raise ValueError(f"bounds need rho(B) < 1, got {rho:.6g}")

        params = _check_params(params, shifted, k)
        nH, nM = spectral_norm(problem.H), spectral_norm(problem.M)
        norms = {"norm_B": nB, "norm_H": nH, "norm_M": nM}
        nB, nH, nM = np.float64([nB, nH, nM])      # Python floats in norm_inputs
        family = "shifted-one-shot" if shifted else "one-shot"

        if nB == 0.0:
            # the exact scalar threshold at b = 0, over ||H||^2 ||M||^2 at k = 1;
            # for k >= 2 the method is (shifted) GD with data map H M
            value = scalar.threshold(method.kind, k, 0.0).value
            if k == 1:
                return StepBound(float(value / (nH**2 * nM**2)), f"{family}:zero-B",
                                 params, norms)
            norms["data_map_norm"] = g = spectral_norm(problem.H @ problem.M)
            return StepBound(float(value / np.float64(g)**2), f"{family}:zero-B-gd-limit",
                             params, norms)

        if k == 1:
            s = spectral.s_functional(problem.B)
            norms["s_Bk"] = s
            general = _general_min_k1(nH, nM, nB, np.float64(s), params, shifted)
        else:
            t = tux(problem.B, problem.H, k)
            s = spectral.s_functional(t.Bk)
            nT, nX, nBk = spectral_norm(t.T), spectral_norm(t.X), spectral_norm(t.Bk)
            norms.update({"s_Bk": s, "norm_Tk": nT, "norm_Xk": nX, "norm_Bk": nBk})
            general = _general_min_k(nH, nM, *np.float64([nT, nX, nBk, s]), params, shifted)

        value, formula = general, f"{family}:resolvent"
        if nB < 1.0:
            closed = closed_form(k, nB, params, shifted) / (nH**2 * nM**2)
            if closed > value:
                value, formula = closed, f"{family}:closed-form"
        return StepBound(float(value), formula, params, norms)


def gd_bound(problem: RealInverseProblem) -> StepBound:
    """Exact admissible-step supremum of usual gradient descent."""
    return matrix_bound(problem, MethodSpec(SolverKind.USUAL_GD))
