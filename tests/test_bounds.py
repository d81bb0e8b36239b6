"""Tests for the descent-step bounds (exact GD bounds, chi/psi, resolvent)."""
import math

import mpmath as mp
import numpy as np
import pytest

from oneshot.bounds import (BoundParams, _case_terms, closed_form, default_params,
                            gd_bound, matrix_bound)
from oneshot import scalar
from oneshot.linear_model import (RealInverseProblem, ScalarProblem,
                                  random_contraction, spectral_norm,
                                  spectral_radius)
from oneshot.solvers import MethodSpec, SolverKind
from oneshot.spectral import converges

GOLDEN = (-1.0 + math.sqrt(5.0)) / 2.0

# frozen after an independent re-derivation of every chi_i closed form
# (see test_chi_k1_golden_value)
CHI_K1_HALF = 0.0021296358569332357


class TestGDBounds:
    def test_scalar_unit_values(self):
        p = ScalarProblem(b=0.0, h=1.0, m=1.0).as_problem()
        assert abs(gd_bound(p).value - 2.0) < 1e-14
        assert abs(matrix_bound(p, MethodSpec(SolverKind.SHIFTED_GD)).value - 1.0) < 1e-14

    def test_scalar_closed_form(self):
        for b, h, m in ((0.3, 2.0, 0.5), (-0.6, 1.0, 3.0)):
            p = ScalarProblem(b=b, h=h, m=m).as_problem()
            assert abs(gd_bound(p).value - 2.0 * (1 - b)**2 / (h * m)**2) < 1e-12
            assert abs(matrix_bound(p, MethodSpec(SolverKind.SHIFTED_GD)).value - (1 - b)**2 / (h * m)**2) < 1e-12

    def test_sufficiency_and_scalar_exactness(self):
        for seed in range(20):
            p = random_contraction(5, 2, 3, 0.1 + 0.04 * seed, seed=seed)
            for kind in (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD):
                bound = matrix_bound(p, MethodSpec(kind)).value
                ok, rho = converges(p, MethodSpec(kind), 0.999 * bound)
                assert ok, f"seed {seed}: rho={rho}"
        # on scalar problems the GD bounds are exact thresholds
        for b in (-0.7, 0.0, 0.5):
            p = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
            for kind in (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD):
                bound = matrix_bound(p, MethodSpec(kind)).value
                _, rho_hi = converges(p, MethodSpec(kind), 1.01 * bound)
                assert rho_hi >= 1.0


class TestChiPsiK1:
    def test_chi_k1_golden_value(self):
        # independent re-derivation at b = 1/2 with default parameters
        th, d0 = math.pi / 6.0, 1.0
        b = 0.5
        cands = [
            2.0 * (1 - b)**2,
            (1 - b)**4 / (4 * b * b),
            2.0 * math.sin(th / 2) * (1 - b)**2 / (1 + b)**2,
            d0 * math.cos(2.5 * th)**2
            / (2 * (1 + 2 * d0 * math.sin(2.5 * th) + d0**2)) * (1 - b)**4 / b**2,
            (math.sin(math.pi / 2 - 3 * th) + math.cos(2 * th)) * (1 - b)**2,
        ]
        assert abs(closed_form(1, 0.5, None, shifted=True) - min(cands)) < 1e-12
        assert abs(closed_form(1, 0.5, None, shifted=True) - CHI_K1_HALF) < 1e-12

    def test_practical_bound_relations(self):
        # on (0,1): chi2 <= chi0 and chi3 <= chi1 at the default parameters
        th, d0 = math.pi / 6.0, 1.0
        for b in np.linspace(0.01, 0.99, 50):
            chi0 = 2.0 * (1 - b)**2
            chi1 = (1 - b)**4 / (4 * b * b)
            chi2 = 2.0 * math.sin(th / 2) * (1 - b)**2 / (1 + b)**2
            chi3 = (d0 * math.cos(2.5 * th)**2
                    / (2 * (1 + 2 * d0 * math.sin(2.5 * th) + d0**2))
                    * (1 - b)**4 / b**2)
            assert chi2 <= chi0 + 1e-15
            assert chi3 <= chi1 + 1e-15
        # the simplified practical value never exceeds the case bounds it
        # stands in for, so it is sufficient as well
        for b in (0.2, 0.5, 0.8):
            practical = min(0.5 * ((1 - b) / (1 + b))**2,
                            (1 - math.sin(5 * math.pi / 12)) / 4
                            * (1 - b)**4 / b**2)
            p = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
            ok, _ = converges(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 1),
                              0.999 * practical)
            assert ok

    def test_practical_bound_non_shifted(self):
        for b in (0.2, 0.5, 0.8):
            practical = min(2 * math.sin(math.pi / 8) * ((1 - b) / (1 + b))**2,
                            (1 - math.sin(3 * math.pi / 8)) / 4
                            * (1 - b)**4 / b**2)
            p = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
            ok, _ = converges(p, MethodSpec(SolverKind.K_STEP, 1),
                              0.999 * practical)
            assert ok

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            closed_form(1, 0.0, None, shifted=True)
        with pytest.raises(ValueError):
            closed_form(1, 1.0, None, shifted=True)
        with pytest.raises(ValueError):
            closed_form(1, -0.2, None, shifted=False)
        with pytest.raises(ValueError):
            closed_form(1, 0.5, BoundParams(theta0=math.pi / 3), shifted=True)
        with pytest.raises(ValueError):
            closed_form(0, 0.5, None, shifted=False)


class TestChiPsiK:
    def test_gd_values_at_zero_contraction(self):
        for k in range(2, 7):
            assert closed_form(k, 0.0, None, shifted=True) == 1.0
            assert closed_form(k, 0.0, None, shifted=False) == 2.0

    def test_large_k_stabilizes(self):
        for b in (0.3, 0.6):
            chis = [closed_form(k, b, None, shifted=True) for k in range(2, 51)]
            psis = [closed_form(k, b, None, shifted=False) for k in range(2, 51)]
            assert all(v > 0 for v in chis + psis)
            assert abs(chis[-1] - chis[-2]) < 1e-6
            assert abs(psis[-1] - psis[-2]) < 1e-6

    def test_sufficiency_sweep_on_scalar_problems(self):
        # 20 x 20 grid of (k, b) cells, both families
        ks = range(2, 22)
        bs = np.linspace(0.04, 0.92, 20)
        for k in ks:
            for b in bs:
                p = ScalarProblem(b=float(b), h=1.0, m=1.0).as_problem()
                tau_s = 0.999 * closed_form(k, float(b), None, shifted=True)
                ok, rho = converges(p, MethodSpec(SolverKind.SHIFTED_K_STEP, k), tau_s)
                assert ok, f"chi k={k} b={b} rho={rho}"
                tau_n = 0.999 * closed_form(k, float(b), None, shifted=False)
                ok, rho = converges(p, MethodSpec(SolverKind.K_STEP, k), tau_n)
                assert ok, f"psi k={k} b={b} rho={rho}"

    def test_independent_rederivation_of_multi_step_forms(self):
        # second, separately typed evaluation of every candidate in the
        # k >= 2 minima; a transcription slip in either copy would show up
        def chi_indep(k, b, th, d0):
            bk = b**k
            g = 1 - k * b**(k - 1) + (k - 1) * bk
            fr = (1 - b)**2 * (1 - bk)**2
            c = (1 + 2 * d0 * math.sin(2.5 * th) + d0**2) / math.cos(2.5 * th)**2
            sc = math.sqrt(c)
            real = 2 * fr / ((1 - bk)**2 + 2 * g)
            c1 = fr / (4 * b**(2 * k) + math.sqrt(2) * g * (1 + bk)**2)
            c2 = fr / (((1 - bk)**2 / (2 * math.sin(th / 2))
                        + math.sqrt(2) * g) * (1 + bk)**2)
            c3 = fr / ((2 * c * math.sin(th / 2) / d0) * b**(2 * k)
                       + g * ((sc / d0) * (1 + b**(2 * k))
                              + 2 * max(sc / d0, sc / math.cos(3 * th)) * bk))
            c4 = ((math.sin(math.pi / 2 - 3 * th) + math.cos(2 * th)) * fr
                  / ((1 - bk)**2 + 2 * g * (1 + bk)**2))
            return min(real, c1, c2, c3, c4)

        def psi_indep(k, b, th, d0):
            bk = b**k
            g = 1 - k * b**(k - 1) + (k - 1) * bk
            fr = (1 - b)**2 * (1 - bk)**2
            c = (1 + 2 * d0 * math.sin(1.5 * th) + d0**2) / math.cos(1.5 * th)**2
            sc = math.sqrt(c)
            real = fr / g
            c1 = fr / (4 * b**(2 * k) + math.sqrt(2) * g * (1 + bk)**2)
            c2 = fr / (((1 - bk)**2 / (2 * math.sin(th / 2))
                        + math.sqrt(2) * g) * (1 + bk)**2)
            c3 = fr / ((2 * c * math.sin(th / 2) / d0) * b**(2 * k)
                       + g * ((sc / d0) * (1 + b**(2 * k))
                              + 2 * max(sc / d0, sc / math.cos(2 * th)) * bk))
            return min(real, c1, c2, c3)

        for k in (2, 3, 5, 8):
            for b in (0.1, 0.35, 0.6, 0.85):
                ps = default_params(True, k)
                assert abs(closed_form(k, b, ps, shifted=True)
                           - chi_indep(k, b, ps.theta0, ps.delta0)) < 1e-14
                pn = default_params(False, k)
                assert abs(closed_form(k, b, pn, shifted=False)
                           - psi_indep(k, b, pn.theta0, pn.delta0)) < 1e-14

    @pytest.mark.parametrize("shifted", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_near_one_against_its_formula_at_ninety_digits(self, k, shifted):
        # the expanded polynomials cancel as b -> 1: closed_form read 0, "no
        # guarantee", on 202 of these 344 cases and rose above its formula
        # on 12; from the sums of scalar._terms it is within 3.8e-16 of its
        # formula, with the same float case constants, at 90 digits
        p = default_params(shifted, k)
        c = {name: mp.mpf(x) for name, x in vars(_case_terms(p, shifted)).items()}
        for j in range(10, 53):
            with mp.workdps(90):
                b = mp.mpf(1.0 - 2.0**-j)
                bk, b2k = b**k, b**(2 * k)
                geom = 1 - k * b**(k - 1) + (k - 1) * bk
                front, bkm2 = (1 - b)**2 * (1 - bk)**2, (1 - bk)**2
                cases = [front / (4 * b2k + mp.sqrt(2) * geom * (1 + bk)**2),
                         front / ((bkm2 / (2 * c["sin_half"]) + mp.sqrt(2) * geom)
                                  * (1 + bk)**2),
                         front / (2 * c["cd"] * c["sin_half"] * b2k
                                  + geom * (c["sq"] * (1 + b2k) + 2 * max(
                                      c["sq"], c["sc"] / c["cos_cap"]) * bk))]
                cases += ([2 * front / (bkm2 + 2 * geom),
                           c["angle"] * front / (bkm2 + 2 * geom * (1 + bk)**2)]
                          if shifted else [front / geom])
                ref = min(cases)
                assert abs(closed_form(k, float(b), p, shifted) - ref) <= 5e-16 * ref, j

    def test_strict_theta_for_k_ge_2(self):
        with pytest.raises(ValueError):
            closed_form(3, 0.5, BoundParams(theta0=math.pi / 6), shifted=True)
        with pytest.raises(ValueError):
            closed_form(3, 0.5, BoundParams(theta0=math.pi / 4), shifted=False)
        assert default_params(True, 3).theta0 < math.pi / 6
        assert default_params(False, 3).theta0 < math.pi / 4


class TestMatrixBound:
    def test_zero_b_one_step_constants(self):
        rng = np.random.default_rng(0)
        p = RealInverseProblem(B=np.zeros((3, 3)),
                               M=rng.standard_normal((3, 2)),
                               H=rng.standard_normal((2, 3)),
                               F=np.zeros(3))
        hm2 = spectral_norm(p.H)**2 * spectral_norm(p.M)**2
        sb = matrix_bound(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 1))
        assert abs(sb.value - GOLDEN / hm2) < 1e-12
        nb = matrix_bound(p, MethodSpec(SolverKind.K_STEP, 1))
        assert abs(nb.value - 1.0 / hm2) < 1e-12

    def test_zero_b_multi_step_is_gd(self):
        rng = np.random.default_rng(1)
        p = RealInverseProblem(B=np.zeros((3, 3)),
                               M=rng.standard_normal((3, 2)),
                               H=rng.standard_normal((2, 3)),
                               F=np.zeros(3))
        g2 = spectral_norm(p.H @ p.M)**2
        sb = matrix_bound(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 3))
        assert abs(sb.value - 1.0 / g2) < 1e-12
        nb = matrix_bound(p, MethodSpec(SolverKind.K_STEP, 3))
        assert abs(nb.value - 2.0 / g2) < 1e-12

    def test_norm_above_one_still_bounded(self):
        # rho(B) < 1 but ||B|| > 1: only the resolvent route applies
        rng = np.random.default_rng(11)
        D = np.diag([0.8, -0.5, 0.3])
        V = rng.standard_normal((3, 3)) * 3.0
        B = V @ D @ np.linalg.inv(V)
        B *= 0.8 / spectral_radius(B)
        assert spectral_norm(B) > 1.0
        p = RealInverseProblem(B=B, M=rng.standard_normal((3, 2)),
                               H=rng.standard_normal((2, 3)), F=np.zeros(3))
        for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
            sb = matrix_bound(p, MethodSpec(kind, 2))
            assert np.isfinite(sb.value) and sb.value > 0
            assert sb.formula_id.endswith("resolvent")
            ok, rho = converges(p, MethodSpec(kind, 2), 0.999 * sb.value)
            assert ok, rho

    def test_sufficiency_ensemble(self):
        norms = [0.1, 0.3, 0.5, 0.7, 0.9]
        seen = set()
        for i in range(10):
            n_u = 3 + (i % 5)
            p = random_contraction(n_u, 2, 3, norms[i % 5], seed=500 + i)
            for k in (1, 2, 3):
                for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
                    sb = matrix_bound(p, MethodSpec(kind, k))
                    assert sb.value > 0.0
                    seen.add(sb.formula_id.split(":")[1])
                    ok, rho = converges(p, MethodSpec(kind, k), 0.999 * sb.value)
                    assert ok, (i, k, kind, rho)
        # both routes must stay reachable: the sharper of the two wins per cell
        assert {"resolvent", "closed-form"} <= seen

    def test_non_default_params_stay_sufficient(self):
        import math as _m
        p = random_contraction(5, 2, 3, 0.6, seed=66)
        grids = [BoundParams(theta0=0.2, delta0=0.5),
                 BoundParams(theta0=0.45, delta0=2.0)]
        for params in grids:
            for k in (1, 2, 3):
                for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
                    sb = matrix_bound(p, MethodSpec(kind, k), params)
                    ok, rho = converges(p, MethodSpec(kind, k), 0.999 * sb.value)
                    assert ok, (params, k, kind, rho)

    def test_gd_kinds_forwarded(self):
        p = random_contraction(4, 2, 2, 0.5, seed=3)
        assert matrix_bound(p, MethodSpec(SolverKind.USUAL_GD)).formula_id == "usual-gd"

    def test_norm_inputs_reported(self):
        p = random_contraction(4, 2, 2, 0.5, seed=4)
        sb = matrix_bound(p, MethodSpec(SolverKind.SHIFTED_K_STEP, 2))
        for key in ("norm_B", "norm_H", "norm_M", "s_Bk", "norm_Tk", "norm_Xk"):
            assert key in sb.norm_inputs

    @pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_B_is_the_exact_scalar_threshold_at_b_zero(self, kind, k):
        p = RealInverseProblem(B=[[0.0]], M=[[1.0]], H=[[1.0]], F=[0.0])
        sb = matrix_bound(p, MethodSpec(kind, k))
        assert sb.formula_id.endswith("zero-B" if k == 1 else "zero-B-gd-limit")
        assert sb.value == scalar.threshold(kind, k, 0.0).value

    @pytest.mark.parametrize("kind", list(SolverKind))
    @pytest.mark.parametrize("k", [1, 2])
    def test_squared_norms_that_underflow_leave_no_bound(self, kind, k):
        # valid (singular values 2e-320), but ||H||^2 ||M||^2 and the squared
        # data map norm are 0: a ValueError, where a ZeroDivisionError was
        p = RealInverseProblem(B=[[0.5]], M=[[1e-160]], H=[[1e-160]], F=[0.0])
        with pytest.raises(ValueError, match="out of the float range"):
            matrix_bound(p, MethodSpec(kind, k))

    @pytest.mark.parametrize("k", [10**15, 10**20])
    def test_a_k_too_large_to_allocate_is_a_memory_error(self, k):
        p = RealInverseProblem(B=[[0.5]], M=[[1.0]], H=[[1.0]], F=[0.0])
        with pytest.raises(MemoryError, match=f"k = {k} is too large"):
            matrix_bound(p, MethodSpec(SolverKind.K_STEP, k))

    def test_rejects_non_contractive_spectrum(self):
        p = RealInverseProblem(B=[[1.5]], M=[[1.0]], H=[[1.0]], F=[0.0])
        with pytest.raises(ValueError):
            matrix_bound(p, MethodSpec(SolverKind.K_STEP, 1))


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(theta0=0.5, delta0=0.0)
    with pytest.raises(ValueError):
        BoundParams(theta0=-0.1)


@pytest.mark.parametrize("settings", [
    {"theta0": float("nan")},
    {"theta0": float("inf")},
    {"theta0": 0.5, "delta0": float("nan")},
    {"theta0": 0.5, "delta0": float("inf")},
    {"theta0": 0.5, "delta0": -2.0},
    {"theta0": 0.5, "delta0": 1e308},       # finite, but its square is not
])
def test_bound_params_rejects_non_finite_values(settings):
    with pytest.raises(ValueError):
        BoundParams(**settings)


def test_large_delta0_gives_a_finite_bound():
    p = random_contraction(5, 2, 3, 0.5, seed=3)
    for k in (1, 2):
        params = BoundParams(theta0=0.45, delta0=1e150)
        sb = matrix_bound(p, MethodSpec(SolverKind.SHIFTED_K_STEP, k), params)
        assert math.isfinite(sb.value) and sb.value > 0.0


@pytest.mark.parametrize("kind", [SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta0_near_the_top_of_its_range_scales_the_bound(kind, k):
    # the delta0 case bounds fall like 1 / delta0 for large delta0; once
    # (1 + 2 delta0 sin + delta0^2) overflowed there and the bound read 0
    p = random_contraction(8, 3, 4, 0.5, seed=1)
    shifted = kind is SolverKind.SHIFTED_K_STEP
    theta0 = default_params(shifted, k).theta0
    big, top = (matrix_bound(p, MethodSpec(kind, k),
                             BoundParams(theta0=theta0, delta0=d0)).value
                for d0 in (1e150, 1e154))
    assert math.isfinite(top) and top > 0.0
    assert top / big == pytest.approx(1e-4, rel=1e-6)
    big, top = (closed_form(k, 0.5, BoundParams(theta0=theta0, delta0=d0),
                            shifted) for d0 in (1e150, 1e154))
    assert top > 0.0 and top / big == pytest.approx(1e-4, rel=1e-6)
