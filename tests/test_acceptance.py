"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two criteria check instances that the exact scalar theory fixes:

* criterion 2 shows the counterintuitive instance (b = 0.2) at tau = 2.0,
  which lies properly between the exact thresholds
  threshold(gd, k, 0.2) = 1.28 and eta(2, 0.2) = 2.0836173913...: usual GD
  diverges (radius 2.125) and 2-step one-shot converges (radius 0.981392),
  each at least 1e-3 away from 1.  At tau = 2.08, 0.17 % below eta(2, 0.2),
  no method can give that margin (2-step radius 0.999202..., margin
  7.98e-4), so 2.08 is checked for its verdicts only;
* criterion 3 pins kappa3(1, b) = 2 (1+b)^2, the constant given by the
  third unit-circle sign condition p(-1) < 0 of the shifted 1-step error
  matrix, and cross-checks it against the block spectral oracle.
"""
import math
import time

import numpy as np

from oneshot.bounds import gd_bound, matrix_bound
from oneshot.linear_model import (RealInverseProblem, ScalarProblem, exact_adjoint, exact_state,
                                  helmholtz_toy, random_contraction, realify,
                                  spectral_norm, validate)
from oneshot.scalar import (CubicCoeffs, _terms, eta, fk_roots,
                            jury_marden_cubic, jury_marden_general, kappa,
                            kappa3, scalar_iteration_matrix, threshold)
from oneshot.solvers import (MethodSpec, SolverConfig, SolverKind, Status,
                             run_method)
from oneshot.spectral import (build_iteration_matrix, converges,
                              eigenvalue_one_check, spectral_radius, tux)

GOLDEN = (-1.0 + math.sqrt(5.0)) / 2.0
B_GRID = [-0.9, -0.6, -0.3, 0.0, 0.2, 0.3, 0.41, 0.6, 0.9]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")


def test_criterion_01_scalar_exactness():
    start = time.monotonic()
    failures = []
    for b in B_GRID:
        sp = ScalarProblem(b=b, h=1.0, m=1.0)
        for k in range(1, 7):
            for kind, thr in ((SolverKind.K_STEP, eta),
                              (SolverKind.SHIFTED_K_STEP, kappa)):
                t = thr(k, b).value
                lo = spectral_radius(scalar_iteration_matrix(kind, k, sp, 0.99 * t))
                hi = spectral_radius(scalar_iteration_matrix(kind, k, sp, 1.01 * t))
                if not (lo < 1.0 and hi >= 1.0):
                    failures.append((kind.value, k, b, lo, hi))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report("1 (scalar threshold exactness)", ok,
            f"{len(B_GRID) * 6 * 2} cells, {elapsed:.2f} s")
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_02_counterintuitive_instance():
    sp = ScalarProblem(b=0.2, h=1.0, m=1.0)
    p = sp.as_problem()
    sigma_ex = np.array([10.0])
    f = p.H @ exact_state(p, sigma_ex)
    gd_sup = threshold(SolverKind.USUAL_GD, 1, 0.2).value
    eta_sup = eta(2, 0.2).value

    def radii_and_verdicts(tau):
        rho_gd = spectral_radius(
            scalar_iteration_matrix(SolverKind.USUAL_GD, 1, sp, tau))
        rho_2 = spectral_radius(
            scalar_iteration_matrix(SolverKind.K_STEP, 2, sp, tau))
        tr_gd = run_method(MethodSpec(SolverKind.USUAL_GD), p, f,
                           np.array([12.0]), SolverConfig(tau=tau),
                           sigma_exact=sigma_ex)
        tr_2 = run_method(MethodSpec(SolverKind.K_STEP, 2), p, f,
                          np.array([12.0]),
                          SolverConfig(tau=tau, max_outer=30000),
                          sigma_exact=sigma_ex)
        return rho_gd, rho_2, tr_gd.status, tr_2.status

    # showcase: tau = 2.0 (the README's kshot example) lies properly between
    # the usual GD threshold 1.28 and eta(2, 0.2) = 2.08362, so both radii
    # clear the 1e-3 band in which the empirical status means nothing
    tau = 2.0
    rho_gd, rho_2, st_gd, st_2 = radii_and_verdicts(tau)
    between_ok = gd_sup < tau < eta_sup
    verdicts_ok = (rho_gd >= 1.0 and st_gd is Status.DIVERGED
                   and rho_2 < 1.0 and st_2 is Status.CONVERGED)
    margins_ok = (rho_gd - 1.0 >= 1e-3) and (1.0 - rho_2 >= 1e-3)

    # tau = 2.08 is 0.17 % below eta(2, 0.2): its 2-step radius 0.999202...
    # lies inside the band, which is why it is not the showcase; its
    # verdicts still hold
    rho_gd_near, rho_2_near, st_gd_near, st_2_near = radii_and_verdicts(2.08)
    near_ok = (rho_gd_near >= 1.0 and st_gd_near is Status.DIVERGED
               and rho_2_near < 1.0 and st_2_near is Status.CONVERGED
               and 1.0 - rho_2_near < 1e-3)

    ok = between_ok and verdicts_ok and margins_ok and near_ok
    _report("2 (b=0.2, tau=2.0 showcase)", ok,
            f"thresholds gd={gd_sup:.6f} < tau={tau} < eta(2,0.2)={eta_sup:.10f}, "
            f"rho_gd={rho_gd:.6f} (margin {rho_gd - 1.0:.3e}), "
            f"rho_2step={rho_2:.6f} (margin {1.0 - rho_2:.3e}), "
            f"tau=2.08: rho_2step={rho_2_near:.9f} inside the 1e-3 band")
    assert between_ok, (gd_sup, tau, eta_sup)
    assert verdicts_ok, (rho_gd, st_gd, rho_2, st_2)
    assert margins_ok, (
        f"rho_gd - 1 = {rho_gd - 1.0:.6e}, 1 - rho_2step = {1.0 - rho_2:.6e}; "
        "both must be at least 1e-3")
    assert near_ok, (rho_gd_near, st_gd_near, rho_2_near, st_2_near)


def test_criterion_03_closed_form_golden_values():
    checks = []
    for b in np.linspace(-0.99, 0.99, 100):
        checks.append(abs(eta(1, float(b)).value
                          - (1.0 - b)**3 * (1.0 + b)) <= 1e-14)
    eta1_ok = all(checks)
    kappa10_ok = abs(kappa(1, 0.0).value - GOLDEN) <= 1e-12
    root_ok = abs(fk_roots(2)[0] - (math.sqrt(2.0) - 1.0)) <= 1e-10
    limits_ok = all(eta(k, 0.0).value == 2.0 and kappa(k, 0.0).value == 1.0
                    for k in range(2, 7))
    # Shifted 1-step one-shot has the error matrix [[b,1,0],[0,b,1],[-tau,0,1]]
    # with characteristic polynomial p(z) = (z - b)^2 (z - 1) + tau.  The
    # third unit-circle sign condition needs p(-1) = tau - 2 (1 + b)^2 < 0,
    # so the branch constant is 2 (1 + b)^2.
    b_grid = [float(b) for b in np.linspace(-0.9, 0.9, 19)]
    kappa3_dev = max(abs(kappa3(1, _terms(1, b)) - 2.0 * (1.0 + b)**2)
                     for b in b_grid)
    kappa3_ok = kappa3_dev <= 1e-12
    # Independent of oneshot.scalar: the block oracle's radius crosses 1
    # between 0.99 and 1.01 times 2 (1 + b)^2, with a real eigenvalue leaving
    # through -1.  This branch binds for b below about -0.268 (= sqrt(3) - 2);
    # above that a complex pair (kappa21) leaves the unit circle first.
    method = MethodSpec(SolverKind.SHIFTED_K_STEP, 1)
    crossing_fail = []
    for b in (b for b in b_grid if b <= -0.3):
        p = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
        k3 = 2.0 * (1.0 + b)**2
        rho_below = spectral_radius(build_iteration_matrix(p, method, 0.99 * k3).matrix)
        ev_above = np.linalg.eigvals(
            build_iteration_matrix(p, method, 1.01 * k3).matrix)
        lead = ev_above[np.argmax(np.abs(ev_above))]
        if not (rho_below < 1.0 and lead.real < -1.0
                and abs(lead.imag) <= 1e-12):
            crossing_fail.append((b, rho_below, lead))
    crossing_ok = not crossing_fail

    ok = (eta1_ok and kappa10_ok and root_ok and limits_ok and kappa3_ok
          and crossing_ok)
    _report("3 (closed-form golden values)", ok,
            f"eta(1,b) grid: {eta1_ok}, kappa(1,0): {kappa10_ok}, "
            f"f2 root: {root_ok}, k>=2 limits: {limits_ok}, "
            f"kappa3(1,b)=2(1+b)^2: {kappa3_ok} (max dev {kappa3_dev:.1e}), "
            f"block-oracle crossing: {crossing_ok}")
    assert eta1_ok and kappa10_ok and root_ok and limits_ok
    assert kappa3_ok, (
        f"kappa3(1,b) differs from 2(1+b)^2 by up to {kappa3_dev:.3e}")
    assert crossing_ok, crossing_fail


def test_criterion_04_matrix_bound_sufficiency():
    start = time.monotonic()
    norms = [0.1, 0.3, 0.5, 0.7, 0.9]
    failures = []
    total = 0
    for i in range(50):
        n_u = 2 + (i % 7)
        n_s = 1 + (i % min(n_u, 3))
        n_f = n_s + (i % 4)
        problem = random_contraction(n_u, n_s, n_f, norms[i % 5], seed=1000 + i)
        for k in (1, 2, 3, 5):
            for kind in (SolverKind.K_STEP, SolverKind.SHIFTED_K_STEP):
                total += 1
                method = MethodSpec(kind, k)
                bound = matrix_bound(problem, method)
                assert bound.value > 0.0
                _, rho = converges(problem, method, 0.999 * bound.value)
                if rho >= 1.0:
                    failures.append((i, k, kind.value, rho))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report("4 (matrix bound sufficiency)", ok,
            f"{total} cells, {elapsed:.1f} s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_05_gd_bounds():
    failures = []
    for seed in range(15):
        problem = random_contraction(5, 2, 3, 0.05 + 0.06 * seed, seed=seed)
        for kind in (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD):
            bound = matrix_bound(problem, MethodSpec(kind)).value
            _, rho = converges(problem, MethodSpec(kind), 0.999 * bound)
            if rho >= 1.0:
                failures.append(("matrix", seed, kind.value, rho))
    for b in (-0.7, -0.2, 0.0, 0.4, 0.8):
        problem = ScalarProblem(b=b, h=1.0, m=1.0).as_problem()
        for kind in (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD):
            bound = matrix_bound(problem, MethodSpec(kind)).value
            _, rho_lo = converges(problem, MethodSpec(kind), 0.999 * bound)
            _, rho_hi = converges(problem, MethodSpec(kind), 1.01 * bound)
            if not (rho_lo < 1.0 and rho_hi >= 1.0):
                failures.append(("scalar", b, kind.value, rho_lo, rho_hi))
    _report("5 (gradient-descent step bounds)", not failures)
    assert not failures, failures


def test_criterion_06_structural_identities():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(6):
        n = int(rng.integers(2, 9))
        B = rng.standard_normal((n, n))
        H = rng.standard_normal((int(rng.integers(1, 5)), n))
        for k in range(1, 9):
            t = tux(B, H, k)
            Bk = np.linalg.matrix_power(B, k)
            rhs = t.T.T @ (H.T @ H) @ t.T
            resid = np.linalg.norm(t.U @ t.T - t.X @ Bk + t.X - rhs)
            if resid > 1e-10 * max(1.0, np.linalg.norm(rhs)):
                failures.append(("identity", trial, k, resid))
    for trial in range(6):
        n = int(rng.integers(2, 9))
        B = rng.standard_normal((n, n))
        B *= (0.2 + 0.1 * trial) / spectral_norm(B)
        H = rng.standard_normal((2, n))
        b, nh = spectral_norm(B), spectral_norm(H)
        for k in range(1, 9):
            t = tux(B, H, k)
            if spectral_norm(t.T) > (1 - b**k) / (1 - b) + 1e-12:
                failures.append(("T-bound", trial, k))
            xb = nh**2 * (1 - k * b**(k - 1) + (k - 1) * b**k) / (1 - b)**2
            if spectral_norm(t.X) > xb + 1e-12:
                failures.append(("X-bound", trial, k))
    _report("6 (structural identities and norm bounds)", not failures)
    assert not failures, failures


def test_criterion_07_eigenvalue_one_exclusion():
    failures = []
    for seed in range(20):
        problem = random_contraction(4 + seed % 3, 2, 3, 0.1 + 0.04 * seed,
                                     seed=2000 + seed)
        for kind in SolverKind:
            for k in range(1, 5):
                d = eigenvalue_one_check(problem, MethodSpec(kind, k), 0.2)
                if d <= 1e-8:
                    failures.append((seed, kind.value, k, d))
    control = RealInverseProblem(B=0.4 * np.eye(3), M=np.zeros((3, 2)),
                                 H=np.eye(3), F=np.zeros(3))
    d_control = eigenvalue_one_check(control,
                                     MethodSpec(SolverKind.K_STEP, 2), 0.2)
    ok = not failures and d_control < 1e-12
    _report("7 (distance of the spectrum to 1)", ok,
            f"control distance with M=0: {d_control:.2e}")
    assert not failures, failures
    assert d_control < 1e-12


def test_criterion_08_realification():
    rng = np.random.default_rng(31)
    failures = []
    preserved = 0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B *= (0.2 + 0.03 * trial) / spectral_norm(B)
        M = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        H = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        rp = realify(B, M, H, np.zeros(n))
        expected = np.concatenate([np.linalg.eigvals(B),
                                   np.conj(np.linalg.eigvals(B))])
        got = np.linalg.eigvals(rp.B)
        key = lambda z: (round(z.real, 8), round(z.imag, 8))
        if not np.allclose(sorted(expected, key=key), sorted(got, key=key),
                           atol=1e-8):
            failures.append(("spectrum", trial))
        # validate's verdict in complex arithmetic: contraction, and
        # injectivity of H (I - B)^{-1} M over complex sigma
        sv = np.linalg.svd(H @ np.linalg.solve(np.eye(n) - B, M),
                           compute_uv=False)
        if (np.max(np.abs(np.linalg.eigvals(B))) < 1.0 - 1e-8
                and sv[-1] > 1e-10 * sv[0]):
            preserved += 1
            if not validate(rp).is_valid:
                failures.append(("validity", trial))
    _report("8 (realification)", not failures,
            f"{preserved}/20 complex problems valid, all preserved")
    assert not failures, failures


def test_criterion_09_jury_marden_vs_oracle():
    rng = np.random.default_rng(555)
    disagreements = 0
    done = 0
    while done < 1000:
        a0, a1, a2 = rng.uniform(-3.0, 3.0, 3)
        radii = np.abs(np.roots([1.0, a2, a1, a0]))
        if np.all(radii < 1.0 - 1e-8):
            truth = True
        elif np.any(radii > 1.0 + 1e-8):
            truth = False
        else:
            continue
        done += 1
        if jury_marden_cubic(CubicCoeffs(a0, a1, a2)) != truth:
            disagreements += 1
    done_q = 0
    while done_q < 500:
        c = rng.uniform(-3.0, 3.0, 5)
        if c[-1] == 0.0:
            continue
        radii = np.abs(np.roots(c[::-1]))
        if np.all(radii < 1.0 - 1e-8):
            truth = True
        elif np.any(radii > 1.0 + 1e-8):
            truth = False
        else:
            continue
        verdict, _ = jury_marden_general(c)
        if verdict is None:
            continue
        done_q += 1
        if verdict != truth:
            disagreements += 1
    _report("9 (Jury-Marden vs companion oracle)", disagreements == 0,
            "1000 cubics + 500 quartics")
    assert disagreements == 0


def test_criterion_10_solver_matrix_equivalence():
    failures = []
    for seed in range(3):
        problem = random_contraction(6, 2, 3, 0.3 + 0.2 * seed, seed=4000 + seed)
        sigma_ex = np.array([1.0, -1.5])
        u_ex = exact_state(problem, sigma_ex)
        f = problem.H @ u_ex
        p_ex = exact_adjoint(problem, sigma_ex, f)
        sigma0 = np.array([2.0, 0.5])
        rng = np.random.default_rng(seed)
        for k in (1, 2, 3):
            for kind in SolverKind:
                method = MethodSpec(kind, k)
                # a step inside every method's stability region keeps the
                # sequences bounded, making the absolute tolerance meaningful
                tau = 0.5 * matrix_bound(problem, method).value
                cfg = SolverConfig(tau=tau, max_outer=50, tol_cost=1e-300,
                                   tol_grad=1e-300)
                if kind in (SolverKind.USUAL_GD, SolverKind.SHIFTED_GD):
                    u0 = p0 = None
                    err = np.concatenate([exact_adjoint(problem, sigma0, f) - p_ex,
                                          exact_state(problem, sigma0) - u_ex,
                                          sigma0 - sigma_ex])
                else:
                    u0 = rng.standard_normal(6)
                    p0 = rng.standard_normal(6)
                    err = np.concatenate([p0 - p_ex, u0 - u_ex,
                                          sigma0 - sigma_ex])
                tr = run_method(method, problem, f, sigma0, cfg, u0=u0, p0=p0,
                                sigma_exact=sigma_ex)
                mat = build_iteration_matrix(problem, method, tau).matrix
                for n in range(len(tr)):
                    dev = np.linalg.norm((tr.sigma[n] - sigma_ex) - err[12:])
                    if dev > 1e-10:
                        failures.append((seed, kind.value, k, n, dev))
                        break
                    err = mat @ err
    _report("10 (solver vs matrix-power error sequences)", not failures)
    assert not failures, failures


def test_criterion_11_helmholtz_protocol():
    problem = helmholtz_toy(16, 2.0 * math.pi, 0.01, seed=3)
    assert validate(problem).is_valid
    sigma_ex = np.full(problem.n_sigma, 10.0)
    sigma0 = np.full(problem.n_sigma, 12.0)
    f = problem.H @ exact_state(problem, sigma_ex)
    gd_sup = gd_bound(problem).value

    mismatches = []
    banded = 0
    cases = [(SolverKind.USUAL_GD, 1), (SolverKind.SHIFTED_GD, 1),
             (SolverKind.K_STEP, 1), (SolverKind.K_STEP, 2),
             (SolverKind.SHIFTED_K_STEP, 1), (SolverKind.SHIFTED_K_STEP, 2)]
    for kind, k in cases:
        for frac in (0.3, 0.7, 1.05):
            tau = frac * gd_sup
            method = MethodSpec(kind, k)
            _, rho = converges(problem, method, tau)
            if abs(rho - 1.0) < 1e-3:
                banded += 1
                continue
            u0 = exact_state(problem, sigma0)
            p0 = exact_adjoint(problem, sigma0, f)
            tr = run_method(method, problem, f, sigma0,
                            SolverConfig(tau=tau, max_outer=3000),
                            u0=u0, p0=p0, sigma_exact=sigma_ex)
            empirical = tr.status is Status.CONVERGED
            if empirical != (rho < 1.0):
                mismatches.append((kind.value, k, frac, rho, tr.status.value))

    # k-step traces approach the exact-solve reference as k grows
    tau = 0.5 * gd_sup
    cfg = SolverConfig(tau=tau, max_outer=40, tol_cost=1e-300, tol_grad=1e-300)
    tr_gd = run_method(MethodSpec(SolverKind.USUAL_GD), problem, f, sigma0,
                       cfg, sigma_exact=sigma_ex)
    u0 = exact_state(problem, sigma0)
    p0 = exact_adjoint(problem, sigma0, f)
    tr_50 = run_method(MethodSpec(SolverKind.K_STEP, 50), problem, f, sigma0,
                       cfg, u0=u0, p0=p0, sigma_exact=sigma_ex)
    deviation = max(float(np.linalg.norm(a - b))
                    for a, b in zip(tr_gd.sigma, tr_50.sigma))
    ok = not mismatches and deviation < 1e-4
    _report("11 (Helmholtz toy protocol)", ok,
            f"banded cells: {banded}, k=50 trace deviation: {deviation:.2e}")
    assert not mismatches, mismatches
    assert deviation < 1e-4
