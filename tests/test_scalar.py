"""Tests for the exact scalar thresholds and the Jury-Marden criterion."""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from oneshot import scalar
from oneshot.linear_model import ScalarProblem
from oneshot.scalar import (CubicCoeffs, _terms, eta, eta3, eta21,
                            eta22, fk, fk_roots, jury_marden_cubic,
                            jury_marden_general, kappa, kappa3, kappa11,
                            kappa21, kappa22, scalar_iteration_matrix,
                            threshold)
from oneshot.solvers import MethodSpec, SolverKind
from oneshot.spectral import build_iteration_matrix, spectral_radius

GOLDEN = (-1.0 + math.sqrt(5.0)) / 2.0


def _kappa21_direct(k, b):
    """kappa21 as the direct quotient of the root formulas: the reference
    for the library's conjugate-denominator rewrite, accurate only while
    v_k is not tiny."""
    t = _terms(k, b)
    s, y, v = t.bk, t.y, t.v
    disc = math.sqrt((-4.0*s + 5.0)*v*v + y*y + 2.0*(-2.0*s*s + 2.0*s + 1.0)*v*y)
    return ((2.0*s*s - 2.0*s - 1.0)*v - y + disc) / (2.0*v*v)


class TestJuryMardenCubic:
    def test_triple_zero_root(self):
        assert jury_marden_cubic(CubicCoeffs(0.0, 0.0, 0.0))

    def test_root_outside(self):
        # z^3 - 2 z^2 has the root 2
        assert not jury_marden_cubic(CubicCoeffs(0.0, 0.0, -2.0))

    def test_thousand_random_cubics_vs_companion_oracle(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            a0, a1, a2 = rng.uniform(-3.0, 3.0, 3)
            radii = np.abs(np.roots([1.0, a2, a1, a0]))
            if np.all(radii < 1.0 - 1e-8):
                truth = True
            elif np.any(radii > 1.0 + 1e-8):
                truth = False
            else:
                continue  # too close to the circle to classify
            checked += 1
            assert jury_marden_cubic(CubicCoeffs(a0, a1, a2)) == truth

    def test_agrees_with_radius_of_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            A = rng.uniform(-1.0, 1.0, (3, 3))
            rho = np.max(np.abs(np.linalg.eigvals(A)))
            if abs(rho - 1.0) < 1e-8:
                continue
            coeffs = np.poly(A)  # monic: [1, c2, c1, c0]
            got = jury_marden_cubic(CubicCoeffs(coeffs[3], coeffs[2], coeffs[1]))
            assert got == (rho < 1.0)


class TestJuryMardenGeneral:
    def test_degree_one(self):
        verdict, _ = jury_marden_general([0.5, 1.0])
        assert verdict is True
        verdict, _ = jury_marden_general([2.0, 1.0])
        assert verdict is False

    def test_z_to_the_fourth(self):
        verdict, table = jury_marden_general([0.0, 0.0, 0.0, 0.0, 1.0])
        assert verdict is True
        assert len(table.leading_entries) == 4

    def test_degree_three_matches_cubic(self):
        rng = np.random.default_rng(7)
        agree = 0
        while agree < 1000:
            a0, a1, a2 = rng.uniform(-3.0, 3.0, 3)
            verdict, _ = jury_marden_general([a0, a1, a2, 1.0])
            if verdict is None:
                continue
            assert verdict == jury_marden_cubic(CubicCoeffs(a0, a1, a2))
            agree += 1

    def test_zero_pivot_is_indeterminate(self):
        # a0 = a_n makes the first leading entry vanish
        verdict, table = jury_marden_general([1.0, 0.3, 1.0])
        assert verdict is None
        assert table.leading_entries[0] == 0.0

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            jury_marden_general([1.0, 2.0, 0.0])


class TestFkRoots:
    def test_k1_empty(self):
        assert fk_roots(1) == []
        for b in np.linspace(-0.99, 0.99, 21):
            assert fk(1, b) <= 0.0

    def test_fk_is_a_polynomial_beyond_the_threshold_range(self):
        # f_k(1) = 0 and f_k(-1) = 4k (-1)^k; fk reads f_k / (1 - b)^2 from
        # the table the thresholds share, which divides by no 1 -+ b, so
        # without an error or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, 6):
                assert fk(k, 1.0) == 0.0
                assert fk(k, np.array([1.0, -1.0])).tolist() == [0.0, 4.0*k*(-1)**k]

    def test_k2_closed_form(self):
        roots = fk_roots(2)
        assert len(roots) == 1
        assert abs(roots[0] - (math.sqrt(2.0) - 1.0)) < 1e-10

    def test_k3_matches_companion_oracle(self):
        b1, b2 = fk_roots(3)
        # f_3(b) = 1 - 6 b^2 + 6 b^3 - b^6 as explicit coefficients
        coeffs = [-1.0, 0.0, 0.0, 6.0, -6.0, 0.0, 1.0]  # degree 6 .. 0
        cands = np.roots(coeffs)
        real = sorted(r.real for r in cands
                      if abs(r.imag) < 1e-10 and -1 < r.real < 1)
        assert len(real) == 2
        assert abs(b1 - real[0]) < 1e-10
        assert abs(b2 - real[1]) < 1e-10

    def test_root_trends(self):
        # outer roots creep toward the ends of the interval as k grows
        prev_b1, prev_b2, prev_b3 = 0.0, 0.0, 0.0
        for k in range(2, 31):
            roots = fk_roots(k)
            if k % 2 == 0:
                (b3,) = roots
                assert 0.0 < b3 < 1.0
                assert b3 > prev_b3
                prev_b3 = b3
            else:
                b1, b2 = roots
                assert -1.0 < b1 < 0.0 < b2 < 1.0
                if prev_b1:
                    assert b1 < prev_b1 and b2 > prev_b2
                prev_b1, prev_b2 = b1, b2


class TestEta:
    def test_closed_form_k1(self):
        for b in np.linspace(-0.99, 0.99, 100):
            assert abs(eta(1, float(b)).value
                       - (1.0 - b)**3 * (1.0 + b)) < 1e-14

    def test_eta_1_0(self):
        assert eta(1, 0.0).value == 1.0

    def test_gd_value_at_zero(self):
        for k in range(2, 7):
            t = eta(k, 0.0)
            assert t.value == 2.0

    def test_showcase_threshold_value(self):
        t = eta(2, 0.2)
        assert t.value > 2.08
        assert abs(t.value - 2.0836173913043483) < 1e-12
        # cross-check against a bisection oracle on the spectral radius
        sp = ScalarProblem(b=0.2, h=1.0, m=1.0)
        lo, hi = 1e-6, 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            rho = spectral_radius(
                scalar_iteration_matrix(SolverKind.K_STEP, 2, sp, mid))
            if rho < 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - t.value) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            eta(1, 1.0)
        with pytest.raises(ValueError):
            eta(0, 0.5)


class TestKappa:
    def test_golden_ratio_value(self):
        t = kappa(1, 0.0)
        assert abs(t.value - GOLDEN) < 1e-12
        assert t.branch == "kappa21"

    def test_gd_value_at_zero(self):
        for k in range(2, 7):
            assert kappa(k, 0.0).value == 1.0

    def test_k1_branch_values(self):
        b = 0.4
        assert abs(kappa11(1, _terms(1, b)) - (1.0 + b * b)) < 1e-14
        assert abs(kappa21(1, _terms(1, b))
                   - (2*b*b - 2*b - 1 + math.sqrt(5.0 - 4.0*b)) / 2.0) < 1e-13
        assert abs(kappa22(1, _terms(1, b))
                   - (2*b*b + 2*b + 1
                      + math.sqrt(8*b*b + 12*b + 5)) / 2.0) < 1e-13

    def test_kappa3_carries_one_plus_bk(self):
        # the third sign condition expands with -2 (1 + b^k)^2, so at k = 1
        # the branch value is 2 (1 + b)^2; the spectral oracle confirms it
        # is the binding branch for strongly negative b
        assert abs(kappa3(1, _terms(1, -0.9)) - 2.0 * (1.0 + (-0.9))**2) < 1e-14
        t = kappa(1, -0.9)
        assert t.branch == "kappa3"
        assert abs(t.value - 0.02) < 1e-14
        sp = ScalarProblem(b=-0.9, h=1.0, m=1.0)
        rho_lo = spectral_radius(
            scalar_iteration_matrix(SolverKind.SHIFTED_K_STEP, 1, sp, 0.99 * t.value))
        rho_hi = spectral_radius(
            scalar_iteration_matrix(SolverKind.SHIFTED_K_STEP, 1, sp, 1.01 * t.value))
        assert rho_lo < 1.0 <= rho_hi

    def test_kappa21_limit(self):
        assert abs(kappa21(60, _terms(60, 0.5)) - 0.25) < 1e-12
        vals = [kappa21(k, _terms(k, 0.5)) for k in range(2, 61)]
        assert abs(vals[-1] - (1.0 - 0.5)**2) < 1e-10

    def test_kappa21_naive_cross_check(self):
        # the direct quotient form cancels catastrophically once v_k is
        # tiny, so compare only where |b|^(k-1) keeps it well conditioned
        for k in range(2, 21):
            for b in [x / 10.0 for x in range(-9, 10) if x != 0]:
                if abs(b)**(k - 1) < 1e-3:
                    continue
                stable = kappa21(k, _terms(k, b))
                naive = _kappa21_direct(k, b)
                assert abs(stable - naive) < 1e-9 * max(1.0, abs(stable))


class TestThresholdExactness:
    def test_radius_flips_across_threshold(self):
        bs = [-0.9, -0.6, -0.3, 0.0, 0.2, 0.3, 0.41, 0.6, 0.9]
        for b in bs:
            sp = ScalarProblem(b=b, h=1.0, m=1.0)
            for k in range(1, 7):
                for kind, thr in ((SolverKind.K_STEP, eta),
                                  (SolverKind.SHIFTED_K_STEP, kappa)):
                    t = thr(k, b).value
                    lo = spectral_radius(
                        scalar_iteration_matrix(kind, k, sp, 0.99 * t))
                    hi = spectral_radius(
                        scalar_iteration_matrix(kind, k, sp, 1.01 * t))
                    assert lo < 1.0, (kind, k, b, lo)
                    assert hi >= 1.0, (kind, k, b, hi)

    def test_threshold_continuous_across_branch_root(self):
        # at the sign-change point of f_k the eta3 candidate blows up and
        # drops out of the min, so the threshold itself stays continuous
        (b3,) = fk_roots(2)
        below = eta(2, b3 - 1e-9).value
        above = eta(2, b3 + 1e-9).value
        assert abs(below - above) < 1e-6
        kb = kappa(2, b3 - 1e-9).value
        ka = kappa(2, b3 + 1e-9).value
        assert abs(kb - ka) < 1e-6

    def test_gd_limits_at_large_k(self):
        for b in np.linspace(-0.8, 0.8, 9):
            b = float(b)
            gd = threshold(SolverKind.USUAL_GD, 0, b).value
            sgd = threshold(SolverKind.SHIFTED_GD, 0, b).value
            assert abs(eta(60, b).value - gd) < 1e-3 * gd
            assert abs(kappa(60, b).value - sgd) < 1e-3 * sgd


def _radius_crosses_one(kind, k, b, value):
    sp = ScalarProblem(b=b, h=1.0, m=1.0)
    lo = spectral_radius(scalar_iteration_matrix(kind, k, sp, 0.99 * value))
    hi = spectral_radius(scalar_iteration_matrix(kind, k, sp, 1.01 * value))
    return lo < 1.0 < hi


class TestKappaNearZero:
    """kappa for k >= 6 near b = 0, where v_k = t_k^2 - y_k is tiny.

    Forming v_k as a difference cancels there: on the 20001-point grid of
    ``scalar-region --b-count 20001`` it came out zero at b = -1.9e-4
    (k = 6), -9.5e-4 (k = 7) and -4.56e-3 (k = 8), and kappa22 divided by
    it.  The factored form keeps it accurate.
    """

    FINE = np.linspace(-0.95, 0.95, 20001)
    DEFAULT = np.linspace(-0.95, 0.95, 39)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_fine_grid_rows_finite_and_positive(self, k):
        vals = np.array([kappa(k, float(b)).value for b in self.FINE])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_k30_default_grid_finite_and_positive(self):
        vals = np.array([kappa(30, float(b)).value for b in self.DEFAULT])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    @pytest.mark.parametrize("k,b", [
        (6, float(FINE[9998])), (7, float(FINE[9990])), (8, float(FINE[9952])),
        (30, float(DEFAULT[15])), (30, float(DEFAULT[22])),
        (30, float(DEFAULT[24]))])
    def test_radius_crosses_one_at_former_crash_points(self, k, b):
        value = kappa(k, b).value
        assert _radius_crosses_one(SolverKind.SHIFTED_K_STEP, k, b, value)

    def test_kappa22_is_infinite_when_v_vanishes(self):
        # b^(k-1) underflows, so v_k is exactly zero: the limit is +inf
        assert kappa22(200, _terms(200, 1e-5)) == math.inf

    @pytest.mark.parametrize("k,b", [(60, 1e-8), (100, -1e-5), (200, -0.0228),
                                     (200, 0.02)])
    def test_underflowing_branches_drop_out(self, k, b):
        # eta21/eta22 and kappa11/kappa12 divide by b^(k-1); where it
        # underflows they tend to +inf and the other branches decide
        for kind, thr in ((SolverKind.K_STEP, eta),
                          (SolverKind.SHIFTED_K_STEP, kappa)):
            value = thr(k, b).value
            assert math.isfinite(value) and value > 0.0
            assert _radius_crosses_one(kind, k, b, value)

    @pytest.mark.parametrize("k", [20, 40, 60])
    def test_an_overflowing_branch_is_silent(self, k):
        # where a branch overflows there, its +inf loses the minimum silently
        bs = np.logspace(-17, -8, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in np.concatenate([bs, -bs]).tolist():
                for thr in (eta, kappa):
                    value = thr(k, b).value
                    assert math.isfinite(value) and value > 0.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestArrayThresholds:
    """eta, kappa and threshold over an array of b, one call per (kind, k).

    Each b of an array must get the value and branch it gets alone, bit for
    bit, whatever other b share the array.
    """

    GRID = np.linspace(-0.95, 0.95, 20001)   # scalar-region --b-count 20001
    EVERY = slice(None, None, 20)   # the single-b calls: b = 0 and both ends

    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_shot_array_equals_the_calls_per_b(self, k):
        for kind, thr in ((SolverKind.K_STEP, eta),
                          (SolverKind.SHIFTED_K_STEP, kappa)):
            whole = thr(k, self.GRID)
            each = [thr(k, b) for b in self.GRID[self.EVERY].tolist()]
            assert whole.k == k and whole.value.shape == self.GRID.shape
            assert np.array_equal(_bits(whole.value[self.EVERY]),
                                  _bits([t.value for t in each]))
            assert whole.branch[self.EVERY].tolist() == [t.branch for t in each]
            via = threshold(kind, k, self.GRID)
            assert np.array_equal(_bits(via.value), _bits(whole.value))
            assert via.branch.tolist() == whole.branch.tolist()

    @pytest.mark.parametrize("kind", [SolverKind.USUAL_GD, SolverKind.SHIFTED_GD])
    def test_gd_array_equals_the_calls_per_b(self, kind):
        each = [threshold(kind, 1, b) for b in self.GRID[self.EVERY].tolist()]
        for k in range(1, 9):   # the GD kinds ignore k
            whole = threshold(kind, k, self.GRID)
            assert whole.k == 0
            assert np.array_equal(_bits(whole.value[self.EVERY]),
                                  _bits([t.value for t in each]))
            assert whole.branch.tolist() == [kind.value] * self.GRID.size

    # grid points where numpy's power in place of Python's ** moves the
    # value, with the value the per-b float formulas give, as hex
    @pytest.mark.parametrize("thr,k,b,value,branch", [
        (eta, 1, 0.17327999999999988, "0x1.536d6d5a43d17p-1", "eta21"),
        (kappa, 1, 0.8500599999999998, "0x1.4468e447a66aep-8", "kappa21"),
        (kappa, 2, 0.9361299999999999, "0x1.ab99a7eeb7f9ep-11", "kappa21"),
        (kappa, 3, 0.9478149999999999, "0x1.511e157906b91p-11", "kappa21"),
        (eta, 4, 0.9463899999999998, "0x1.3a88442187c20p-10", "eta21"),
        (eta, 8, 0.9471499999999999, "0x1.2dbefc6bb3212p-9", "eta21"),
        (kappa, 8, 0.9471499999999999, "0x1.575af6fa7e6f8p-10", "kappa21")])
    def test_pinned_bits(self, thr, k, b, value, branch):
        assert (thr(k, b).value, thr(k, b).branch) == (float.fromhex(value), branch)
        t = thr(k, [0.1, b, -0.3])
        assert (t.value[1], t.branch[1]) == (float.fromhex(value), branch)

    def test_a_zero_denominator_raises_alone_and_in_an_array(self, monkeypatch):
        # no branch divides by zero at a b in (-1, 1), so a patched kappa11
        # does, at b = 1 - 2^-30 alone
        b = 1.0 - 2.0**-30
        monkeypatch.setattr(scalar, "kappa11", lambda k, t: t.v / (t.b - b))
        for arg in (b, [b], [0.5, b], [b, 0.5, 0.3], np.append(self.GRID, b)):
            with pytest.raises(ValueError, match="kappa11 has no value at some b"):
                kappa(2, arg)
        assert eta(2, [0.5, b]).value.tolist() == [eta(2, 0.5).value,
                                                   eta(2, b).value]

    def test_each_power_is_computed_once(self, monkeypatch):
        # the branches read b^(k-1) and b^k from one table, and its sums
        # |b|^n at n = 1, 2, 4 of the doubling to k = 5 = 0b101; the branches
        # take no power of their own
        calls = []
        pow_ = scalar._pow
        monkeypatch.setattr(scalar, "_pow",
                            lambda x, n: calls.append(n) or pow_(x, n))
        for thr in (eta, kappa):
            calls.clear()
            thr(5, self.GRID)
            assert calls == [4, 5, 1, 2, 4]

    def test_float_power_is_pythons_float_power(self):
        # _pow is np.float_power, which must give the bits of Python's ** at
        # every exponent the thresholds reach (2k + 1 for k up to 20), over an
        # array and for a lone float; a SIMD float_power kernel would fail
        tiny, near_one = 2.0**-50, 1.0 - 2.0**-53
        xs = np.concatenate([
            [0.0, -0.0, near_one, -near_one, tiny, -tiny],
            np.random.default_rng(17).uniform(-1.0, 1.0, 2000),
            self.GRID, 1.0 - self.GRID])
        for n in range(2*20 + 2):
            python = [x**n for x in xs.tolist()]
            assert np.array_equal(_bits(np.float_power(xs, float(n))),
                                  _bits(python)), n
            assert np.array_equal(_bits(scalar._pow(xs, n)), _bits(python)), n
            lone = [scalar._pow(x, n) for x in xs.tolist()]
            assert np.array_equal(_bits(lone), _bits(python)), n

    @pytest.mark.parametrize("k", range(1, 9))
    def test_masks_that_hold_everywhere_read_the_terms_uncopied(self, k):
        # on b of one sign every b^(k-1) has one sign, so the eta21/kappa11
        # or the eta22/kappa12 mask holds at every b and its branch reads
        # the shared terms; appending b = 0 breaks those masks (k >= 2) and
        # sends the same b through the copied terms
        positive = np.linspace(0.01, 0.95, 1001)
        for grid in (positive, -positive):
            bk1 = _terms(k, grid).bk1
            assert np.all(bk1 > 0.0) or np.all(bk1 < 0.0)
            for thr in (eta, kappa):
                whole = thr(k, grid)
                each = [thr(k, b) for b in grid.tolist()]
                assert np.array_equal(_bits(whole.value),
                                      _bits([t.value for t in each]))
                assert whole.branch.tolist() == [t.branch for t in each]
                copied = thr(k, np.append(grid, 0.0))
                assert np.array_equal(_bits(copied.value[:-1]),
                                      _bits(whole.value))
                assert copied.branch[:-1].tolist() == whole.branch.tolist()

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_a_float_b_gives_plain_python_values(self, kind):
        for b in (0.2, -0.0, np.float64(-0.7), np.array(0.4)):
            t = threshold(kind, 3, b)
            assert type(t.value) is float and type(t.branch) is str
        # repr of the value must read back as a float on a command line
        value = threshold(kind, 2, 0.2).value
        assert float(repr(value)) == value

    def test_an_array_keeps_its_shape(self):
        b = self.GRID[:12].reshape(3, 4)
        t = kappa(5, b)
        assert t.value.shape == t.branch.shape == (3, 4)
        assert t.value[1, 2] == kappa(5, float(b[1, 2])).value
        assert eta(2, []).value.shape == (0,)
        assert eta(2, [0.2]).value.tolist() == [eta(2, 0.2).value]

    @pytest.mark.parametrize("bad", [np.nan, 1.0, -1.0, 2.5, -np.inf])
    def test_a_bad_b_anywhere_in_an_array_raises(self, bad):
        grid = self.GRID.copy()
        grid[1234] = bad
        for kind in SolverKind:
            with pytest.raises(ValueError, match=r"b must lie in \(-1, 1\)"):
                threshold(kind, 2, grid)
        with pytest.raises(ValueError, match=f"got {bad}"):
            eta(3, [0.1, bad])

    def test_k_below_one_raises_for_an_array(self):
        for thr in (eta, kappa):
            for k in (0, -1):
                with pytest.raises(ValueError, match="k must be at least 1"):
                    thr(k, self.GRID)


def _reference(k, b, shifted):
    """The candidates of eta (shifted False) or kappa at a float b, from the
    expanded polynomials in b at 90 digits, each where its mask holds: the
    quotients by (1 - b)^2 as first derived, and kappa21 with the conjugate
    denominator the library had before the sums, which stays accurate as
    v -> 0 (as at k = 10^20, b = 0.5)."""
    with mp.workdps(90):
        b = mp.mpf(b)
        bk1, bk, b2k, a = b**(k - 1), b**k, b**(2*k), (1 - b)**2
        w = k - (k + 1)*b + b**(k + 1)
        g = k - (k + 1)*b + k*bk - (k - 1)*b**(k + 1)
        f = 1 - 2*k*bk1 + 2*k*bk - b2k
        y, v, s = (1 - k*bk1 + (k - 1)*bk) / a, bk1 * w / a, bk
        if not shifted:
            cands = [("eta21", bk1 > 0, lambda: a*(1 + bk)*(1 - bk)**2 / (bk1*g)),
                     ("eta22", bk1 < 0, lambda: -a*(1 + bk)**3 / (bk1*g)),
                     ("eta3", f > 0, lambda: 2*a*(1 + bk)**2 / f)]
        else:
            r1 = mp.sqrt((5 - 4*s)*v*v + y*y + 2*(-2*s*s + 2*s + 1)*v*y)
            r2 = mp.sqrt((8*s*s + 12*s + 5)*v*v + y*y + 2*(2*s*s + 2*s + 1)*v*y)
            cands = [("kappa11", bk1 > 0, lambda: a*(1 + b2k) / (bk1*w)),
                     ("kappa12", bk1 < 0, lambda: a*(b2k - 1) / (bk1*w)),
                     ("kappa21", True, lambda: b*a*(s - 1)/w + 2*(1 - s + b*a*(1 - s)*y/w)
                      / (y + v + r1)),
                     ("kappa22", v != 0, lambda: ((2*s*s + 2*s + 1)*v + y + r2) / (2*v*v)),
                     ("kappa3", f < 0, lambda: 2*a*(1 + bk)**2 / -f)]
        return {name: value() for name, holds, value in cands if holds}


def _ulps(x, ref) -> float:
    return float(abs(mp.mpf(float(x)) - ref) / math.ulp(float(ref)))


class TestNinetyDigitReference:
    """eta, kappa and every branch formula against :func:`_reference`, at the
    hex-pinned b = +-(1 - 2^-j), j = 10..52, where the expanded polynomials
    lose digits like eps / (1 -+ b)^2 (up to 1.7e15 ulp before the sums)."""

    NEAR_ONE = [sign * (1.0 - 2.0**-j)    # exact: 0x1.ff8p-1 to 0x1.ffffffffffffep-1
                for j in range(10, 53) for sign in (1.0, -1.0)]
    # measured: thresholds 4.2 ulp, branches 8.9 (kappa3 at k = 6); 26 ulp at
    # k = 10^20, where the doubling of the sums rounds 67 times
    ULPS, LARGE_K_ULPS = 10.0, 32.0

    def _check(self, k, grid, bound, branches):
        for shifted, thr in ((False, eta), (True, kappa)):
            got, t = thr(k, np.array(grid)), _terms(k, np.array(grid))
            with np.errstate(all="raise"):
                each = {name: getattr(scalar, name)(k, t) for name in (
                    ("kappa11", "kappa12", "kappa21", "kappa22", "kappa3")
                    if shifted else ("eta21", "eta22", "eta3"))} if branches else {}
            for i, b in enumerate(grid):
                ref = _reference(k, b, shifted)
                best = min(ref, key=ref.get)
                assert _ulps(got.value[i], ref[best]) <= bound, (k, b, best)
                # another branch only at a near-tie of the two least
                assert _ulps(ref[got.branch[i]], ref[best]) <= bound, (k, b, best)
                for name, value in ref.items():
                    if name in each:
                        assert _ulps(each[name][i], value) <= bound, (k, b, name)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_near_plus_minus_one(self, k):
        self._check(k, self.NEAR_ONE, self.ULPS, branches=True)

    @pytest.mark.parametrize("k", [10**6, 10**20])
    def test_large_k(self, k):
        grid = [sign * b for b in (0.5, 1.0 - 2.0**-10, 1.0 - 2.0**-30,
                                   1.0 - 2.0**-52) for sign in (1.0, -1.0)]
        self._check(k, grid, self.LARGE_K_ULPS, branches=False)

    @pytest.mark.parametrize("thr,k,b,value", [
        # the exact thresholds that the expanded polynomials got wrong
        (kappa, 3, 0.9999999968255225, 1.919e-25),   # was 0.0908
        (kappa, 1, 0.99999999, 2.0e-24),             # was 0.0
        (kappa, 1, 0.999999997, 5.4e-26),            # kappa11 had no value
        (kappa, 2, -0.9999999962747097, 1.490e-8)])  # kappa21 had no value
    def test_former_wrong_answers(self, thr, k, b, value):
        assert thr(k, b).value == pytest.approx(value, rel=1e-3)


class TestThresholdDispatch:
    @pytest.mark.parametrize("b", [-0.9, -0.3, 0.0, 0.2, 0.7])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_agrees_with_the_named_thresholds(self, k, b):
        assert threshold(SolverKind.K_STEP, k, b) == eta(k, b)
        assert threshold(SolverKind.SHIFTED_K_STEP, k, b) == kappa(k, b)
        gd = threshold(SolverKind.USUAL_GD, k, b)
        assert (gd.k, gd.value, gd.branch) == (0, 2.0 * (1.0 - b)**2, "gd")
        sgd = threshold(SolverKind.SHIFTED_GD, k, b)
        assert (sgd.k, sgd.value, sgd.branch) == (0, (1.0 - b)**2, "sgd")

    @pytest.mark.parametrize("thr", [eta, kappa])
    def test_array_results_compare_as_wholes(self, thr):
        # == compares each array field whole; it raised ValueError before
        b = np.array([-0.3, 0.2, 0.7])
        assert thr(5, b) == thr(5, b)
        assert thr(5, b) != thr(5, b[::-1])
        assert thr(5, b) != thr(4, b)
        assert (thr(5, b) == thr(5, 0.2)) is False
        assert thr(5, b) != "not a threshold"

    def test_one_shot_kinds_validate_k(self):
        with pytest.raises(ValueError):
            threshold(SolverKind.K_STEP, 0, 0.2)
        with pytest.raises(ValueError):
            threshold(SolverKind.SHIFTED_K_STEP, 0, 0.2)


class TestScalarIterationMatrix:
    def test_shifted_gd_layout(self):
        sp = ScalarProblem(b=0.5, h=1.0, m=1.0)
        m = scalar_iteration_matrix(SolverKind.SHIFTED_GD, 1, sp, 0.3)
        assert np.allclose(m, [[0.0, 0.0, 4.0], [0.0, 0.0, 2.0],
                               [-0.3, 0.0, 1.0]])

    def test_agrees_with_block_builder(self):
        for b in (-0.4, 0.2, 0.7):
            sp = ScalarProblem(b=b, h=1.3, m=0.8)
            p = sp.as_problem()
            for kind in SolverKind:
                for k in (1, 2, 4):
                    a = scalar_iteration_matrix(kind, k, sp, 0.12)
                    c = build_iteration_matrix(p, MethodSpec(kind, k), 0.12).matrix
                    assert np.allclose(a, c, atol=1e-13)

    def test_characteristic_coefficients_shifted_k2(self):
        # det(lambda I - M) coefficients against the closed forms in terms of
        # s = b^k, t_k, y_k and v_k = t_k^2 - y_k
        b, h, m, k, tau = 0.3, 1.0, 1.0, 2, 0.4
        sp = ScalarProblem(b=b, h=h, m=m)
        mat = scalar_iteration_matrix(SolverKind.SHIFTED_K_STEP, k, sp, tau)
        poly = np.poly(mat)  # [1, c2, c1, c0]
        s = b**k
        t = (1 - b**k) / (1 - b)
        y = (1 - k * b**(k - 1) + (k - 1) * b**k) / (1 - b)**2
        v = t * t - y
        a0 = h*h*m*m*v*tau - s*s
        a1 = h*h*m*m*y*tau + s*s + 2*s
        a2 = -2*s - 1
        assert abs(poly[1] - a2) < 1e-13
        assert abs(poly[2] - a1) < 1e-13
        assert abs(poly[3] - a0) < 1e-13

    def test_characteristic_coefficients_k_step(self):
        b, h, m, k, tau = -0.35, 1.2, 0.9, 3, 0.2
        sp = ScalarProblem(b=b, h=h, m=m)
        mat = scalar_iteration_matrix(SolverKind.K_STEP, k, sp, tau)
        poly = np.poly(mat)
        s = b**k
        t = sum(b**j for j in range(k))
        x = h*h*sum((j + 1) * b**j for j in range(k - 1))
        a0 = -s*s
        a1 = m*m*(h*h*t*t - x)*tau + s*s + 2*s
        a2 = m*m*x*tau - (2*s + 1)
        assert abs(poly[1] - a2) < 1e-13
        assert abs(poly[2] - a1) < 1e-13
        assert abs(poly[3] - a0) < 1e-13


def test_jury_marden_matches_scalar_thresholds():
    # the criterion applied to the characteristic cubic reproduces the
    # threshold verdicts
    for b in (-0.5, 0.25, 0.6):
        sp = ScalarProblem(b=b, h=1.0, m=1.0)
        for k in (1, 2, 3):
            t = eta(k, b).value
            for frac, expect in ((0.95, True), (1.05, False)):
                mat = scalar_iteration_matrix(SolverKind.K_STEP, k, sp, frac * t)
                c = np.poly(mat)
                assert jury_marden_cubic(CubicCoeffs(c[3], c[2], c[1])) == expect
