import numpy as np
import pytest

from polycrit.metrics import delta_distance, directed_hausdorff
from polycrit import variation_second as vs


class TestConstants:
    def test_deg4_window(self):
        k = vs.deg4_constants()
        assert abs(k.r - (1 / 4) ** (1 / 3)) <= 1e-15
        assert 10.8115 <= k.C <= 10.8116
        assert abs(k.alpha1 - 3 * np.sqrt(3) * k.r / (2 - 3 * k.r)) <= 1e-12

    def test_deg5_window(self):
        k = vs.deg5_constants()
        assert abs(k.s - (1 / 5) ** (1 / 4)) <= 1e-15
        assert 5.66565 <= k.K <= 5.66566


class TestFamilies:
    def test_deg4_at_zero(self):
        p = vs.family_deg4(0.0)
        assert np.allclose(p.coeffs, [0.0, 1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_deg5_at_zero(self):
        q, s = vs.family_deg5(0.0)
        assert np.allclose(q.coeffs, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-14)
        assert abs(s.coeffs[-1] - 5.0) <= 1e-14

    def test_unit_circle_pair(self):
        for a in (0.0, 1e-3, 0.02):
            roots = vs.family_deg4(a).find_roots().as_array()
            mods = np.sort(np.abs(roots))
            # a, then three unimodular roots
            assert abs(mods[0] - a) <= 1e-10
            assert np.abs(mods[1:] - 1.0).max() <= 1e-10

    def test_window_enforced(self):
        with pytest.raises(ValueError, match="window"):
            vs.family_deg4(0.06)
        with pytest.raises(ValueError, match="window"):
            vs.family_deg5(-1e-9)

    def test_deg4_growth_at_millimeter_scale(self):
        # measured cubic correction is ~ -1.4e-6 at a = 1e-3, so the
        # quadratic model holds at the 2e-6 level there
        k = vs.deg4_constants()
        d = directed_hausdorff(vs.family_deg4(1e-3))[0]
        assert abs(d - (k.r + k.C * 1e-6)) <= 2e-6
        assert d > k.r

    def test_deg5_growth_at_millimeter_scale(self):
        k = vs.deg5_constants()
        q, _ = vs.family_deg5(1e-3)
        d = directed_hausdorff(q)[0]
        assert abs(d - (k.s + k.K * 1e-6)) <= 2e-7
        assert d > k.s

    def test_worst_zero_is_family_parameter(self):
        for a in (1e-3, 5e-3):
            _, worst = directed_hausdorff(vs.family_deg4(a))
            assert abs(worst - a) <= 1e-10

    def test_deg4_strict_growth_window(self):
        # the counterexample property: d increases off a = 0 (the cubic
        # term flips the sign only beyond ~7.3e-3)
        base = directed_hausdorff(vs.family_deg4(0.0))[0]
        for a in np.linspace(2e-4, 7e-3, 15):
            assert directed_hausdorff(vs.family_deg4(a))[0] > base

    def test_deg5_strict_growth_window(self):
        base = directed_hausdorff(vs.family_deg5(0.0)[0])[0]
        for a in np.linspace(2e-4, 1e-2, 15):
            assert directed_hausdorff(vs.family_deg5(a)[0])[0] > base

    def test_first_order_verdict_cannot_decide_maximality(self):
        # z^4 + z admits no first-order growth direction, yet the quartic
        # family strictly increases d arbitrarily close to it
        from polycrit.lp import Verdict
        from polycrit.variation_first import extensibility

        p0 = vs.family_deg4(0.0)
        assert extensibility(p0, 0.0).verdict is Verdict.POSITIVELY_SINGULAR
        d0 = directed_hausdorff(p0)[0]
        assert directed_hausdorff(vs.family_deg4(1e-3))[0] > d0

    def test_deg4_linear_displacement_rate(self):
        # Delta(p_a, p_0)/a stays bounded (the zeros move at speed ~ alpha1)
        p0 = vs.family_deg4(0.0)
        for a in (1e-2, 1e-3, 1e-4):
            ratio = delta_distance(vs.family_deg4(a), p0) / a
            assert ratio <= 35.0

    def test_deg5_cubic_tracking_rate(self):
        # Delta(q'_a/5, s_a/5)/a^3 stays bounded
        for a in (1e-2, 5e-3, 2.5e-3):
            q, s = vs.family_deg5(a)
            ratio = delta_distance(q.derivative().scaled(0.2), s.scaled(0.2)) / a**3
            assert ratio <= 800.0


class TestGrowthFit:
    def test_deg4_constant_recovered_on_fine_grid(self):
        # the pinned coarse grid k*1e-3 is biased by the a^4 and a^5 terms
        # (see the acceptance battery); k*1e-4 still gives 10.8192, while
        # k*1e-5 gives 10.8116, inside the check's own tolerance
        fit = vs.fit_quadratic_growth("deg4", [k * 1e-5 for k in range(1, 9)])
        assert abs(fit.c2 - 10.8115) <= 0.01

    def test_deg5_constant_on_stated_grid(self):
        fit = vs.fit_quadratic_growth("deg5", [k * 1e-3 for k in range(1, 9)])
        assert abs(fit.c2 - 5.6657) <= 0.01

    def test_underdetermined_grid(self):
        with pytest.raises(ValueError, match="underdetermined"):
            vs.fit_quadratic_growth("deg4", [1e-3, 2e-3, 3e-3])

    @pytest.mark.parametrize(
        "grid,distinct",
        [([0.0] * 4, 0), ([1e-3] * 4, 1), ([0.0, -0.0, 2e-3, 2e-3], 1)],
    )
    def test_rank_deficient_grid(self, grid, distinct):
        # enough points, but the (a^2, a^3) design has rank < 2: lstsq would
        # return a min-norm fit with residual 0
        with pytest.raises(ValueError, match=f"2 distinct nonzero points, got {distinct}"):
            vs.fit_quadratic_growth("deg4", grid)
        assert vs.fit_quadratic_growth("deg4", [0.0, 0.0, 1e-3, 2e-3]).residual <= 1e-12


class TestProp112:
    def test_aligned_perturbation_holds(self):
        _, lhs, rhs = vs.prop112_perturbation(4, [1e-3, 0, 0, 0])
        assert lhs <= rhs
        assert abs(rhs - ((1 / 4) ** (1 / 3) - 0.5e-3)) <= 1e-15

    def test_zero_perturbation_exact(self):
        for n in (4, 5, 6):
            _, lhs, rhs = vs.prop112_perturbation(n, np.zeros(n))
            assert abs(lhs - n ** (-1 / (n - 1))) <= 1e-12
            assert abs(rhs - n ** (-1 / (n - 1))) <= 1e-15

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_critically_aligned_phases_hold(self, n):
        # phases pointing straight at a critical direction satisfy the bound
        for k in range(n - 1):
            eps = np.zeros(n, dtype=complex)
            eps[0] = 1e-3 * np.exp(2j * np.pi * k / (n - 1))
            _, lhs, rhs = vs.prop112_perturbation(n, eps)
            assert lhs <= rhs

    def test_misaligned_phase_fails_bound(self):
        # half-way between critical directions the stated budget is not
        # met: the first-order decrease carries an extra factor (n-1)/n
        eps = np.zeros(4, dtype=complex)
        eps[0] = -1e-3  # 60 degrees from both nearest critical directions
        _, lhs, rhs = vs.prop112_perturbation(4, eps)
        assert lhs > rhs
        assert lhs - rhs <= 2e-4

    @pytest.mark.parametrize("n", range(4, 12))
    def test_lhs_is_the_inline_radius(self, n):
        # lhs is |Q|_alpha at the moved zero, bit for bit the nearest
        # critical distance prop112 once computed inline
        for k in range(8):
            eps = np.zeros(n, dtype=complex)
            eps[0] = 1e-3 * np.exp(2j * np.pi * k / 8)
            Q, lhs, _ = vs.prop112_perturbation(n, eps)
            crit = Q.derivative().find_roots().as_array()
            assert repr(lhs) == repr(float(np.abs(crit - eps[0]).min()))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n >= 4 required, got 3"):
            vs.prop112_perturbation(3, [1e-3, 0, 0])
        with pytest.raises(ValueError, match=r"\|eps_1\| <= 0.01 required, got 0.1"):
            vs.prop112_perturbation(4, [0.1, 0, 0, 0])
        with pytest.raises(ValueError, match="eps_1"):
            vs.prop112_perturbation(4, [complex("nan"), 0, 0, 0])
        with pytest.raises(ValueError, match="kappa"):
            vs.prop112_perturbation(4, [1e-3, 1e-4, 0, 0])

    def test_kappa_flag(self):
        # kappa = 0.5 admits larger secondary perturbations
        eps = [1e-3, 1e-3 ** 1.5 * 0.9, 0, 0]
        vs.prop112_perturbation(4, eps, kappa=0.5)


class TestProp113:
    def test_degree_five_values(self):
        lhs, rhs = vs.prop113_inequality(5)
        assert abs(lhs - 0.651059) <= 1e-6
        assert abs(rhs - 0.668740) <= 1e-6
        assert lhs < rhs

    @pytest.mark.parametrize("n", range(5, 51))
    def test_inequality_holds(self, n):
        lhs, rhs = vs.prop113_inequality(n)
        assert lhs < rhs

    @pytest.mark.parametrize("n", range(9, 51))
    def test_middle_chain_for_large_degrees(self, n):
        lhs, rhs = vs.prop113_inequality(n)
        middle = np.sqrt(n / (2 * (n - 1)))
        assert lhs < middle < rhs

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="n >= 5 required, got 4"):
            vs.prop113_inequality(4)
