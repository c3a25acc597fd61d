import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from polycrit.metrics import (
    alpha_distance,
    bottleneck_assignment,
    bottleneck_match,
    delta_distance,
    directed_hausdorff,
    smale_ratio,
)
from polycrit.poly import Polynomial

from conftest import disk_points


def bottleneck_brute(a, b):
    """Permutation-enumeration oracle for bottleneck_match (small sets only)."""
    A = [complex(x) for x in a]
    B = [complex(x) for x in b]
    assert len(A) <= 7, "brute-force oracle capped at 7 points"
    return min(
        max(abs(A[i] - B[perm[i]]) for i in range(len(A)))
        for perm in itertools.permutations(range(len(B)), len(A))
    )


def bottleneck_lsa(a, b):
    """Smallest realized distance t at which the 0/1 assignment problem
    with cost [|a_i - b_j| > t] reaches cost 0 (scipy's Hungarian solver)."""
    D = np.abs(np.subtract.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    for t in np.unique(D):
        rows, cols = linear_sum_assignment(D > t)
        if not (D[rows, cols] > t).any():
            return float(t)
    raise AssertionError("no threshold admits a full assignment")


def power_minus_z(n):
    coeffs = [0.0] * (n + 1)
    coeffs[1] = -1.0
    coeffs[n] = 1.0
    return Polynomial(tuple(coeffs))


class TestAlphaDistance:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_minus_z_radius_and_count(self, n):
        cc = alpha_distance(power_minus_z(n), 0.0)
        assert abs(cc.radius - n ** (-1 / (n - 1))) <= 1e-12
        assert len(cc.on_circle) == n - 1

    def test_cubic_value(self):
        cc = alpha_distance(power_minus_z(3), 0.0)
        assert abs(cc.radius - 1 / np.sqrt(3)) <= 1e-12

    def test_pure_power_zero_radius(self):
        p = Polynomial((0.0,) * 6 + (1.0,))
        assert alpha_distance(p, 0.0).radius <= 1e-12

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            alpha_distance(Polynomial((0.0, 1.0)), 0.0)


class TestDirectedHausdorff:
    def test_cubic(self):
        d, worst = directed_hausdorff(power_minus_z(3))
        assert abs(d - 1 / np.sqrt(3)) <= 1e-12
        assert abs(worst) <= 1e-12

    def test_quartic_plus_z(self):
        p = Polynomial((0.0, 1.0, 0.0, 0.0, 1.0))
        d, worst = directed_hausdorff(p)
        assert abs(d - (1 / 4) ** (1 / 3)) <= 1e-12
        assert abs(worst) <= 1e-12

    def test_pure_power(self):
        p = Polynomial((0.0,) * 5 + (1.0,))
        d, _ = directed_hausdorff(p)
        assert d <= 1e-10

    def test_tie_broken_lexicographically(self):
        # z^2 - 1: both zeros at distance 1 from the critical point 0
        d, worst = directed_hausdorff(Polynomial((-1.0, 0.0, 1.0)))
        assert abs(d - 1.0) <= 1e-12
        assert worst == min([-1.0, 1.0])

    def test_tie_break_relative_at_small_scale(self):
        # the zeros s {0, 1/2, -i/2, 0.3+0.4i, -0.6+0.1i}: an absolute
        # tie-break of 1e-12 kept the first zero (-0.6+0.1i) at s = 1e-12
        five = np.array([0, 0.5, -0.5j, 0.3 + 0.4j, -0.6 + 0.1j])
        ref, ref_worst = directed_hausdorff(Polynomial.from_roots(five))
        s = 1e-12
        d, worst = directed_hausdorff(Polynomial.from_roots(s * five))
        assert abs(ref - 0.31587) <= 1e-5 and ref_worst == 0
        assert abs(d / s - ref) <= 1e-12 * ref
        assert abs(worst) <= 1e-12 * s

    def test_gauss_lucas_upper_bound(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            p = Polynomial.from_roots(disk_points(rng, n))
            assert directed_hausdorff(p)[0] <= 2.0 + 1e-12

    def test_consistency_with_small_degree_verification(self, rng):
        # 1000 seeded draws with all roots in the closed unit disk, n <= 8
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            p = Polynomial.from_roots(disk_points(rng, n))
            assert directed_hausdorff(p)[0] <= 1.0 + 1e-9

    def test_equals_max_of_per_zero_radii(self, rng):
        for _ in range(10):
            p = Polynomial.from_roots(disk_points(rng, 6, min_sep=1e-2))
            d, _ = directed_hausdorff(p)
            radii = [alpha_distance(p, z).radius for z in p.find_roots().points]
            assert abs(d - max(radii)) <= 1e-10


class TestDelta:
    def test_identical(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 5, min_sep=1e-2))
        assert delta_distance(p, p) == 0.0

    def test_square_vs_pm_one(self):
        assert delta_distance(Polynomial((-1.0, 0.0, 1.0)), Polynomial((0.0, 0.0, 1.0))) == 1.0

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            delta_distance(Polynomial((-1.0, 0.0, 1.0)), Polynomial((0.0, 1.0)))

    def test_matches_brute_force(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 7))
            a = disk_points(rng, n)
            b = disk_points(rng, n)
            assert abs(bottleneck_match(a, b) - bottleneck_brute(a, b)) <= 1e-14

    @pytest.mark.parametrize("b", [[], [0.5, 1j]])
    def test_empty_first_set(self, b):
        assert bottleneck_assignment([], b) == (0.0, [])

    def test_rectangular_injection(self, rng):
        a = disk_points(rng, 3)
        b = disk_points(rng, 6)
        assert abs(bottleneck_match(a, b) - bottleneck_brute(a, b)) <= 1e-14

    @pytest.mark.parametrize(
        "n_a, n_b, repeats",
        [(16, 16, 1), (32, 32, 1), (64, 64, 1), (10, 25, 1), (5, 30, 1), (8, 8, 2), (6, 12, 3)],
    )
    def test_assignment_matches_hungarian_oracle(self, rng, n_a, n_b, repeats):
        # repeats > 1 tiles each set, so every point occurs `repeats` times
        for _ in range(3):
            a = np.tile(disk_points(rng, n_a // repeats), repeats)
            b = np.tile(disk_points(rng, n_b // repeats), repeats)
            value, assignment = bottleneck_assignment(a, b)
            assert value == bottleneck_lsa(a, b)
            assert len(assignment) == len(a) and len(set(assignment)) == len(a)
            assert all(0 <= j < len(b) for j in assignment)
            # the matching may use a pair within the kernel's float slack above the value
            slack = 1e-15 * (1.0 + np.abs(np.subtract.outer(a, b)).max())
            assert max(abs(a[i] - b[j]) for i, j in enumerate(assignment)) <= value + slack

    def test_assignment_of_repeated_points_to_themselves(self, rng):
        a = np.repeat(disk_points(rng, 4), 3)
        value, assignment = bottleneck_assignment(a, rng.permutation(a))
        assert value == 0.0 and sorted(assignment) == list(range(12))

    def test_symmetry_exact(self, rng):
        for _ in range(30):
            a = disk_points(rng, 5)
            b = disk_points(rng, 5)
            assert bottleneck_match(a, b) == bottleneck_match(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            polys = [Polynomial.from_roots(disk_points(rng, 5)) for _ in range(3)]
            dab = delta_distance(polys[0], polys[1])
            dbc = delta_distance(polys[1], polys[2])
            dac = delta_distance(polys[0], polys[2])
            assert dac <= dab + dbc + 1e-12


class TestSmale:
    def test_quadratic(self):
        assert abs(smale_ratio(Polynomial((0.0, 1.0, 1.0))) - 0.5) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 11))
    def test_power_families_meet_mean_value_bound(self, n):
        val = smale_ratio(power_minus_z(n))
        assert val <= (n - 1) / n + 1e-12

    def test_cubic_plus_z(self):
        assert smale_ratio(Polynomial((0.0, 1.0, 0.0, 1.0))) <= 2 / 3 + 1e-12

    def test_preconditions_named(self):
        with pytest.raises(ValueError, match="p\\(0\\)"):
            smale_ratio(Polynomial((1.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match="p'\\(0\\)"):
            smale_ratio(Polynomial((0.0, 0.0, 1.0)))
