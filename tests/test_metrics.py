import itertools
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from polycrit.metrics import (
    _greedy,
    alpha_distance,
    bottleneck_assignment,
    delta_distance,
    directed_hausdorff,
    smale_ratio,
)
from polycrit.poly import Polynomial

from conftest import disk_points, loop_directed_hausdorff, reference_polys


def bottleneck_brute(a, b):
    """Permutation-enumeration oracle for bottleneck_assignment (small sets only)."""
    A = [complex(x) for x in a]
    B = [complex(x) for x in b]
    assert len(A) <= 7, "brute-force oracle capped at 7 points"
    return min(
        max(abs(A[i] - B[perm[i]]) for i in range(len(A)))
        for perm in itertools.permutations(range(len(B)), len(A))
    )


def bottleneck_lsa(a, b, slack=0.0):
    """Smallest realized distance t at which the 0/1 assignment problem
    with cost [|a_i - b_j| > t + slack] reaches cost 0 (scipy's Hungarian
    solver)."""
    D = np.abs(np.subtract.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    for t in np.unique(D):
        rows, cols = linear_sum_assignment(D > t + slack)
        if not (D[rows, cols] > t + slack).any():
            return float(t)
    raise AssertionError("no threshold admits a full assignment")


def bottleneck_hopcroft_karp(a, b):
    """The same binary search over realized distances, with the same slack,
    where each probe asks scipy's Hopcroft-Karp matcher for a matching that
    covers a."""
    D = np.abs(np.subtract.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    cands = np.unique(D)
    slack = 1e-15 * (1.0 + float(cands[-1]))
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (maximum_bipartite_matching(csr_array(D <= cands[mid] + slack), perm_type="column") >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def assert_matches_oracles(a, b) -> float:
    """bottleneck_assignment's value and assignment against both oracles
    at the kernel's float slack; returns the value."""
    value, assignment = bottleneck_assignment(a, b)
    slack = 1e-15 * (1.0 + np.abs(np.subtract.outer(a, b)).max())
    assert value == bottleneck_lsa(a, b, slack)
    assert repr(value) == repr(bottleneck_hopcroft_karp(a, b))
    assert len(assignment) == len(a) and len(set(assignment)) == len(a)
    assert all(0 <= j < len(b) for j in assignment)
    # the matching may use a pair within the slack above the value
    assert max(abs(a[i] - b[j]) for i, j in enumerate(assignment)) <= value + slack
    return value


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


    def test_bitwise_equal_to_per_zero_loop(self):
        # (value, witness) of the nearest-distance kernel against the
        # zero-by-zero loop it replaced, ties included
        for p in reference_polys():
            assert repr(directed_hausdorff(p)) == repr(loop_directed_hausdorff(p))


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
            assert abs(bottleneck_assignment(a, b)[0] - bottleneck_brute(a, b)) <= 1e-14

    @pytest.mark.parametrize("b", [[], [0.5, 1j]])
    def test_empty_first_set(self, b):
        assert bottleneck_assignment([], b) == (0.0, [])

    def test_rectangular_injection(self, rng):
        a = disk_points(rng, 3)
        b = disk_points(rng, 6)
        assert abs(bottleneck_assignment(a, b)[0] - bottleneck_brute(a, b)) <= 1e-14

    @pytest.mark.parametrize(
        "n_a, n_b, repeats",
        [(16, 16, 1), (32, 32, 1), (64, 64, 1), (10, 25, 1), (5, 30, 1), (8, 8, 2), (6, 12, 3)],
    )
    def test_assignment_matches_hungarian_oracle(self, rng, n_a, n_b, repeats):
        # repeats > 1 tiles each set, so every point occurs `repeats` times
        for _ in range(3):
            a = np.tile(disk_points(rng, n_a // repeats), repeats)
            b = np.tile(disk_points(rng, n_b // repeats), repeats)
            assert assert_matches_oracles(a, b) == bottleneck_lsa(a, b)

    @pytest.mark.parametrize("geometry", ["rotated-unity", "four-fold-clusters", "twenty-into-sixty-four"])
    def test_assignment_matches_oracles_at_64(self, rng, geometry):
        n = 64
        if geometry == "rotated-unity":
            # every point ties with two neighbours at the value
            a = np.exp(2j * np.pi * np.arange(n) / n)
            b = a * np.exp(1j * np.pi / n)
        elif geometry == "four-fold-clusters":
            centres = np.repeat(disk_points(rng, n // 4), 4)
            a = centres + 1e-9 * disk_points(rng, n)
            b = rng.permutation(centres) + 1e-9 * disk_points(rng, n)
        else:
            a, b = disk_points(rng, 20), disk_points(rng, n)
        value = assert_matches_oracles(a, b)
        # within the slack of the exact bottleneck, which the ties can reach
        assert value <= bottleneck_lsa(a, b) <= value + 1e-15 * (1.0 + np.abs(np.subtract.outer(a, b)).max())

    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (5, 5), (7, 12), (16, 16), (64, 64), (20, 64)])
    def test_first_matching_is_the_sorted_greedy(self, rng, n_a, n_b):
        # the reference walks the pairs in ascending distance, ties in
        # row-major order; rounding the distances makes ties common
        for decimals in (None, 1):
            D = np.abs(np.subtract.outer(disk_points(rng, n_a), disk_points(rng, n_b)))
            if decimals is not None:
                D = np.round(D, decimals)
            col_of, taken = [-1] * n_a, set()
            for flat in np.argsort(D, axis=None, kind="stable"):
                i, j = divmod(int(flat), n_b)
                if col_of[i] < 0 and j not in taken:
                    col_of[i] = j
                    taken.add(j)
            assert _greedy(D).tolist() == col_of

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([0, np.nan], [0, 1], "first set point 1 is not finite: (nan+0j)"),
            ([0, 1], [0, np.inf], "second set point 1 is not finite: (inf+0j)"),
            ([complex(0, -np.inf)], [0, 1], "first set point 0 is not finite: -infj"),
        ],
        ids=["nan-in-a", "inf-in-b", "imaginary-inf-in-a"],
    )
    def test_non_finite_point_is_named(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            bottleneck_assignment(a, b)

    def test_overflowing_distance_is_refused(self):
        # |1e308 - (-1e308)| is not a float; an infinite slack would
        # admit every pair at every threshold
        with pytest.raises(ValueError, match="overflows"):
            bottleneck_assignment([0, 1e308], [0, -1e308])

    def test_assignment_of_repeated_points_to_themselves(self, rng):
        a = np.repeat(disk_points(rng, 4), 3)
        value, assignment = bottleneck_assignment(a, rng.permutation(a))
        assert value == 0.0 and sorted(assignment) == list(range(12))

    def test_symmetry_exact(self, rng):
        for _ in range(30):
            a = disk_points(rng, 5)
            b = disk_points(rng, 5)
            assert bottleneck_assignment(a, b)[0] == bottleneck_assignment(b, a)[0]

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
