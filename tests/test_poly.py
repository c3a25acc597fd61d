import numpy as np
import pytest

from polycrit.lp import in_convex_hull
from polycrit.metrics import bottleneck_match
from polycrit.poly import (
    Polynomial,
    RootFindingError,
    RootSet,
    cluster_points,
    reconstruction_error,
    sort_lex,
)

from conftest import disk_points


class TestFromRoots:
    def test_difference_of_squares(self):
        p = Polynomial.from_roots([1.0, -1.0])
        assert np.allclose(p.coeffs, [-1.0, 0.0, 1.0])

    def test_quartic_with_cube_roots_of_unity(self):
        pts = [0.0, *np.exp(2j * np.pi * np.arange(3) / 3)]
        p = Polynomial.from_roots(pts)
        assert np.allclose(p.coeffs, [0.0, -1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_conjugate_pair_hand_expansion(self):
        p = Polynomial.from_roots([0.5 + 0.5j, 0.5 - 0.5j])
        assert np.allclose(p.coeffs, [0.5, -1.0, 1.0], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="degree zero"):
            Polynomial.from_roots([])


class TestDerivative:
    def test_quartic(self):
        p = Polynomial((0.0, 1.0, 0.0, 0.0, 1.0))  # z^4 + z
        assert np.allclose(p.derivative().coeffs, [1.0, 0.0, 0.0, 4.0])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_minus_z(self, n):
        coeffs = [0.0] * (n + 1)
        coeffs[0] = 0.0
        coeffs[1] = -1.0
        coeffs[n] = 1.0
        d = Polynomial(tuple(coeffs)).derivative()
        expect = [0.0] * n
        expect[0] = -1.0
        expect[n - 1] = n
        assert np.allclose(d.coeffs, expect)

    def test_quadratic(self):
        p = Polynomial((0.5, -1.0, 1.0))
        assert np.allclose(p.derivative().coeffs, [-1.0, 2.0])

    def test_degree_zero_flagged(self):
        assert Polynomial((3.0,)).derivative().is_zero

    def test_degree_drops_by_one(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 7))
        assert p.derivative().degree == p.degree - 1


class TestFindRoots:
    def test_depressed_cubic_moduli(self):
        p = Polynomial((1.0, 0.0, 0.0, 4.0))  # 4z^3 + 1
        pts = p.find_roots().as_array()
        assert np.allclose(np.abs(pts), (1 / 4) ** (1 / 3), atol=1e-12)

    def test_pm_one(self):
        pts = Polynomial((-1.0, 0.0, 1.0)).find_roots().as_array()
        assert np.allclose(sorted(pts, key=lambda z: z.real), [-1.0, 1.0], atol=1e-14)

    def test_round_trip_degree_ten(self, rng):
        roots = disk_points(rng, 10, min_sep=1e-3)
        p = Polynomial.from_roots(roots)
        got = p.find_roots().as_array()
        assert bottleneck_match(roots, got) <= 1e-8

    def test_matches_companion_eigenvalues(self, rng):
        # independent oracle: numpy's eigenvalue-based root finder
        for _ in range(25):
            n = int(rng.integers(2, 12))
            roots = disk_points(rng, n, min_sep=1e-2, max_mod=1.5)
            p = Polynomial.from_roots(roots)
            mine = p.find_roots().as_array()
            ref = np.roots(np.array(p.coeffs)[::-1])
            assert bottleneck_match(ref, mine) <= 1e-8

    def test_double_root_reported_as_cluster(self):
        p = Polynomial.from_roots([0.3 + 0.4j, 0.3 + 0.4j, -0.7])
        clusters = p.find_roots().clusters()
        mult = {m for _, m in clusters}
        assert mult == {1, 2}
        centroid = next(c for c, m in clusters if m == 2)
        assert abs(centroid - (0.3 + 0.4j)) <= 1e-9

    def test_high_multiplicity_collapses(self):
        coeffs = [0.0] * 9 + [1.0]  # z^9
        pts = Polynomial(tuple(coeffs)).find_roots().as_array()
        assert np.abs(pts).max() <= 1e-10

    def test_full_multiplicity_at_degree_cap(self):
        clusters = Polynomial.from_roots([0.5] * 64).find_roots().clusters()
        assert clusters == [(0.5 + 0j, 64)]

    def test_mixed_high_multiplicities(self):
        p = Polynomial.from_roots([0.5] * 20 + [-0.4] * 10 + [0.3j])
        got = sorted(((m, c) for c, m in p.find_roots().clusters()), reverse=True)
        assert [m for m, _ in got] == [20, 10, 1]
        assert abs(got[0][1] - 0.5) <= 1e-9
        assert abs(got[1][1] - (-0.4)) <= 1e-9
        assert abs(got[2][1] - 0.3j) <= 1e-9

    def test_degree_cap_round_trip(self, rng):
        roots = disk_points(rng, 64, min_sep=1e-2)
        got = Polynomial.from_roots(roots).find_roots().as_array()
        assert bottleneck_match(roots, got) <= 1e-7

    def test_close_distinct_pair_not_merged(self):
        p = Polynomial.from_roots([0.5, 0.5 + 2e-3, -0.3j])
        clusters = p.find_roots().clusters()
        assert sorted(m for _, m in clusters) == [1, 1, 1]

    def test_residual_budget_contract(self, rng):
        roots = disk_points(rng, 12, min_sep=1e-3)
        p = Polynomial.from_roots(roots)
        pts = p.find_roots().as_array()
        scale = 1 + max(abs(c) for c in p.coeffs)
        assert np.abs(p(pts)).max() <= 1e-10 * scale

    def test_nonconvergence_carries_best_iterate(self):
        p = Polynomial.from_roots([0.4, -0.5, 0.1j])
        with pytest.raises(RootFindingError) as err:
            p.find_roots(max_iter=1)
        assert err.value.best is not None
        assert err.value.residual > 0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1.0,)).find_roots()


class TestMemo:
    def test_roots_and_derivative_found_once(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 7))
        assert p.find_roots() is p.find_roots()
        assert p.derivative() is p.derivative()
        assert p.derivative().find_roots() is p.derivative().find_roots()

    @pytest.mark.parametrize("kwargs", [{"cluster_tol": 1e-4}, {"max_iter": 300}])
    def test_non_default_arguments_compute_fresh(self, kwargs):
        p = Polynomial.from_roots([0.3, 0.3 + 1e-6, -0.5j, 0.7 + 0.1j])
        default = p.find_roots()
        got = p.find_roots(**kwargs)
        assert got == Polynomial(p.coeffs).find_roots(**kwargs)
        assert got is not p.find_roots(**kwargs)
        assert p.find_roots() is default
        assert default == Polynomial(p.coeffs).find_roots()

    def test_failure_is_not_cached(self, monkeypatch):
        p = Polynomial.from_roots([0.4, -0.5, 0.1j])
        calls = []

        def wrong(coeffs, max_iter):
            calls.append(max_iter)
            return np.zeros(3, dtype=complex)

        monkeypatch.setattr("polycrit.poly.aberth_roots", wrong)
        for _ in range(2):
            with pytest.raises(RootFindingError):
                p.find_roots()
        assert len(calls) == 2
        monkeypatch.undo()
        assert bottleneck_match(p.find_roots().points, [0.4, -0.5, 0.1j]) <= 1e-12

    def test_equality_and_hash_ignore_memo(self, rng):
        coeffs = Polynomial.from_roots(disk_points(rng, 5)).coeffs
        p, q = Polynomial(coeffs), Polynomial(coeffs)
        p.find_roots()
        p.derivative().find_roots()
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert {p: "memoized"}[q] == "memoized"


class TestInvariants:
    def test_round_trip_multiset(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 17))
            roots = disk_points(rng, n, min_sep=1e-3, max_mod=2.0)
            got = Polynomial.from_roots(roots).find_roots().as_array()
            assert bottleneck_match(roots, got) <= 1e-8

    def test_reconstruction_error(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 17))
            p = Polynomial.from_roots(disk_points(rng, n, min_sep=1e-3))
            assert reconstruction_error(p.find_roots(), p) <= 1e-9

    def test_gauss_lucas_hull_containment(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 10))
            roots = disk_points(rng, n, min_sep=1e-3)
            crit = Polynomial.from_roots(roots).derivative().find_roots().as_array()
            assert all(in_convex_hull(w, roots, tol=1e-9) for w in crit)


class TestValidation:
    def test_leading_coefficient_floor(self):
        with pytest.raises(ValueError, match="leading"):
            Polynomial((1.0, 1e-15))

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            Polynomial(tuple([1.0] * 70))

    def test_shifted_is_taylor_shift(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 5))
        s = 0.3 - 0.2j
        q = p.shifted(s)
        for z in disk_points(rng, 6):
            assert abs(q(z) - p(z + s)) <= 1e-12

    def test_sort_lex_deterministic(self):
        pts = [1 + 1j, 1 - 1j, 0.0, 1 + 0j]
        assert sort_lex(pts) == [0.0, 1 - 1j, 1 + 0j, 1 + 1j]

    def test_cluster_points_transitive_chain(self):
        chain = [0.0, 1e-9, 2e-9, 1.0]
        clusters = cluster_points(chain, 1.5e-9)
        assert sorted(m for _, m in clusters) == [1, 3]

    def test_rootset_len_and_array(self):
        rs = RootSet((1.0 + 0j, -1.0 + 0j))
        assert len(rs) == 2
        assert rs.as_array().dtype == complex
