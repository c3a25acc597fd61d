from collections import Counter
from math import comb

import mpmath
import numpy as np
import pytest

from polycrit.lp import in_convex_hull
from polycrit import maximal_zero as mz, poly
from polycrit.metrics import bottleneck_match
from polycrit.poly import (
    Polynomial,
    RootFindingError,
    RootSet,
    cluster_indices,
    sort_lex,
)

from conftest import disk_points, roots_of_unity


def reconstruction_error(roots: RootSet, p: Polynomial) -> float:
    """Relative coefficient error of prod (z - z_i) against p made monic."""
    rebuilt = Polynomial.from_roots(roots.points)
    target = np.array(p.monic().coeffs)
    scale = max(1.0, float(np.abs(target).max()))
    return float(np.abs(np.array(rebuilt.coeffs) - target).max() / scale)


def reference_disk_points(rng, n):
    """Rejection from the square, one uniform(-1, 1, 2) draw per candidate."""
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if x * x + y * y <= 1.0:
            pts.append(complex(x, y))
    return np.array(pts)


class TestDiskPoints:
    @pytest.mark.parametrize("seed", [0, 7, 123, 20240613, 987654321])
    def test_same_draws_as_reference_loop(self, seed):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 5, 16, 64, 3):
            pts = poly.disk_points(got, n)
            assert pts.dtype == complex and np.array_equal(pts, reference_disk_points(ref, n))
            assert np.abs(pts).max() <= 1.0

    @pytest.mark.parametrize("n", [0, 1, 8, 64])
    def test_generator_state_matches_reference_loop(self, n):
        got, ref = np.random.default_rng(n), np.random.default_rng(n)
        pts = poly.disk_points(got, n)
        assert pts.tobytes() == reference_disk_points(ref, n).astype(complex).tobytes()
        assert got.uniform(size=4).tobytes() == ref.uniform(size=4).tobytes()


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
        counts = Counter(p.find_roots().points)
        assert sorted(counts.values()) == [1, 2]
        double = next(c for c, m in counts.items() if m == 2)
        assert abs(double - (0.3 + 0.4j)) <= 1e-9

    def test_high_multiplicity_collapses(self):
        coeffs = [0.0] * 9 + [1.0]  # z^9
        pts = Polynomial(tuple(coeffs)).find_roots().as_array()
        assert np.abs(pts).max() <= 1e-10

    def test_full_multiplicity_at_degree_cap(self):
        counts = Counter(Polynomial.from_roots([0.5] * 64).find_roots().points)
        assert counts == {0.5 + 0j: 64}

    def test_mixed_high_multiplicities(self):
        p = Polynomial.from_roots([0.5] * 20 + [-0.4] * 10 + [0.3j])
        got = sorted(((m, c) for c, m in Counter(p.find_roots().points).items()), reverse=True)
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
        assert sorted(Counter(p.find_roots().points).values()) == [1, 1, 1]

    def test_residual_budget_contract(self, rng):
        roots = disk_points(rng, 12, min_sep=1e-3)
        p = Polynomial.from_roots(roots)
        pts = p.find_roots().as_array()
        scale = 1 + max(abs(c) for c in p.coeffs)
        assert np.abs(p(pts)).max() <= 1e-10 * scale

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        p = Polynomial.from_roots([0.4, -0.5, 0.1j])
        aberth = poly.aberth_roots
        monkeypatch.setattr(poly, "aberth_roots", lambda c: aberth(c, max_iter=1))
        with pytest.raises(RootFindingError) as err:
            p.find_roots()
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

    def test_failure_is_not_cached(self, monkeypatch):
        p = Polynomial.from_roots([0.4, -0.5, 0.1j])
        calls = []

        def wrong(coeffs):
            calls.append(coeffs)
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


def mp_expand(roots):
    """Ascending coefficients of prod (z - r) expanded in 60-digit arithmetic."""
    with mpmath.workdps(60):
        c = [mpmath.mpc(1)]
        for r in roots:
            r = mpmath.mpc(r)
            c = [-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))] + [c[-1]]
        return np.array([complex(x) for x in c])


def jittered_ring(seed, theta=1.0):
    """Roots of z^64 + e^{i theta} z, each moved by 1e-3 in a seeded direction."""
    rng = np.random.default_rng(seed)
    base = np.r_[0.0, roots_of_unity(63, phase=(theta + np.pi) / 63)]
    return base + 1e-3 * np.exp(2j * np.pi * rng.uniform(size=64))


class TestLejaExpansion:
    """from_roots at the degree cap against an exact-enough expansion."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["ring", "disk", "square"])
    def test_degree_cap_matches_mpmath(self, shape, seed):
        rng = np.random.default_rng(seed)
        roots = {
            "ring": lambda: jittered_ring(seed),
            "disk": lambda: poly.disk_points(rng, 64),
            "square": lambda: rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64),
        }[shape]()
        ref = mp_expand(roots)
        got = np.array(Polynomial.from_roots(roots).coeffs)
        # in the given order the ring loses the polynomial (error ~4e-2)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_ring_roots_recovered(self):
        roots = jittered_ring(0)
        got = Polynomial.from_roots(roots).find_roots().as_array()
        assert bottleneck_match(roots, got) <= 1e-12

    def test_order_starts_at_largest_modulus(self):
        pts = np.array([0.1, -2.0, 1.0, 1.0 + 1e-3])
        order = poly._leja_order(pts)
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] == 1 and order[1] in (2, 3) and order[-1] in (2, 3)


class TestCertificate:
    """find_roots certifies each point by the backward-error bound
    |p(z)| <= gamma_0 * sum |c_k| |z|^k, a bound relative to the sizes of
    the terms rather than an absolute residual budget."""

    def test_small_roots_not_collapsed(self):
        # z (z^63 - 0.5^63): the coefficient of z is 1e-19, which an
        # absolute budget mistakes for zero (one 64-fold root at 0)
        roots = np.r_[0.0, roots_of_unity(63, radius=0.5)]
        p = Polynomial.from_roots(roots)
        got = p.find_roots()
        assert set(Counter(got.points).values()) == {1}
        with mpmath.workdps(60):
            ref = mpmath.polyroots([mpmath.mpc(c) for c in p.coeffs[::-1]], maxsteps=50, extraprec=60)
        assert bottleneck_match(got.as_array(), [complex(r) for r in ref]) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_degree_cap_square_certified(self, seed):
        rng = np.random.default_rng(seed)
        p = Polynomial.from_roots(rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64))
        pts = p.find_roots().as_array()
        assert len(pts) == 64
        # backward error recomputed in 50-digit arithmetic
        with mpmath.workdps(50):
            coeffs = [mpmath.mpc(c) for c in p.coeffs]
            for z in pts:
                z = mpmath.mpc(z)
                value = mpmath.polyval(coeffs[::-1], z)
                terms = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
                assert abs(value) <= 1e-13 * terms

    def test_backward_error_contract(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 24))
        pts = p.find_roots().as_array()
        terms = poly._horner(np.abs(np.array(p.coeffs)), np.abs(pts))
        assert np.all(np.abs(p(pts)) <= poly._gamma(p.degree, 0) * terms)

    @pytest.mark.parametrize("shift", [1e-6, 1e-9])
    def test_shifted_roots_rejected(self, shift, monkeypatch):
        p = Polynomial.from_roots([0.4, -0.5, 0.1j])
        aberth = poly.aberth_roots
        monkeypatch.setattr(poly, "aberth_roots", lambda c: aberth(c) + shift)
        with pytest.raises(RootFindingError, match="backward-error bound"):
            p.find_roots()

    @pytest.mark.parametrize("s", [1e-8, 1e-9, 1e-12])
    def test_tiny_distinct_pair_kept(self, s):
        # (z - s)(z - 1.5 s): the certifier resolves both roots, which
        # must come back apart, not averaged into one point at 1.25 s
        got = np.sort(Polynomial.from_roots([s, 1.5 * s]).find_roots().as_array().real)
        assert np.abs(got - [s, 1.5 * s]).max() <= 1e-12 * s

    def test_false_double_root_rejected(self, monkeypatch):
        # two distinct roots reported at their midpoint: the merge on p'
        # must fail the budget of p, and the certificate must refuse it
        p = Polynomial.from_roots([0.3, 0.3 + 1e-6, -0.5j])
        monkeypatch.setattr(poly, "aberth_roots", lambda c: np.array([0.3 + 5e-7, 0.3 + 5e-7, -0.5j]))
        with pytest.raises(RootFindingError):
            p.find_roots()


class TestBackwardContract:
    """The root contract is backward, not forward: each returned point is
    an exact root, and each m-fold point an m-fold root, of a polynomial
    within gamma of p componentwise.  Recorded finding: on the roots k/20,
    k = 1..20, whose rounded coefficients have 20 simple roots, find_roots
    merges backward-valid clouds into double and triple points."""

    EXACT = [k / 20 for k in range(1, 21)]

    def test_k20_merges_are_backward_valid(self):
        p = Polynomial.from_roots(self.EXACT)
        counts = Counter(p.find_roots().points)
        assert len(counts) == 13
        assert sorted(counts.values()) == [1] * 8 + [2, 2, 2, 3, 3]
        # at 50 digits, every m-fold point meets the budgets of t_0..t_(m-1)
        n = p.degree
        with mpmath.workdps(50):
            c = [mpmath.mpc(z) for z in p.coeffs]
            for x, m in counts.items():
                x = mpmath.mpc(x)
                for j in range(m):
                    t = mpmath.fsum(comb(i, j) * c[i] * x ** (i - j) for i in range(j, n + 1))
                    terms = mpmath.fsum(comb(i, j) * abs(c[i]) * abs(x) ** (i - j) for i in range(j, n + 1))
                    assert abs(t) <= poly._gamma(n, j) * terms

    def test_k20_forward_error_exceeds_companion_route(self):
        # not a forward bound: the merged points sit 8.0e-2 from the exact
        # roots, where companion eigenvalues (np.roots) stay within 2.0e-3
        p = Polynomial.from_roots(self.EXACT)
        mine = bottleneck_match(p.find_roots().points, self.EXACT)
        ref = bottleneck_match(np.roots(np.array(p.coeffs)[::-1]), self.EXACT)
        assert 7.5e-2 <= mine <= 8.5e-2
        assert ref <= 2.5e-3


def per_order_taylor(coeffs):
    """The per-order evaluator the Taylor rows replaced: two Horner passes
    (value and budget) for each order j on the row C(i, j) c_i, i >= j."""
    n = len(coeffs) - 1

    def taylor(x, k):
        t = np.zeros((k + 1, len(x)), dtype=complex)
        b = np.full((k + 1, len(x)), poly._TINY)
        for j in range(min(k, n) + 1):
            row = coeffs[j:] * poly._BINOM[j : n + 1, j]
            t[j] = poly._horner(row, x)
            b[j] += poly._gamma(n, j) * poly._horner(np.abs(row), np.abs(x))
        return t, b

    return taylor


def mp_taylor(coeffs, x, j):
    """t_j(x) = sum_i C(i, j) c_i x^(i-j) at the working mpmath precision."""
    c = [mpmath.mpc(v) for v in coeffs]
    x = mpmath.mpc(x)
    out = mpmath.mpc(0)
    for i in range(len(c) - 1, j - 1, -1):
        out = out * x + comb(i, j) * c[i]
    return out


def geometry_roots(shape, n, rng):
    if shape == "disk":
        return poly.disk_points(rng, n)
    if shape == "square":
        return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    if shape == "cluster":
        # n // 4 triple roots, then double roots, at well separated centres
        triples = n // 4
        mults = [3] * triples + [2] * ((n - 3 * triples) // 2)
        mults += [1] * (n - sum(mults))
        centres = 0.9 * roots_of_unity(len(mults), phase=0.1) * rng.uniform(0.5, 1.0, len(mults))
        return np.repeat(centres, mults)
    return mz.construct(mz.ZeroMaximalSpec(n=n, theta=float(rng.uniform(0, 2 * np.pi)))).find_roots().as_array()


class TestTaylorRows:
    """_poly_taylor evaluates every order t_j = p^(j) / j! and its budget
    gamma_j sum_i |R_ji| |x|^i in one Horner pass over the Taylor rows."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_per_order_horner(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 65):
            c = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) * 10.0 ** rng.uniform(-8, 8)
            x = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) * 10.0 ** rng.uniform(-3, 3)
            rows, ref = poly._poly_taylor(c), per_order_taylor(c)
            for k in (0, 1, 2, n, n + 1):
                (t, b), (t_ref, b_ref) = rows(x, k), ref(x, k)
                assert t.tobytes() == t_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("shape", ["disk", "square", "cluster", "extremal"])
    def test_budget_holds_against_mpmath(self, shape, n):
        rng = np.random.default_rng(n)
        p = Polynomial.from_roots(geometry_roots(shape, n, rng))
        c = np.array(p.coeffs)
        # Aberth's start circle, the certified roots and points near them
        radius = 1.0 + max(abs(c[n - k] / c[n]) ** (1.0 / k) for k in range(1, n + 1))
        start = radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
        roots = p.find_roots().as_array()
        nudge = np.exp(2j * np.pi * rng.uniform(size=n))
        pick = slice(0, n, n // 4)
        x = np.concatenate([start[pick], roots[pick], (roots + 1e-6 * nudge)[pick], (roots + 1e-3 * nudge)[pick]])
        t, b = poly._poly_taylor(c)(x, n)
        with mpmath.workdps(50):
            for col, xv in enumerate(x):
                for j in range(n + 1):
                    assert abs(t[j, col] - mp_taylor(c, xv, j)) <= b[j, col]

    def test_shifted_degree_cap_against_mpmath(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 64))
        s = complex(disk_points(rng, 1)[0])
        got = p.shifted(s).coeffs
        with mpmath.workdps(50):
            for j in range(65):
                terms = sum(comb(i, j) * abs(p.coeffs[i]) * abs(s) ** (i - j) for i in range(j, 65))
                assert abs(got[j] - mp_taylor(p.coeffs, s, j)) <= poly._gamma(64, j) * terms


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

    def test_from_points_only_sorts(self):
        pts = [2e-9 + 0j, 0j, 1e-9 + 0j, 1e-9 + 0j]
        assert RootSet.from_points(pts).points == (0j, 1e-9 + 0j, 1e-9 + 0j, 2e-9 + 0j)

    def test_rootset_len_and_array(self):
        rs = RootSet((1.0 + 0j, -1.0 + 0j))
        assert len(rs) == 2
        assert rs.as_array().dtype == complex


class TestClusterIndices:
    """cluster_indices against the connected components of the graph
    d < tol (scipy.sparse.csgraph), on clouds built to stress the
    single-linkage forest: chains, exact repeats, and pairs just inside
    and just outside tol."""

    TOL = 1e-3

    @staticmethod
    def _cloud(rng, n, tol):
        pts = disk_points(rng, n)
        for k in range(1, n):
            kind = rng.integers(5)
            turn = np.exp(2j * np.pi * rng.uniform())
            if kind == 0:  # chain link: within tol of the previous point
                pts[k] = pts[k - 1] + 0.9 * tol * turn
            elif kind == 1:  # exact repeat of an earlier point
                pts[k] = pts[rng.integers(k)]
            elif kind == 2:  # pair on either side of tol
                pts[k] = pts[rng.integers(k)] + tol * (1 + rng.choice([-1e-9, 1e-9])) * turn
        return pts

    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_connected_components(self, n):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            pts = self._cloud(rng, n, self.TOL)
            _, label = connected_components(np.abs(pts[:, None] - pts) < self.TOL, directed=False)
            groups = {}
            for i, g in enumerate(label):
                groups.setdefault(g, []).append(i)
            assert cluster_indices(pts, self.TOL) == sorted(groups.values())
