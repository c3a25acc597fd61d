import itertools
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.optimize

from polycrit.poly import Polynomial
from polycrit import majorization as mj, poly, suite

from conftest import disk_points

EPS = float(np.finfo(float).eps)


def power_minus_z(n):
    coeffs = [0.0] * (n + 1)
    coeffs[1] = -1.0
    coeffs[n] = 1.0
    return Polynomial(tuple(coeffs))


class TestTuples:
    def test_pm_one_first_order(self):
        p = Polynomial((-1.0, 0.0, 1.0))
        Z = mj.tuple_Z(p, 0.0, 1)
        W = mj.tuple_W(p, 0.0, 1)
        assert sorted(v.real for v in Z.values) == [-1.0, 1.0]
        assert len(W.values) == 1 and abs(W.values[0]) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_family_moduli(self, n):
        W = mj.tuple_W(power_minus_z(n), 0.0, 1)
        assert np.abs(np.abs(np.array(W.values)) - n ** (-1 / (n - 1))).max() <= 1e-12

    def test_cubic_pair_products(self):
        p = power_minus_z(3)
        Z = mj.tuple_Z(p, 0.0, 2)
        W = mj.tuple_W(p, 0.0, 2)
        assert sorted(round(v.real, 9) for v in Z.values) == [-1.0, 0.0, 0.0]
        assert len(W.values) == 1
        assert abs(W.values[0] - (-1 / 3)) <= 1e-12

    def test_counts_match_binomials(self, rng):
        p = Polynomial.from_roots(disk_points(rng, 6, min_sep=1e-2))
        for k in range(1, 6):
            assert len(mj.tuple_Z(p, 0.1j, k).values) == math.comb(6, k)
            assert len(mj.tuple_W(p, 0.1j, k).values) == math.comb(5, k)

    def test_blowup_capped(self):
        p = Polynomial.from_roots(0.9 * np.exp(2j * np.pi * np.arange(16) / 16))
        with pytest.raises(ValueError, match="blowup"):
            mj.tuple_Z(p, 0.0, 8)

    def test_k_range_guard(self):
        p = power_minus_z(3)
        with pytest.raises(ValueError):
            mj.tuple_Z(p, 0.0, 3)

    @pytest.mark.parametrize("alpha", [complex("nan"), complex("inf"), complex(0.5, float("-inf"))])
    @pytest.mark.parametrize("build", [mj.tuple_W, mj.tuple_Z])
    def test_non_finite_centre_named(self, build, alpha):
        # refused before any product is formed, so numpy warns of nothing
        # (warnings are errors under this suite's settings)
        with pytest.raises(ValueError, match=r"alpha is not finite: \(") as info:
            build(power_minus_z(4), alpha, 2)
        assert str(alpha) in str(info.value)

    def test_relabeling_invariance(self, rng):
        roots = disk_points(rng, 5, min_sep=1e-2)
        t1 = mj.tuple_Z(Polynomial.from_roots(roots), 0.2, 2)
        t2 = mj.tuple_Z(Polynomial.from_roots(roots[::-1]), 0.2, 2)
        a = sorted(t1.values, key=lambda z: (z.real, z.imag))
        b = sorted(t2.values, key=lambda z: (z.real, z.imag))
        assert np.abs(np.array(a) - np.array(b)).max() <= 1e-10


class TestCheckMajorization:
    def test_centroid_witness(self):
        X = mj.ProductTuple((0.0 + 0j,), 0.0, 1)
        Y = mj.ProductTuple((1.0 + 0j, -1.0 + 0j), 0.0, 1)
        cert = mj.check_majorization(X, Y)
        assert cert is not None
        assert np.allclose(cert.R, [[0.5, 0.5]])

    def test_outside_hull_infeasible(self):
        X = mj.ProductTuple((2.0 + 0j,), 0.0, 1)
        Y = mj.ProductTuple((1.0 + 0j, -1.0 + 0j), 0.0, 1)
        assert mj.check_majorization(X, Y) is None

    def test_genuine_pairs_feasible_all_orders(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            p = Polynomial.from_roots(disk_points(rng, n))
            for k in range(1, n):
                cert = mj.check_majorization(mj.tuple_W(p, 0.0, k), mj.tuple_Z(p, 0.0, k))
                assert cert is not None
                assert cert.row_sum_residual <= 1e-8
                assert cert.col_sum_residual <= 1e-8
                assert cert.neg_entry <= 1e-9
                assert cert.reconstruction_residual <= 1e-7

    def test_corrupted_mean_infeasible(self, rng):
        # a shifted critical tuple moves the mean, which a rectangularly
        # stochastic matrix always preserves
        p = Polynomial.from_roots(disk_points(rng, 4, min_sep=1e-2))
        W = mj.tuple_W(p, 0.0, 1)
        shifted = mj.ProductTuple(tuple(v + 3.0 for v in W.values), 0.0, 1)
        assert mj.check_majorization(shifted, mj.tuple_Z(p, 0.0, 1)) is None

    def test_size_order_guard(self):
        X = mj.ProductTuple((0.0 + 0j, 1.0 + 0j), 0.0, 1)
        Y = mj.ProductTuple((1.0 + 0j,), 0.0, 1)
        with pytest.raises(ValueError, match="len"):
            mj.check_majorization(X, Y)


# a degree-6 root set on which the dense simplex returned an R with an
# entry of -0.33 at k = 2
NEGATIVE_R_ROOTS = [
    -0.33826113889660103 + 0.686997058263225j,
    -0.8874218436436567 - 0.3163459749048958j,
    -0.14167207209879162 + 0.8292807855711284j,
    0.11228782793249081 - 0.02089620953610094j,
    0.513557865821225 + 0.12769803281797398j,
    0.30977726118443205 - 0.1031782035710127j,
]


class TestHighDegree:
    """Genuine pairs at degrees 6-8, where the simplex returned invalid
    certificates or neared its pivot cap, against HiGHS verdicts."""

    @staticmethod
    def _highs_feasible(X, Y) -> bool:
        x, y = np.asarray(X.values), np.asarray(Y.values)
        m, n = len(x), len(y)
        eye = np.eye(m)
        A = np.vstack([
            np.kron(eye, np.ones(n)),
            np.kron(np.ones(m), np.eye(n)),
            np.kron(eye, y.real),
            np.kron(eye, y.imag),
        ])
        b = np.concatenate([np.ones(m), np.full(n, m / n), x.real, x.imag])
        res = scipy.optimize.linprog(np.zeros(m * n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        return res.status == 0

    def _check(self, p, k):
        W, Z = mj.tuple_W(p, 0.0, k), mj.tuple_Z(p, 0.0, k)
        assert self._highs_feasible(W, Z)
        cert = mj.check_majorization(W, Z)
        assert cert is not None
        assert cert.neg_entry == 0.0
        assert cert.holds

    @pytest.mark.parametrize("deg", [7, 8])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_against_highs(self, deg, k):
        self._check(Polynomial.from_roots(disk_points(np.random.default_rng(deg), deg)), k)

    def test_degree6_pair_with_negative_simplex_entry(self):
        self._check(Polynomial.from_roots(NEGATIVE_R_ROOTS), 2)

    def test_degree16_top_order_at_unit_scale(self):
        # 1,800 variables; the products of 14 points are small beside the
        # sum rows' unit entries, and NNLS on unscaled rows rejects the pair
        self._check(Polynomial.from_roots(disk_points(np.random.default_rng(0), 16)), 14)


class TestDbsInequality:
    def test_quartic_modulus_means(self):
        p = power_minus_z(4)
        lhs, rhs = mj.dbs_inequality(mj.tuple_W(p, 0.0, 1), mj.tuple_Z(p, 0.0, 1), "abs")
        assert abs(lhs - 4 ** (-1 / 3)) <= 1e-10
        assert abs(rhs - 0.75) <= 1e-12
        assert lhs <= rhs

    def test_linear_functional_equality(self, rng):
        # means of re are equal at first order: the critical centroid
        # matches the root centroid
        p = Polynomial.from_roots(disk_points(rng, 5))
        lhs, rhs = mj.dbs_inequality(mj.tuple_W(p, 0.0, 1), mj.tuple_Z(p, 0.0, 1), "re")
        assert abs(lhs - rhs) <= 1e-10

    def test_squared_modulus(self):
        p = Polynomial((-1.0, 0.0, 1.0))
        lhs, rhs = mj.dbs_inequality(mj.tuple_W(p, 0.0, 1), mj.tuple_Z(p, 0.0, 1), "abs2")
        assert abs(lhs) <= 1e-14
        assert abs(rhs - 1.0) <= 1e-14

    def test_all_builtins_dominated_for_genuine_pairs(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 7))
            p = Polynomial.from_roots(disk_points(rng, n))
            for k in (1, n - 1):
                W, Z = mj.tuple_W(p, 0.0, k), mj.tuple_Z(p, 0.0, k)
                if mj.check_majorization(W, Z) is None:
                    continue
                for f_id in mj.CONVEX_TESTS:
                    lhs, rhs = mj.dbs_inequality(W, Z, f_id)
                    assert lhs <= rhs + 1e-9, f_id

    def test_parameterized_distance(self):
        p = power_minus_z(3)
        lhs, rhs = mj.dbs_inequality(
            mj.tuple_W(p, 0.0, 1), mj.tuple_Z(p, 0.0, 1), "dist:0.3,-0.2"
        )
        assert lhs <= rhs + 1e-9

    def test_unknown_identifier(self):
        p = power_minus_z(3)
        with pytest.raises(ValueError, match="unknown convex test"):
            mj.dbs_inequality(mj.tuple_W(p, 0.0, 1), mj.tuple_Z(p, 0.0, 1), "cube")


class TestSymmetricMeanIdentity:
    def test_genuine_pairs_vanish(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            p = Polynomial.from_roots(disk_points(rng, n))
            for k in range(1, n):
                for _ in range(10):
                    alpha = complex(*rng.uniform(-1, 1, 2))
                    assert mj.symmetric_mean_identity(p, alpha, k) <= 1e-9

    def test_equals_the_means_of_the_tuples(self, rng):
        # the Vieta means against the means of the product tuples, to the
        # rounding of a mean of products (about n eps times their moduli)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            p = Polynomial.from_roots(disk_points(rng, n))
            for k in range(1, n):
                alpha = complex(*rng.uniform(-1, 1, 2))
                W, Z = mj.tuple_W(p, alpha, k), mj.tuple_Z(p, alpha, k)
                ref = abs(complex(np.mean(np.asarray(W.values))) - complex(np.mean(np.asarray(Z.values))))
                scale = max(np.abs(W.values).mean(), np.abs(Z.values).mean())
                assert abs(mj.symmetric_mean_identity(p, alpha, k) - ref) <= 16 * n * EPS * scale

    def test_arrays_of_centres_and_orders(self, rng):
        # one call over broadcast centres and orders gives, entry by entry,
        # the scalar call's value bit for bit
        p = Polynomial.from_roots(disk_points(rng, 6))
        alphas = rng.uniform(-2, 2, (5, 4, 2)).view(complex)[..., 0]
        ks = np.arange(1, 6)[:, None]
        got = mj.symmetric_mean_identity(p, alphas, ks)
        assert got.shape == (5, 4)
        for k in range(1, 6):
            for j, alpha in enumerate(alphas[k - 1]):
                assert repr(float(got[k - 1, j])) == repr(mj.symmetric_mean_identity(p, alpha, k))
        assert isinstance(mj.symmetric_mean_identity(p, 0.5, 2), float)

    @pytest.mark.parametrize("k", [0, 6, [1, 2, 6]])
    def test_order_outside_range_raises(self, k):
        with pytest.raises(ValueError, match="k must satisfy"):
            mj.symmetric_mean_identity(Polynomial.from_roots([0.1, 0.2j, -0.3, 0.4, 0.5j, -0.6j]), 0.0, k)

    def test_first_non_finite_centre_named(self):
        with pytest.raises(ValueError, match=re.escape("alpha is not finite: (inf+0j)")):
            mj.symmetric_mean_identity(power_minus_z(4), [0.1, complex("inf"), complex("nan")], 2)

    def test_corrupted_critical_set_breaks_identity(self, rng):
        # moving one critical point by 0.1 shifts the first-order mean by
        # 0.1/(n-1), far above the identity tolerance
        p = Polynomial.from_roots(disk_points(rng, 5, min_sep=1e-2))
        W = mj.tuple_W(p, 0.0, 1)
        Z = mj.tuple_Z(p, 0.0, 1)
        corrupted = np.array(W.values)
        corrupted[0] += 0.1
        residual = abs(np.mean(corrupted) - np.mean(np.array(Z.values)))
        assert residual > 1e-3

    def test_top_order_reduces_to_derivative_at_origin(self, rng):
        for n in (3, 4, 6):
            p = Polynomial.from_roots(disk_points(rng, n, min_sep=1e-2))
            W = mj.tuple_W(p, 0.0, n - 1)
            prod_w = W.values[0]
            expect = (-1.0) ** (n - 1) * p.derivative()(0.0) / n
            assert abs(prod_w - expect) <= 1e-10
            assert mj.symmetric_mean_identity(p, 0.0, n - 1) <= 1e-9


def table_means(points, alpha, k):
    """The mean of the k-subset products of (points - alpha) from their
    product table, as majorization._products builds it, and the mean of
    their moduli: the oracle of the Vieta means and its rounding scale."""
    prods = np.array([np.prod(c) for c in itertools.combinations(np.asarray(points) - alpha, k)])
    return complex(prods.mean()), float(np.abs(prods).mean())


class TestVietaMeans:
    """majorization._subset_means, e_k / C(n, k) by one Leja expansion per
    centre, against the product tables and a 50-digit evaluation."""

    @staticmethod
    def point_sets(rng):
        for n in range(1, 11):
            yield disk_points(rng, n)
            yield np.repeat(disk_points(rng, (n + 1) // 2), 2)[:n]  # double points
            yield np.full(n, 0.3 - 0.2j)  # one n-fold point
            yield disk_points(rng, n, max_mod=1e-3)  # a cluster

    def test_against_product_tables(self, rng):
        for points in self.point_sets(rng):
            n = len(points)
            # centres in the disk, off it, and on a point
            alphas = np.r_[rng.uniform(-1, 1, (3, 2)).view(complex)[:, 0], 3.0 - 4.0j, -10.0, points[0]]
            for k in range(1, n + 1):
                got = mj._subset_means(points, alphas, np.full(len(alphas), k))
                for alpha, g in zip(alphas, got):
                    ref, scale = table_means(points, alpha, k)
                    assert abs(g - ref) <= 8 * n * EPS * scale, (n, k, alpha)

    def test_degree_20_at_order_10_against_mpmath(self, rng):
        # C(20, 10) = 184,756 products: over TUPLE_CAP, so no table is built
        p = Polynomial.from_roots(disk_points(rng, 20, min_sep=1e-2))
        alpha, k = complex(0.3, -0.4), 10
        with pytest.raises(ValueError, match="blowup"):
            mj.tuple_Z(p, alpha, k)
        means = []
        for q in (p, p.derivative()):
            points = q.find_roots().as_array()
            with mpmath.workdps(50):
                e = [mpmath.mpc(1)] + [mpmath.mpc(0)] * k  # e_0..e_k by the recurrence e_j += w e_(j-1)
                for w in points:
                    w = mpmath.mpc(w.real, w.imag) - mpmath.mpc(alpha.real, alpha.imag)
                    for j in range(k, 0, -1):
                        e[j] += w * e[j - 1]
                exact = e[k] / math.comb(len(points), k)
            got = mj._subset_means(points, np.array([alpha]), np.array([k]))[0]
            assert abs(got - complex(exact)) <= 1e-10 * abs(complex(exact))
            means.append(exact)
        identity = mj.symmetric_mean_identity(p, alpha, k)
        with mpmath.workdps(50):
            ref = float(abs(means[1] - means[0]))
        assert abs(identity - ref) <= 1e-10 * abs(complex(means[0]))
        assert identity <= 1e-9


def test_criterion_11_corpus_is_the_per_polynomial_draw():
    """Criterion 11's corpus, found by degree in stacks, against the draw
    loop it replaced: per polynomial n, its zeros, then ten centers per k
    as complex(*uniform(-1, 1, 2)), with find_roots per polynomial."""
    rng = np.random.default_rng(suite.SEED + 3)
    corpus = suite._majorization_corpus()
    assert len(corpus) == 100
    for p, alphas in corpus:
        n = int(rng.integers(2, 7))
        q = Polynomial.from_roots(poly.disk_points(rng, n))
        ref = [[complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(10)] for _ in range(1, n)]
        assert p.coeffs == q.coeffs
        assert alphas.tobytes() == np.array(ref).tobytes()
        for a, b in ((p, q), (p.derivative(), q.derivative())):
            assert np.array(a.find_roots().points).tobytes() == np.array(b.find_roots().points).tobytes()
