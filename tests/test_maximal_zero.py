import math
from collections import Counter

import numpy as np
import pytest

from polycrit.metrics import alpha_distance, directed_hausdorff
from polycrit.poly import Polynomial
from polycrit import maximal_zero as mz

from conftest import disk_points, scaled, shifted


def self_inversive_residual(p):
    """max_k |a_k conj(a_0) - a_n conj(a_{n-k})|, zero when all roots are
    unimodular."""
    a = np.array(p.coeffs)
    n = p.degree
    return float(max(abs(a[k] * np.conj(a[0]) - a[n] * np.conj(a[n - k])) for k in range(n)))


def critical_circle_residual(q, alpha, R):
    """Residual of the derivative-reflection identity when all critical
    points of q lie at distance R from the zero alpha:

        (n-k-1)! n R^{2k} q^{(k+1)}(alpha) = k! q'(alpha) conj(q^{(n-k)}(alpha))

    for k = 0..n-1.  Each side scales like s^(n+k-1) under q -> s^n q(z/s),
    alpha -> s alpha, R -> s R, so each difference is reported relative to
    k! |q'(alpha)| (n-k)! |c_n| R^k, a magnitude of that degree.  The
    derivatives are coefficient-wise (nth_derivative), evaluated by Horner.
    """
    alpha = complex(alpha)
    if not R > 0:
        raise ValueError("R must be positive")
    if not q.vanishes_at(alpha):
        raise ValueError("alpha must be a zero of q")
    n = q.degree
    crit = q.derivative().find_roots().as_array()
    if np.abs(np.abs(crit - alpha) - R).max() > 1e-6 * R:
        raise ValueError("critical points do not all lie at distance R from alpha")
    dvals = [q.nth_derivative(k)(alpha) for k in range(n + 1)]
    lead = abs(q.coeffs[-1])
    worst = 0.0
    for k in range(n):
        lhs = math.factorial(n - k - 1) * n * R ** (2 * k) * dvals[k + 1]
        rhs = math.factorial(k) * dvals[1] * np.conj(dvals[n - k])
        size = math.factorial(k) * abs(dvals[1]) * math.factorial(n - k) * lead * R**k
        worst = max(worst, abs(lhs - rhs) / size)
    return worst


def affine_image(q, a, R):
    """s^n q((z - a) / s) with s = R n^(1/(n-1)): construct's q moved so
    that its zero sits at a and its critical points at distance R from a."""
    n = q.degree
    return shifted(scaled(q, R * n ** (1 / (n - 1))), -a)


def lambda_bound(n):
    m = (n - 1) // 2
    return 2 * np.sqrt(2 * m + 1) / (m + 1)


class TestConstruct:
    def test_even_quartic(self):
        p = mz.construct(mz.ZeroMaximalSpec(n=4, theta=0.0))
        assert np.allclose(p.coeffs, [0.0, 1.0, 0.0, 0.0, 1.0])

    def test_odd_boundary_lambda_has_double_critical_points(self):
        p = mz.construct(mz.ZeroMaximalSpec(n=3, theta=0.0, lam=np.sqrt(3)))
        assert np.allclose(p.coeffs, [0.0, 1.0, np.sqrt(3), 1.0], atol=1e-12)
        dp = p.derivative()  # 3z^2 + 2 sqrt(3) z + 1: zero discriminant
        b, a, c = dp.coeffs[1], dp.coeffs[2], dp.coeffs[0]
        assert abs(b * b - 4 * a * c) <= 1e-12
        assert list(Counter(dp.find_roots().points).values()) == [2]

    def test_odd_rotated_reduces_to_power_minus_z(self):
        p = mz.construct(mz.ZeroMaximalSpec(n=5, theta=np.pi / 2, lam=0.0))
        expect = [0.0, -1.0, 0.0, 0.0, 0.0, 1.0]  # z^5 - z
        assert np.allclose(p.coeffs, expect, atol=1e-14)

    def test_lambda_bound_enforced(self):
        bound = 2 * np.sqrt(5) / 3  # n = 5, m = 2
        mz.ZeroMaximalSpec(n=5, theta=0.0, lam=bound - 1e-9)
        with pytest.raises(ValueError, match="lambda"):
            mz.ZeroMaximalSpec(n=5, theta=0.0, lam=bound + 1e-6)

    def test_rotation_covariance_even_family(self, rng):
        n = 6
        for _ in range(5):
            alpha = rng.uniform(0, 2 * np.pi)
            theta = rng.uniform(0, 2 * np.pi)
            theta_prime = theta + (n - 1) * alpha
            p = mz.construct(mz.ZeroMaximalSpec(n=n, theta=theta))
            q = mz.construct(mz.ZeroMaximalSpec(n=n, theta=theta_prime))
            # e^{-i n alpha} q(e^{i alpha} z) coefficientwise
            rot = [np.exp(1j * alpha * (k - n)) * c for k, c in enumerate(q.coeffs)]
            assert np.abs(np.array(rot) - np.array(p.coeffs)).max() <= 1e-12


class TestVerify:
    def test_quartic_positive(self):
        rep = mz.verify_0maximal(Polynomial((0.0, 1.0, 0.0, 0.0, 1.0)))
        assert rep.is_0maximal
        assert abs(rep.radius - 4 ** (-1 / 3)) <= 1e-12

    def test_shrunk_coefficient_negative(self):
        rep = mz.verify_0maximal(Polynomial((0.0, 0.5, 0.0, 0.0, 1.0)))
        assert not rep.is_0maximal
        assert abs(rep.radius - 0.5) <= 1e-12  # (1/8)^{1/3}

    def test_overweight_middle_negative(self):
        rep = mz.verify_0maximal(Polynomial((0.0, 1.0, 2.0, 1.0)))
        assert not rep.is_0maximal
        assert rep.crit_modulus_deviation > 1e-3

    def test_requires_zero_at_origin(self):
        with pytest.raises(ValueError, match="p\\(0\\)"):
            mz.verify_0maximal(Polynomial((1.0, 0.0, 1.0)))

    def test_requires_monic(self):
        with pytest.raises(ValueError, match="monic"):
            mz.verify_0maximal(Polynomial((0.0, 1.0, 2.0)))

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_parameter_sweep_radius(self, n):
        thetas = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        lams = (
            np.linspace(-2 * np.sqrt(n) / ((n + 1) / 2), 2 * np.sqrt(n) / ((n + 1) / 2), 20)
            if n % 2
            else [0.0]
        )
        target = n ** (-1 / (n - 1))
        for theta in thetas:
            for lam in lams:
                p = mz.construct(mz.ZeroMaximalSpec(n=n, theta=float(theta), lam=float(lam)))
                cc = alpha_distance(p, 0.0)
                assert abs(cc.radius - target) <= 1e-10

    def test_constructed_family_attains_directed_distance(self, rng):
        # d(p) coincides with the critical radius at the origin
        for n in (4, 5, 6, 7):
            theta = rng.uniform(0, 2 * np.pi)
            p = mz.construct(mz.ZeroMaximalSpec(n=n, theta=theta))
            d, _ = directed_hausdorff(p)
            assert abs(d - n ** (-1 / (n - 1))) <= 1e-9

    def test_odd_family_with_middle_term_attains_directed_distance(self, rng):
        for n in (5, 7):
            bound = 2 * np.sqrt(n) / ((n + 1) / 2)
            for lam in (-0.8 * bound, 0.4 * bound, bound):
                p = mz.construct(mz.ZeroMaximalSpec(n=n, theta=0.7, lam=float(lam)))
                d, _ = directed_hausdorff(p)
                assert abs(d - n ** (-1 / (n - 1))) <= 1e-8

    def test_random_disk_polynomials_fall_short(self, rng):
        # 500 seeded draws with a zero pinned at the origin never reach the
        # extremal radius
        count = 0
        while count < 500:
            n = int(rng.integers(2, 9))
            roots = disk_points(rng, n)
            roots[0] = 0.0
            p = Polynomial.from_roots(roots)
            cc = alpha_distance(p, 0.0)
            assert cc.radius < n ** (-1 / (n - 1)) - 1e-10
            count += 1


class TestSelfInversive:
    def test_roots_of_unity(self):
        p = Polynomial((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0))  # z^5 - 1
        assert self_inversive_residual(p) <= 1e-15

    def test_conjugate_unimodular_pair(self):
        p = Polynomial.from_roots([np.exp(1j), np.exp(-1j)])
        assert self_inversive_residual(p) <= 1e-12

    def test_negative_control(self):
        p = Polynomial((-0.25, 0.0, 1.0))
        assert self_inversive_residual(p) > 0.5


class TestCriticalCircleSymmetry:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_minus_z(self, n):
        coeffs = [0.0] * (n + 1)
        coeffs[1] = -1.0
        coeffs[n] = 1.0
        res = critical_circle_residual(
            Polynomial(tuple(coeffs)), 0.0, n ** (-1 / (n - 1))
        )
        assert res <= 1e-9

    def test_quadratic_single_critical_point(self):
        for theta in (0.0, 0.7, 2.4):
            p = Polynomial((0.0, 2 * np.exp(1j * theta), 1.0))
            assert critical_circle_residual(p, 0.0, 1.0) <= 1e-12

    def test_odd_family_interior_lambda(self):
        p = mz.construct(mz.ZeroMaximalSpec(n=5, theta=0.4, lam=1.0))
        assert critical_circle_residual(p, 0.0, 5 ** (-1 / 4)) <= 1e-9

    def test_unequal_radii_rejected(self):
        p = Polynomial.from_roots([0.0, 0.9, -0.5])
        with pytest.raises(ValueError, match="distance R"):
            critical_circle_residual(p, 0.0, 0.5)

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-7])
    def test_scale_free(self, s):
        # q -> s^n q(z / s) moves alpha to s alpha and R to s R; the residual
        # stays at rounding instead of shrinking like s^(n+k-1)
        for n in (4, 5, 8):
            coeffs = [0.0] * (n + 1)
            coeffs[1] = -1.0
            coeffs[n] = 1.0
            q = scaled(Polynomial(tuple(coeffs)), s)
            assert critical_circle_residual(q, 0.0, s * n ** (-1 / (n - 1))) <= 1e-13
        odd = scaled(mz.construct(mz.ZeroMaximalSpec(n=5, theta=0.4, lam=1.0)), s)
        assert critical_circle_residual(odd, 0.0, s * 5 ** (-1 / 4)) <= 1e-13

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-7])
    def test_scaled_unequal_radii_rejected(self, s):
        # critical distances differ by 270 %; an absolute 1e-6 circle gate
        # accepted them at s = 1e-7
        q = scaled(Polynomial.from_roots([0.0, 0.5, -0.3j, 0.2 - 0.6j]), s)
        R = float(np.abs(q.derivative().find_roots().as_array()).min())
        with pytest.raises(ValueError, match="distance R"):
            critical_circle_residual(q, 0.0, R)

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-7])
    def test_scaled_nonzero_alpha_rejected(self, s):
        # |q(0)| = 1e-9 s^4 is far above rounding for z^4 + z + 1e-9
        q = scaled(Polynomial((1e-9, 1.0, 0.0, 0.0, 1.0)), s)
        with pytest.raises(ValueError, match="zero of q"):
            critical_circle_residual(q, 0.0, s * 4 ** (-1 / 3))


class TestRhoExtremal:
    """The claims on the translated/scaled extremal family, made on the
    affine image of construct's polynomial: p(a) = 0, every critical point
    at distance R from a, and the farthest root at R n^(1/(n-1))."""

    def test_unit_quadratic(self):
        p = affine_image(mz.construct(mz.ZeroMaximalSpec(n=2)), 0.0, 1.0)
        assert np.allclose(p.coeffs, [0.0, 2.0, 1.0])
        roots = np.array(sorted(p.find_roots().points, key=lambda z: z.real))
        assert np.allclose(roots, [-2.0, 0.0], atol=1e-12)

    def test_shifted_scaled_quartic(self):
        a, R = 1 + 1j, 0.5
        p = affine_image(mz.construct(mz.ZeroMaximalSpec(n=4, theta=1.0)), a, R)
        assert abs(p(a)) <= 1e-12
        crit = p.derivative().find_roots().as_array()
        assert abs(np.abs(crit - a).min() - R) <= 1e-8
        roots = p.find_roots().as_array()
        assert abs(np.abs(roots - a).max() - R * 4 ** (1 / 3)) <= 1e-8

    @pytest.mark.parametrize("n,lam,a,R", [(5, 0.5, -0.3 + 0.2j, 2.0), (7, -1.0, 0.5j, 0.8), (6, 0.0, 3.0, 1.5)])
    def test_every_critical_point_on_the_circle(self, n, lam, a, R):
        p = affine_image(mz.construct(mz.ZeroMaximalSpec(n=n, theta=1.0, lam=lam)), a, R)
        assert p.vanishes_at(a)
        crit = p.derivative().find_roots().as_array()
        assert np.abs(np.abs(crit - a) - R).max() <= 1e-8 * R
        roots = p.find_roots().as_array()
        assert abs(np.abs(roots - a).max() - R * n ** (1 / (n - 1))) <= 1e-8 * R

    def test_odd_with_middle_term(self):
        p = affine_image(mz.construct(mz.ZeroMaximalSpec(n=3, theta=0.0, lam=1.0)), 0.0, 1.0)
        assert np.allclose(p.coeffs, [0.0, 3.0, np.sqrt(3), 1.0], atol=1e-12)


class TestConstructIdentities:
    """construct against the moved oracles, for n = 2..16 and lambda in
    {0, +-bound/2, bound}: p(z)/z is self-inversive (all nonzero roots
    unimodular) and the reflection identity holds at R = n^(-1/(n-1))."""

    CASES = [(n, f) for n in range(2, 17) for f in ((0.0,) if n % 2 == 0 else (0.0, 0.5, -0.5, 1.0))]

    @pytest.mark.parametrize("n,fraction", CASES)
    def test_self_inversive_and_reflection(self, n, fraction):
        lam = fraction * lambda_bound(n) if n % 2 else 0.0
        R = n ** (-1 / (n - 1))
        for theta in (0.0, 0.4, 2.2, 5.0):
            p = mz.construct(mz.ZeroMaximalSpec(n=n, theta=theta, lam=lam))
            assert self_inversive_residual(Polynomial(p.coeffs[1:])) <= 1e-14
            assert critical_circle_residual(p, 0.0, R) <= 1e-12


class TestScanShadow:
    @pytest.mark.parametrize("n", range(3, 31))
    def test_balance_function_vanishes_only_at_midpoint(self, n):
        # g(x) = n^{2x/(n-1)} (n - x) - n (x + 1) on [1, n-2]
        x = np.arange(1.0, n - 2.0 + 1e-12, 1e-4) if n > 3 else np.array([1.0])
        g = n ** (2 * x / (n - 1)) * (n - x) - n * (x + 1)
        mid = (n - 1) / 2
        assert abs(n ** (2 * mid / (n - 1)) * (n - mid) - n * (mid + 1)) <= 1e-8 * n**2
        sign_changes = np.flatnonzero(np.diff(np.sign(g)) != 0)
        for idx in sign_changes:
            assert abs(x[idx] - mid) <= 2e-4
