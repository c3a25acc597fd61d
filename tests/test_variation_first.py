import numpy as np
import pytest

from polycrit.lp import FEAS_TOL, Verdict, strict_feasibility
from polycrit.poly import MAX_DEGREE, Polynomial
from polycrit import maximal_zero
from polycrit import variation_first as vf

from conftest import disk_points, roots_of_unity, scaled


def moebius_move(roots, t: float, h) -> np.ndarray:
    """z_i(t) = (t h_i + z_i) / (1 + t conj(h_i) z_i) for aligned arrays."""
    z = np.asarray(roots, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if len(h) != len(z):
        raise ValueError("h must align with the roots")
    if np.any(np.abs(h) > 1.0 + 1e-12):
        raise ValueError("perturbation directions must satisfy |h_i| <= 1")
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("all roots must lie in the closed unit disk")
    denom = 1.0 + t * np.conj(h) * z
    if np.any(np.abs(denom) <= 1e-12):
        raise ValueError("denominator underflow in the disk automorphism")
    return (t * h + z) / denom


def power_minus_z(n):
    coeffs = [0.0] * (n + 1)
    coeffs[1] = -1.0
    coeffs[n] = 1.0
    return Polynomial(tuple(coeffs))


def rotated_family(n, theta):
    coeffs = [0.0] * (n + 1)
    coeffs[1] = np.exp(1j * theta)
    coeffs[n] = 1.0
    return Polynomial(tuple(coeffs))


class TestSetup:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_minus_z_all_on_circle(self, n):
        s = vf.setup(power_minus_z(n), 0.0)
        assert s.r == n - 1
        assert s.generic
        assert abs(s.radius - n ** (-1 / (n - 1))) <= 1e-12
        # on-circle points come first and carry the exact radius
        assert all(abs(abs(w) - s.radius) <= 1e-9 for w in s.crit[: s.r])

    def test_cubic_at_unit_zero(self):
        s = vf.setup(power_minus_z(3), 1.0)
        assert s.r == 1
        assert s.generic
        assert abs(s.radius - abs(1 / np.sqrt(3) - 1.0)) <= 1e-12

    def test_full_multiplicity_is_degenerate(self):
        p = Polynomial.from_roots([1.0, 1.0, 1.0])
        s = vf.setup(p, 1.0)
        assert not s.generic

    def test_requires_zero(self):
        with pytest.raises(ValueError, match="not a zero"):
            vf.setup(power_minus_z(3), 0.5)

    def test_distinguished_zero_first(self, rng):
        roots = disk_points(rng, 5, min_sep=1e-2)
        p = Polynomial.from_roots(roots)
        s = vf.setup(p, roots[2])
        assert s.zeros[0] == roots[2]
        assert len(s.zeros) == 5


class TestCoefficients:
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_power_family_closed_forms(self, n):
        # a_1(w) = -(n-1)/(n w) and a_j(w) = w/(n (w - z_j)^2); the first
        # is confirmed against finite differences in test_matches_root_motion
        s = vf.setup(power_minus_z(n), 0.0)
        for i in range(s.r):
            row = vf.coefficients_a(s, i)
            w = s.crit[i]
            assert abs(row[0] - (-(n - 1) / (n * w))) <= 1e-10
            for j in range(1, n):
                assert abs(row[j] - w / (n * (w - s.zeros[j]) ** 2)) <= 1e-10

    def test_matches_root_motion(self, rng):
        # finite-difference oracle for the sensitivity of critical points
        roots = disk_points(rng, 4, min_sep=5e-2, max_mod=0.9)
        p = Polynomial.from_roots(roots)
        dp = p.derivative()
        ddp = dp.derivative()
        w0 = dp.find_roots().as_array()
        eps = 1e-7
        for i in range(4):
            moved = roots.copy()
            moved[i] += eps
            w1 = Polynomial.from_roots(moved).derivative().find_roots().as_array()
            for wj in w0:
                k = np.argmin(np.abs(w1 - wj))
                measured = (w1[k] - wj) / eps
                predicted = -p(wj) / ((wj - roots[i]) ** 2 * ddp(wj))
                assert abs(measured - predicted) <= 1e-5

    def test_index_range_guard(self):
        s = vf.setup(power_minus_z(4), 0.0)
        with pytest.raises(ValueError, match="on-circle"):
            vf.coefficients_a(s, 3)


class TestMatrices:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_column_sums_vanish(self, n):
        s = vf.setup(power_minus_z(n), 0.0)
        B = vf.bmatrix(s)
        assert np.abs(B.sum(axis=0)).max() <= 1e-9

    def test_shape_cubic(self):
        s = vf.setup(power_minus_z(3), 0.0)
        assert vf.bmatrix(s).shape == (2, 3)

    def test_entry_identity_resubstitution(self):
        s = vf.setup(power_minus_z(5), 0.0)
        A = vf.amatrix(s)
        B = vf.bmatrix(s)
        z = np.array(s.zeros)
        assert np.abs(B - (A - np.conj(z[None, :] ** 2 * A))).max() <= 1e-12

    def test_cmatrix_hand_values_cubic(self):
        s = vf.setup(power_minus_z(3), 0.0)
        C = vf.cmatrix(s)
        w1 = 1 / np.sqrt(3)
        # zeros after the origin are sorted lexicographically: -1 then 1
        expect = np.array(
            [
                [(w1 + 1) ** -2, (w1 - 1) ** -2],
                [(-w1 + 1) ** -2, (-w1 - 1) ** -2],
            ]
        )
        assert np.abs(C - expect).max() <= 1e-10

    @pytest.mark.parametrize("n", range(3, 7))
    def test_c_times_d_identity(self, n):
        s = vf.setup(power_minus_z(n), 0.0)
        C, D = vf.cmatrix(s), vf.dmatrix(s)
        assert np.abs(C @ D - np.eye(n - 1)).max() <= 1e-8

    @pytest.mark.parametrize("n, max_mod", [(n, 1.0) for n in range(8, 17)] + [(14, 2.0)])
    def test_dmatrix_is_inverse_of_cmatrix(self, n, max_mod):
        rng = np.random.default_rng(1000 + n)
        p = Polynomial.from_roots(disk_points(rng, n, min_sep=5e-2, max_mod=max_mod))
        s = vf.setup(p, p.find_roots().points[0])
        assert s.generic
        C, D = vf.cmatrix(s), vf.dmatrix(s)
        assert np.abs(C @ D - np.eye(n - 1)).max() <= 1e-8
        inv = np.linalg.inv(C)
        assert np.abs(D - inv).max() <= 1e-8 * np.abs(inv).max()

    def test_dmatrix_at_degree_cap(self):
        # criterion 03's family z (z^(n-1) - 1) at n = 64: the integrand has
        # degree 62, and a 16-node rule (exact to degree 31) misses by 1.6e-7
        n = MAX_DEGREE
        p = Polynomial.from_roots(np.r_[0.0, np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))])
        s = vf.setup(p, 0.0)
        C, D = vf.cmatrix(s), vf.dmatrix(s)
        assert np.abs(C @ D - np.eye(n - 1)).max() <= 1e-8

    @pytest.mark.parametrize("n", range(3, 7))
    def test_det_relation_and_nonsingularity(self, n):
        s = vf.setup(power_minus_z(n), 0.0)
        A_prime = vf.amatrix(s)[:, 1:]
        detA = np.linalg.det(A_prime)
        detC = np.linalg.det(vf.cmatrix(s))
        assert abs(detA - (-1 / n) ** n * detC) <= 1e-10 * max(1, abs(detC))
        assert abs(detA) > 1e-12

    def test_reciprocal_square_sum_identity(self):
        # sum_i w_i/(w_i - z_j)^2 = n/z_j over the unit-circle zeros
        for n in range(3, 9):
            s = vf.setup(power_minus_z(n), 0.0)
            w = np.array(s.crit)
            for z in s.zeros[1:]:
                assert abs(np.sum(w / (w - z) ** 2) - n / z) <= 1e-10


class TestExtensibility:
    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("theta", [0.0, 1.0, np.pi])
    def test_rotated_power_family_inextensible(self, n, theta):
        cert = vf.extensibility(rotated_family(n, theta), 0.0)
        assert cert.verdict is Verdict.POSITIVELY_SINGULAR

    def test_cubic_inextensible_yet_growable(self):
        cert = vf.extensibility(power_minus_z(3), 0.0)
        assert cert.verdict is Verdict.POSITIVELY_SINGULAR
        # the tilted family still grows d: first-order verdicts cannot
        # decide local maximality
        from polycrit.metrics import directed_hausdorff

        base = directed_hausdorff(power_minus_z(3))[0]
        tilted = Polynomial.from_roots([0.15j, 1.0, -1.0])
        assert directed_hausdorff(tilted)[0] > base

    def test_grid_search_oracle_agreement(self, rng):
        # sampled torus directions are a sound one-sided witness; generic
        # interior-zero polynomials are typically extensible
        extensible = 0
        tried = 0
        for _ in range(8):
            roots = disk_points(rng, 5, min_sep=5e-2, max_mod=0.95)
            roots[0] = complex(*(rng.uniform(-0.35, 0.35, 2)))
            p = Polynomial.from_roots(roots)
            s = vf.setup(p, roots[0])
            if not s.generic:
                continue
            tried += 1
            B = vf.bmatrix(s)
            cert = strict_feasibility(B)
            phases = rng.uniform(0, 2 * np.pi, (10_000, 5))
            margins = (B @ np.exp(1j * phases.T)).real.min(axis=0)
            if margins.max() > 1e-6:
                assert cert.verdict is Verdict.STRICTLY_FEASIBLE
            if cert.verdict is Verdict.POSITIVELY_SINGULAR:
                assert margins.max() <= 1e-6
            else:
                extensible += 1
        assert tried >= 5
        assert extensible > tried / 2

    def test_rotation_invariance_of_verdict(self, rng):
        base_roots = disk_points(rng, 4, min_sep=5e-2, max_mod=0.9)
        base_roots[0] = 0.2 + 0.1j
        p = Polynomial.from_roots(base_roots)
        base = vf.extensibility(p, base_roots[0]).verdict
        for _ in range(20):
            alpha = rng.uniform(0, 2 * np.pi)
            rotated = Polynomial.from_roots(base_roots * np.exp(-1j * alpha))
            got = vf.extensibility(rotated, base_roots[0] * np.exp(-1j * alpha)).verdict
            assert got is base

    @pytest.mark.parametrize("n", range(3, 49))
    def test_extremal_family_positively_singular(self, n):
        # a dense simplex found 25 of these n (from n = 21) numerically ambiguous
        p = maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=n, theta=0.7))
        B = vf.bmatrix(vf.setup(p, 0.0))
        cert = strict_feasibility(B)
        assert cert.verdict is Verdict.POSITIVELY_SINGULAR
        mu = np.array(cert.witness_mu)
        assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
        assert np.abs(mu @ B).max() <= FEAS_TOL

    def test_nongeneric_configuration_rejected(self):
        p = Polynomial.from_roots([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-generic"):
            vf.extensibility(p, 1.0)


class TestNonGeneric:
    def _boundary_odd(self, n):
        from polycrit import maximal_zero

        m = (n - 1) // 2
        lam = 2 * np.sqrt(n) / (m + 1)
        return maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=n, theta=0.0, lam=lam))

    def test_unit_phases_and_increment(self, rng):
        p = self._boundary_odd(7)
        s = vf.setup(p, 0.0)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
        data = vf.nongeneric_data(s, h)
        assert all(abs(abs(L) - 1) <= 1e-12 for L in data.L)
        ratios = [data.L[k + 1] / data.L[k] for k in range(len(data.L) - 1)]
        step = np.exp(2j * np.pi / len(data.L))
        assert all(abs(rv - step) <= 1e-12 for rv in ratios)

    def test_boundary_family_well_defined(self, rng):
        for n in (5, 7):
            p = self._boundary_odd(n)
            s = vf.setup(p, 0.0)
            assert not s.generic  # double points on the critical circle
            h = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            data = vf.nongeneric_data(s, h)
            assert np.isfinite(data.c) and abs(data.c) > 1e-12
            assert len(data.L) == 2
            assert data.beta.shape == (2, n)

    @pytest.mark.parametrize("s", [1.0, 1e-2, 1e-3, 1e-6])
    def test_scaled_boundary_direction_accepted(self, s, rng):
        # |d| is 1.51 at s = 1 and 1.6e-10 at s = 1e-2, so an absolute gate
        # on |d| rejected this genuine direction from s = 1e-3 on
        p = scaled(self._boundary_odd(7), s)
        st = vf.setup(p, 0.0)
        assert not st.generic
        data = vf.nongeneric_data(st, np.exp(1j * rng.uniform(0, 2 * np.pi, 7)))
        assert all(abs(abs(L) - 1) <= 1e-12 for L in data.L)
        assert abs(data.L[1] / data.L[0] + 1) <= 1e-12
        with pytest.raises(ValueError, match="degenerate"):
            vf.nongeneric_data(st, np.zeros(7))

    def test_degenerate_direction_rejected(self):
        p = self._boundary_odd(5)
        s = vf.setup(p, 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            vf.nongeneric_data(s, np.zeros(5))

    def test_simple_points_rejected(self):
        s = vf.setup(power_minus_z(4), 0.0)
        with pytest.raises(ValueError, match="simple"):
            vf.nongeneric_data(s, np.ones(4))


class TestPerturb:
    def test_unit_circle_preserved(self, rng):
        roots = roots_of_unity(5, phase=0.3)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        moved = moebius_move(roots, 0.4, h)
        assert np.abs(np.abs(moved) - 1.0).max() <= 1e-12

    def test_stays_in_disk(self, rng):
        roots = disk_points(rng, 6)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        moved = moebius_move(roots, 0.7, h)
        assert np.abs(moved).max() <= 1.0 + 1e-12

    def test_first_order_slope_matches_bmatrix(self, rng):
        s = vf.setup(power_minus_z(4), 0.0)
        B = vf.bmatrix(s)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        t = 1e-5
        moved = moebius_move(np.array(s.zeros), t, h)
        q = Polynomial.from_roots(moved)
        wq = q.derivative().find_roots().as_array()
        for j in range(s.r):
            wj = wq[np.argmin(np.abs(wq - s.crit[j]))]
            slope = (abs(wj - moved[0]) - s.radius) / t
            assert abs(slope - s.radius * (B[j] @ h).real) <= 1e-3

    def test_first_order_slope_on_random_quartics(self, rng):
        # |w_j(t) - z_1(t)| = |p|_a (1 + t Re(B h)_j + O(t^2))
        done = 0
        while done < 5:
            roots = disk_points(rng, 4, min_sep=5e-2, max_mod=0.9)
            p = Polynomial.from_roots(roots)
            s = vf.setup(p, roots[0])
            if not s.generic:
                continue
            done += 1
            B = vf.bmatrix(s)
            h = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            t = 1e-4
            moved = moebius_move(np.array(s.zeros), t, h)
            wq = Polynomial.from_roots(moved).derivative().find_roots().as_array()
            for j in range(s.r):
                wj = wq[np.argmin(np.abs(wq - s.crit[j]))]
                measured = abs(wj - moved[0])
                predicted = s.radius * (1.0 + t * (B[j] @ h).real)
                assert abs(measured - predicted) <= 50 * t * t

    def test_denominator_underflow(self):
        with pytest.raises(ValueError, match="denominator"):
            moebius_move(np.array([1.0 + 0j]), 1 - 1e-13, np.array([-1.0 + 0j]))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="h_i"):
            moebius_move(np.array([0.0 + 0j]), 0.1, np.array([2.0 + 0j]))
        with pytest.raises(ValueError, match="closed unit disk"):
            moebius_move(np.array([1.5 + 0j]), 0.1, np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="t must"):
            moebius_move(np.array([0.0 + 0j]), 1.0, np.array([1.0 + 0j]))
