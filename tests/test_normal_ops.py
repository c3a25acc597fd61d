from collections import Counter

import numpy as np
import pytest

from polycrit.metrics import bottleneck_match
from polycrit.poly import Polynomial, sort_lex
from polycrit import normal_ops as no

from conftest import disk_points, roots_of_unity


class TestDftUnitary:
    def test_n_one(self):
        assert np.allclose(no.dft_unitary(1), [[1.0]])

    def test_n_two_signs(self):
        expect = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        assert np.abs(no.dft_unitary(2) - expect).max() <= 1e-15

    @pytest.mark.parametrize("n", range(2, 17))
    def test_unitarity(self, n):
        U = no.dft_unitary(n)
        assert np.abs(U @ U.conj().T - np.eye(n)).max() <= 1e-12


class TestNormalFromRoots:
    def test_pm_one_compression(self):
        A = no.normal_from_roots([1.0, -1.0])
        assert np.abs(A.entries - np.array([[0.0, -1.0], [-1.0, 0.0]])).max() <= 1e-14
        cp = no.char_poly(A.entries)
        assert np.allclose(cp.coeffs, [-1.0, 0.0, 1.0], atol=1e-14)
        pair = no.compression_spectrum(A, 0)
        assert abs(pair.eig_sub[0]) <= 1e-14

    def test_quartic_differentiator_coefficients(self):
        roots = np.r_[0.0 + 0j, np.exp(2j * np.pi * np.arange(3) / 3)]
        p = Polynomial.from_roots(roots)
        target = np.array(p.derivative().coeffs) * (-1.0) ** 3 / 4
        A = no.normal_from_roots(roots)
        for i in range(4):
            sub = no.principal_submatrix(A.entries, i)
            got = np.array(no.char_poly(sub).coeffs)
            assert np.abs(got - target).max() <= 1e-10

    @pytest.mark.parametrize("n", range(2, 13))
    def test_differentiator_identity_all_indices(self, n, rng):
        roots = disk_points(rng, n)
        p = Polynomial.from_roots(roots)
        target = np.array(p.derivative().coeffs) * (-1.0) ** (n - 1) / n
        A = no.normal_from_roots(roots)
        for i in range(n):
            got = np.array(no.char_poly(no.principal_submatrix(A.entries, i)).coeffs)
            assert np.abs(got - target).max() <= 1e-9

    def test_standard_basis_vectors_are_trace_vectors(self, rng):
        roots = disk_points(rng, 5)
        A = no.normal_from_roots(roots).entries
        n = 5
        Ak = np.eye(n, dtype=complex)
        for k in range(2 * n + 1):
            tr = np.trace(Ak) / n
            for i in range(n):
                assert abs(Ak[i, i] - tr) <= 1e-10
            Ak = Ak @ A


class TestRandomNormal:
    def test_deterministic_per_seed(self, rng):
        roots = disk_points(rng, 4)
        A1 = no.random_normal(roots, seed=11)
        A2 = no.random_normal(roots, seed=11)
        assert np.array_equal(A1.entries, A2.entries)
        A3 = no.random_normal(roots, seed=12)
        assert not np.allclose(A1.entries, A3.entries)

    def test_normality_and_spectrum(self, rng):
        roots = disk_points(rng, 6, min_sep=1e-2)
        A = no.random_normal(roots, seed=3)
        assert A.normality_residual <= 1e-10
        eig = no.char_poly(A.entries).find_roots().as_array()
        assert bottleneck_match(roots, eig) <= 1e-9


class TestCharPoly:
    def test_diag(self):
        cp = no.char_poly(np.diag([1.0, 2.0]))
        assert np.allclose(cp.coeffs, [2.0, -3.0, 1.0], atol=1e-14)

    def test_companion_matrix_round_trip(self, rng):
        n = 6
        p = Polynomial.from_roots(disk_points(rng, n))
        comp = np.zeros((n, n), dtype=complex)
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -np.array(p.coeffs[:-1])
        got = np.array(no.char_poly(comp).coeffs)
        expect = (-1.0) ** n * np.array(p.coeffs)
        assert np.abs(got - expect).max() <= 1e-11

    def test_subdiagonal_coefficient_is_trace(self, rng):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        cp = no.char_poly(M)
        assert abs(cp.coeffs[4] - (-1.0) ** 5 * (-np.trace(M))) <= 1e-10

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            no.char_poly(np.eye(40))


class TestCompression:
    def test_differentiator_spectrum(self, rng):
        roots = disk_points(rng, 6, min_sep=1e-2)
        A = no.normal_from_roots(roots)
        pair = no.compression_spectrum(A, 2)
        crit = Polynomial.from_roots(roots).derivative().find_roots().as_array()
        assert bottleneck_match(crit, np.array(pair.eig_sub)) <= 1e-8

    def test_hermitian_interlacing(self, rng):
        eigs = np.array([1.0, 2.0, 3.0])
        A = no.random_normal(eigs.astype(complex), seed=21)
        pair = no.compression_spectrum(A, 1)
        sub = np.sort(np.array(pair.eig_sub).real)
        assert eigs[0] - 1e-9 <= sub[0] <= eigs[1] + 1e-9
        assert eigs[1] - 1e-9 <= sub[1] <= eigs[2] + 1e-9

    def test_zero_matrix(self):
        A = no.as_normal(np.zeros((4, 4), dtype=complex))
        pair = no.compression_spectrum(A, 0)
        assert np.abs(np.array(pair.eig_sub)).max() <= 1e-14

    def test_hull_containment(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            A = no.random_normal(disk_points(rng, n), seed=int(rng.integers(2**31)))
            pair = no.compression_spectrum(A, int(rng.integers(n)))
            assert no.eigvals_in_hull(pair, tol=1e-8)

    def test_non_normal_rejected(self):
        with pytest.raises(ValueError, match="not normal"):
            no.as_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestParentSpectrum:
    """eig_full comes from LAPACK; the submatrix spectrum from char_poly."""

    @staticmethod
    def _matrices(roots, n):
        return [no.random_normal(roots, seed=n), no.normal_from_roots(roots)]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_simple_spectrum_matches_both_oracles(self, n, rng):
        roots = disk_points(rng, n, min_sep=1e-2)
        for A in self._matrices(roots, n):
            full = no.compression_spectrum(A, n // 2).eig_full
            cp = no.char_poly(A.entries)
            assert bottleneck_match(full, cp.find_roots().points) <= 1e-10
            assert bottleneck_match(full, np.roots(np.array(cp.coeffs)[::-1])) <= 1e-10
            assert bottleneck_match(full, roots) <= 1e-10
            assert list(full) == sort_lex(full)

    @pytest.mark.parametrize("n", range(4, 17))
    @pytest.mark.parametrize("pattern", ["triple", "two-doubles"])
    def test_repeated_eigenvalues_are_exact_repeats(self, n, pattern, rng):
        d = disk_points(rng, n - 2, min_sep=5e-2)
        roots = np.r_[d[:1], d[:1], d] if pattern == "triple" else np.r_[d[:1], d[1:2], d]
        expect = sorted(Counter(roots.tolist()).values())
        for A in self._matrices(roots, n):
            full = no.compression_spectrum(A, 0).eig_full
            assert sorted(Counter(full).values()) == expect
            assert bottleneck_match(full, no.char_poly(A.entries).find_roots().points) <= 1e-10
            assert bottleneck_match(full, roots) <= 1e-10
            assert list(full) == sort_lex(full)

    def test_order_cap_kept(self):
        # the submatrix route alone would accept order 33 (a 32 x 32 char_poly)
        A = no.as_normal(np.diag(np.arange(33, dtype=complex)))
        with pytest.raises(ValueError, match="cap"):
            no.compression_spectrum(A, 0)

    def test_nilpotent_compression_keeps_sevenfold_zero(self):
        # an eigensolver would split this defective 7-fold 0 into a ring of
        # radius ~5e-3; the char_poly route returns one exactly repeated point
        A = no.normal_from_roots(roots_of_unity(8, radius=0.8))
        sub = no.compression_spectrum(A, 0).eig_sub
        assert len(sub) == 7 and len(set(sub)) == 1
        assert abs(sub[0]) <= 1e-14


class TestSpectralVariation:
    def test_self_distance(self, rng):
        E = disk_points(rng, 5)
        assert no.spectral_variation(E, E) == 0.0

    def test_diameter_example(self):
        A = no.as_normal(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
        pair = no.compression_spectrum(A, 3)
        assert abs(no.spectral_variation(pair.eig_full, pair.eig_sub) - 2.0) <= 1e-9

    def test_bound_over_random_compressions(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            roots = disk_points(rng, n)
            A = no.normal_from_roots(roots)
            pair = no.compression_spectrum(A, 0)
            rho = np.abs(roots).max()
            assert no.spectral_variation(pair.eig_full, pair.eig_sub) <= rho + 1e-9
            assert no.spectral_variation(pair.eig_sub, pair.eig_full) <= rho + 1e-9

    def test_converse_equality_characterization(self):
        # equality requires zero trace and all eigenvalues at the radius:
        # scaled roots of unity attain it, a shifted copy does not
        rho = 0.7
        roots = rho * np.exp(2j * np.pi * np.arange(5) / 5)
        A = no.normal_from_roots(roots)
        pair = no.compression_spectrum(A, 0)
        s = no.spectral_variation(pair.eig_sub, pair.eig_full)
        assert abs(s - rho) <= 1e-9
        shifted = roots + 0.1
        B = no.normal_from_roots(shifted)
        pairb = no.compression_spectrum(B, 0)
        sb = no.spectral_variation(pairb.eig_sub, pairb.eig_full)
        assert sb < np.abs(shifted).max() - 1e-3

    def test_empty_guard(self):
        with pytest.raises(ValueError):
            no.spectral_variation([], [1.0])


class TestGaussLucasWeights:
    def test_differentiator_uniform(self):
        roots = np.r_[0.0 + 0j, np.exp(2j * np.pi * np.arange(4) / 4)]
        A = no.normal_from_roots(roots)
        w, res = no.gauss_lucas_weights(A, 2, [2.0 + 0j, 1.5 + 1.5j])
        assert np.abs(w - 0.2).max() <= 1e-12
        assert res <= 1e-12

    def test_diagonal_matrix_picks_coordinate(self):
        A = no.as_normal(np.diag([0.3, -0.4, 0.2j]))
        w, _ = no.gauss_lucas_weights(A, 0, [2.0 + 0j])
        assert np.abs(np.sort(w) - np.array([0.0, 0.0, 1.0])).max() <= 1e-12

    def test_random_normal_partial_fractions(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            A = no.random_normal(disk_points(rng, n, min_sep=1e-2), seed=int(rng.integers(2**31)))
            probes = 2.0 + disk_points(rng, 10)
            w, res = no.gauss_lucas_weights(A, int(rng.integers(n)), probes)
            assert w.min() >= 0
            assert abs(w.sum() - 1) <= 1e-10
            assert res <= 1e-8

    def test_probe_too_close(self):
        A = no.as_normal(np.diag([0.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="probe"):
            no.gauss_lucas_weights(A, 0, [0.5 + 1e-5j])


class TestInterlaceRatios:
    def test_hermitian_reduces_to_cauchy(self, rng):
        eigs = np.sort(rng.uniform(-1, 1, 5))
        while np.min(np.diff(eigs)) < 1e-3:
            eigs = np.sort(rng.uniform(-1, 1, 5))
        A = no.random_normal(eigs.astype(complex), seed=33)
        ratios = no.interlace_ratios(A, 2)
        assert ratios.min() >= -1e-8

    def test_differentiator_uniform_pattern(self):
        roots = np.r_[0.0 + 0j, np.exp(2j * np.pi * np.arange(4) / 4)]
        A = no.normal_from_roots(roots)
        ratios = no.interlace_ratios(A, 1)
        assert np.abs(ratios - 1.0 / 5.0).max() <= 1e-9

    def test_ratios_sum_to_one(self, rng):
        A = no.random_normal(disk_points(rng, 6, min_sep=1e-2), seed=44)
        ratios = no.interlace_ratios(A, 3)
        assert abs(ratios.sum() - 1.0) <= 1e-8

    def test_forced_multiplicity_bookkeeping(self):
        A = no.random_normal(np.array([1.0, 1.0, -1.0], dtype=complex), seed=5)
        ratios = no.interlace_ratios(A, 2)
        assert len(ratios) == 2  # two distinct eigenvalues
        assert ratios.min() >= -1e-8
        assert abs(ratios.sum() - 1.0) <= 1e-8

    def test_ambiguous_gap_rejected(self):
        A = no.as_normal(np.diag([0.0, 8e-6, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="ambiguity|gap"):
            no.interlace_ratios(A, 0)


class TestCollinear:
    def test_compression_normal_iff_collinear(self, rng):
        base, direction = 0.1 + 0.2j, np.exp(0.4j)
        line = base + direction * np.array([-0.5, 0.1, 0.6])
        assert no.collinear(line)
        A = no.normal_from_roots(line)
        sub = no.principal_submatrix(A.entries, 0)
        assert np.abs(sub @ sub.conj().T - sub.conj().T @ sub).max() <= 1e-9

        triangle = np.array([1.0, 1j, -1.0])
        assert not no.collinear(triangle)
        B = no.normal_from_roots(triangle)
        subb = no.principal_submatrix(B.entries, 0)
        assert np.abs(subb @ subb.conj().T - subb.conj().T @ subb).max() > 1e-3

    def test_real_spectra_are_collinear(self, rng):
        pts = rng.uniform(-1, 1, 6).astype(complex)
        assert no.collinear(pts)
