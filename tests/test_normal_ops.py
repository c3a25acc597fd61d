from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.linalg

from polycrit.metrics import bottleneck_match
from polycrit.poly import Polynomial, sort_lex
from polycrit import normal_ops as no
from polycrit import poly, suite

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

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65])
    def test_read_only_closed_form(self, n):
        U = no.dft_unitary(n)
        k = np.arange(1, n + 1)
        assert np.array_equal(U, np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n))
        with pytest.raises(ValueError, match="read-only"):
            U[0, 0] = 0.0
        U2, Uh = no._dft_pair(n)
        assert U2 is U and not Uh.flags.writeable
        assert np.array_equal(Uh, U.conj().T)

    def test_cache_bounded_by_degree_cap(self):
        for n in range(1, 2 * poly.MAX_DEGREE):
            no.dft_unitary(n)
        assert no._dft_pair.cache_info().currsize <= poly.MAX_DEGREE




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


    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_entries_are_the_fourier_product(self, n):
        roots = poly.disk_points(np.random.default_rng(n), n)
        k = np.arange(1, n + 1)
        U = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        ref = U.conj().T @ np.diag(roots) @ U
        assert no.normal_from_roots(roots).entries.tobytes() == ref.tobytes()


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
            no.char_poly(np.eye(65))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="char_poly: matrix has non-finite"):
            no.char_poly([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="char_poly: matrix has non-finite"):
            no.char_poly(np.array([np.eye(2), [[1.0, bad], [0.0, 1.0]]]))

    def test_overflowing_coefficients_raise(self):
        # the constant term 1e400 is not representable
        with pytest.raises(ValueError, match="char_poly: coefficients overflow"):
            no.char_poly(np.diag([1e200, 1e200]))

    def test_stack_gives_coefficient_rows(self, rng):
        M = rng.standard_normal((2, 3, 4, 4))
        rows = no.char_poly(M)
        assert rows.shape == (2, 3, 5)
        assert np.array_equal(rows[1, 2], no.char_poly(M[1, 2]).coeffs)
        with pytest.raises(ValueError, match="square"):
            no.char_poly(np.zeros((3, 4, 5)))

    @staticmethod
    def _mp_product(roots, derivative=False):
        """Ascending coefficients of prod (z - r), or of its derivative,
        in 50-digit arithmetic."""
        with mpmath.workdps(50):
            c = [mpmath.mpc(1)]
            for r in roots:
                r = mpmath.mpc(complex(r))
                c = [-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))] + [c[-1]]
            if derivative:
                c = [k * c[k] for k in range(1, len(c))]
            return np.array([complex(x) for x in c])

    @pytest.mark.parametrize("n", [33, 48, 64])
    @pytest.mark.parametrize("kind", ["fourier", "haar"])
    def test_orders_to_degree_cap_match_mpmath(self, kind, n):
        # the matrix entries are rounded, which moves the eigenvalues of
        # the normal matrix by about eps; Faddeev-LeVerrier stays within
        # 3.2e-15 of the largest coefficient
        roots = disk_points(np.random.default_rng(n), n)
        A = no.normal_from_roots(roots) if kind == "fourier" else no.random_normal(roots, seed=n)
        got = np.array(no.char_poly(A.entries).coeffs) * (-1.0) ** n
        ref = self._mp_product(roots)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_differentiator_identity_at_degree_cap(self):
        roots = disk_points(np.random.default_rng(64), 64)
        A = no.normal_from_roots(roots)
        ref = self._mp_product(roots, derivative=True)
        for i in (0, 31, 63):
            got = np.array(no.char_poly(no.principal_submatrix(A.entries, i)).coeffs) * (-1.0) ** 63 * 64
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def per_matrix_faddeev_leverrier(M):
    """Ascending coefficients of det(M - z I): the one-matrix recursion
    char_poly ran before it took stacks, kept as the bitwise reference."""
    n = M.shape[0]
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ (Mk + c[k - 1] * np.eye(n))
        c[k] = -np.trace(Mk) / k
    return c[::-1] * (-1.0) ** n


class TestStackedFaddeevLeverrier:
    """char_poly on a stack (..., n, n) gives every matrix the coefficients
    of the one-matrix recursion, bit for bit."""

    @pytest.mark.parametrize("kind", ["fourier", "haar"])
    def test_bitwise_equal_to_per_matrix_loop(self, kind):
        for n in range(2, poly.MAX_DEGREE + 1):
            roots = poly.disk_points(np.random.default_rng(n), n)
            A = no.normal_from_roots(roots) if kind == "fourier" else no.random_normal(roots, seed=n)
            picks = sorted({0, n // 2, n - 1})
            subs = np.array([no.principal_submatrix(A.entries, i) for i in picks])
            rows = no.char_poly(subs)
            for sub, row in zip(subs, rows):
                assert row.tobytes() == per_matrix_faddeev_leverrier(sub).tobytes()
            whole = np.array(no.char_poly(A.entries).coeffs)
            assert whole.tobytes() == per_matrix_faddeev_leverrier(A.entries).tobytes()

    def test_criterion_07_makes_one_call_per_matrix(self, monkeypatch):
        calls = []
        char_poly = no.char_poly

        def counted(M):
            calls.append(np.shape(M))
            return char_poly(M)

        monkeypatch.setattr(no, "char_poly", counted)
        (check,) = suite.criterion_07_differentiator()
        assert check.passed
        assert len(calls) == 900
        assert all(shape == (n, n - 1, n - 1) for shape, n in zip(calls, np.repeat(range(2, 11), 100)))


class TestPrincipalSubmatrix:
    def test_deletes_row_and_column(self):
        M = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(no.principal_submatrix(M, 1), [[0.0, 2.0], [6.0, 8.0]])

    @pytest.mark.parametrize("i", [-1, 3, 10])
    def test_index_outside_range_raises(self, i):
        with pytest.raises(ValueError, match="principal_submatrix: index"):
            no.principal_submatrix(np.eye(3), i)


class TestEigenbasis:
    """_orthonormal_eigenbasis calls zgees as scipy.linalg.schur does."""

    @pytest.mark.parametrize("kind", ["fourier", "haar"])
    def test_bitwise_equal_to_scipy_schur(self, kind):
        for n in range(2, poly.MAX_DEGREE + 1):
            roots = poly.disk_points(np.random.default_rng(n), n)
            A = no.normal_from_roots(roots) if kind == "fourier" else no.random_normal(roots, seed=n)
            lam, Z = no._orthonormal_eigenbasis(A.entries)
            T, Z_ref = scipy.linalg.schur(A.entries, output="complex")
            assert lam.tobytes() == np.diagonal(T).tobytes()
            assert Z.tobytes() == Z_ref.tobytes()

    def test_zgees_failure_names_stage(self, monkeypatch):
        from scipy.linalg import lapack

        zgees = lapack.zgees

        def failing(select, a, lwork):
            out = zgees(select, a, lwork=lwork)
            return out if lwork == -1 else out[:-1] + (2,)

        monkeypatch.setattr(lapack, "zgees", failing)
        with pytest.raises(ValueError, match="eigendecomposition failed: zgees returned info = 2"):
            no._orthonormal_eigenbasis(np.diag([1.0 + 0j, 2.0]))


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

    @pytest.mark.parametrize("s", [1e-5, 1e-9])
    def test_small_jordan_block_rejected(self, s):
        # the residual is judged against the size of the entries
        with pytest.raises(ValueError, match="not normal"):
            no.as_normal(np.array([[0.0, s], [0.0, 0.0]]))

    def test_large_normal_accepted(self, rng):
        roots = 1e3 * disk_points(rng, 16)
        A = no.normal_from_roots(roots)
        assert A.normality_residual > 1e-9
        assert bottleneck_match(no.compression_spectrum(A, 0).eig_full, roots) <= 1e-10 * 1e3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN residual compares false against the tolerance, so the
        # entries are checked before the residual
        with pytest.raises(ValueError, match="normality check: matrix has non-finite entries"):
            no.as_normal([[bad, 0.0], [0.0, 1.0]])

    def test_equality_is_identity(self):
        A, B = no.as_normal(np.eye(2)), no.as_normal(np.eye(2))
        assert (A == B) is False and (A == A) is True and (A != B) is True
        assert A._eigenbasis is A._eigenbasis
        assert no.compression_spectrum(A, 0).eig_sub == (1.0 + 0j,)
        assert no.compression_spectrum(A, 1).eig_sub == (1.0 + 0j,)


class TestParentSpectrum:
    """eig_full is the diagonal of the Schur form of A, snapped into the
    RootSet format."""

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
        A = no.as_normal(np.diag(np.arange(65, dtype=complex)))
        with pytest.raises(ValueError, match="compression order cap 64"):
            no.compression_spectrum(A, 0)
        assert len(no.compression_spectrum(no.as_normal(A.entries[:64, :64]), 0).eig_sub) == 63

    def test_nilpotent_compression_keeps_sevenfold_zero(self):
        # an eigensolver would split this defective 7-fold 0 into a ring of
        # radius ~5e-3; the merge on f^(6) returns one exactly repeated point
        A = no.normal_from_roots(roots_of_unity(8, radius=0.8))
        sub = no.compression_spectrum(A, 0).eig_sub
        assert len(sub) == 7 and len(set(sub)) == 1
        assert abs(sub[0]) <= 1e-14


def _householder_with_first_row(weights):
    """Real symmetric orthogonal H whose first row is sqrt(weights)."""
    u = np.sqrt(np.asarray(weights, dtype=float))
    u[0] -= 1.0
    return np.eye(len(u)) - 2.0 * np.outer(u, u) / (u @ u)


def _mp_eigvals(M):
    with mpmath.workdps(40):
        ev = mpmath.eig(mpmath.matrix(np.asarray(M).tolist()), left=False, right=False)
    return np.array([complex(x) for x in ev])


class TestCompressionOracles:
    """eig_sub from the Gauss-Lucas identity against independent routes."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_mpmath_eigenvalues(self, n, rng):
        A = no.random_normal(disk_points(rng, n), seed=n)
        i = n // 3
        sub = no.compression_spectrum(A, i).eig_sub
        ref = _mp_eigvals(no.principal_submatrix(A.entries, i))
        assert len(sub) == n - 1
        assert bottleneck_match(sub, ref) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("pattern", ["simple", "double", "triple"])
    def test_matches_char_poly_route(self, n, pattern, rng):
        d = disk_points(rng, n, min_sep=5e-2)
        if pattern == "double" and n >= 3:
            d[1] = d[0]
        if pattern == "triple" and n >= 4:
            d[1] = d[2] = d[0]
        mult = max(Counter(d.tolist()).values())
        for A in (no.random_normal(d, seed=n), no.normal_from_roots(d)):
            for i in {0, n - 1}:
                sub = no.compression_spectrum(A, i).eig_sub
                old = no.char_poly(no.principal_submatrix(A.entries, i)).find_roots().points
                assert bottleneck_match(sub, old) <= 1e-9
                # the forced copies of a repeated parent eigenvalue are exact
                forced = sorted(Counter(sub).values())[-1]
                assert forced >= mult - 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_nilpotent_family_exact_repeats(self, n):
        A = no.normal_from_roots(roots_of_unity(n, radius=0.8))
        sub = no.compression_spectrum(A, n // 2).eig_sub
        assert len(sub) == n - 1 and len(set(sub)) == 1
        assert abs(sub[0]) <= 1e-14

    @pytest.mark.parametrize("n", [33, 48, 64])
    def test_high_order_matches_lapack(self, n):
        # orders between the old cap of 32 and the degree cap of find_roots
        roots = disk_points(np.random.default_rng(3300 + n), n)
        for A in (no.normal_from_roots(roots), no.random_normal(roots, seed=n)):
            for i in (0, n // 2, n - 1):
                sub = no.compression_spectrum(A, i).eig_sub
                ref = np.linalg.eigvals(no.principal_submatrix(A.entries, i))
                assert len(sub) == n - 1
                assert bottleneck_match(sub, ref) <= 1e-13

    @pytest.mark.parametrize("n", [33, 48, 64])
    def test_high_order_nilpotent_closed_form(self, n):
        # the compression of scaled roots of unity has spectrum 0^(n-1);
        # LAPACK is no oracle here: it scatters this defective zero onto a
        # ring of radius 0.26 to 0.58
        for radius in (0.8, 1.0):
            A = no.normal_from_roots(roots_of_unity(n, radius=radius))
            sub = no.compression_spectrum(A, n // 2).eig_sub
            assert len(sub) == n - 1 and len(set(sub)) == 1
            assert abs(sub[0]) <= 1e-14

    def test_orthogonal_eigenspace_keeps_full_multiplicity(self):
        # e_0 lies in the first block, so the second block's eigenvalues
        # (0.5 twice, and 2j shared with the first block) are not moved
        B = no.random_normal(np.array([1.0, 2j, -1.0]), seed=7).entries
        A = no.as_normal(scipy.linalg.block_diag(B, np.diag([0.5, 0.5, 2j])))
        sub = np.array(no.compression_spectrum(A, 0).eig_sub)
        assert Counter(sub.tolist())[0.5] == 2
        assert np.count_nonzero(np.abs(sub - 2j) <= 1e-12) == 1
        ref = _mp_eigvals(no.principal_submatrix(A.entries, 0))
        assert bottleneck_match(sub, ref) <= 1e-12
        # its interlacing ratio, the weight of its eigenspace, is exactly 0
        ratios = no.interlace_ratios(A, 0)
        assert ratios[sort_lex([1.0, 2j, -1.0, 0.5]).index(0.5)] == 0.0
        assert abs(ratios.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("tiny", [1e-24, 1e-16, 1e-10])
    def test_small_weights(self, tiny, rng):
        mu = disk_points(rng, 7, min_sep=5e-2)
        w = rng.uniform(0.5, 1.0, 7)
        w[2] = w[5] = tiny
        H = _householder_with_first_row(w / w.sum())
        A = no.as_normal(H @ np.diag(mu) @ H)
        sub = no.compression_spectrum(A, 0).eig_sub
        assert bottleneck_match(sub, _mp_eigvals(no.principal_submatrix(A.entries, 0))) <= 1e-12

    @pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-12])
    def test_free_eigenvalue_beside_forced_copy(self, t):
        # the double eigenspace of 0.3+0.2i has weight t, so one free
        # eigenvalue lies within about t of its forced copy; both are kept
        # where they were found, not averaged into one point
        mu = np.array([0.3 + 0.2j, 0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j, 0.7j])
        H = _householder_with_first_row(np.r_[t / 2, t / 2, np.full(3, (1 - t) / 3)])
        A = no.as_normal(H @ np.diag(mu) @ H)
        sub = no.compression_spectrum(A, 0).eig_sub
        assert bottleneck_match(sub, _mp_eigvals(no.principal_submatrix(A.entries, 0))) <= 1e-14

    @pytest.mark.parametrize("screen", [poly._SHAKY, 0.0])
    def test_near_double_free_zero_not_merged(self, screen, monkeypatch):
        # p' has a double zero split by 1e-5: the two free eigenvalues stay
        # apart, where a merge within a gap tolerance would join them; with
        # a zero screen every start is offered for merging, and the budget
        # on f must refuse
        monkeypatch.setattr(poly, "_SHAKY", screen)
        c = 0.2 + 0.1j
        crit = np.array([c + 5e-6, c - 5e-6, -0.5 + 0.3j, 0.1 - 0.6j])
        coeffs = [mpmath.mpc(x) for x in np.polyint(5 * np.poly(crit))]
        coeffs[-1] = mpmath.mpc(0.05, -0.1)
        with mpmath.workdps(50):
            roots = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)]
        sub = no.compression_spectrum(no.normal_from_roots(roots), 0).eig_sub
        assert len(set(sub)) == 4
        assert bottleneck_match(sub, crit) <= 1e-9

    def test_polish_recovers_perturbed_starts(self, monkeypatch, rng):
        # LAPACK starts off by 1e-6 fail the budget of f; Newton on f must
        # bring them back to the accuracy of the unperturbed route
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigvals(M) * (1 + 1e-6))
        A = no.random_normal(disk_points(rng, 16), seed=16)
        sub = no.compression_spectrum(A, 5).eig_sub
        assert bottleneck_match(sub, _mp_eigvals(no.principal_submatrix(A.entries, 5))) <= 1e-12

    def test_uncertified_free_zero_names_stage(self, monkeypatch, rng):
        monkeypatch.setattr(poly, "_gamma", lambda K, k: 0.0)
        A = no.random_normal(disk_points(rng, 6), seed=3)
        with pytest.raises(no.CompressionSpectrumError, match="free-zero polish") as err:
            no.compression_spectrum(A, 0)
        assert isinstance(err.value, ValueError)
        assert err.value.residual > err.value.budget == 0.0


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


class TestScaleInvariance:
    """compression_spectrum(s A) = s compression_spectrum(A) and
    interlace_ratios(s A) = interlace_ratios(A): the clustering scales with
    ||A||_2, so a spectrum below the old absolute tolerance keeps its
    distinct eigenvalues."""

    S = 1e-9

    def test_tiny_diagonal_keeps_distinct_eigenvalues(self):
        d = np.array([1, 1.5, -1j, 2])
        A = no.as_normal(np.diag(d * self.S))
        pair = no.compression_spectrum(A, 0)
        assert pair.eig_full == tuple(sort_lex(d * self.S))
        assert pair.eig_sub == tuple(sort_lex(d[1:] * self.S))
        assert np.array_equal(no.interlace_ratios(A, 0), no.interlace_ratios(no.as_normal(np.diag(d)), 0))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_matrices(self, seed):
        rng = np.random.default_rng(seed)
        A = no.random_normal(disk_points(rng, 6, min_sep=1e-2), seed=seed)
        B = no.as_normal(A.entries * self.S)
        for i in range(A.n):
            a, b = no.compression_spectrum(A, i), no.compression_spectrum(B, i)
            for x, y in ((a.eig_full, b.eig_full), (a.eig_sub, b.eig_sub)):
                assert len(x) == len(y)
                assert np.abs(np.array(y) / self.S - x).max() <= 1e-12
            ra, rb = no.interlace_ratios(A, i), no.interlace_ratios(B, i)
            assert np.abs(rb - ra).max() <= 1e-12

    def test_repeated_eigenvalue_scaled(self):
        roots = np.array([0.5, 0.5, -0.3 + 0.4j, 0.8j])
        A = no.random_normal(roots, seed=3)
        B = no.as_normal(A.entries * self.S)
        a, b = no.compression_spectrum(A, 1), no.compression_spectrum(B, 1)
        assert sorted(Counter(b.eig_full).values()) == sorted(Counter(a.eig_full).values()) == [1, 1, 2]
        assert np.abs(np.array(b.eig_sub) / self.S - a.eig_sub).max() <= 1e-12
        assert np.abs(no.interlace_ratios(B, 1) - no.interlace_ratios(A, 1)).max() <= 1e-12


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
