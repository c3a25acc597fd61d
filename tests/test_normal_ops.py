from collections import Counter
import json
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from polycrit.metrics import bottleneck_assignment
from polycrit.poly import Polynomial
from polycrit import cli, jsonio, lp, normal_ops as no
from polycrit import poly, suite

from conftest import disk_points, lex_sorted, roots_of_unity


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

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_stack_equals_each_root_set(self, n):
        # entries and certificate, matrix by matrix
        roots = poly.disk_points(np.random.default_rng(n), 30 * n).reshape(30, n)
        As = no.normal_from_roots(roots)
        assert As.entries.shape == As.Z.shape == (30, n, n)
        assert As.eigenvalues.shape == (30, n) and As.departure.shape == (30,)
        for k, r in enumerate(roots):
            A = no.normal_from_roots(r)
            for field in ("entries", "eigenvalues", "Z", "departure"):
                assert getattr(As, field)[k].tobytes() == np.asarray(getattr(A, field)).tobytes()

    def test_stack_is_checked(self):
        roots = np.ones((3, 4), dtype=complex)
        roots[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            no.normal_from_roots(roots)


def test_svar_corpus_is_the_per_matrix_draw():
    """Criterion 08's root sets, one disk_points draw per degree, against
    one draw per matrix."""
    rng = np.random.default_rng(suite.SEED + 1)
    for n, (roots, _) in zip(range(2, 9), suite._svar_corpus()):
        assert roots.tobytes() == np.array([poly.disk_points(rng, n) for _ in range(500)]).tobytes()


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
        assert A.departure <= 1e-3 * no.NORMALITY_TOL * np.abs(roots).max()
        eig = no.char_poly(A.entries).find_roots().as_array()
        assert bottleneck_assignment(roots, eig)[0] <= 1e-9


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

    def test_criterion_07_makes_one_call_per_block(self, monkeypatch):
        calls = []
        char_poly = no.char_poly

        def counted(M):
            calls.append(np.shape(M))
            return char_poly(M)

        monkeypatch.setattr(no, "char_poly", counted)
        (check,) = suite.criterion_07_differentiator()
        assert check.passed
        for n in range(2, 11):
            step = max(1, poly._BLOCK_ENTRIES // (n * (n - 1) ** 2))
            blocks = [(min(step, 100 - s), n, n - 1, n - 1) for s in range(0, 100, step)]
            assert calls[: len(blocks)] == blocks
            del calls[: len(blocks)]
        assert not calls


class TestPrincipalSubmatrix:
    def test_deletes_row_and_column(self):
        M = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(no.principal_submatrix(M, 1), [[0.0, 2.0], [6.0, 8.0]])

    @pytest.mark.parametrize("i", [-1, 3, 10])
    def test_index_outside_range_raises(self, i):
        with pytest.raises(ValueError, match="principal_submatrix: index"):
            no.principal_submatrix(np.eye(3), i)

    @pytest.mark.parametrize(
        "name,call",
        [
            ("principal_submatrix", lambda A, i: no.principal_submatrix(A.entries, i)),
            ("compression_spectrum", lambda A, i: no.compression_spectrum(A, i)),
            ("compression_spectra", lambda A, i: no.compression_spectra(no.as_normal([A.entries] * 2), [0, i])),
            ("interlace_ratios", lambda A, i: no.interlace_ratios(A, i)),
            ("gauss_lucas_weights", lambda A, i: no.gauss_lucas_weights(A, i, [2.0])),
        ],
    )
    def test_one_index_check_names_function_index_and_order(self, name, call):
        A = no.normal_from_roots([1.0, 1j, -1.0])
        for i in (-1, 3):
            message = f"{name}: index out of range: i = {i} for a matrix of order 3"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(A, i)


class TestEigenbasis:
    """as_normal calls zgees as scipy.linalg.schur does."""

    @pytest.mark.parametrize("kind", ["fourier", "haar"])
    def test_bitwise_equal_to_scipy_schur(self, kind):
        for n in range(2, poly.MAX_DEGREE + 1):
            roots = poly.disk_points(np.random.default_rng(n), n)
            A = no.normal_from_roots(roots) if kind == "fourier" else no.random_normal(roots, seed=n)
            T, Z_ref = scipy.linalg.schur(A.entries, output="complex")
            assert A.eigenvalues.tobytes() == np.diagonal(T).tobytes()
            assert A.Z.tobytes() == Z_ref.tobytes()
            assert A.departure == np.abs(np.triu(T, 1)).max()

    def test_zgees_failure_names_stage(self, monkeypatch):
        # as_normal reaches zgees only through the loader's module
        lapack = lp.flapack()
        zgees = lapack.zgees

        def failing(select, a, lwork):
            out = zgees(select, a, lwork=lwork)
            return out if lwork == -1 else out[:-1] + (2,)

        monkeypatch.setattr(lapack, "zgees", failing)
        with pytest.raises(ValueError, match="eigendecomposition failed: zgees returned info = 2"):
            no.as_normal(np.diag([1.0 + 0j, 2.0]))


def commutator_refuses(A: np.ndarray) -> bool:
    """The normality rule as_normal applied before the Schur certificate,
    kept as an oracle: ||A A* - A* A||_max > 1e-9 max |A_ij|^2."""
    AH = A.conj().T
    return bool(np.abs(A @ AH - AH @ A).max() > 1e-9 * np.abs(A).max() ** 2)


def near_normal_corpus(seed: int, count: int):
    """Seeded matrices D + N, plain or Haar-rotated, N strictly upper
    triangular with max |N_ij| = delta max |lambda|: orders 2..64,
    separated, clustered (within 1e-8) or real spectra, relative delta
    from 1e-13 to 1e-4 and scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.choice([2, 3, 4, 5, 8, 12, 16, 32, 64]))
        if t % 3 == 0:
            lam = poly.disk_points(rng, n)
        elif t % 3 == 1:
            lam = poly.disk_points(rng, 1) + 1e-8 * poly.disk_points(rng, n)
        else:
            lam = rng.uniform(-1.0, 1.0, n).astype(complex)
        N = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        N *= 10.0 ** rng.uniform(-13, -4) * np.abs(lam).max() / np.abs(N).max()
        M = np.diag(lam) + N
        if rng.integers(2):
            Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            M = Q @ M @ Q.conj().T
        yield 10.0 ** rng.uniform(-3, 3) * M


class TestCertificate:
    """One normality rule: the departure of the Schur form, max |T_ij|
    over i < j, within NORMALITY_TOL of max(departure, max |lambda|)."""

    def test_no_matrix_the_commutator_refuses_is_accepted(self):
        refused = accepted = 0
        for M in near_normal_corpus(36, 1000):
            if commutator_refuses(M):
                refused += 1
                with pytest.raises(ValueError, match="normality check: Schur departure"):
                    no.as_normal(M)
            else:
                try:
                    no.as_normal(M)
                    accepted += 1
                except ValueError as exc:
                    assert str(exc).startswith("normality check: Schur departure")
        # the corpus straddles both rules
        assert refused >= 200 and accepted >= 200

    @pytest.mark.parametrize("e", [1e-5, 3e-5])
    def test_near_jordan_refused_at_construction(self, e):
        # the commutator is quadratic in this departure (e^2 = 1e-10 at
        # e = 1e-5), so the commutator rule certified the matrix
        M = np.diag([1.0, 1.0, -1.0]).astype(complex)
        M[0, 1] = e
        assert not commutator_refuses(M)
        message = f"normality check: Schur departure {e:.3e} exceeds the bound 1.000e-11"
        with pytest.raises(ValueError, match=re.escape(message)):
            no.as_normal(M)

    @pytest.mark.parametrize("n", range(2, poly.MAX_DEGREE + 1))
    def test_constructors_certify_with_headroom(self, n):
        # the largest relative departure here is 1.37e-14, the radius-0.8
        # ring at n = 63: about 700 times below the bound
        rng = np.random.default_rng(n)
        spectra = [poly.disk_points(rng, n), roots_of_unity(n, radius=0.8), rng.uniform(-1, 1, n).astype(complex)]
        for roots in spectra:
            for A in (no.normal_from_roots(roots), no.random_normal(roots, seed=n)):
                assert A.departure <= 1e-2 * no.NORMALITY_TOL * np.abs(roots).max()

    def test_stacked_random_normal_is_each_seed_alone(self):
        rng = np.random.default_rng(5)
        roots = poly.disk_points(rng, 40).reshape(8, 5)
        seeds = rng.integers(2**31, size=8)
        As = no.random_normal(roots, seeds)
        for k, (r, seed) in enumerate(zip(roots, seeds)):
            A = no.random_normal(r, seed=int(seed))
            for field in ("entries", "eigenvalues", "Z", "departure"):
                assert getattr(As, field)[k].tobytes() == np.asarray(getattr(A, field)).tobytes()


class TestCompression:
    def test_differentiator_spectrum(self, rng):
        roots = disk_points(rng, 6, min_sep=1e-2)
        A = no.normal_from_roots(roots)
        pair = no.compression_spectrum(A, 2)
        crit = Polynomial.from_roots(roots).derivative().find_roots().as_array()
        assert bottleneck_assignment(crit, np.array(pair.eig_sub))[0] <= 1e-8

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
        with pytest.raises(ValueError, match="normality check: Schur departure 1.000e[+]00"):
            no.as_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("s", [1e-5, 1e-9])
    def test_small_jordan_block_rejected(self, s):
        # the departure is judged against the size of the eigenvalues
        with pytest.raises(ValueError, match="normality check"):
            no.as_normal(np.array([[0.0, s], [0.0, 0.0]]))

    def test_large_normal_accepted(self, rng):
        roots = 1e3 * disk_points(rng, 16)
        A = no.normal_from_roots(roots)
        assert bottleneck_assignment(no.compression_spectrum(A, 0).eig_full, roots)[0] <= 1e-10 * 1e3
        # a departure far above NORMALITY_TOL in absolute terms passes at its scale
        B = no.as_normal(1e9 * A.entries)
        assert B.departure > 1e3 * no.NORMALITY_TOL
        assert bottleneck_assignment(no.compression_spectrum(B, 0).eig_full, 1e9 * roots)[0] <= 1e-10 * 1e12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN residual compares false against the tolerance, so the
        # entries are checked before the residual
        with pytest.raises(ValueError, match="normality check: matrix has non-finite entries"):
            no.as_normal([[bad, 0.0], [0.0, 1.0]])

    def test_equality_is_identity(self):
        A, B = no.as_normal(np.eye(2)), no.as_normal(np.eye(2))
        assert (A == B) is False and (A == A) is True and (A != B) is True
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
            assert bottleneck_assignment(full, cp.find_roots().points)[0] <= 1e-10
            assert bottleneck_assignment(full, np.roots(np.array(cp.coeffs)[::-1]))[0] <= 1e-10
            assert bottleneck_assignment(full, roots)[0] <= 1e-10
            assert list(full) == lex_sorted(full)

    @pytest.mark.parametrize("n", range(4, 17))
    @pytest.mark.parametrize("pattern", ["triple", "two-doubles"])
    def test_repeated_eigenvalues_are_exact_repeats(self, n, pattern, rng):
        d = disk_points(rng, n - 2, min_sep=5e-2)
        roots = np.r_[d[:1], d[:1], d] if pattern == "triple" else np.r_[d[:1], d[1:2], d]
        expect = sorted(Counter(roots.tolist()).values())
        for A in self._matrices(roots, n):
            full = no.compression_spectrum(A, 0).eig_full
            assert sorted(Counter(full).values()) == expect
            assert bottleneck_assignment(full, no.char_poly(A.entries).find_roots().points)[0] <= 1e-10
            assert bottleneck_assignment(full, roots)[0] <= 1e-10
            assert list(full) == lex_sorted(full)

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
        assert bottleneck_assignment(sub, ref)[0] <= 1e-12

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
                assert bottleneck_assignment(sub, old)[0] <= 1e-9
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
                assert bottleneck_assignment(sub, ref)[0] <= 1e-13

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
        assert bottleneck_assignment(sub, ref)[0] <= 1e-12
        # its interlacing ratio, the weight of its eigenspace, is exactly 0
        ratios = no.interlace_ratios(A, 0)
        assert ratios[lex_sorted([1.0, 2j, -1.0, 0.5]).index(0.5)] == 0.0
        assert abs(ratios.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("tiny", [1e-24, 1e-16, 1e-10])
    def test_small_weights(self, tiny, rng):
        mu = disk_points(rng, 7, min_sep=5e-2)
        w = rng.uniform(0.5, 1.0, 7)
        w[2] = w[5] = tiny
        H = _householder_with_first_row(w / w.sum())
        A = no.as_normal(H @ np.diag(mu) @ H)
        sub = no.compression_spectrum(A, 0).eig_sub
        assert bottleneck_assignment(sub, _mp_eigvals(no.principal_submatrix(A.entries, 0)))[0] <= 1e-12

    @pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-12])
    def test_free_eigenvalue_beside_forced_copy(self, t):
        # the double eigenspace of 0.3+0.2i has weight t, so one free
        # eigenvalue lies within about t of its forced copy; both are kept
        # where they were found, not averaged into one point
        mu = np.array([0.3 + 0.2j, 0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j, 0.7j])
        H = _householder_with_first_row(np.r_[t / 2, t / 2, np.full(3, (1 - t) / 3)])
        A = no.as_normal(H @ np.diag(mu) @ H)
        sub = no.compression_spectrum(A, 0).eig_sub
        assert bottleneck_assignment(sub, _mp_eigvals(no.principal_submatrix(A.entries, 0)))[0] <= 1e-14

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
        assert bottleneck_assignment(sub, crit)[0] <= 1e-9

    def test_polish_recovers_perturbed_starts(self, monkeypatch, rng):
        # LAPACK starts off by 1e-6 fail the budget of f; Newton on f must
        # bring them back to the accuracy of the unperturbed route
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigvals(M) * (1 + 1e-6))
        A = no.random_normal(disk_points(rng, 16), seed=16)
        sub = no.compression_spectrum(A, 5).eig_sub
        assert bottleneck_assignment(sub, _mp_eigvals(no.principal_submatrix(A.entries, 5)))[0] <= 1e-12

    def test_uncertified_free_zero_names_stage(self, monkeypatch, rng):
        monkeypatch.setattr(poly, "_gamma", lambda K, k: 0.0)
        A = no.random_normal(disk_points(rng, 6), seed=3)
        with pytest.raises(no.CompressionSpectrumError, match="free-zero polish") as err:
            no.compression_spectrum(A, 0)
        assert isinstance(err.value, ValueError)
        assert err.value.residual > err.value.budget == 0.0


def _stack_member(kind: str, n: int, i: int, seed: int) -> np.ndarray:
    """A normal matrix of order n for the stack tests: Fourier on disk
    points, Fourier on scaled roots of unity (nilpotent compression),
    Haar with a double and a zero eigenvalue, or a Householder frame whose
    row i has weight 0 on one eigenvalue (a detached cluster)."""
    rng = np.random.default_rng(seed)
    roots = poly.disk_points(rng, n)
    if kind == "disk":
        return no.normal_from_roots(roots).entries
    if kind == "unity":
        return no.normal_from_roots(roots_of_unity(n, radius=0.2 + rng.uniform())).entries
    if kind == "repeated":
        roots[-1] = 0.0
        roots[0] = roots[-2] if n > 2 else 0.0
        return no.random_normal(roots, seed=seed).entries
    w = rng.uniform(0.1, 1.0, n)
    w[rng.integers(n)] = 0.0
    H = _householder_with_first_row(w / w.sum()) if w[0] < w.sum() else np.eye(n)
    swap = np.arange(n)
    swap[[0, i]] = swap[[i, 0]]
    H = H[swap]  # row i of the frame carries the weights
    return H @ np.diag(roots) @ H.T


@pytest.fixture
def zgees_calls(monkeypatch):
    """Counter of zgees calls by matrix shape, and of workspace queries,
    from a cold workspace cache, on the loader's module, the library's one
    binding of zgees."""
    lapack = lp.flapack()
    zgees, calls = lapack.zgees, Counter()

    def counted(select, a, lwork):
        calls["query" if lwork == -1 else a.shape] += 1
        return zgees(select, a, lwork=lwork)

    monkeypatch.setattr(lapack, "zgees", counted)
    no._zgees_lwork.cache_clear()
    yield calls
    no._zgees_lwork.cache_clear()


class TestCompressionStack:
    """compression_spectra over a stack equals compression_spectrum on each
    matrix, bit for bit; c08 takes one Schur form per matrix."""

    @given(
        n=st.integers(2, 8),
        kinds=st.lists(st.sampled_from(["disk", "unity", "repeated", "detached"]), min_size=1, max_size=6),
        seed=st.integers(0, 2**20),
        data=st.data(),
    )
    def test_batch_equals_batch_of_one(self, n, kinds, seed, data):
        # one deletion index for the stack, or one per matrix
        if data.draw(st.booleans()):
            index = data.draw(st.lists(st.integers(0, n - 1), min_size=len(kinds), max_size=len(kinds)))
        else:
            index = data.draw(st.integers(0, n - 1))
        rows = np.broadcast_to(index, len(kinds))
        stack = np.array([_stack_member(kind, n, i, seed + k) for k, (kind, i) in enumerate(zip(kinds, rows))])
        full, sub = no.compression_spectra(no.as_normal(stack), index)
        assert full.shape == (len(kinds), n) and sub.shape == (len(kinds), n - 1)
        for A, i, row_full, row_sub in zip(stack, rows, full, sub):
            pair = no.compression_spectrum(no.as_normal(A), int(i))
            assert row_full.tobytes() == np.array(pair.eig_full).tobytes()
            assert row_sub.tobytes() == np.array(pair.eig_sub).tobytes()

    def test_kinds_reach_every_path(self):
        # the nilpotent rows go through the resolver, the repeated ones
        # through cluster_indices, the detached ones leave f
        n = 6
        stack = np.array([_stack_member(kind, n, 2, 7) for kind in ("unity", "repeated", "detached")])
        full, sub = no.compression_spectra(no.as_normal(stack), 2)
        assert len(set(sub[0])) == 1 and abs(sub[0, 0]) <= 1e-12  # nilpotent: a 5-fold zero
        assert len(set(full[1])) == n - 1 and np.abs(full[1]).min() <= 1e-15  # a double and a zero
        assert bottleneck_assignment(sub[2], _mp_eigvals(no.principal_submatrix(stack[2], 2)))[0] <= 1e-13

    @pytest.mark.parametrize("kind", ["nilpotent", "fourier"])
    def test_compression_spectrum_is_the_stack_of_one(self, monkeypatch, kind):
        n = 6
        if kind == "nilpotent":  # scaled roots of unity compress to a nilpotent matrix
            A = no.normal_from_roots(roots_of_unity(n, radius=2.5))
        else:
            A = no.normal_from_roots(disk_points(np.random.default_rng(11), n))
        spectra, stacks = no.compression_spectra, []

        def spy(As, i):
            stacks.append(As)
            return spectra(As, i)

        monkeypatch.setattr(no, "compression_spectra", spy)
        pair = no.compression_spectrum(A, 3)
        assert stacks == [A]
        full, sub = spectra(no.as_normal(A.entries[None]), 3)
        assert pair == no.SpectrumPair(tuple(full[0]), tuple(sub[0]), 3)
        if kind == "nilpotent":
            assert np.abs(np.array(pair.eig_sub)).max() <= 1e-12

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="square matrix required"):
            no.as_normal(np.zeros((2, 3, 4)))
        message = "normality check: Schur departure 1.000e+00 exceeds the bound 1.000e-11 (matrix 1 of the stack)"
        with pytest.raises(ValueError, match=re.escape(message)):
            no.as_normal(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
        with pytest.raises(ValueError, match="non-finite"):
            no.as_normal(np.full((1, 2, 2), np.nan))
        with pytest.raises(ValueError, match="index out of range"):
            no.compression_spectra(no.as_normal([np.eye(2)]), 2)
        with pytest.raises(ValueError, match="index out of range"):
            no.compression_spectra(no.as_normal([np.eye(2), np.eye(2)]), [0, -1])
        with pytest.raises(ValueError, match=re.escape("compression_spectrum: one matrix required")):
            no.compression_spectrum(no.as_normal([np.eye(2), np.eye(2)]), 0)

    def test_criterion_08_takes_one_schur_form_per_matrix(self, zgees_calls):
        suite._svar_corpus.cache_clear()
        try:
            (check,) = suite.criterion_08_operator_bound()
        finally:
            suite._svar_corpus.cache_clear()
        assert check.passed
        assert zgees_calls == Counter({"query": 7, **{(n, n): 500 for n in range(2, 9)}})

    def test_criterion_10_takes_one_schur_form_per_matrix(self, zgees_calls):
        assert all(check.passed for check in suite.criterion_10_interlacing())
        assert zgees_calls.pop("query") == 6
        assert set(zgees_calls) == {(n, n) for n in range(3, 9)}
        assert sum(zgees_calls.values()) == 100

    def test_criterion_07_takes_no_schur_form(self, zgees_calls):
        (check,) = suite.criterion_07_differentiator()
        assert check.passed and not zgees_calls

    @pytest.mark.parametrize("op", [["compress", "--index", "2"], ["glweights", "--probes", "2,0;1.5,1.5"]])
    def test_normal_command_takes_one_schur_form(self, zgees_calls, tmp_path, capsys, op):
        path = tmp_path / "p5.json"
        jsonio.write_poly(path, Polynomial.from_roots(poly.disk_points(np.random.default_rng(5), 5)))
        assert cli.main(["normal", op[0], str(path), *op[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "normal"
        assert zgees_calls == Counter({"query": 1, (5, 5): 1})


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_probe_named(self, bad):
        # a NaN probe passes the distance test and max(worst, nan) keeps worst
        A = no.normal_from_roots(roots_of_unity(4))
        with pytest.raises(ValueError, match=r"probe 1 is not finite"):
            no.gauss_lucas_weights(A, 0, [2.0, bad])


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
        assert pair.eig_full == tuple(lex_sorted(d * self.S))
        assert pair.eig_sub == tuple(lex_sorted(d[1:] * self.S))
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


class TestStackedInterlaceRatios:
    """interlace_ratios over a stack of one order: row r is, by repr, the
    ratios of matrix r alone."""

    @staticmethod
    def stack(rng, n, count=12):
        spectra = [rng.uniform(-1, 1, n).astype(complex), disk_points(rng, n, min_sep=1e-2)]
        repeated = disk_points(rng, n - 1, min_sep=1e-2)
        spectra.append(np.r_[repeated, repeated[:1]])  # one double eigenvalue
        mats = [no.random_normal(spectra[t % 3], seed=100 * n + t).entries for t in range(count)]
        return np.array(mats), rng.integers(n, size=count)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_equal_the_stack_of_one(self, rng, n):
        As, index = self.stack(rng, n)
        got = no.interlace_ratios(no.as_normal(As), index)
        assert len(got) == len(As)
        for A, i, row in zip(As, index, got):
            assert repr(row.tolist()) == repr(no.interlace_ratios(no.as_normal(A), int(i)).tolist())
        # the double eigenvalue leaves n - 1 distinct ones
        assert [len(r) for r in got[2::3]] == [n - 1] * 4

    def test_one_index_for_all(self, rng):
        As, _ = self.stack(rng, 4)
        assert [r.tolist() for r in no.interlace_ratios(no.as_normal(As), 1)] == [
            no.interlace_ratios(no.as_normal(A), 1).tolist() for A in As
        ]

    def test_gray_zone_names_the_first_matrix(self):
        fine = np.diag([0.0, 0.5, 1.0]).astype(complex)
        near = [np.diag([0.0, d, 1.0]).astype(complex) for d in (7e-6, 3e-6)]
        with pytest.raises(ValueError, match=re.escape("[0.e+00+0.j 7.e-06+0.j] closer than 1.0e-05")):
            no.interlace_ratios(no.as_normal([fine, near[0], near[1]]), 0)

    def test_stack_shape_and_indices_checked(self):
        with pytest.raises(ValueError, match="square matrix required"):
            no.as_normal(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="interlace_ratios: index out of range: i = 3"):
            no.interlace_ratios(no.as_normal([np.eye(3)] * 2), [0, 3])


def collinear(points) -> bool:
    """Best-fit-line residual test: the smallest singular value of the
    centered data is at most 1e-9 times the largest."""
    pts = np.asarray(points, dtype=complex)
    xy = np.column_stack([pts.real, pts.imag])
    sv = np.linalg.svd(xy - xy.mean(axis=0), compute_uv=False)
    return bool(sv[-1] <= 1e-9 * sv[0])


class TestCollinear:
    def test_compression_normal_iff_collinear(self, rng):
        base, direction = 0.1 + 0.2j, np.exp(0.4j)
        line = base + direction * np.array([-0.5, 0.1, 0.6])
        assert collinear(line)
        A = no.normal_from_roots(line)
        sub = no.principal_submatrix(A.entries, 0)
        assert np.abs(sub @ sub.conj().T - sub.conj().T @ sub).max() <= 1e-9

        triangle = np.array([1.0, 1j, -1.0])
        assert not collinear(triangle)
        B = no.normal_from_roots(triangle)
        subb = no.principal_submatrix(B.entries, 0)
        assert np.abs(subb @ subb.conj().T - subb.conj().T @ subb).max() > 1e-3

    def test_real_spectra_are_collinear(self, rng):
        pts = rng.uniform(-1, 1, 6).astype(complex)
        assert collinear(pts)
