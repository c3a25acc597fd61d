import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from polycrit import lp
from polycrit.lp import (
    NNLSIterationError,
    Verdict,
    eq_nonneg_feasibility,
    in_convex_hull,
    strict_feasibility,
    strict_optimum,
)
from polycrit.poly import Polynomial
from polycrit import maximal_zero, variation_first


class TestStrictFeasibility:
    def test_single_positive_row(self):
        cert = strict_feasibility([[1.0]])
        assert cert.verdict is Verdict.STRICTLY_FEASIBLE
        assert cert.witness_mu is None
        assert cert.margin > 0.5

    def test_cancelling_rows(self):
        cert = strict_feasibility([[1.0], [-1.0]])
        assert cert.verdict is Verdict.POSITIVELY_SINGULAR
        assert cert.witness_h is None
        assert np.allclose(cert.witness_mu, [0.5, 0.5])
        assert cert.margin <= 1e-12

    def test_quartic_variation_matrix_uniform_mu(self):
        p = Polynomial((0.0, -1.0, 0.0, 0.0, 1.0))  # z^4 - z
        s = variation_first.setup(p, 0.0)
        cert = strict_feasibility(variation_first.bmatrix(s))
        assert cert.verdict is Verdict.POSITIVELY_SINGULAR
        assert np.allclose(cert.witness_mu, [1 / 3] * 3, atol=1e-9)

    def test_certificates_self_verify(self, rng):
        for _ in range(60):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            _assert_self_verifying(M, strict_feasibility(M))

    def test_complex_phase_rows(self):
        # rows e^{i phi} and -e^{i phi} cancel for any phase
        for phi in np.linspace(0, 2 * np.pi, 7):
            row = np.exp(1j * phi)
            cert = strict_feasibility([[row], [-row]])
            assert cert.verdict is Verdict.POSITIVELY_SINGULAR

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            strict_feasibility(np.array([[np.inf]]))

    def test_strict_optimum_rejects_nan(self):
        # the box LP used to return nan with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strict_optimum"):
                strict_optimum([[np.nan]])


def _highs_box_optimum(M) -> float:
    """t* of max t s.t. Re(M h) >= t, |Re h|, |Im h| <= 1 by HiGHS."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m, n = M.shape
    G = np.hstack([M.real, -M.imag])
    res = scipy.optimize.linprog(
        np.r_[np.zeros(2 * n), -1.0],
        A_ub=np.hstack([-G, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * (2 * n) + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _seeded_matrices(rng, count):
    for _ in range(count):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        yield rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _engineered_singular(rng, count):
    """A last row that is minus a positive combination of the others."""
    for _ in range(count):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 8))
        top = rng.standard_normal((m - 1, n)) + 1j * rng.standard_normal((m - 1, n))
        lam = np.abs(rng.standard_normal(m - 1)) + 0.1
        yield np.vstack([top, -(lam @ top)[None, :]])


def _extremal_b(n):
    p = maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=n, theta=0.7))
    return variation_first.bmatrix(variation_first.setup(p, 0.0))


def _assert_self_verifying(M, cert):
    if cert.verdict is Verdict.STRICTLY_FEASIBLE:
        h = np.array(cert.witness_h)
        assert np.abs(h.real).max() <= 1.0 and np.abs(h.imag).max() <= 1.0
        assert np.min((M @ h).real) == cert.margin > lp.MARGIN_TOL
    else:
        mu = np.array(cert.witness_mu)
        assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
        assert np.abs(mu @ M).max() == cert.margin <= lp.FEAS_TOL


class TestBoxLP:
    """The box LP (LSPD on the NNLS kernel) against HiGHS and its own witnesses."""

    def _corpus(self, rng):
        yield from _seeded_matrices(rng, 150)
        yield from _engineered_singular(rng, 40)
        for n in range(3, 65):
            yield _extremal_b(n)

    def test_optimum_matches_highs(self, rng):
        for M in self._corpus(rng):
            t_star = strict_optimum(M)
            assert abs(t_star - _highs_box_optimum(M)) <= 1e-12 * (1.0 + abs(t_star))

    def test_strict_witness_is_box_optimal(self, rng):
        strict = 0
        for M in self._corpus(rng):
            cert = strict_feasibility(M)
            if cert.verdict is Verdict.STRICTLY_FEASIBLE:
                strict += 1
                t_star = strict_optimum(M)
                assert abs(cert.margin - t_star) <= 1e-12 * abs(t_star)
        assert strict > 100

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 1e3, 1e9])
    def test_optimum_is_homogeneous(self, s, rng):
        checked = 0
        for M in _seeded_matrices(rng, 120):
            t_star = strict_optimum(M)
            if abs(t_star) <= 1e-7:
                continue  # criterion 12's band
            checked += 1
            assert abs(strict_optimum(s * M) / s - t_star) <= 1e-13 * abs(t_star)
        assert checked > 100

    def test_singular_extremal_b_stops_at_zero(self):
        # the first LSPD step is the singular system itself
        for n in (12, 48, 64):
            assert strict_optimum(_extremal_b(n)) == 0.0

    def test_step_cap_names_stage(self, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_STEPS", 1)
        with pytest.raises(lp.SimplexIterationError, match=r"lspd: 1 steps .* residual 7\.071e-01"):
            strict_optimum([[1.0]])

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6).map(lambda shape: (2, *shape)),
            elements=st.floats(-10.0, 10.0).map(lambda v: round(v, 6)),
        )
    )
    def test_property_certificate_and_highs(self, parts):
        # entries on a 1e-6 grid: HiGHS drops matrix entries below 1e-9
        M = parts[0] + 1j * parts[1]
        _assert_self_verifying(M, strict_feasibility(M))
        t_star = strict_optimum(M)
        assert abs(t_star - _highs_box_optimum(M)) <= 1e-12 * (1.0 + abs(t_star))


class TestEqNonneg:
    def test_singleton_feasible(self):
        x = eq_nonneg_feasibility([[1.0]], [1.0])
        assert np.allclose(x, [1.0])

    def test_singleton_infeasible(self):
        assert eq_nonneg_feasibility([[1.0]], [-1.0]) is None

    def test_centroid_system(self):
        # row sums 1, column sums 1/2, reconstruct 0 from {1, -1}
        A = np.array([
            [1.0, 1.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, -1.0],
        ])
        b = np.array([1.0, 0.5, 0.5, 0.0])
        x = eq_nonneg_feasibility(A, b)
        assert np.allclose(x, [0.5, 0.5])

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eq_nonneg_feasibility([[1.0, 2.0]], [1.0, 2.0])

    def test_infinite_rhs_rejected(self):
        # used to return [nan] as a feasible certificate
        with pytest.raises(ValueError, match="eq_nonneg_feasibility"):
            eq_nonneg_feasibility([[1.0]], [np.inf])

    def test_nan_matrix_rejected(self):
        # used to return None, an infeasible verdict
        with pytest.raises(ValueError, match="eq_nonneg_feasibility"):
            eq_nonneg_feasibility([[np.nan]], [1.0])

    def test_certificate_is_nonnegative_by_construction(self, rng):
        for _ in range(40):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            A = rng.standard_normal((m, n))
            x = eq_nonneg_feasibility(A, A @ np.abs(rng.standard_normal(n)))
            assert x is not None and x.min() >= 0.0

    def test_against_scipy_highs(self, rng):
        # independent oracle for feasibility verdicts on random systems
        agree = 0
        for _ in range(60):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            A = rng.standard_normal((m, n))
            if rng.random() < 0.5:
                b = A @ np.abs(rng.standard_normal(n))  # feasible by construction
            else:
                b = rng.standard_normal(m)
            mine = eq_nonneg_feasibility(A, b)
            ref = scipy.optimize.linprog(
                np.zeros(n), A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs"
            )
            assert (mine is not None) == ref.success
            agree += 1
        assert agree == 60


def _systems(rng, kind, count):
    """Seeded (A, b): full rank with b = A x0 for x0 >= 0; rank-deficient
    with b in or out of the cone; or infeasible, a positive first row of A
    against a negative b_0."""
    for _ in range(count):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 13))
        if kind == "rank-deficient":
            r = int(rng.integers(1, min(m, n)))
            A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        else:
            A = rng.standard_normal((m, n))
        if kind == "full-rank" or (kind == "rank-deficient" and rng.random() < 0.5):
            b = A @ np.abs(rng.standard_normal(n))
        else:
            b = rng.standard_normal(m)
        if kind == "infeasible":
            A[0] = np.abs(A[0]) + 0.1
            b[0] = -abs(b[0]) - 0.1
        yield A, b


class TestNNLSKernel:
    """lp._nnls against scipy.optimize.nnls and its own KKT conditions."""

    @pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "infeasible"])
    def test_matches_scipy_and_kkt(self, kind, rng):
        infeasible = 0
        for A, b in _systems(rng, kind, 80):
            x, r = lp._nnls(A, b)
            _, ref_norm = scipy.optimize.nnls(A, b)
            tol = 1e-10 * (1.0 + np.abs(A).max() * np.abs(b).max() * A.size)
            assert abs(np.linalg.norm(r) - ref_norm) <= tol
            assert np.array_equal(r, b - A @ x)
            w = A.T @ r
            assert x.min() >= 0.0
            assert w.max() <= tol
            assert abs(x @ w) <= tol * (1.0 + np.abs(x).sum())
            if eq_nonneg_feasibility(A, b) is None:
                # r separates b from the cone of A's columns (Farkas)
                infeasible += 1
                assert b @ r > 0.0
                assert ref_norm > 1e-9
            else:
                assert ref_norm <= 1e-8
        if kind == "full-rank":
            assert infeasible == 0
        if kind == "infeasible":
            assert infeasible == 80

    @pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "infeasible"])
    def test_column_sums_passed_in_change_nothing(self, kind, rng):
        # solve_standard_form sums |A| once and hands each call its slice
        for A, b in _systems(rng, kind, 40):
            cols = rng.random(A.shape[1]) < 0.7
            cols[0] = True
            sums = np.abs(A).sum(axis=0)
            x, r = lp._nnls(A[:, cols], b, None, sums[cols])
            x_ref, r_ref = lp._nnls(A[:, cols], b)
            assert x.tobytes() == x_ref.tobytes() and r.tobytes() == r_ref.tobytes()

    def test_pass_cap_names_stage(self, monkeypatch):
        # a least-squares solve that always favours the column just added
        # makes the active set cycle; the kernel stops after 3n passes
        A, b = np.eye(2), np.ones(2)
        prev: list[int] = []

        def lstsq(M, rhs):
            cols = [int(np.argmax(c)) for c in M.T]
            new = [c for c in cols if c not in prev]
            z = np.array([1.0 if len(cols) < 2 or c in new else -1.0 for c in cols])
            prev[:] = cols
            return z

        monkeypatch.setattr(lp, "_lstsq", lstsq)
        with pytest.raises(NNLSIterationError, match="nnls") as err:
            lp._nnls(A, b)
        assert err.value.passes == 6
        assert err.value.residual == 1.0


class TestDualityExclusivity:
    def test_random_matrices_xor(self, rng):
        checked = 0
        while checked < 150:
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            t_star = strict_optimum(M)
            if abs(t_star) <= 1e-7:
                continue
            checked += 1
            strict = t_star > 1e-7
            A_mu = np.vstack([M.real.T, M.imag.T, np.ones((1, m))])
            b_mu = np.zeros(2 * n + 1)
            b_mu[-1] = 1.0
            singular = eq_nonneg_feasibility(A_mu, b_mu) is not None
            assert strict != singular

    def test_engineered_singular_instances(self, rng):
        for M in _engineered_singular(rng, 40):
            cert = strict_feasibility(M)
            assert cert.verdict is Verdict.POSITIVELY_SINGULAR
            assert strict_optimum(M) <= 1e-9


class TestHull:
    def test_interior_and_exterior(self):
        square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
        assert in_convex_hull(0.0, square)
        assert in_convex_hull(0.99 + 0.99j, square)
        assert not in_convex_hull(1.5, square)

    def test_boundary_within_tolerance(self):
        seg = [0.0, 1.0]
        assert in_convex_hull(0.5 + 1e-10j, seg, tol=1e-8)
        assert not in_convex_hull(0.5 + 1e-3j, seg, tol=1e-8)
