import re
import warnings
from types import SimpleNamespace

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
from polycrit.poly import Polynomial, disk_points
from polycrit import majorization, maximal_zero, suite, variation_first

from conftest import highs_box_optimum, seeded_matrices


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
    """The witness, recomputed on M, meets its gate relative to max|M_ij|."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    size = np.abs(M).max()
    assert cert.scale == size and cert.holds
    if cert.verdict is Verdict.STRICTLY_FEASIBLE:
        h = np.array(cert.witness_h)
        assert np.abs(h.real).max() <= 1.0 and np.abs(h.imag).max() <= 1.0
        assert np.min((M @ h).real) == cert.margin > lp.MARGIN_TOL * size
    else:
        mu = np.array(cert.witness_mu)
        assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
        assert np.abs(mu @ M).max() == cert.margin <= lp.FEAS_TOL * size


def _highs_strict(M) -> bool | None:
    """HiGHS's verdict: True when t* lies above criterion 12's band
    |t*| <= 1e-7 max|M_ij|, None inside it (either verdict may hold)."""
    t_star = highs_box_optimum(M)
    return True if t_star > 1e-7 * np.abs(M).max() else None


def _assert_agrees_with_highs(M, cert):
    if _highs_strict(M):
        assert cert.verdict is Verdict.STRICTLY_FEASIBLE


class TestBoxLP:
    """The box LP (LSPD on the NNLS kernel) against HiGHS and its own witnesses."""

    def _corpus(self, rng):
        yield from seeded_matrices(rng, 150)
        yield from _engineered_singular(rng, 40)
        for n in range(3, 65):
            yield _extremal_b(n)

    def test_optimum_matches_highs(self, rng):
        for M in self._corpus(rng):
            t_star = strict_optimum(M)
            assert abs(t_star - highs_box_optimum(M)) <= 1e-12 * (1.0 + abs(t_star))

    def test_strict_witness_in_box_attains_margin(self, rng):
        # a witness, not in general the box optimum: 0 < margin <= t*
        strict = 0
        for M in self._corpus(rng):
            cert = strict_feasibility(M)
            _assert_agrees_with_highs(M, cert)
            if cert.verdict is Verdict.STRICTLY_FEASIBLE:
                strict += 1
                h = np.array(cert.witness_h)
                assert max(np.abs(h.real).max(), np.abs(h.imag).max()) == 1.0
                assert np.min((M @ h).real) == cert.margin
                assert cert.margin <= highs_box_optimum(M) * (1.0 + 1e-9)
        assert strict > 100

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 1e3, 1e9])
    def test_optimum_is_homogeneous(self, s, rng):
        checked = 0
        for M in seeded_matrices(rng, 120):
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
        cert = strict_feasibility(M)
        _assert_self_verifying(M, cert)
        _assert_agrees_with_highs(M, cert)
        t_star = strict_optimum(M)
        assert abs(t_star - highs_box_optimum(M)) <= 1e-12 * (1.0 + abs(t_star))


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


def reference_nnls(A, b, x0=None, col_sums=None):
    """lp._nnls as it was before its passes worked on one mask and index
    sets, kept as the bitwise reference; least squares through lp._lstsq."""
    m, n = A.shape
    if col_sums is None:
        col_sums = np.abs(A).sum(axis=0)
    tol = 10 * max(m, n) * lp._EPS * col_sums.max(initial=0.0) * np.abs(b).max(initial=0.0)
    x = np.zeros(n) if x0 is None else x0.copy()
    P = x > 0.0
    skipped = np.zeros(n, dtype=bool)
    r = b - A @ x
    passes = 0
    while True:
        w = A.T @ r
        w[P | skipped] = -np.inf
        j = w.argmax()
        if not w[j] > tol:
            return x, r
        if passes == 3 * n:
            raise NNLSIterationError(passes, float(np.linalg.norm(r)))
        passes += 1
        P[j] = True
        z = np.zeros(n)
        z[P] = lp._lstsq(A[:, P], b)
        if not z[j] > 0.0:
            P[j] = False
            skipped[j] = True
            continue
        skipped[:] = False
        while (z[P] <= 0.0).any():
            Q = np.flatnonzero(P & (z <= 0.0))
            ratio = x[Q] / np.maximum(x[Q] - z[Q], np.finfo(float).tiny)
            k = ratio.argmin()
            x += ratio[k] * (z - x)
            x[Q[k]] = 0.0
            P &= x > 0.0
            x[~P] = 0.0
            z = np.zeros(n)
            if P.any():
                z[P] = lp._lstsq(A[:, P], b)
        x = z
        r = b - A @ x


def reference_standard_form(A, b, c):
    """lp.solve_standard_form as it was before the columns of A were held
    once per LP, on reference_nnls: the bitwise reference of LSPD."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    gamma = 10 * rows * lp._EPS
    AT, absA = A.T, np.abs(A)
    col_sums = absA.sum(axis=0)
    col_sum, entry = col_sums.max(initial=0.0), absA.max(initial=0.0)
    c_max, b_max = np.abs(c).max(initial=0.0), np.abs(b).max(initial=0.0)
    pi = np.zeros(rows)
    x = np.zeros(cols)
    for step in range(1, lp._MAX_STEPS + 1):
        d = c - AT @ pi
        admissible = (d <= gamma * (c_max + col_sum * np.abs(pi).max())) | (x > 0.0)
        xa, r = reference_nnls(A[:, admissible], b, x[admissible], col_sums[admissible])
        x = np.zeros(cols)
        x[admissible] = xa
        if np.abs(r).max(initial=0.0) <= gamma * (entry * x.sum() + b_max):
            support = x > 0.0
            if d[support].any():
                pi += lp._lstsq(A[:, support].T, d[support])
            return x, pi
        g = AT @ r
        blocking = ~admissible & (g > 0.0)
        if not blocking.any():
            raise lp.SimplexIterationError(f"lspd: step {step} found no blocking column")
        pi += np.min(d[blocking] / g[blocking]) * r
    raise lp.SimplexIterationError(f"lspd: {lp._MAX_STEPS} steps without a vanishing residual")


def _bitwise(u, v) -> bool:
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


class TestLSPDReference:
    """_nnls and solve_standard_form against the reference copies above:
    the same x, r, pi and (t*, h) bit for bit, from the same _lstsq calls."""

    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        lstsq = lp._lstsq

        def counted(A, b):
            calls.append(A.shape)
            return lstsq(A, b)

        monkeypatch.setattr(lp, "_lstsq", counted)
        return calls

    def test_box_lps(self, monkeypatch, lstsq_calls):
        forms, subproblems = [], []
        solve, nnls = lp.solve_standard_form, lp._nnls

        def form(A, b, c):
            forms.append((A, b, c))
            return solve(A, b, c)

        def subproblem(A, b, x0=None, col_sums=None, b_max=None):
            subproblems.append((A, b, x0, col_sums))
            return nnls(A, b, x0, col_sums, b_max)

        rng = np.random.default_rng(20240619)
        Ms = list(seeded_matrices(rng, 300))
        monkeypatch.setattr(lp, "solve_standard_form", form)
        box = [lp.strict_optimum(M) for M in Ms]
        monkeypatch.setattr(lp, "solve_standard_form", reference_standard_form)
        for M, t in zip(Ms, box):
            assert repr(t) == repr(lp.strict_optimum(M))
        for A, b, c in forms:
            lstsq_calls.clear()
            x, pi = solve(A, b, c)
            count = len(lstsq_calls)
            x_ref, pi_ref = reference_standard_form(A, b, c)
            assert _bitwise(x, x_ref) and _bitwise(pi, pi_ref)
            assert len(lstsq_calls) == 2 * count
        monkeypatch.setattr(lp, "_nnls", subproblem)
        for A, b, c in forms[:50]:
            solve(A, b, c)
        monkeypatch.setattr(lp, "_nnls", nnls)
        assert len(subproblems) > 400
        for A, b, x0, col_sums in subproblems:
            (x, r), (x_ref, r_ref) = nnls(A, b, x0, col_sums), reference_nnls(A, b, x0, col_sums)
            assert _bitwise(x, x_ref) and _bitwise(r, r_ref)

    def test_majorization_and_dual_systems(self, monkeypatch, lstsq_calls):
        systems = []
        feasibility = majorization.eq_nonneg_feasibility

        def capture(A, b, feas_tol=lp.FEAS_TOL):
            systems.append((np.asarray(A, dtype=float), np.asarray(b, dtype=float)))
            return feasibility(A, b, feas_tol)

        # criterion 11's polynomials and the draws it makes between them
        monkeypatch.setattr(majorization, "eq_nonneg_feasibility", capture)
        rng = np.random.default_rng(suite.SEED + 3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p = Polynomial.from_roots(disk_points(rng, n))
            for k in range(1, n):
                W, Z = majorization.tuple_W(p, 0.0, k), majorization.tuple_Z(p, 0.0, k)
                if majorization.check_majorization(W, Z) is not None:
                    rng.uniform(-1.0, 1.0, (10, 2))
        assert len(systems) == 322
        # strict_feasibility's positive-singularity systems
        nnls = lp._nnls

        def system(A, b):
            systems.append((A.copy(), b.copy()))
            return nnls(A, b)

        monkeypatch.setattr(lp, "_nnls", system)
        for M in seeded_matrices(np.random.default_rng(7), 100):
            strict_feasibility(M)
        monkeypatch.setattr(lp, "_nnls", nnls)
        assert len(systems) == 422
        for A, b in systems:
            lstsq_calls.clear()
            x, r = lp._nnls(A, b)
            count = len(lstsq_calls)
            x_ref, r_ref = reference_nnls(A, b)
            assert _bitwise(x, x_ref) and _bitwise(r, r_ref)
            assert len(lstsq_calls) == 2 * count


class TestEmptyNNLS:
    """A system with no columns: x = [], r = b."""

    def test_kernel(self):
        b = np.array([1.0, -2.0])
        x, r = lp._nnls(np.zeros((2, 0)), b)
        assert x.shape == (0,) and _bitwise(r, b)

    def test_nonzero_right_side_is_infeasible(self):
        assert eq_nonneg_feasibility(np.zeros((2, 0)), np.ones(2)) is None

    def test_zero_right_side_is_feasible(self):
        x = eq_nonneg_feasibility(np.zeros((2, 0)), np.zeros(2))
        assert isinstance(x, np.ndarray) and x.shape == (0,)


class TestDualityExclusivity:
    def test_random_matrices_xor(self, rng):
        # t* >= 0 (h = 0 is feasible): above 1e-7 strict, at 0 to rounding
        # singular, in between the rejection band
        strict = singular = 0
        while strict < 150:
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            t_star = strict_optimum(M)
            assert t_star >= 0.0
            if t_star > 1e-7:
                strict += 1
                assert strict_feasibility(M).verdict is Verdict.STRICTLY_FEASIBLE
            elif t_star <= 1e-12 * float(np.abs(M).max()):
                singular += 1
                assert strict_feasibility(M).verdict is Verdict.POSITIVELY_SINGULAR
        assert singular > 0

    @pytest.mark.parametrize(
        "verdict, violations", [(Verdict.STRICTLY_FEASIBLE, 59), (Verdict.POSITIVELY_SINGULAR, 1000)]
    )
    def test_criterion_12_judges_both_sides(self, monkeypatch, verdict, violations):
        # of c12's 1,059 draws, 1,000 have t* > 1e-7 and 59 have t* = 0:
        # a verdict that never changes is wrong on one side or the other
        monkeypatch.setattr(lp, "strict_feasibility", lambda M: SimpleNamespace(verdict=verdict))
        (check,) = suite.criterion_12_duality_exclusivity()
        assert (check.passed, check.value) == (False, violations)

    def test_engineered_singular_instances(self, rng):
        for M in _engineered_singular(rng, 40):
            cert = strict_feasibility(M)
            assert cert.verdict is Verdict.POSITIVELY_SINGULAR
            assert strict_optimum(M) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-7])
    def test_near_singular_instances(self, eps, rng):
        # a valid certificate, or inside HiGHS's band only the named raise
        for M in _engineered_singular(rng, 300):
            M = M + eps * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
            try:
                cert = strict_feasibility(M)
            except lp.SimplexIterationError as err:
                assert _highs_strict(M) is None
                assert re.match(r"strict_feasibility: numerically ambiguous .* margin .* residual", str(err))
                continue
            _assert_self_verifying(M, cert)
            _assert_agrees_with_highs(M, cert)


class TestOneDecision:
    """strict_feasibility is one NNLS call; LSPD is not on its path."""

    def test_one_nnls_call_and_no_box_lp(self, monkeypatch, rng):
        calls = {"nnls": 0, "lspd": 0}
        nnls = lp._nnls

        def counted(*args, **kwargs):
            calls["nnls"] += 1
            return nnls(*args, **kwargs)

        def lspd(*args, **kwargs):
            calls["lspd"] += 1
            raise AssertionError("solve_standard_form called")

        monkeypatch.setattr(lp, "_nnls", counted)
        monkeypatch.setattr(lp, "solve_standard_form", lspd)
        corpus = [*seeded_matrices(rng, 50), *_engineered_singular(rng, 20), _extremal_b(12)]
        for k, M in enumerate(corpus, start=1):
            strict_feasibility(M)
            assert calls == {"nnls": k, "lspd": 0}

    def test_ambiguous_raise_carries_both_margins(self):
        # rows 1 and -1 + 3e-8 i: t* = 1.5e-8, inside criterion 12's band;
        # the NNLS witness's margin is below its gate, and the best mu
        # leaves a residual of 1.5e-8, above its own
        with pytest.raises(lp.SimplexIterationError) as err:
            strict_feasibility([[1.0], [-1.0 + 3e-8j]])
        assert re.fullmatch(
            r"strict_feasibility: numerically ambiguous instance: strict margin \S+ \(gate 1\.000e-09\), "
            r"singular residual \S+ \(gate 1\.000e-08\)",
            str(err.value),
        )


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
