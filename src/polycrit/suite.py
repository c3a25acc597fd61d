"""Desk-scale verification battery.

Twelve numbered checks exercising the whole library at fixed seeds and
tolerances.  Each returns Check records with the measured value and its
budget; run_all aggregates them for the CLI and the acceptance tests.

Two checks record genuine mathematical findings rather than bugs: the
quartic-family fit (quartic and quintic error terms bias the pinned
coarse grid) and the unit-zero perturbation inequality (fails at phases
too far from the critical directions); see their docstrings.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lp, majorization, metrics, normal_ops, variation_first, variation_second
from .poly import Polynomial, disk_points

SEED = 20240613


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}: value {self.value:.3e} vs tolerance {self.tolerance:.3e}{extra}"


def _rotated(n: int, theta: float) -> Polynomial:
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1.0
    coeffs[1] = np.exp(1j * theta)
    return Polynomial(tuple(coeffs))


def criterion_01_critical_radius() -> list[Check]:
    """|z^n + e^{i theta} z|_0 = n^{-1/(n-1)} for n = 3..12, theta in {0, 1, pi}."""
    worst = 0.0
    for n in range(3, 13):
        target = n ** (-1.0 / (n - 1))
        for theta in (0.0, 1.0, math.pi):
            cc = metrics.alpha_distance(_rotated(n, theta), 0.0)
            worst = max(worst, abs(cc.radius - target))
    return [Check("critical-radius-law", worst <= 1e-10, worst, 1e-10)]


def criterion_02_inextensibility() -> list[Check]:
    """B(z^n + e^{i theta} z) at 0 positively singular; uniform mu certified
    by vanishing column sums."""
    worst_colsum = 0.0
    bad_verdicts = 0
    worst_cert = 0.0
    for n in range(3, 13):
        for theta in (0.0, 1.0, math.pi):
            p = _rotated(n, theta)
            s = variation_first.setup(p, 0.0)
            B = variation_first.bmatrix(s)
            worst_colsum = max(worst_colsum, float(np.abs(B.sum(axis=0)).max()))
            cert = lp.strict_feasibility(B)
            if cert.verdict is not lp.Verdict.POSITIVELY_SINGULAR:
                bad_verdicts += 1
            else:
                worst_cert = max(worst_cert, cert.margin)
    return [
        Check("inextensibility-verdicts", bad_verdicts == 0, float(bad_verdicts), 0.0),
        Check("uniform-mu-column-sums", worst_colsum <= 1e-9, worst_colsum, 1e-9),
        Check("singularity-cert-residual", worst_cert <= 1e-8, worst_cert, 1e-8),
    ]


def criterion_03_a_nonsingular() -> list[Check]:
    """A(z^n - z) strictly feasible and C(p) D(p) = I for n = 3..8."""
    bad = 0
    worst = 0.0
    for n in range(3, 9):
        p = Polynomial.from_roots(
            np.r_[0.0 + 0j, np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))]
        )
        s = variation_first.setup(p, 0.0)
        cert = lp.strict_feasibility(variation_first.amatrix(s))
        if cert.verdict is not lp.Verdict.STRICTLY_FEASIBLE:
            bad += 1
        C = variation_first.cmatrix(s)
        D = variation_first.dmatrix(s)
        worst = max(worst, float(np.abs(C @ D - np.eye(n - 1)).max()))
    return [
        Check("a-matrix-strictly-feasible", bad == 0, float(bad), 0.0),
        Check("c-times-d-identity", worst <= 1e-8, worst, 1e-8),
    ]


def criterion_04_second_order_fit() -> list[Check]:
    """Fitted quadratic growth along the two families on grid k*1e-3.

    Finding: the quartic family's growth is
    d(p_a) - r = 10.81155 a^2 - 1370.3 a^3 - 2.20e4 a^4 + 1.21e6 a^5 + ...
    The model carries the a^3 term, but at the grid's edge |c3| a is about
    c2, so the a^4 and a^5 terms bias the fit to c2 = 11.0019, outside the
    0.01 budget around 10.8115.  A 60-digit evaluation of the family gives
    the same fit.  On a = k*1e-4 the fit gives 10.8192; on a = k*1e-5 it
    gives 10.8116.  The check is recorded as stated and fails honestly.
    """
    grid = [k * 1e-3 for k in range(1, 9)]
    fit4 = variation_second.fit_quadratic_growth("deg4", grid)
    fit5 = variation_second.fit_quadratic_growth("deg5", grid)
    dev4 = abs(fit4.c2 - 10.8115)
    dev5 = abs(fit5.c2 - 5.6657)
    return [
        Check(
            "deg4-fit-constant",
            dev4 <= 0.01,
            dev4,
            0.01,
            detail=f"c2 {fit4.c2:.4f}, cubic term {fit4.c3:.0f}",
        ),
        Check("deg5-fit-constant", dev5 <= 0.01, dev5, 0.01, detail=f"c2 {fit5.c2:.4f}"),
    ]


def criterion_05_lemma_family() -> list[Check]:
    """d((z - it)(z^2 - 1)) = sqrt((1 + t^2)/3) across t in [0, 0.3]."""
    worst = 0.0
    for t in np.linspace(0.0, 0.3, 50):
        p = Polynomial.from_roots([1j * t, 1.0, -1.0])
        d, _ = metrics.directed_hausdorff(p)
        worst = max(worst, abs(d - math.sqrt((1.0 + t * t) / 3.0)))
    return [Check("tilted-cubic-family", worst <= 1e-10, worst, 1e-10)]


def criterion_06_perturbation_bounds() -> list[Check]:
    """Unit-zero perturbation inequality at 8 phases plus the closed-form
    sine-ratio inequality.

    Finding: critical points move by eps_1/n, so the distance is
    r - (n-1)/n |eps_1| cos(theta) + O(|eps_1|^2), with theta the angle
    from eps_1 to the nearest critical direction.  The budget with
    coefficient cos(pi/(n-1)) therefore holds only for
    theta <= arccos(n/(n-1) cos(pi/(n-1))): 48.2, 27.9 and 13.9 degrees
    for n = 4, 5, 6.  The worst case, n = 5 at odd k (theta = pi/4),
    exceeds it by 1.417e-4 (first order: |eps_1| cos(pi/4)/5 = 1.414e-4),
    and the check fails honestly.  The factor (n-1)/n fixes only the first
    order: at the tie phases (n = 4 k = 4, n = 5 odd k, n = 6 k = 4) the
    corrected budget r - (n-1)/n cos(pi/(n-1)) |eps_1| is still exceeded
    by 2.0-2.9e-7.
    """
    worst_excess = -np.inf
    for n in (4, 5, 6):
        for k in range(8):
            eps = np.zeros(n, dtype=complex)
            eps[0] = 1e-3 * np.exp(2j * np.pi * k / 8)
            _, lhs, rhs = variation_second.prop112_perturbation(n, eps)
            worst_excess = max(worst_excess, lhs - rhs)
    worst_113 = -np.inf
    for n in range(5, 51):
        lhs, rhs = variation_second.prop113_inequality(n)
        worst_113 = max(worst_113, lhs - rhs)
    return [
        Check(
            "unit-zero-perturbation",
            worst_excess <= 0.0,
            worst_excess,
            0.0,
            detail="fails at phases misaligned with critical directions",
        ),
        Check("sine-ratio-inequality", worst_113 < 0.0, worst_113, 0.0),
    ]


def criterion_07_differentiator() -> list[Check]:
    """char(A_[i]) = (-1)^{n-1} p'/n coefficientwise, 100 seeded root sets
    per degree, every deletion index: one char_poly call per A on the stack
    of its n principal submatrices."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 11):
        keep = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])  # row i: all but i
        for _ in range(100):
            roots = disk_points(rng, n)
            p = Polynomial.from_roots(roots)
            target = np.array(p.derivative().coeffs) * (-1.0) ** (n - 1) / n
            A = normal_ops.normal_from_roots(roots)
            got = normal_ops.char_poly(A.entries[keep[:, :, None], keep[:, None, :]])
            worst = max(worst, float(np.abs(got - target).max()))
    return [Check("differentiator-identity", worst <= 1e-9, worst, 1e-9)]


@functools.lru_cache(maxsize=1)
def _svar_corpus() -> list[tuple[np.ndarray, np.ndarray]]:
    """(roots, submatrix spectrum) for 500 seeded draws per degree 2..8."""
    rng = np.random.default_rng(SEED + 1)
    out = []
    for n in range(2, 9):
        for _ in range(500):
            roots = disk_points(rng, n)
            A = normal_ops.normal_from_roots(roots)
            pair = normal_ops.compression_spectrum(A, 0)
            out.append((roots, np.array(pair.eig_sub)))
    return out


def criterion_08_operator_bound() -> list[Check]:
    """s(A, A') <= rho(A) over the seeded corpus (degree <= 8)."""
    worst = -np.inf
    for roots, sub in _svar_corpus():
        s = normal_ops.spectral_variation(roots, sub)
        worst = max(worst, s - float(np.abs(roots).max()))
    return [Check("operator-variation-bound", worst <= 1e-9, worst, 1e-9)]


def criterion_09_converse_bound() -> list[Check]:
    """s(A', A) <= rho(A) on the same corpus; equality attained exactly by
    scaled roots of unity."""
    worst = -np.inf
    for roots, sub in _svar_corpus():
        s = normal_ops.spectral_variation(sub, roots)
        worst = max(worst, s - float(np.abs(roots).max()))
    eq_dev = 0.0
    for n in range(2, 9):
        rho = 0.8
        roots = rho * np.exp(2j * np.pi * np.arange(n) / n)
        A = normal_ops.normal_from_roots(roots)
        pair = normal_ops.compression_spectrum(A, 0)
        s = normal_ops.spectral_variation(pair.eig_sub, pair.eig_full)
        eq_dev = max(eq_dev, abs(s - rho))
    return [
        Check("converse-variation-bound", worst <= 1e-9, worst, 1e-9),
        Check("converse-equality-family", eq_dev <= 1e-9, eq_dev, 1e-9),
    ]


def criterion_10_interlacing() -> list[Check]:
    """Hermitian-spectrum normal matrices: nonnegative ratios and classical
    interlacing after sorting."""
    rng = np.random.default_rng(SEED + 2)
    worst_ratio = np.inf
    worst_interlace = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        eigs = np.sort(rng.uniform(-1.0, 1.0, n))
        while np.min(np.diff(eigs)) < 1e-3:
            eigs = np.sort(rng.uniform(-1.0, 1.0, n))
        A = normal_ops.random_normal(eigs.astype(complex), seed=int(rng.integers(2**31)))
        i = int(rng.integers(n))
        ratios = normal_ops.interlace_ratios(A, i)
        worst_ratio = min(worst_ratio, float(ratios.min()))
        pair = normal_ops.compression_spectrum(A, i)
        sub = np.sort(np.array(pair.eig_sub).real)
        for k in range(n - 1):
            worst_interlace = max(
                worst_interlace, eigs[k] - sub[k], sub[k] - eigs[k + 1]
            )
    return [
        Check("interlace-ratios-nonnegative", worst_ratio >= -1e-8, worst_ratio, -1e-8),
        Check("cauchy-interlacing", worst_interlace <= 1e-8, worst_interlace, 1e-8),
    ]


def criterion_11_majorization() -> list[Check]:
    """Majorization certificates for every k on 100 seeded polynomials of
    degree <= 6, plus the symmetric-mean identity at random centers."""
    rng = np.random.default_rng(SEED + 3)
    infeasible = 0
    worst_res = 0.0
    worst_id = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = Polynomial.from_roots(disk_points(rng, n))
        for k in range(1, n):
            W = majorization.tuple_W(p, 0.0, k)
            Z = majorization.tuple_Z(p, 0.0, k)
            cert = majorization.check_majorization(W, Z)
            if cert is None:
                infeasible += 1
                continue
            worst_res = max(
                worst_res,
                cert.row_sum_residual,
                cert.col_sum_residual,
                cert.neg_entry,
                cert.reconstruction_residual,
            )
            for _ in range(10):
                alpha = complex(*rng.uniform(-1.0, 1.0, 2))
                worst_id = max(worst_id, majorization.symmetric_mean_identity(p, alpha, k))
    return [
        Check("majorization-feasible", infeasible == 0, float(infeasible), 0.0),
        Check("majorization-cert-residuals", worst_res <= 1e-7, worst_res, 1e-7),
        Check("symmetric-mean-identity", worst_id <= 1e-9, worst_id, 1e-9),
    ]


def criterion_12_duality_exclusivity() -> list[Check]:
    """Exactly one of the strict and singular systems is feasible on 1000
    seeded matrices outside the rejection band |t*| <= 1e-7."""
    rng = np.random.default_rng(SEED + 4)
    violations = 0
    drawn = 0
    while drawn < 1000:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 11))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        t_star = lp.strict_optimum(M)
        if abs(t_star) <= 1e-7:
            continue  # rejection band
        drawn += 1
        strict_ok = t_star > 1e-7
        A_mu = np.vstack([M.real.T, M.imag.T, np.ones((1, m))])
        b_mu = np.zeros(2 * n + 1)
        b_mu[-1] = 1.0
        mu = lp.eq_nonneg_feasibility(A_mu, b_mu)
        singular_ok = mu is not None
        if strict_ok == singular_ok:
            violations += 1
    return [Check("duality-exclusivity", violations == 0, float(violations), 0.0)]


ALL_CRITERIA = [
    criterion_01_critical_radius,
    criterion_02_inextensibility,
    criterion_03_a_nonsingular,
    criterion_04_second_order_fit,
    criterion_05_lemma_family,
    criterion_06_perturbation_bounds,
    criterion_07_differentiator,
    criterion_08_operator_bound,
    criterion_09_converse_bound,
    criterion_10_interlacing,
    criterion_11_majorization,
    criterion_12_duality_exclusivity,
]


def run_all(verbose: bool = True) -> list[Check]:
    checks: list[Check] = []
    for fn in ALL_CRITERIA:
        for check in fn():
            checks.append(check)
            if verbose:
                print(check.line())
    return checks
