"""Acceptance battery: every numbered check at its stated tolerance.

Each test prints one PASS/FAIL line per check (run with -s to see them
inline; they also land in the captured output on failure).

Two checks measure genuine mathematical behavior that contradicts their
stated budgets and therefore fail by design rather than by bug.  Their
tests assert the recorded finding: the other check of the criterion
passes, the finding's check fails, and its value matches an independent
oracle computed here.

* deg4-fit-constant: the Taylor series of the quartic family's distance
  growth is d(p_a) - r = 10.81155 a^2 - 1370.3 a^3 - 2.20e4 a^4
  + 1.21e6 a^5 + ...  The (a^2, a^3) fit already carries the cubic term;
  the a^4 and a^5 terms bias it, because at the edge of the stated grid
  (a = k*1e-3, k = 1..8) |c3| a is about c2.  The fit lands at
  c2 = 11.0019, outside 10.8115 +- 0.01; np.roots of p_a' for the
  closed-form family gives the same fit.  The same fit on a = k*1e-4
  gives 10.8192 and on a = k*1e-5 gives 10.8116.

* unit-zero-perturbation: critical points move by eps_1/n, so the
  distance from the moved zero is r - (n-1)/n |eps_1| cos(theta)
  + O(|eps_1|^2), with theta the angle from eps_1 to the nearest critical
  direction (the (n-1)-th roots of unity).  The budget
  r - cos(pi/(n-1)) |eps_1| therefore holds only for
  theta <= arccos(n/(n-1) cos(pi/(n-1))): 48.2, 27.9 and 13.9 degrees for
  n = 4, 5, 6.  The worst of the phases 2*pi*k/8 is n = 5 at odd k
  (theta = pi/4), first-order excess |eps_1| cos(pi/4)/5 = 1.41421e-4;
  the measured excess is 1.4166e-4.
"""
import math

import numpy as np

from polycrit import normal_ops, poly, suite, variation_second

R4 = 4.0 ** (-1.0 / 3.0)  # critical radius of z^4 + z


def _checks(criterion):
    checks = criterion()
    for c in checks:
        print(c.line())
    return {c.name: c for c in checks}


def _run(criterion):
    failed = [c for c in _checks(criterion).values() if not c.passed]
    assert not failed, "; ".join(
        f"{c.name}: value {c.value:.3e} exceeds tolerance {c.tolerance:.3e}" for c in failed
    )


def test_criterion_01_critical_radius_law():
    _run(suite.criterion_01_critical_radius)


def test_criterion_02_inextensibility_certificates():
    _run(suite.criterion_02_inextensibility)


def test_criterion_03_a_matrix_nonsingular_and_inverse_pair():
    _run(suite.criterion_03_a_nonsingular)


def _deg4_distance(a):
    """d(p_a) for the quartic family built from its closed-form constants,
    measured against np.roots of p_a'."""
    alpha1 = 3.0 * math.sqrt(3.0) * R4 / (2.0 - 3.0 * R4)
    alpha2 = -math.sqrt(3.0) * ((3.0 * R4 + 2.0) ** 2 + 4.0) / (2.0 * (3.0 * R4 - 2.0) ** 2)
    zeta = np.exp(1j * (np.pi / 3.0 + alpha1 * a + alpha2 * a * a))
    zeros = np.array([a, -1.0, zeta, np.conj(zeta)])
    crit = np.roots(np.polyder(np.poly(zeros)))
    return np.abs(zeros[:, None] - crit[None, :]).min(axis=1).max()


def _deg4_fit_c2(grid):
    g = np.array(grid)
    growth = np.array([_deg4_distance(a) for a in g]) - _deg4_distance(0.0)
    return np.linalg.lstsq(np.vstack([g**2, g**3]).T, growth, rcond=None)[0][0]


def test_criterion_04_second_order_fitted_constants():
    # deg4-fit-constant fails by design: see the module docstring
    checks = _checks(suite.criterion_04_second_order_fit)
    assert checks["deg5-fit-constant"].passed
    deg4 = checks["deg4-fit-constant"]
    oracle_dev = abs(_deg4_fit_c2([k * 1e-3 for k in range(1, 9)]) - 10.8115)
    assert oracle_dev > deg4.tolerance
    assert not deg4.passed
    assert abs(deg4.value - oracle_dev) <= 1e-6
    # where the a^4 and a^5 terms are negligible the same fit recovers C
    fine = variation_second.fit_quadratic_growth("deg4", [k * 1e-5 for k in range(1, 9)])
    assert abs(fine.c2 - 3.0 / (4.0 * R4 * (2.0 - 3.0 * R4))) <= deg4.tolerance


def test_criterion_05_tilted_cubic_family():
    _run(suite.criterion_05_lemma_family)


def _unit_zero_first_order_excess(eps1):
    """Worst first-order excess of the distance over its budget across the
    battery's cases: n = 4, 5, 6 at phases 2*pi*k/8."""
    worst = -math.inf
    for n in (4, 5, 6):
        for k in range(8):
            theta = min(
                abs(math.remainder(2 * math.pi * k / 8 - 2 * math.pi * j / (n - 1), 2 * math.pi))
                for j in range(n - 1)
            )
            excess = eps1 * (math.cos(math.pi / (n - 1)) - (n - 1) / n * math.cos(theta))
            worst = max(worst, excess)
    return worst


def test_criterion_06_perturbation_inequalities():
    # unit-zero-perturbation fails by design: see the module docstring
    checks = _checks(suite.criterion_06_perturbation_bounds)
    assert checks["sine-ratio-inequality"].passed
    unit_zero = checks["unit-zero-perturbation"]
    eps1 = 1e-3
    oracle = _unit_zero_first_order_excess(eps1)
    assert oracle > unit_zero.tolerance
    assert not unit_zero.passed
    assert abs(unit_zero.value - oracle) <= eps1**2


def test_criterion_07_differentiator_identity():
    _run(suite.criterion_07_differentiator)


def test_criterion_08_operator_variation_bound():
    _run(suite.criterion_08_operator_bound)


def test_criterion_09_converse_variation_bound():
    _run(suite.criterion_09_converse_bound)


def test_criterion_10_interlacing():
    _run(suite.criterion_10_interlacing)


def test_criterion_11_majorization_certificates():
    _run(suite.criterion_11_majorization)


def test_criterion_12_duality_exclusivity():
    _run(suite.criterion_12_duality_exclusivity)


def test_run_all_certifies_each_distinct_row_once(monkeypatch):
    rows = []
    certify = poly._certify

    def recorded(c, z):
        rows.extend(tuple(row) for row in c.tolist())
        return certify(c, z)

    monkeypatch.setattr(poly, "_certify", recorded)
    for cached in (suite._rotated_family, suite._svar_corpus):
        cached.cache_clear()
    suite.run_all(verbose=False)
    assert rows and len(rows) == len(set(rows))


def test_svar_corpus_bytes_match_inline_fourier_build():
    # the c08/c09 corpus as it was built before normal_from_roots took it
    # over: U* diag(roots) U formed inline on each degree's stack
    rng = np.random.default_rng(suite.SEED + 1)
    for n, (roots, sub) in zip(range(2, 9), suite._svar_corpus()):
        ref_roots = poly.disk_points(rng, 500 * n).reshape(500, n)
        U = normal_ops.dft_unitary(n)
        D = np.zeros((500, n, n), dtype=complex)
        D[:, range(n), range(n)] = ref_roots
        _, ref_sub = normal_ops.compression_spectra(normal_ops.as_normal(U.conj().T @ D @ U), 0)
        assert roots.tobytes() == ref_roots.tobytes() and sub.tobytes() == ref_sub.tobytes()


def test_svar_corpus_builds_through_normal_from_roots(monkeypatch):
    shapes = []
    build = normal_ops.normal_from_roots

    def recorded(roots):
        shapes.append(np.shape(roots))
        return build(roots)

    monkeypatch.setattr(normal_ops, "normal_from_roots", recorded)
    suite._svar_corpus.cache_clear()
    try:
        suite._svar_corpus()
    finally:
        suite._svar_corpus.cache_clear()
    assert shapes == [(500, n) for n in range(2, 9)]
