"""Independent oracles: nothing here calls into polycrit.

Roots come from LAPACK eigenvalues of companion matrices, matchings from
scipy's bipartite matching, and LP verdicts from HiGHS through
``scipy.optimize.linprog``.  Certificates returned by the library are
re-checked from their raw witnesses.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# verdict thresholds of the library's public contract (lp.FEAS_TOL, lp.MARGIN_TOL)
FEAS_TOL = 1e-8
MARGIN_TOL = 1e-9
# criterion 12's rejection band around t* = 0
BAND = 1e-7
CERT_TOL = 1e-7


def derivative(coeffs_ascending) -> np.ndarray:
    c = np.asarray(coeffs_ascending, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def companion_roots(coeffs_ascending) -> np.ndarray:
    """Roots as eigenvalues of the companion matrix (LAPACK zgeev)."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    c = c / c[-1]
    n = len(c) - 1
    if n == 1:
        return np.array([-c[0]])
    C = np.zeros((n, n), dtype=complex)
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -c[:-1]
    return np.linalg.eigvals(C)


def distinct(points) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of an exact multiset and their multiplicities."""
    vals: list[complex] = []
    mults: list[int] = []
    for z in np.asarray(points, dtype=complex):
        for i, v in enumerate(vals):
            if v == z:
                mults[i] += 1
                break
        else:
            vals.append(complex(z))
            mults.append(1)
    return np.array(vals), np.array(mults)


def condition_radius(vals, mults, coeffs_ascending, budget: float) -> float:
    """Largest displacement of a root that a correct answer may show.

    Forming the coefficients perturbs p at r by up to n eps S(r), with
    S(r) = sum_k |c_k| |r|^k, and a root finder may stop once
    |p(z)| <= budget (1 + max |c_k|) (polycrit's residual contract).  With
    P(r) = |lead| prod_{s != r} |r - s|^{m_s} = |p^(m)(r)| / m!, a root of
    multiplicity m then moves by up to (delta / P(r))^(1/m): the tolerance
    scales like eps^(1/m).
    """
    c = np.abs(np.asarray(coeffs_ascending, dtype=complex))
    powers = np.arange(len(c))
    n = len(c) - 1
    out = 0.0
    for i, (r, m) in enumerate(zip(vals, mults)):
        S = float(np.sum(c * abs(r) ** powers))
        delta = 10.0 * n * np.finfo(float).eps * S + budget * (1.0 + c.max())
        others, om = np.delete(vals, i), np.delete(mults, i)
        P = float(c[-1] * np.prod(np.abs(r - others) ** om))
        out = max(out, (delta / P) ** (1.0 / m))
    return out


def critical_points(vals, mults, start, max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Exact critical points of prod (z - r_i)^{m_i} with multiplicities.

    Each r_i is a critical point of multiplicity m_i - 1; the other k - 1
    are the roots of H(z) = prod (z - r_i) * sum m_i / (z - r_i), found by
    simultaneous Newton-Aberth steps on H from the given start points
    (LAPACK eigenvalues of the companion matrix of p').  H is evaluated
    from the roots, never from rounded coefficients.
    """
    pool = list(np.asarray(start, dtype=complex))
    for r, m in zip(vals, mults):
        for _ in range(m - 1):
            pool.pop(int(np.argmin(np.abs(np.array(pool) - r))))
    z = np.array(pool)
    for _ in range(max_iter):
        d = z[:, None] - vals[None, :]
        h = (mults / d).sum(axis=1)
        dh = -(mults / d**2).sum(axis=1)
        newton = h / (h * (1.0 / d).sum(axis=1) + dh)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        step = newton / (1.0 - newton * (1.0 / diff).sum(axis=1))
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            break
    multiple = mults > 1
    crit_vals = np.concatenate([z, vals[multiple]])
    crit_mults = np.concatenate([np.ones(len(z), dtype=int), mults[multiple] - 1])
    return crit_vals, crit_mults


def directed_distance(zeros, crit) -> float:
    """max over zeros of the distance to the nearest critical point."""
    z = np.asarray(zeros, dtype=complex)
    w = np.asarray(crit, dtype=complex)
    return float(np.abs(z[:, None] - w[None, :]).min(axis=1).max())


def bottleneck(a, b) -> float:
    """Bottleneck matching value by bisection over realized distances with
    scipy's maximum bipartite matching as the feasibility test."""
    A = np.asarray(a, dtype=complex)
    B = np.asarray(b, dtype=complex)
    D = np.abs(A[:, None] - B[None, :])
    cands = np.unique(D)
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(D <= cands[mid]), perm_type="column")
        if int((match >= 0).sum()) == len(A):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def box_optimum(M) -> float:
    """HiGHS optimum of max t s.t. Re(M h) >= t, |Re h_i|, |Im h_i| <= 1."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m, n = M.shape
    G = np.hstack([M.real, -M.imag])
    cost = np.zeros(2 * n + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=np.hstack([-G, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * (2 * n) + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS box LP status {res.status}: {res.message}")
    return -float(res.fun)


def nonneg_feasible(A, b) -> bool:
    """HiGHS feasibility of A x = b, x >= 0."""
    res = linprog(
        np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=[(0.0, None)] * A.shape[1], method="highs"
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"HiGHS feasibility status {res.status}: {res.message}")


def singular_feasible(M) -> bool:
    """HiGHS feasibility of mu >= 0, sum mu = 1, mu^T M = 0."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m = M.shape[0]
    A = np.vstack([M.real.T, M.imag.T, np.ones((1, m))])
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return nonneg_feasible(A, b)


def strict_verdict(M) -> tuple[str, float]:
    """(expected verdict, t*) for the strict system Re(M h) > 0."""
    t_star = box_optimum(M)
    if t_star > BAND:
        return "StrictlyFeasible", t_star
    if singular_feasible(M):
        return "PositivelySingular", t_star
    return "Ambiguous", t_star


def certificate_problem(M, cert, t_star: float) -> str:
    """Empty when the library's certificate holds up on recomputation."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if cert.verdict.value == "StrictlyFeasible":
        if cert.witness_h is None or cert.witness_mu is not None:
            return "strict verdict without exactly one h witness"
        h = np.asarray(cert.witness_h, dtype=complex)
        if np.abs(h.real).max() > 1 + 1e-9 or np.abs(h.imag).max() > 1 + 1e-9:
            return "h witness leaves the box"
        margin = float(np.min((M @ h).real))
        if margin <= MARGIN_TOL:
            return f"recomputed margin {margin:.3e} not positive"
        if abs(margin - cert.margin) > 1e-9 * (1 + abs(margin)):
            return f"reported margin {cert.margin:.6e} != recomputed {margin:.6e}"
        if abs(margin - t_star) > 1e-6 * (1 + t_star):
            return f"margin {margin:.6e} is not the box optimum {t_star:.6e}"
        return ""
    if cert.witness_mu is None or cert.witness_h is not None:
        return "singular verdict without exactly one mu witness"
    mu = np.asarray(cert.witness_mu, dtype=float)
    if mu.min() < -1e-12 or abs(mu.sum() - 1.0) > 1e-9:
        return "mu is not a probability vector"
    residual = float(np.abs(mu @ M).max())
    if residual > FEAS_TOL:
        return f"recomputed |mu^T M| {residual:.3e} above {FEAS_TOL:.0e}"
    return ""


def majorization_system(x_vals, y_vals) -> tuple[np.ndarray, np.ndarray]:
    """A, b of the rectangularly stochastic system X = R Y, R >= 0 with row
    sums 1 and column sums m/n, over R flattened row by row."""
    x = np.asarray(x_vals, dtype=complex)
    y = np.asarray(y_vals, dtype=complex)
    m, n = len(x), len(y)
    eye_m = np.eye(m)
    A = np.vstack(
        [
            np.kron(eye_m, np.ones((1, n))),
            np.kron(np.ones((1, m)), np.eye(n)),
            np.kron(eye_m, y.real[None, :]),
            np.kron(eye_m, y.imag[None, :]),
        ]
    )
    b = np.concatenate([np.ones(m), np.full(n, m / n), x.real, x.imag])
    return A, b


def majorization_problem(x_vals, y_vals, cert) -> str:
    """Empty when the stochastic witness R reproduces X = R Y within CERT_TOL."""
    x = np.asarray(x_vals, dtype=complex)
    y = np.asarray(y_vals, dtype=complex)
    R = np.asarray(cert.R, dtype=float)
    m, n = len(x), len(y)
    if R.shape != (m, n):
        return f"R has shape {R.shape}, expected {(m, n)}"
    worst = max(
        float(np.abs(R.sum(axis=1) - 1.0).max()),
        float(np.abs(R.sum(axis=0) - m / n).max()),
        float(max(0.0, -R.min())),
        float(np.abs(R @ y - x).max()),
    )
    if worst > CERT_TOL:
        return f"recomputed certificate residual {worst:.3e} above {CERT_TOL:.0e}"
    return ""
