"""Feasibility kernel: strict systems Re(M h) > 0 and nonnegative equality systems.

A nonnegative equality system A x = b, x >= 0 (a rectangularly stochastic
R with W = R Z, a positive-singularity witness mu >= 0 with mu^T M = 0,
convex-hull membership) goes through one Lawson-Hanson active-set NNLS
kernel (Solving Least Squares Problems, 1974, ch. 23): x >= 0 holds by
construction, and the system counts as feasible only when the residual of
the NNLS optimum vanishes to rounding.  At an infeasible optimum the
residual r = b - A x satisfies A^T r <= 0 < b^T r, a Farkas certificate.

The strict system is decided through the box LP

    max t   s.t.  Re(M h) >= t * 1,  |Re h_i| <= 1, |Im h_i| <= 1,

solved on the same kernel by least-squares primal-dual (LSPD), a short
sequence of NNLS problems on the columns of its dual whose reduced cost
vanishes.  Its optimum is strictly positive exactly when the strict
system is solvable; otherwise the dual positive-singularity system
(mu >= 0, not all zero, mu^T M = 0) is solved for the complementary
certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

FEAS_TOL = 1e-8
MARGIN_TOL = 1e-9
_MAX_STEPS = 1_000
_EPS = np.finfo(float).eps


class SimplexIterationError(RuntimeError):
    """The box LP failed: LSPD (stage "lspd") hit its step cap or found no
    column to limit a step, or strict_feasibility found neither a strict
    margin nor a singular certificate (a numerically ambiguous instance)."""


class NNLSIterationError(RuntimeError):
    """The NNLS kernel hit its cap of 3n outer passes; carries the pass
    count and the residual ||A x - b||_2 of the last iterate."""

    def __init__(self, passes: int, residual: float):
        super().__init__(
            f"nnls: {passes} outer passes without meeting the optimality "
            f"test; residual {residual:.3e}"
        )
        self.passes = passes
        self.residual = residual


class Verdict(str, Enum):
    STRICTLY_FEASIBLE = "StrictlyFeasible"
    POSITIVELY_SINGULAR = "PositivelySingular"


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Exactly one witness is present, matching the verdict.

    StrictlyFeasible: witness_h with min_i Re((M h)_i) = margin > MARGIN_TOL.
    PositivelySingular: witness_mu >= 0, sum = 1, margin = ||mu^T M||_inf <= FEAS_TOL.
    """

    verdict: Verdict
    witness_h: tuple[complex, ...] | None
    witness_mu: tuple[float, ...] | None
    margin: float


@cache
def _lapack():
    from scipy.linalg import lapack  # on first use: import polycrit loads numpy only
    return lapack


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares solution of A z = b by LAPACK's complete orthogonal
    factorisation (dgelsy) at rcond eps, the gelsy path of scipy.linalg.lstsq
    without its wrapper's per-call overhead."""
    lapack = _lapack()
    m, n = A.shape
    work, _ = lapack.dgelsy_lwork(m, n, 1, _EPS)
    rhs = np.zeros((max(m, n), 1))
    rhs[:m, 0] = b
    _, z, _, _, info = lapack.dgelsy(A, rhs, np.zeros(n, dtype=np.int32), _EPS, int(work))
    if info != 0:
        raise ValueError(f"lstsq: dgelsy returned info = {info}")
    return z[:n, 0]


def _nnls(A: np.ndarray, b: np.ndarray, x0=None, col_sums=None) -> tuple[np.ndarray, np.ndarray]:
    """Lawson-Hanson active-set NNLS: x >= 0 minimising ||A x - b||_2, and
    its residual r = b - A x.

    Each outer pass moves the index with the largest dual value w = A^T r
    above rounding into the passive set P, unless least squares on P would
    give it no positive value (it is then skipped until P changes, as in
    Lawson and Hanson's code).  Each inner pass steps from x towards the
    least squares solution on P until a coordinate reaches 0 and drops it,
    so x >= 0 throughout.  At the optimum w <= tol off P (tol from the column
    sums of |A|, col_sums if given).  A start x0 >= 0 must be the least
    squares solution on its own support (as every NNLS optimum is); P starts
    as that support.  Raises NNLSIterationError after 3n outer passes.
    """
    m, n = A.shape
    if col_sums is None:
        col_sums = np.abs(A).sum(axis=0)
    tol = 10 * max(m, n) * _EPS * col_sums.max(initial=0.0) * np.abs(b).max(initial=0.0)
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
        z[P] = _lstsq(A[:, P], b)
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
                z[P] = _lstsq(A[:, P], b)
        x = z
        r = b - A @ x


def solve_standard_form(A, b, c) -> tuple[np.ndarray, np.ndarray]:
    """min c @ x subject to A x = b, x >= 0, for a cost c >= 0, by
    least-squares primal-dual (Barnes, Chen, Gopalakrishnan and Johnson,
    Oper. Res. Lett. 30, 2002).  Returns x and the dual optimum pi
    (max b @ pi subject to A^T pi <= c).

    pi = 0 is dual feasible because c >= 0.  Each step solves the NNLS
    problem on the admissible columns, those whose reduced cost c - A^T pi
    vanishes to rounding, warm-started from the previous x.  A residual that
    vanishes to rounding makes x optimal; pi is then re-solved once on the
    support of x (unless its reduced costs there are already 0) so that
    complementary slackness holds to rounding.
    Otherwise pi moves along the residual r (which raises b @ pi by
    theta ||r||^2) until the next column's reduced cost reaches 0.  Raises
    SimplexIterationError after _MAX_STEPS steps, or when no column limits
    the step (the system A x = b, x >= 0 is infeasible).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    # rounding bounds of c - A^T pi and of b - A x, from the largest column
    # sum and entry of |A|, so that a column that blocked the last step counts
    # as admissible and an optimal residual counts as vanishing
    gamma = 10 * rows * _EPS
    AT, absA = A.T, np.abs(A)
    col_sums = absA.sum(axis=0)
    col_sum, entry = col_sums.max(initial=0.0), absA.max(initial=0.0)
    c_max, b_max = np.abs(c).max(initial=0.0), np.abs(b).max(initial=0.0)
    pi = np.zeros(rows)
    x = np.zeros(cols)
    for step in range(1, _MAX_STEPS + 1):
        d = c - AT @ pi
        admissible = (d <= gamma * (c_max + col_sum * np.abs(pi).max())) | (x > 0.0)
        xa, r = _nnls(A[:, admissible], b, x[admissible], col_sums[admissible])
        x = np.zeros(cols)
        x[admissible] = xa
        if np.abs(r).max(initial=0.0) <= gamma * (entry * x.sum() + b_max):
            support = x > 0.0
            if d[support].any():
                pi += _lstsq(A[:, support].T, d[support])
            return x, pi
        g = AT @ r
        blocking = ~admissible & (g > 0.0)
        if not blocking.any():
            raise SimplexIterationError(
                f"lspd: step {step} found no blocking column (infeasible system); "
                f"residual {np.linalg.norm(r):.3e}"
            )
        pi += np.min(d[blocking] / g[blocking]) * r
    raise SimplexIterationError(
        f"lspd: {_MAX_STEPS} steps without a vanishing residual; residual {np.linalg.norm(r):.3e}"
    )


def eq_nonneg_feasibility(A, b, feas_tol: float = FEAS_TOL):
    """Nonnegative solution of A x = b, or None when the system is infeasible.

    The NNLS optimum x >= 0 is accepted only when its recomputed residual
    vanishes to rounding: ||A x - b||_1 <= 1e-9 (1 + ||b||_inf) and
    ||A x - b||_inf <= feas_tol.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != len(b):
        raise ValueError("eq_nonneg_feasibility: inconsistent dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("eq_nonneg_feasibility: A and b must have finite entries")
    x, r = _nnls(A, b)
    r = np.abs(r)
    if not (
        r.sum() <= 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
        and r.max(initial=0.0) <= feas_tol
    ):
        return None
    return x


def _finite_matrix(M, stage: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2 or M.size == 0 or not np.isfinite(M).all():
        raise ValueError(f"{stage}: matrix must be nonempty with finite entries")
    return M


def _realified(M: np.ndarray) -> np.ndarray:
    """Re(M h) as a real matrix acting on (Re h, Im h)."""
    return np.hstack([M.real, -M.imag])


def _box_lp(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimum of max t s.t. Re(M h) >= t, |Re h_i|, |Im h_i| <= 1.

    Returns (t*, h*); t* > 0 exactly when the strict system is solvable.
    By LP duality t* = min over the simplex of ||G^T mu||_1 (G = M
    realified), that is

        min 1^T (p + q)  s.t.  G^T mu - p + q = 0,  1^T mu = 1,  (mu, p, q) >= 0,

    whose dual optimum pi = (pi_u, t*) gives h* = -pi_u.  The LP is built
    on M / max|M_ij| and t* scaled back, so t*(s M) = s t*(M) to rounding.
    """
    m, n = M.shape
    size = float(np.abs(M).max()) or 1.0
    n2 = 2 * n
    A = np.zeros((n2 + 1, m + 2 * n2))
    A[:n2, :m] = _realified(M).T / size
    A[n2, :m] = 1.0
    A[:n2, m : m + n2] = -np.eye(n2)
    A[:n2, m + n2 :] = np.eye(n2)
    b = np.zeros(n2 + 1)
    b[n2] = 1.0
    cost = np.r_[np.zeros(m), np.ones(2 * n2)]
    _, pi = solve_standard_form(A, b, cost)
    u = np.clip(-pi[:n2], -1.0, 1.0)
    return size * float(pi[n2]), u[:n] + 1j * u[n:]


def strict_optimum(M) -> float:
    """t* of the box LP alone; used by duality-exclusivity sweeps to apply
    the rejection band around 0."""
    return _box_lp(_finite_matrix(M, "strict_optimum"))[0]


def strict_feasibility(M) -> FeasibilityCertificate:
    """Decide Re(M h) > 0 versus positive singularity of M.

    The box |Re h|, |Im h| <= 1 bounds the LP; its optimum t* is > 0 iff
    the strict system is solvable (LP duality), with the band around 0
    resolved by solving the dual system explicitly.
    """
    M = _finite_matrix(M, "strict_feasibility")
    m, n = M.shape
    t_star, h = _box_lp(M)
    margin = float(np.min((M @ h).real))
    strict = FeasibilityCertificate(Verdict.STRICTLY_FEASIBLE, tuple(h), None, margin)
    if margin > MARGIN_TOL and t_star > MARGIN_TOL:
        return strict

    # dual: mu >= 0, sum mu = 1, mu^T M = 0 (realified)
    A_mu = np.vstack([M.real.T, M.imag.T, np.ones((1, m))])
    b_mu = np.zeros(2 * n + 1)
    b_mu[-1] = 1.0
    mu = eq_nonneg_feasibility(A_mu, b_mu)
    if mu is not None:
        mu /= mu.sum()
        residual = float(np.abs(mu @ M).max())
        if residual <= FEAS_TOL:
            return FeasibilityCertificate(
                Verdict.POSITIVELY_SINGULAR, None, tuple(float(v) for v in mu), residual
            )
    if margin > MARGIN_TOL and t_star > 0:
        return strict
    raise SimplexIterationError(
        f"numerically ambiguous instance: t* = {t_star:.3e} with no dual certificate"
    )


def in_convex_hull(point: complex, points, tol: float = FEAS_TOL) -> bool:
    """Convex-combination feasibility test via the equality kernel, centred on the
    set's centroid and scaled by its diameter, so that tol is relative."""
    pts = np.asarray(points, dtype=complex)
    centre = pts.mean()
    z = complex(point) - centre
    scale = max(float(np.abs(pts[:, None] - pts).max()), abs(z)) or 1.0
    pts, z = (pts - centre) / scale, z / scale
    A = np.vstack([pts.real, pts.imag, np.ones(len(pts))])
    b = np.array([z.real, z.imag, 1.0])
    return eq_nonneg_feasibility(A, b, feas_tol=tol) is not None
