"""Feasibility kernel: strict systems Re(M h) > 0 and nonnegative equality systems.

Everything runs on a dense-tableau two-phase simplex with Bland's rule.
The strict system is decided through the box LP

    max t   s.t.  Re(M h) >= t * 1,  |Re h_i| <= 1, |Im h_i| <= 1,

whose optimum is strictly positive exactly when the strict system is
solvable; otherwise the dual positive-singularity system (mu >= 0, not all
zero, mu^T M = 0) is solved for the complementary certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

FEAS_TOL = 1e-8
MARGIN_TOL = 1e-9
_PIVOT_EPS = 1e-11
_MAX_PIVOTS = 50_000


class SimplexIterationError(RuntimeError):
    """Pivot cap exceeded (unreachable under Bland's rule on exact data)."""


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


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: list[int], cost: np.ndarray, ncols: int):
    """Run simplex to optimality on tableau T (rows m, cols ncols+1).

    cost is the full cost vector over the ncols structural columns; reduced
    costs are recomputed from the basis each iteration (slower than a cost
    row but immune to drift at these sizes).
    """
    m = T.shape[0]
    for _ in range(_MAX_PIVOTS):
        cb = cost[basis]
        # reduced costs r_j = c_j - cb . T[:, j]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -_PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            return
        ratios = []
        for i in range(m):
            if T[i, entering] > _PIVOT_EPS:
                ratios.append((T[i, -1] / T[i, entering], basis[i], i))
        if not ratios:
            raise SimplexIterationError("unbounded pivot column (should not occur here)")
        ratios.sort(key=lambda t: (t[0], t[1]))
        _pivot(T, basis, ratios[0][2], entering)
    raise SimplexIterationError("simplex pivot cap exceeded")


def solve_standard_form(A, b, c):
    """min c @ x  subject to  A x = b, x >= 0.

    Returns (x, objective) or (None, phase1_objective) when infeasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))
    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0
    _bland_iterate(T, basis, cost1, n + m)
    phase1 = float(cost1[basis] @ T[:, -1])
    if phase1 > 1e-9 * (1.0 + abs(b).max()):
        return None, phase1

    # drive artificials out of the basis where possible; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if abs(T[i, j]) > 1e-9), None)
            if pivot_col is None:
                continue  # redundant row
            _pivot(T, basis, i, pivot_col)
        keep.append(i)
    T = T[keep]
    basis = [basis[i] for i in keep]

    cost2 = np.concatenate([c, np.zeros(m)])
    # artificial columns must never re-enter
    T[:, n : n + m] = 0.0
    cost2[n:] = 1e30
    _bland_iterate(T, basis, cost2, n)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    return x, float(c @ x)


def eq_nonneg_feasibility(A, b, feas_tol: float = FEAS_TOL):
    """Nonnegative solution of A x = b, or None when phase 1 says infeasible.

    A solution is accepted only if its recomputed residual ||Ax - b||_inf
    stays within feas_tol.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != len(b):
        raise ValueError("inconsistent dimensions")
    x, _ = solve_standard_form(A, b, np.zeros(A.shape[1]))
    if x is None:
        return None
    if np.abs(A @ x - b).max() > feas_tol:
        return None
    return x


def _realified(M: np.ndarray) -> np.ndarray:
    """Re(M h) as a real matrix acting on (Re h, Im h)."""
    return np.hstack([M.real, -M.imag])


def _box_lp(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimum of max t s.t. Re(M h) >= t, |Re h_i|, |Im h_i| <= 1.

    Returns (t*, h*).  t* >= 0 always (h = 0 is feasible); t* > 0 exactly
    when the strict system is solvable.
    """
    m, n = M.shape
    G = _realified(M)  # m x 2n
    n2 = 2 * n

    # standard form over x = [v (n2), s (n2), t+, t-, w (m)]:
    #   v + s = 2            (box u = v - 1 in [-1, 1])
    #   G v - (t+ - t-) 1 - w = G 1
    ncols = 2 * n2 + 2 + m
    A = np.zeros((n2 + m, ncols))
    b = np.zeros(n2 + m)
    A[:n2, :n2] = np.eye(n2)
    A[:n2, n2 : 2 * n2] = np.eye(n2)
    b[:n2] = 2.0
    A[n2:, :n2] = G
    A[n2:, 2 * n2] = -1.0
    A[n2:, 2 * n2 + 1] = 1.0
    A[n2:, 2 * n2 + 2 :] = -np.eye(m)
    b[n2:] = G @ np.ones(n2)
    cost = np.zeros(ncols)
    cost[2 * n2] = -1.0
    cost[2 * n2 + 1] = 1.0

    x, obj = solve_standard_form(A, b, cost)
    if x is None:
        raise SimplexIterationError("box LP unexpectedly infeasible")
    t_star = -obj
    u = x[:n2] - 1.0
    return t_star, u[:n] + 1j * u[n:]


def strict_optimum(M) -> float:
    """t* of the box LP alone; used by duality-exclusivity sweeps to apply
    the rejection band around 0."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return _box_lp(M)[0]


def strict_feasibility(M) -> FeasibilityCertificate:
    """Decide Re(M h) > 0 versus positive singularity of M.

    The box |Re h|, |Im h| <= 1 bounds the LP; its optimum t* is > 0 iff
    the strict system is solvable (LP duality), with the band around 0
    resolved by solving the dual system explicitly.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m, n = M.shape
    if m < 1 or n < 1 or not np.all(np.isfinite(M)):
        raise ValueError("matrix must be nonempty with finite entries")
    t_star, h = _box_lp(M)

    if t_star > MARGIN_TOL:
        margin = float(np.min((M @ h).real))
        if margin > MARGIN_TOL:
            return FeasibilityCertificate(
                Verdict.STRICTLY_FEASIBLE, tuple(h), None, margin
            )

    # dual: mu >= 0, sum mu = 1, mu^T M = 0 (realified)
    A_mu = np.vstack([M.real.T, M.imag.T, np.ones((1, m))])
    b_mu = np.zeros(2 * n + 1)
    b_mu[-1] = 1.0
    mu = eq_nonneg_feasibility(A_mu, b_mu)
    if mu is not None:
        mu = np.maximum(mu, 0.0)
        mu /= mu.sum()
        margin = float(np.abs(mu @ M).max())
        if margin <= FEAS_TOL:
            return FeasibilityCertificate(
                Verdict.POSITIVELY_SINGULAR, None, tuple(float(v) for v in mu), margin
            )
    if t_star > 0:
        margin = float(np.min((M @ h).real))
        if margin > MARGIN_TOL:
            return FeasibilityCertificate(
                Verdict.STRICTLY_FEASIBLE, tuple(h), None, margin
            )
    raise SimplexIterationError(
        f"numerically ambiguous instance: t* = {t_star:.3e} with no dual certificate"
    )


def in_convex_hull(point: complex, points, tol: float = FEAS_TOL) -> bool:
    """Convex-combination feasibility test via the equality kernel."""
    pts = np.asarray(points, dtype=complex)
    A = np.vstack([pts.real, pts.imag, np.ones(len(pts))])
    b = np.array([complex(point).real, complex(point).imag, 1.0])
    return eq_nonneg_feasibility(A, b, feas_tol=tol) is not None
