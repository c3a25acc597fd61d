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

on a dense-tableau two-phase simplex with Bland's rule.  Its optimum is
strictly positive exactly when the strict system is solvable; otherwise
the dual positive-singularity system (mu >= 0, not all zero, mu^T M = 0)
is solved for the complementary certificate.
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
    """The box LP failed: its pivot cap was exceeded, or strict_feasibility
    found neither a strict margin nor a singular certificate (a
    numerically ambiguous instance)."""


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


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lawson-Hanson active-set NNLS: x >= 0 minimising ||A x - b||_2, and
    its residual r = b - A x.

    Each outer pass moves the index with the largest dual value w = A^T r
    above rounding into the passive set P, unless least squares on P would
    give it no positive value (it is then skipped until P changes, as in
    Lawson and Hanson's code).  Each inner pass steps from x towards the
    least squares solution on P until a coordinate reaches 0 and drops it,
    so x >= 0 throughout.  At the optimum w <= tol off P.  Raises
    NNLSIterationError after 3n outer passes.
    """
    import scipy.linalg  # here, not at module level: import polycrit loads numpy only

    m, n = A.shape
    tol = 10 * max(m, n) * np.finfo(float).eps * np.abs(A).sum(axis=0).max(initial=0.0)
    tol *= np.abs(b).max(initial=0.0)
    x = np.zeros(n)
    P = np.zeros(n, dtype=bool)
    skipped = np.zeros(n, dtype=bool)
    r = b.copy()

    def solve(cols):
        z = np.zeros(n)
        if cols.any():
            z[cols] = scipy.linalg.lstsq(A[:, cols], b, lapack_driver="gelsy", check_finite=False)[0]
        return z

    passes = 0
    while True:
        w = A.T @ r
        free = ~P & ~skipped & (w > tol)
        if not free.any():
            return x, r
        if passes == 3 * n:
            raise NNLSIterationError(passes, float(np.linalg.norm(r)))
        passes += 1
        j = np.flatnonzero(free)[np.argmax(w[free])]
        P[j] = True
        z = solve(P)
        if not z[j] > 0.0:
            P[j] = False
            skipped[j] = True
            continue
        skipped[:] = False
        while P.any() and z[P].min() <= 0.0:
            Q = np.flatnonzero(P & (z <= 0.0))
            ratio = x[Q] / np.maximum(x[Q] - z[Q], np.finfo(float).tiny)
            k = np.argmin(ratio)
            x += ratio[k] * (z - x)
            x[Q[k]] = 0.0
            P &= x > 0.0
            x[~P] = 0.0
            z = solve(P)
        x = z
        r = b - A @ x


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
