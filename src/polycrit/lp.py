"""Feasibility kernel: strict systems Re(M h) > 0 and nonnegative equality systems.

A nonnegative equality system A x = b, x >= 0 (a rectangularly stochastic
R with W = R Z, a positive-singularity witness mu >= 0 with mu^T M = 0,
convex-hull membership) goes through one Lawson-Hanson active-set NNLS
kernel (Solving Least Squares Problems, 1974, ch. 23): x >= 0 holds by
construction, and the system counts as feasible only when the residual of
the NNLS optimum vanishes to rounding.  At an infeasible optimum the
residual r = b - A x satisfies A^T r <= 0 < b^T r, a Farkas certificate.

The strict system Re(M h) > 0 and its Gordan alternative, positive
singularity (mu >= 0, sum mu = 1, mu^T M = 0), are decided by one NNLS
on the singular system of M / max|M_ij|, whose residual is the strict
witness when it does not vanish (Wolfe's min-norm point, Math. Prog. 11,
1976).  The box LP max t s.t. Re(M h) >= t * 1, |Re h_i|, |Im h_i| <= 1
is an independent route to the verdict: strict_optimum solves it on the
same kernel by least-squares primal-dual (LSPD), a short sequence of
NNLS problems on the columns of its dual whose reduced cost vanishes.
"""
from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

FEAS_TOL = 1e-8
MARGIN_TOL = 1e-9
_MAX_STEPS = 1_000
_EPS = np.finfo(float).eps


class SimplexIterationError(RuntimeError):
    """The box LP failed: LSPD (stage "lspd") hit its step cap or found no
    column to limit a step; or strict_feasibility (stage
    "strict_feasibility") found neither certificate meeting its gate (a
    numerically ambiguous instance), with both margins in the message."""


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
    """Exactly one witness, matching the verdict; gates relative to scale = max|M_ij| of M.

    StrictlyFeasible: witness_h in the box |Re h_i|, |Im h_i| <= 1 (not in
    general the box optimum) with min_i Re((M h)_i) = margin > MARGIN_TOL * scale.
    PositivelySingular: witness_mu >= 0, sum = 1, margin = ||mu^T M||_inf <= FEAS_TOL * scale.
    """

    verdict: Verdict
    witness_h: tuple[complex, ...] | None
    witness_mu: tuple[float, ...] | None
    margin: float
    scale: float = 1.0

    @property
    def gate(self) -> float:
        return (MARGIN_TOL if self.verdict is Verdict.STRICTLY_FEASIBLE else FEAS_TOL) * self.scale

    @property
    def holds(self) -> bool:
        """Whether the margin meets the verdict's gate."""
        return self.margin > self.gate if self.verdict is Verdict.STRICTLY_FEASIBLE else self.margin <= self.gate


_FLAPACK = "scipy.linalg._flapack"


def _flapack_file() -> Path | None:
    """The file of scipy.linalg._flapack in scipy's package directory,
    found without importing scipy, or None."""
    scipy = importlib.util.find_spec("scipy")
    folders = scipy.submodule_search_locations if scipy else None
    files = (Path(d, "linalg", f"_flapack{s}") for d in folders or () for s in importlib.machinery.EXTENSION_SUFFIXES)
    return next((f for f in files if f.is_file()), None)


@lru_cache(maxsize=1)
def flapack():
    """scipy's compiled LAPACK module, the one source of dgelsy and zgees.

    Loaded on first use from its file (_flapack_file) and registered under
    its own name, scipy.linalg._flapack, so a later import of scipy.linalg
    reuses it: importing scipy.linalg itself loads about 85 scipy modules
    and costs 0.2-0.4 s in each cold process.  When the file is not found
    (another layout of scipy) or does not load (where it needs libraries
    that only scipy's own import sets up), scipy.linalg.lapack, which
    exports the same routines, is imported instead."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    path = _flapack_file()
    if path is not None:
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        with contextlib.suppress(ImportError):
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
            return module
    from scipy.linalg import lapack

    return lapack


@lru_cache(maxsize=4096)
def _gelsy(m: int, n: int):
    """Least squares on m x n blocks: dgelsy bound once per shape, with its
    workspace size for one right-hand side; the 4096 most recent shapes are
    kept.  LAPACK is loaded here, on first use (flapack), so that import
    polycrit loads numpy only."""
    lapack = flapack()
    dgelsy, lwork, rows = lapack.dgelsy, int(lapack.dgelsy_lwork(m, n, 1, _EPS)[0]), max(m, n)

    def solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
        rhs = np.zeros((rows, 1))
        rhs[:m, 0] = b
        # positional: (a, b, jpvt, cond, lwork, overwrite_a, overwrite_b)
        _, z, _, _, info = dgelsy(A, rhs, np.zeros(n, dtype=np.int32), _EPS, lwork, 1, 1)
        if info != 0:
            raise ValueError(f"lstsq: dgelsy returned info = {info}")
        return z[:n, 0]

    return solve


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares solution of A z = b by LAPACK's complete orthogonal
    factorisation (dgelsy) at rcond eps, the gelsy path of scipy.linalg.lstsq
    without its wrapper's per-call overhead: one lookup of the solver
    bound to A's shape (_gelsy).  A is scratch: dgelsy factorises a
    Fortran-ordered A in place instead of copying it."""
    return _gelsy(*A.shape)(A, b)


def _passive_solve(columns: np.ndarray, P: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on the columns P of A, held as the C-ordered rows of
    columns = A^T: the solution z, zero off P, and its entries on P.  The
    gather copies contiguous rows, and the block goes to _lstsq in Fortran
    order, so dgelsy needs no copy of it."""
    cols = P.nonzero()[0]
    z = np.zeros(len(P))
    zp = _lstsq(columns.take(cols, axis=0).T, b) if len(cols) else z[:0]
    z[cols] = zp
    return z, zp


def _nnls(A: np.ndarray, b: np.ndarray, x0=None, col_sums=None, b_max=None) -> tuple[np.ndarray, np.ndarray]:
    """Lawson-Hanson active-set NNLS: x >= 0 minimising ||A x - b||_2, and
    its residual r = b - A x; with no columns, x = [] and r = b.

    Each outer pass moves the index with the largest dual value w = A^T r
    above rounding into the passive set P, unless least squares on P would
    give it no positive value (it is then skipped until P changes, as in
    Lawson and Hanson's code).  Each inner pass steps from x towards the
    least squares solution on P until a coordinate reaches 0 and drops it,
    so x >= 0 throughout.  At the optimum w <= tol off P, tol from the
    largest column sum of |A| and max |b|; a caller that solves many
    systems on columns of one matrix passes its col_sums and b_max in.  A
    start x0 >= 0 must be the least squares solution on its own support
    (as every NNLS optimum is); P starts as that support.  P is one mask
    updated in place, the skipped indices a list, and least squares on P
    goes through _lstsq (_passive_solve) on one C-ordered copy of A^T
    (none when A^T already is, as for LSPD's blocks).  Raises
    NNLSIterationError after 3n outer passes.
    """
    m, n = A.shape
    x = np.zeros(n) if x0 is None else x0.copy()
    r = b - A @ x
    if n == 0:
        return x, r
    if col_sums is None:
        col_sums = np.abs(A).sum(axis=0)
    if b_max is None:
        b_max = np.abs(b).max(initial=0.0)
    tol = 10 * max(m, n) * _EPS * np.maximum.reduce(col_sums) * b_max
    AT = A.T
    columns = np.ascontiguousarray(AT)  # for the gathers; w below stays on AT, rounding as before
    P = x > 0.0
    skipped: list[int] = []
    passes = 0
    while True:
        w = AT @ r
        w[P] = -np.inf
        if skipped:
            w[skipped] = -np.inf
        j = w.argmax()
        if not w[j] > tol:
            return x, r
        if passes == 3 * n:
            raise NNLSIterationError(passes, float(np.linalg.norm(r)))
        passes += 1
        P[j] = True
        z, zp = _passive_solve(columns, P, b)
        if not z[j] > 0.0:
            P[j] = False
            skipped.append(j)
            continue
        skipped.clear()
        while np.count_nonzero(zp <= 0.0):
            Q = (P & (z <= 0.0)).nonzero()[0]
            ratio = x[Q] / np.maximum(x[Q] - z[Q], np.finfo(float).tiny)
            k = ratio.argmin()
            x += ratio[k] * (z - x)
            x[Q[k]] = 0.0
            P &= x > 0.0
            x[~P] = 0.0
            z, zp = _passive_solve(columns, P, b)
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

    The columns of A, their |A| sums and the scales of A, b and c are
    taken once per LP; each step hands _nnls the admissible columns as
    one Fortran-ordered block (the layout A[:, mask] has, so every
    product rounds as it would on that copy), with their column sums
    and max |b|.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    # rounding bounds of c - A^T pi and of b - A x, from the largest column
    # sum and entry of |A|, so that a column that blocked the last step counts
    # as admissible and an optimal residual counts as vanishing
    gamma = float(10 * rows * _EPS)
    AT, absA = A.T, np.abs(A)
    columns = AT.copy()  # row k is column k of A
    col_sums = absA.sum(axis=0)
    col_sum, entry = float(col_sums.max(initial=0.0)), float(absA.max(initial=0.0))
    c_max, b_max = float(np.abs(c).max(initial=0.0)), float(np.abs(b).max(initial=0.0))
    pi = np.zeros(rows)
    x = np.zeros(cols)
    for step in range(1, _MAX_STEPS + 1):
        d = c - AT @ pi
        admissible = (d <= gamma * (c_max + col_sum * float(np.maximum.reduce(np.abs(pi))))) | (x > 0.0)
        on = admissible.nonzero()[0]
        xa, r = _nnls(columns.take(on, axis=0).T, b, x.take(on), col_sums.take(on), b_max)
        x.fill(0.0)
        x[on] = xa
        if float(np.maximum.reduce(np.abs(r))) <= gamma * (entry * float(np.add.reduce(x)) + b_max):
            support = x > 0.0
            if d[support].any():
                pi += _lstsq(A[:, support].T, d[support])
            return x, pi
        g = AT @ r
        blocking = ~admissible & (g > 0.0)
        ratio = d[blocking] / g[blocking]
        if not len(ratio):
            raise SimplexIterationError(
                f"lspd: step {step} found no blocking column (infeasible system); "
                f"residual {np.linalg.norm(r):.3e}"
            )
        pi += np.minimum.reduce(ratio) * r
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


def strict_optimum(M) -> float:
    """Optimum t* >= 0 of max t s.t. Re(M h) >= t, |Re h_i|, |Im h_i| <= 1;
    t* > 0 exactly when the strict system is solvable.  Duality sweeps
    read a strictly feasible system from t* above a margin and a
    positively singular one from t* = 0 to rounding, and reject the band
    in between.  By LP duality t* = min over the simplex of ||G^T mu||_1
    (G = [Re M, -Im M], so that Re(M h) = G (Re h, Im h)), that is

        min 1^T (p + q)  s.t.  G^T mu - p + q = 0,  1^T mu = 1,  (mu, p, q) >= 0,

    whose dual optimum is pi = (pi_u, t*).  The LP is built on
    M / max|M_ij| and t* scaled back, so t*(s M) = s t*(M) to rounding.
    """
    M = _finite_matrix(M, "strict_optimum")
    m, n = M.shape
    size = float(np.abs(M).max()) or 1.0
    n2 = 2 * n
    A = np.zeros((n2 + 1, m + 2 * n2))
    A[:n2, :m] = np.hstack([M.real, -M.imag]).T / size
    A[n2, :m] = 1.0
    A[:n2, m : m + n2] = -np.eye(n2)
    A[:n2, m + n2 :] = np.eye(n2)
    b = np.zeros(n2 + 1)
    b[n2] = 1.0
    cost = np.concatenate([np.zeros(m), np.ones(2 * n2)])
    _, pi = solve_standard_form(A, b, cost)
    return size * float(pi[n2])


def strict_feasibility(M) -> FeasibilityCertificate:
    """Decide Re(M h) > 0 versus positive singularity of M (Gordan).

    One NNLS, x >= 0 minimising ||A x - b|| for A = [Re N^T; Im N^T; 1^T],
    b = e_last and N = M / max|M_ij|.  When its residual r = b - A x
    vanishes, mu = x / sum x is the singular certificate; otherwise
    A^T r <= 0 and b^T r = ||r||^2, so h = -r_re + i r_im, scaled onto the
    box, has Re(N h) >= ||r||^2 row by row.  Each witness is checked on M
    against its gate; SimplexIterationError when neither meets it.
    """
    M = _finite_matrix(M, "strict_feasibility")
    m, n = M.shape
    size = float(np.abs(M).max())
    N = M / (size or 1.0)
    b = np.zeros(2 * n + 1)
    b[-1] = 1.0
    x, r = _nnls(np.vstack([N.real.T, N.imag.T, np.ones((1, m))]), b)
    u = np.concatenate([-r[:n], r[n : 2 * n]])  # (Re h, Im h)
    u /= float(np.abs(u).max()) or 1.0
    h = u[:n] + 1j * u[n:]
    strict = FeasibilityCertificate(Verdict.STRICTLY_FEASIBLE, tuple(h), None, float(np.min((M @ h).real)), size)
    if strict.holds:
        return strict
    mu = x / x.sum()
    singular = FeasibilityCertificate(
        Verdict.POSITIVELY_SINGULAR, None, tuple(float(v) for v in mu), float(np.abs(mu @ M).max()), size
    )
    if singular.holds:
        return singular
    raise SimplexIterationError(
        f"strict_feasibility: numerically ambiguous instance: strict margin {strict.margin:.3e} "
        f"(gate {strict.gate:.3e}), singular residual {singular.margin:.3e} (gate {singular.gate:.3e})"
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
