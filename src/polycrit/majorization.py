"""Critical points characterized by multivariate majorization.

For each k, the k-subset products of (critical points - alpha) are
majorized by the k-subset products of (zeros - alpha): a rectangularly
stochastic matrix carries one tuple onto the other, equivalently every
convex function has dominated means (Sherman).  Feasibility runs through
the nonnegative equality kernel, treating C as R^2.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lp import eq_nonneg_feasibility
from .poly import Polynomial

TUPLE_CAP = 10_000
CERT_TOL = 1e-7


@dataclass(frozen=True)
class ProductTuple:
    """Unordered tuple of k-subset products about the point alpha."""

    values: tuple[complex, ...]
    alpha: complex
    k: int


@dataclass(frozen=True)
class MajorizationCertificate:
    """Rectangularly stochastic witness R with its residuals.

    R >= 0 entrywise (within 1e-9), row sums 1, column sums m/n, and
    R once applied to the larger tuple reproduces the smaller one.
    """

    R: np.ndarray
    row_sum_residual: float
    col_sum_residual: float
    neg_entry: float
    reconstruction_residual: float


def _subset_products(points, alpha: complex, k: int) -> tuple[complex, ...]:
    pts = [complex(p) - complex(alpha) for p in points]
    n = len(pts)
    count = math.comb(n, k)
    if count > TUPLE_CAP:
        raise ValueError(f"combinatorial blowup: C({n},{k}) = {count} exceeds cap {TUPLE_CAP}")
    vals = []
    for combo in itertools.combinations(pts, k):
        prod = 1.0 + 0j
        for c in combo:
            prod *= c
        vals.append(prod)
    return tuple(vals)


def tuple_Z(p: Polynomial, alpha: complex, k: int) -> ProductTuple:
    """All k-subset products of (zeros - alpha)."""
    if not 1 <= k <= p.degree - 1:
        raise ValueError("k must satisfy 1 <= k <= n-1")
    roots = p.find_roots().points
    return ProductTuple(values=_subset_products(roots, alpha, k), alpha=complex(alpha), k=k)


def tuple_W(p: Polynomial, alpha: complex, k: int) -> ProductTuple:
    """All k-subset products of (critical points - alpha)."""
    if not 1 <= k <= p.degree - 1:
        raise ValueError("k must satisfy 1 <= k <= n-1")
    crit = p.derivative().find_roots().points
    return ProductTuple(values=_subset_products(crit, alpha, k), alpha=complex(alpha), k=k)


def check_majorization(X: ProductTuple, Y: ProductTuple):
    """Rectangularly stochastic R with X = R Y, or None when infeasible.

    Constraint families: row sums 1, column sums m/n, and the two real
    coordinates of the reconstruction X = R Y.
    """
    xv = np.asarray(X.values, dtype=complex)
    yv = np.asarray(Y.values, dtype=complex)
    m, n = len(xv), len(yv)
    if m > n:
        raise ValueError("len(X) <= len(Y) required")
    if m * n > TUPLE_CAP:
        raise ValueError(f"LP variable count {m * n} exceeds cap {TUPLE_CAP}")
    rows = m + n + 2 * m
    A = np.zeros((rows, m * n))
    b = np.zeros(rows)
    for i in range(m):
        A[i, i * n : (i + 1) * n] = 1.0
        b[i] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
        b[m + j] = m / n
    for i in range(m):
        A[m + n + i, i * n : (i + 1) * n] = yv.real
        b[m + n + i] = xv[i].real
        A[m + n + m + i, i * n : (i + 1) * n] = yv.imag
        b[m + n + m + i] = xv[i].imag
    x = eq_nonneg_feasibility(A, b)
    if x is None:
        return None
    R = x.reshape(m, n)
    recon = R @ yv
    return MajorizationCertificate(
        R=R,
        row_sum_residual=float(np.abs(R.sum(axis=1) - 1.0).max()),
        col_sum_residual=float(np.abs(R.sum(axis=0) - m / n).max()),
        neg_entry=float(max(0.0, -R.min())),
        reconstruction_residual=float(np.abs(recon - xv).max()),
    )


def _dist_to(c: complex):
    return lambda z: abs(z - c)


CONVEX_TESTS = {
    "abs": abs,
    "re": lambda z: z.real,
    "im": lambda z: z.imag,
    "pos_re": lambda z: max(z.real, 0.0),
    "abs2": lambda z: abs(z) ** 2,
    "dist": _dist_to(1.0 + 0.0j),
    "maxlin": lambda z: max(z.real + 2.0 * z.imag, -z.real),
}


def resolve_convex_test(f_id: str):
    """Look up a builtin convex test; "dist:re,im" selects the distance to
    an arbitrary point."""
    if f_id.startswith("dist:"):
        re_s, im_s = f_id[5:].split(",")
        return _dist_to(complex(float(re_s), float(im_s)))
    try:
        return CONVEX_TESTS[f_id]
    except KeyError:
        raise ValueError(f"unknown convex test {f_id!r}; choose from {sorted(CONVEX_TESTS)}")


def dbs_inequality(X: ProductTuple, Y: ProductTuple, f_id: str) -> tuple[float, float]:
    """Means of a convex test over the two tuples: (lhs over X, rhs over Y).

    For tuples built from a genuine (p, p') pair the contract is
    lhs <= rhs + 1e-10; with k = 1 this is the de Bruijn-Springer bound.
    """
    f = resolve_convex_test(f_id)
    lhs = float(np.mean([f(complex(v)) for v in X.values]))
    rhs = float(np.mean([f(complex(v)) for v in Y.values]))
    return lhs, rhs


def symmetric_mean_identity(p: Polynomial, alpha: complex, k: int) -> float:
    """|mean of W(alpha,k) - mean of Z(alpha,k)|.

    Vanishes identically when the critical points really are the
    derivative's roots; a corrupted critical set breaks it at first order.
    """
    zt = tuple_Z(p, alpha, k)
    wt = tuple_W(p, alpha, k)
    return abs(
        complex(np.mean(np.asarray(wt.values))) - complex(np.mean(np.asarray(zt.values)))
    )
