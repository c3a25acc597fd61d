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
from functools import lru_cache

import numpy as np

from .lp import eq_nonneg_feasibility
from .poly import _BINOM, Polynomial, _blocks, _expand_roots

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
    R once applied to the larger tuple reproduces the smaller one; the
    reconstruction residual is max|R Y - X| / max|Y|, so the certificate
    holds alike at every scale of the points.
    """

    R: np.ndarray
    row_sum_residual: float
    col_sum_residual: float
    neg_entry: float
    reconstruction_residual: float

    @property
    def residual(self) -> float:
        """The largest of the four residuals."""
        return max(self.row_sum_residual, self.col_sum_residual, self.neg_entry, self.reconstruction_residual)

    @property
    def holds(self) -> bool:
        """Whether every residual is within CERT_TOL."""
        return self.residual <= CERT_TOL


@lru_cache(maxsize=64)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n), one per row, in itertools.combinations order."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def _check_centres(p: Polynomial, alpha, k) -> None:
    """ValueError unless every order k lies in 1..deg p - 1 and every
    centre alpha is finite, naming the first centre that is not."""
    if not np.all((1 <= np.asarray(k)) & (np.asarray(k) <= p.degree - 1)):
        raise ValueError("k must satisfy 1 <= k <= n-1")
    alpha = np.ravel(np.asarray(alpha, dtype=complex))
    bad = ~np.isfinite(alpha)
    if bad.any():
        raise ValueError(f"alpha is not finite: {complex(alpha[bad][0])}")


def _products(p: Polynomial, q: Polynomial, alpha: complex, k: int) -> np.ndarray:
    """All k-subset products of (roots of q - alpha), 1 <= k <= deg p - 1;
    a centre alpha that is not finite raises ValueError naming it."""
    _check_centres(p, alpha, k)
    pts = np.asarray(q.find_roots().points, dtype=complex) - complex(alpha)
    n = len(pts)
    count = math.comb(n, k)
    if count > TUPLE_CAP:
        raise ValueError(f"combinatorial blowup: C({n},{k}) = {count} exceeds cap {TUPLE_CAP}")
    return np.prod(pts[_subsets(n, k)], axis=1)


def _subset_means(points: np.ndarray, alpha: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Mean of the k-subset products of (points - alpha) for each pair of
    a centre and an order, alpha and k (m,): e_k / C(n, k) of the shifted
    points (Vieta), read off the ascending coefficients
    prod (z - w_i) = sum_j (-1)^(n-j) e_(n-j) z^j of one Leja expansion
    (poly._expand_roots) per centre, in the blocks of poly._blocks."""
    n = len(points)
    e = np.empty(len(alpha), dtype=complex)
    for s in _blocks(len(alpha), (n + 1) ** 2):  # the Leja scores take n^2 per centre
        c = _expand_roots(points - alpha[s, None])
        e[s] = c[np.arange(len(c)), n - k[s]]
    return e * (-1.0) ** k / _BINOM[n, k]


def tuple_Z(p: Polynomial, alpha: complex, k: int) -> ProductTuple:
    """All k-subset products of (zeros - alpha)."""
    return ProductTuple(values=tuple(_products(p, p, alpha, k).tolist()), alpha=complex(alpha), k=k)


def tuple_W(p: Polynomial, alpha: complex, k: int) -> ProductTuple:
    """All k-subset products of (critical points - alpha)."""
    return ProductTuple(values=tuple(_products(p, p.derivative(), alpha, k).tolist()), alpha=complex(alpha), k=k)


def check_majorization(X: ProductTuple, Y: ProductTuple):
    """Rectangularly stochastic R with X = R Y, or None when infeasible.

    Constraint families: row sums 1, column sums m/n, and the two real
    coordinates of the reconstruction X = R Y.  The reconstruction rows
    are built on X / sigma and Y / sigma, sigma = max|Y|: the feasible R
    are the same, and every row is on the scale of the unit sum rows.
    """
    xv = np.asarray(X.values, dtype=complex)
    yv = np.asarray(Y.values, dtype=complex)
    m, n = len(xv), len(yv)
    if m > n:
        raise ValueError("len(X) <= len(Y) required")
    if m * n > TUPLE_CAP:
        raise ValueError(f"LP variable count {m * n} exceeds cap {TUPLE_CAP}")
    sigma = float(np.abs(yv).max()) or 1.0
    xv, yv = xv / sigma, yv / sigma
    eye = np.eye(m)[:, :, None]  # (eye * v).reshape(m, -1) is kron(I_m, v)
    A = np.concatenate([
        (eye * np.ones(n)).reshape(m, -1),
        np.tile(np.eye(n), m),
        (eye * yv.real).reshape(m, -1),
        (eye * yv.imag).reshape(m, -1),
    ])
    b = np.concatenate([np.ones(m), np.full(n, m / n), xv.real, xv.imag])
    x = eq_nonneg_feasibility(A, b)
    if x is None:
        return None
    R = x.reshape(m, n)
    return MajorizationCertificate(
        R=R,
        row_sum_residual=float(np.abs(R.sum(axis=1) - 1.0).max()),
        col_sum_residual=float(np.abs(R.sum(axis=0) - m / n).max()),
        neg_entry=float(max(0.0, -R.min())),
        reconstruction_residual=float(np.abs(R @ yv - xv).max()),
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


def symmetric_mean_identity(p: Polynomial, alpha, k):
    """|mean of W(alpha, k) - mean of Z(alpha, k)| for each pair of a
    centre alpha and an order k, broadcast together: a float for scalars,
    an array of the broadcast shape otherwise.

    Both means come by Vieta (_subset_means) from the certified zeros and
    critical points, find_roots() of p and p', never from p's
    coefficients, so no product table is formed and no TUPLE_CAP applies.
    Vanishes identically when the critical points really are the
    derivative's roots; a corrupted critical set breaks it at first order.
    """
    _check_centres(p, alpha, k)
    alpha, k = np.broadcast_arrays(np.asarray(alpha, dtype=complex), np.asarray(k))
    flat = alpha.ravel(), k.ravel()
    w_mean = _subset_means(p.derivative().find_roots().as_array(), *flat)
    z_mean = _subset_means(p.find_roots().as_array(), *flat)
    out = np.abs(w_mean - z_mean).reshape(alpha.shape)
    return float(out) if out.ndim == 0 else out
