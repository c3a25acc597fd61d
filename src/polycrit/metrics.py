"""Distances on polynomials and point multisets.

Covers the critical-circle radius |p|_alpha, the directed Hausdorff
distance d(p) from zeros to critical points, the bottleneck root-matching
metric Delta(p, q), and the Smale mean-value ratio.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, _check_finite

ON_CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class CriticalCircle:
    """Circle about alpha through the nearest critical points.

    on_circle holds indices (into the critical RootSet, lexicographic order)
    of critical points within ON_CIRCLE_TOL * max(|alpha|, max |w|) of the
    radius; its length is the count r of points achieving the minimum.
    """

    center: complex
    radius: float
    on_circle: tuple[int, ...]


def alpha_distance(p: Polynomial, alpha: complex) -> CriticalCircle:
    """|p|_alpha = min over critical points w of |alpha - w|."""
    if p.degree < 2:
        raise ValueError("alpha_distance needs degree >= 2")
    crit = p.derivative().find_roots().as_array()
    dists = np.abs(crit - complex(alpha))
    radius = float(dists.min())
    scale = max(abs(complex(alpha)), float(np.abs(crit).max()))
    on = tuple(int(i) for i in np.flatnonzero(dists <= radius + ON_CIRCLE_TOL * scale))
    return CriticalCircle(center=complex(alpha), radius=radius, on_circle=on)


def _nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min over j of |a_i - b_j| for each a_i: (..., len a) for complex
    stacks (..., len a) and (..., len b)."""
    return np.abs(a[..., :, None] - b[..., None, :]).min(axis=-1)


def directed_hausdorff(p: Polynomial) -> tuple[float, complex]:
    """d(p): max over zeros of the distance to the nearest critical point.

    Ties (within 1e-12 relative) go to the lexicographically (re, im)
    smallest zero: the witness is the first zero, in RootSet order, whose
    distance is within 1e-12 relative of the largest, and the value is its
    distance, so repeated runs return identical witnesses.
    """
    if p.degree < 2:
        raise ValueError("directed_hausdorff needs degree >= 2")
    zeros = p.find_roots().as_array()  # lex-sorted by the certifier
    dists = _nearest(zeros, p.derivative().find_roots().as_array())
    k = int(np.flatnonzero(dists * (1 + 1e-12) >= dists.max())[0])
    return float(dists[k]), complex(zeros[k])


def _cover(adj: np.ndarray, col_of: np.ndarray) -> bool:
    """Grow, in place, the matching col_of (the column of each row, -1
    where unmatched) inside the boolean adjacency adj until it covers
    every row; False as soon as it cannot.

    Each round searches breadth first, from all unmatched rows at once,
    for a shortest augmenting path, one layer of columns per step, and
    flips it; frontier arrays take the place of recursion.  When no path
    leaves the unmatched rows, the matching is maximum (Berge), so no
    matching covers every row.
    """
    row_of = np.full(adj.shape[1], -1)
    row_of[col_of[col_of >= 0]] = np.flatnonzero(col_of >= 0)
    while True:
        free = col_of < 0
        if not free.any():
            return True
        parent = np.full(len(row_of), -1)  # the row each column was reached from
        rows = np.flatnonzero(free)
        while True:
            hit = adj[rows] & (parent < 0)
            cols = np.flatnonzero(hit.any(axis=0))
            if not len(cols):
                return False
            parent[cols] = rows[hit[:, cols].argmax(axis=0)]
            open_ = cols[row_of[cols] < 0]
            if len(open_):
                break
            rows = row_of[cols]
        j = open_[0]
        while j >= 0:
            i = parent[j]
            j_next = col_of[i]
            col_of[i], row_of[j] = j, i
            j = j_next


def _greedy(D: np.ndarray) -> np.ndarray:
    """The greedy matching of the rows of D into its columns (rows <=
    columns): the pairs in ascending distance, ties in row-major order,
    each taken when its row and its column are both still free.  Returns
    the column of each row.

    It is built in rounds of locally dominant pairs, each the first
    nearest free column of its row and that column's first nearest free
    row.  Such a pair comes before every other pair of its row or column
    in the greedy order, so the greedy takes it too; and the first pair in
    that order among the free rows and columns is one, so each round takes
    at least one pair.
    """
    W = D.copy()
    col_of = np.full(len(D), -1)
    free = np.arange(len(D))
    while len(free):
        j = W[free].argmin(axis=1)
        dominant = W[:, j].argmin(axis=0) == free
        col_of[free[dominant]] = j[dominant]
        W[free[dominant]] = np.inf
        W[:, j[dominant]] = np.inf
        free = free[~dominant]
    return col_of


def bottleneck_assignment(a, b) -> tuple[float, list[int]]:
    """Injective matching of a into b minimizing the largest pair distance.

    Binary search over the realized pairwise distances; each probe asks
    whether the pairs within the candidate distance (plus a slack of
    1e-15 (1 + max distance)) admit a matching that covers a.  The search
    starts between two bounds: below, every point of a needs a partner
    within the candidate, so no candidate under the largest
    nearest-neighbour distance can cover a; above, the greedy matching on
    the sorted distances (_greedy) covers a within its own largest pair.
    A probe starts from the last matching that covered a, the greedy one
    first, drops its pairs above the candidate and augments from the rows
    left unmatched (_cover).  The value is therefore a realized distance,
    not an accumulated float.  Returns (value, assignment) where
    assignment[i] is the index in b matched to a[i]; an empty a matches at
    value 0.  ValueError names the first non-finite point, and a pair
    distance that overflows.
    """
    A = np.asarray(a, dtype=complex)
    B = np.asarray(b, dtype=complex)
    _check_finite("first set point", A)
    _check_finite("second set point", B)
    if len(A) > len(B):
        raise ValueError("first point set must not be larger than second")
    if len(A) == 0:
        return 0.0, []
    with np.errstate(over="ignore"):
        D = np.abs(A[:, None] - B[None, :])
    cands = np.unique(D)
    if not np.isfinite(cands[-1]):
        raise ValueError("a pair distance overflows: the points are too far apart")
    slack = 1e-15 * (1.0 + float(cands[-1]))
    best = _greedy(D)
    rows = np.arange(len(A))
    # the probe at index t passes only if cands[t] + slack reaches every row's nearest distance
    lo = int(np.searchsorted(cands + slack, D.min(axis=1).max()))
    hi = int(np.searchsorted(cands, D[rows, best].max()))
    while lo < hi:
        mid = (lo + hi) // 2
        adj = D <= cands[mid] + slack
        col_of = np.where(adj[rows, best], best, -1)
        if _cover(adj, col_of):
            hi, best = mid, col_of
        else:
            lo = mid + 1
    return float(cands[lo]), [int(j) for j in best]


def delta_distance(p: Polynomial, q: Polynomial) -> float:
    """Bottleneck matching distance between the root multisets of p and q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return bottleneck_assignment(p.find_roots().points, q.find_roots().points)[0]


def smale_ratio(p: Polynomial) -> float:
    """min over critical points w of |p(w) / (p'(0) w)|.

    Requires p(0) = 0 and p'(0) != 0, as decided by Polynomial.vanishes_at.
    """
    if not p.vanishes_at(0):
        raise ValueError("precondition p(0) = 0 violated")
    dp = p.derivative()
    if dp.vanishes_at(0):
        raise ValueError("precondition p'(0) != 0 violated")
    w = dp.find_roots().as_array()
    vals = np.abs(p(w) / (dp.coeffs[0] * w))
    return float(vals.min())
