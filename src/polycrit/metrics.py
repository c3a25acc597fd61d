"""Distances on polynomials and point multisets.

Covers the critical-circle radius |p|_alpha, the directed Hausdorff
distance d(p) from zeros to critical points, the bottleneck root-matching
metric Delta(p, q), and the Smale mean-value ratio.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

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


def bottleneck_assignment(a, b) -> tuple[float, list[int]]:
    """Injective matching of a into b minimizing the largest pair distance.

    Binary search over the realized pairwise distances; each step asks
    scipy's Hopcroft-Karp matcher whether the pairs within the candidate
    distance admit a matching that covers a.  The value is therefore a
    realized distance, not an accumulated float.  Returns (value,
    assignment) where assignment[i] is the index in b matched to a[i];
    an empty a matches at value 0.
    """
    # imported here so that CLI commands that never match points do not
    # pay for loading scipy.sparse at start-up
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    A = np.asarray(a, dtype=complex)
    B = np.asarray(b, dtype=complex)
    if len(A) > len(B):
        raise ValueError("first point set must not be larger than second")
    if len(A) == 0:
        return 0.0, []
    D = np.abs(A[:, None] - B[None, :])
    cands = np.unique(D)
    slack = 1e-15 * (1.0 + float(cands[-1]))

    def match(t: float) -> np.ndarray:
        return maximum_bipartite_matching(csr_array(D <= t + slack), perm_type="column")

    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (match(cands[mid]) >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo]), [int(j) for j in match(cands[lo])]


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
