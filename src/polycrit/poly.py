"""Dense complex polynomials and a simultaneous root finder.

Coefficients are stored in ascending degree order with the leading
coefficient explicit, so derivatives (leading coefficient n) and scaled
families sit beside monic polynomials without special cases.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEADING_TOL = 1e-14
MAX_DEGREE = 64
ABERTH_MAX_ITER = 500
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_NEWTON_MAX = 60
_SHAKY = 1e-3  # a point whose Newton step exceeds this share of its gap may be multiple
_BINOM = np.array([[math.comb(i, j) for j in range(MAX_DEGREE + 1)] for i in range(MAX_DEGREE + 1)], dtype=float)


class RootFindingError(RuntimeError):
    """Roots failed their backward-error certificate; carries the best iterate."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.best = best
        self.residual = residual


def sort_lex(points) -> list[complex]:
    """Deterministic ordering by (re, im); ties in re broken by im."""
    z = np.array([complex(p) for p in points], dtype=complex)
    return z[_lex_argsort(z)].tolist()


def _lex_argsort(z: np.ndarray) -> np.ndarray:
    """Indices that sort each row of z (..., J) by (re, im), stably: the RootSet order."""
    return np.lexsort((z.imag, z.real), axis=-1)


def disk_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded points uniform in the closed unit disk.

    Rejection from the square: candidates are uniform(-1, 1) pairs (x, y),
    kept when x^2 + y^2 <= 1.  The k missing points take at least k more
    candidates, drawn in one rng.uniform(-1, 1, (k, 2)) call, so the points
    and the generator's state are those of one draw per candidate, which
    suite corpora and generated files depend on.
    """
    pts = np.empty(0, dtype=complex)
    while len(pts) < n:
        xy = rng.uniform(-1.0, 1.0, (n - len(pts), 2))
        x, y = xy.T
        pts = np.concatenate([pts, xy[x * x + y * y <= 1.0].view(complex)[:, 0]])
    return pts


def cluster_indices(points, tol: float) -> list[list[int]]:
    """Index groups of points whose pairwise chains stay within tol.

    Transitive closure is intentional: a chain of nearby iterates coming
    from one multiple root must land in a single cluster.  Each group is
    the sorted leaves of one tree of the _single_linkage forest at tol,
    and the groups are ordered by their first index.
    """
    return sorted(sorted(_leaves(tree)) for tree in _single_linkage(points, tol))


def _check_finite(what: str, values) -> None:
    """ValueError naming the index and value of the first non-finite value."""
    bad = [k for k, v in enumerate(values) if not cmath.isfinite(v)]
    if bad:
        raise ValueError(f"{what} {bad[0]} is not finite: {values[bad[0]]}")


def _horner(coeffs_ascending: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs_ascending[-1])
    for c in coeffs_ascending[-2::-1]:
        out = out * z + c
    return out


def _gamma(n: int, k: int) -> float:
    """Rounding factor of the k-th Taylor coefficient of a degree-n
    polynomial or of a sum over n poles (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 5.1, with room for the Taylor weights)."""
    return 4.0 * (n + 2 * k + 4) * _EPS


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of an ascending-coefficient polynomial at once.

    Aberth-Ehrlich simultaneous iteration.  Initial guesses sit on a circle
    of radius 1 + max_k |a_{n-k}/a_n|^{1/k}, rotated by a fixed offset so
    symmetric root configurations cannot stall the iteration.  It stops one
    step after every iterate z meets the backward-error bound |p(z)| <=
    gamma_0 * sum |a_k| |z|^k, which makes z an exact root of a polynomial
    within rounding of p.  The iterates of an m-fold root stall on a ring
    of radius about eps^(1/m); find_roots merges them (_resolve_multiple).
    It takes at most ABERTH_MAX_ITER steps, read at each call.
    """
    c = np.asarray(coeffs, dtype=complex)
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    if deg == 1:
        return np.array([-c[0] / c[1]])
    c = c / c[-1]
    taylor = _poly_taylor(c)
    radius = 1.0 + max(abs(c[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))
    for _ in range(ABERTH_MAX_ITER):
        (pv, dv), (budget, _) = taylor(z, 1)
        stuck = np.abs(dv) < 1e-280
        if stuck.any():
            z = np.where(stuck, z * (1 + 1e-9) + 1e-9, z)
            continue
        met = np.all(np.abs(pv) <= budget)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-280, 1e-280, denom)
        z = z - newton / denom
        if met:
            break
    return z


def _leja_order(points: np.ndarray) -> np.ndarray:
    """Leja ordering: the point of largest modulus first, then each next
    point maximises the product of its distances to those already taken."""
    n = len(points)
    order = np.empty(n, dtype=int)
    score = np.zeros(n)
    k = int(np.argmax(np.abs(points)))
    for i in range(n):
        order[i] = k
        score += np.log(np.maximum(np.abs(points - points[k]), _TINY))
        score[k] = -np.inf
        k = int(np.argmax(score))
    return order


def _expand_roots(points) -> np.ndarray:
    """Ascending coefficients of prod (z - p_i), by incremental convolution
    in Leja order (Reichel, BIT 1990), which keeps the partial products
    well scaled up to the degree cap."""
    pts = np.asarray(points, dtype=complex)
    c = np.array([1.0 + 0j])
    for p in pts[_leja_order(pts)]:
        c = np.convolve(c, np.array([-p, 1.0 + 0j]))
    return c


def _poly_taylor(coeffs: np.ndarray):
    """Taylor callback of a polynomial: orders 0..k of t_j(x) = p^(j)(x) / j!
    = sum_i R[j, i] x^i on the rows R[j, i] = C(i+j, j) c_(i+j), zero above
    degree n - j, and their budgets gamma_j * sum_i |R[j, i]| |x|^i + tiny.
    One Horner pass over the columns of R and |R| gives every order and
    budget, bit for bit the per-order values: at finite x the padding adds
    0 x + 0 = 0, and complex arithmetic on real |R| and |x| rounds as real."""
    n = len(coeffs) - 1
    R = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        R[j, : n + 1 - j] = coeffs[j:] * _BINOM[j : n + 1, j]
    cols = np.stack([R.T, np.abs(R.T)], axis=1)  # cols[i] = (R[:, i], |R[:, i]|)
    gamma = np.array([_gamma(n, j) for j in range(n + 1)])

    def taylor(x: np.ndarray, k: int):
        r = min(k, n) + 1
        pts = np.stack([x, np.abs(x)])[:, None]
        out = np.empty((2, r, len(x)), dtype=complex)
        out[...] = cols[n, :, :r, None]
        for col in cols[-2::-1, :, :r, None]:
            out *= pts
            out += col
        t = np.zeros((k + 1, len(x)), dtype=complex)
        b = np.full((k + 1, len(x)), _TINY)
        t[:r] = out[0]
        b[:r] += gamma[:r, None] * out[1].real
        return t, b

    return taylor


def _newton(x: np.ndarray, taylor, m: int, first=None, keep=None):
    """Newton on f^(m-1), where an m-fold zero of f is simple, from the
    points x (..., J) row by row (1-D: one row): each step moves the points
    of a row outside the mask keep, until each of them meets its budget on
    |t_(m-1)|, or for _NEWTON_MAX steps.  taylor(x, k) gives t_j(x) =
    f^(j)(x) / j!, j = 0..k, and their budgets, each (k + 1,) + x.shape;
    first, if given, is taylor(x, m) at the starts.  Returns the points
    with the Taylor orders 0..m and budgets there."""
    hold = False if keep is None else keep
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_NEWTON_MAX + 1):
            t, b = taylor(x, m) if it or first is None else first
            done = ((np.abs(t[m - 1]) <= b[m - 1]) | hold).all(axis=-1, keepdims=True)
            if it == _NEWTON_MAX or done.all():
                break
            x = np.where(done | hold, x, x - t[m - 1] / (m * t[m]))
    return x, t, b


def _single_linkage(points, tol: float = math.inf) -> list:
    """Single-linkage merge forest of the points from the pairwise
    distances shorter than tol: a leaf is a point index, an inner node the
    pair of subtrees joined at the next-shortest distance (ties broken by
    the index pair).  At the default tol, finite points form one tree."""
    pts = [complex(p) for p in points]
    n = len(pts)
    edges = sorted(
        (d, i, j) for i in range(n) for j in range(i + 1, n) if (d := abs(pts[i] - pts[j])) < tol
    )
    owner = list(range(n))
    trees: dict[int, object] = {j: j for j in range(n)}
    for _, i, j in edges:
        if len(trees) == 1:
            break
        a, b = owner[i], owner[j]
        if a != b:
            trees[a] = (trees[a], trees.pop(b))
            owner = [a if o == b else o for o in owner]
    return list(trees.values())


def _leaves(tree) -> list[int]:
    return [tree] if isinstance(tree, int) else _leaves(tree[0]) + _leaves(tree[1])


def _shaky(z: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the points of z (..., J), with Taylor orders 0 and 1 and
    their budgets t, b (2, ..., J), whose Newton step, at least the
    rounding level max(|t_0|, budget_0) / |t_1|, is not small against
    their gap to the other points of their row."""
    step = np.maximum(np.abs(t[0]), b[0]) / np.abs(t[1])
    gaps = np.abs(z[..., :, None] - z[..., None, :])
    J = z.shape[-1]
    gaps[..., range(J), range(J)] = np.inf
    return ~(step <= _SHAKY * gaps.min(axis=-1))


def _resolve_multiple(z: np.ndarray, taylor):
    """Merge the points of z that stalled around a multiple zero of f.

    taylor(x, k) returns t_j(x) = f^(j)(x) / j! for j = 0..k and their
    backward-error budgets.  A point whose Newton step, at least the
    rounding level max(|t_0|, budget_0) / |t_1|, is not small against its
    gap to the other points may be part of a multiple zero.  Such points
    are merged top-down along their single-linkage tree: an m-fold merge
    is Newton on f^(m-1) from the centroid, accepted when t_0..t_(m-1) all
    meet their budgets and the zero lies within the cloud's diameter (or
    twice the m-fold Newton step at a collapsed cloud); one more Newton
    step sets the merged point.  These merges are final: no caller moves
    or merges a returned point again.  Returns the points, merged ones
    exactly repeated, the mask of merged ones, and the screen's (t, b) =
    taylor(z, 1) at the input points, which the unmerged ones still hold.
    """
    z = np.array(z, dtype=complex)
    done = np.zeros(len(z), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, b = taylor(z, 1)
        shaky = np.flatnonzero(_shaky(z, t, b))

    def merge(tree) -> None:
        idx = shaky[_leaves(tree)]
        m = len(idx)
        if m == 1:
            return
        centroid = z[idx].mean()
        tc = taylor(np.array([centroid]), 1)[0][:, 0]
        x, t, b = _newton(np.array([centroid]), taylor, m)
        diameter = np.abs(z[idx, None] - z[idx]).max()
        # reach max(diameter, 2m |t_0 / t_1|), scaled by |t_1| so t_1 = 0 needs no care
        reach = max(diameter * abs(tc[1]), 2 * m * abs(tc[0]))
        if abs(x[0] - centroid) * abs(tc[1]) <= reach and np.all(np.abs(t[:m, 0]) <= b[:m, 0]):
            last = t[m - 1, 0] / (m * t[m, 0])
            z[idx] = x[0] - last if np.isfinite(last) else x[0]
            done[idx] = True
        else:
            merge(tree[0])
            merge(tree[1])

    if len(shaky) > 1:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for tree in _single_linkage(z[shaky]):
                merge(tree)
    return z, done, (t, b)


@dataclass(frozen=True)
class RootSet:
    """Lex-sorted multiset of complex points: an m-fold point is one value
    repeated exactly m times, as the zero certifier returns it.  cluster_tol
    is not read; perfbench/selftest.py constructs RootSet(points, cluster_tol)."""

    points: tuple[complex, ...]
    cluster_tol: float = 1e-8

    @classmethod
    def from_points(cls, points) -> "RootSet":
        """The points lex-sorted and otherwise unchanged: multiplicity is
        decided by _resolve_multiple alone."""
        z = np.asarray(points, dtype=complex)
        return cls(tuple(z[_lex_argsort(z)]))

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending-degree coefficient tuple.

    Invariants: len(coeffs) == degree + 1, every coefficient is finite,
    and the leading coefficient has magnitude > 1e-14 unless the degree is
    zero.  The instance is frozen,
    so its derivative and roots are computed once and kept; equality and
    hashing see the coefficients only.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        _check_finite("coefficient", coeffs)
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds supported maximum {MAX_DEGREE}")
        if len(coeffs) > 1 and abs(coeffs[-1]) <= LEADING_TOL:
            raise ValueError("leading coefficient vanishes; trim before constructing")

    @classmethod
    def from_roots(cls, points) -> "Polynomial":
        """Monic polynomial with exactly the given roots (with multiplicity),
        expanded by convolution with (z - p) in Leja order."""
        pts = [complex(p) for p in points]
        if not pts:
            raise ValueError("degree zero unsupported: from_roots needs at least one root")
        _check_finite("root", pts)
        return cls(tuple(_expand_roots(pts)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return abs(self.coeffs[-1] - 1.0) <= 1e-12

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        out = _horner(np.array(self.coeffs), arr if arr.ndim else arr.reshape(1))
        return out if arr.ndim else complex(out[0])

    def vanishes_at(self, z: complex) -> bool:
        """|p(z)| <= 1e-10 sum |c_k| rho^k, rho = max(|z|, max_k |c_(n-k)/c_n|^(1/k)):
        unchanged under p -> s^n p(z / s), z -> s z, and met by every root
        find_roots certifies (gamma_0 < 1e-10 up to MAX_DEGREE)."""
        c = np.abs(self.coeffs)
        n = self.degree
        rho = max([abs(complex(z))] + [(c[n - k] / c[n]) ** (1.0 / k) for k in range(1, n + 1)])
        return abs(self(z)) <= 1e-10 * float(_horner(c, np.array([rho]))[0])

    def derivative(self) -> "Polynomial":
        """Coefficient-wise derivative; degree 0 yields the constant 0.

        Memoized: repeated calls return the same instance, so its own
        memoized roots (the critical points) are found once as well.
        """
        return self._derivative

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(np.array(self.coeffs[1:]) * np.arange(1, self.degree + 1)))

    def nth_derivative(self, k: int) -> "Polynomial":
        p = self
        for _ in range(k):
            p = p.derivative()
        return p

    def scaled(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

    def find_roots(self) -> RootSet:
        """All roots with multiplicity, certified by backward error.

        Aberth iteration runs until every iterate meets the bound
        |p(z)| <= gamma_0 * sum |c_k| |z|^k; iterates stalled around a
        multiple root are merged by Newton on the matching derivative and
        reported as one point repeated.  That merge alone decides
        multiplicity: nearby points it leaves apart are returned apart,
        however close.  Raises RootFindingError unless every returned
        point meets the bound.

        The contract is backward, not forward: each returned point is an
        exact root, and each m-fold point an m-fold root, of one polynomial
        within gamma of p componentwise.  For the roots k/20, k = 1..20, it
        returns 13 points, five of them multiple, up to 8e-2 from the roots.

        The result is memoized on the instance: every call returns the
        same RootSet, which is immutable and shared by all callers.  A
        failure is never cached, so it is raised again on every call.
        """
        return self._roots

    @cached_property
    def _roots(self) -> RootSet:
        if self.degree < 1:
            raise ValueError("degree >= 1 required for root finding")
        c = np.array(self.coeffs)
        taylor = _poly_taylor(c)
        z, _, _ = _resolve_multiple(aberth_roots(c), taylor)
        roots = RootSet.from_points(z)
        pts = roots.as_array()
        t, b = taylor(pts, 0)
        if not np.all(np.abs(t[0]) <= b[0]):
            worst = int(np.argmax(np.abs(t[0]) / b[0]))
            raise RootFindingError(
                f"root {pts[worst]:.6g} does not meet its backward-error bound {b[0, worst]:.3e}",
                pts,
                float(abs(t[0, worst])),
            )
        return roots

