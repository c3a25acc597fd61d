"""Dense complex polynomials and a simultaneous root finder.

Coefficients are stored in ascending degree order with the leading
coefficient explicit, so derivatives (leading coefficient n) and scaled
families sit beside monic polynomials without special cases.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEADING_TOL = 1e-14
DEFAULT_CLUSTER_TOL = 1e-8
RESIDUAL_BUDGET = 1e-10  # |p(root)| <= RESIDUAL_BUDGET * (1 + max|coeff|)
MAX_DEGREE = 64
ABERTH_MAX_ITER = 500
_POLISH_TOL = 1e-6  # cluster detection radius for the multiple-root polish


class RootFindingError(RuntimeError):
    """Root iteration exhausted its budget; carries the best iterate."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.best = best
        self.residual = residual


def sort_lex(points) -> list[complex]:
    """Deterministic ordering by (re, im); ties in re broken by im."""
    return sorted((complex(p) for p in points), key=lambda z: (z.real, z.imag))


def disk_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded points uniform in the closed unit disk.

    Rejection from the square: each candidate is one rng.uniform(-1, 1, 2)
    draw, kept when x^2 + y^2 <= 1.  Suite corpora and generated files
    depend on this exact sequence of draws.
    """
    pts: list[complex] = []
    while len(pts) < n:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if x * x + y * y <= 1.0:
            pts.append(complex(x, y))
    return np.array(pts)


def cluster_indices(points, tol: float) -> list[list[int]]:
    """Index groups of points whose pairwise chains stay within tol.

    Transitive closure is intentional: a chain of nearby iterates coming
    from one multiple root must land in a single cluster.
    """
    pts = [complex(p) for p in points]
    m = len(pts)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(pts[i] - pts[j]) < tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def cluster_points(points, tol: float) -> list[tuple[complex, int]]:
    """(centroid, multiplicity) pairs of the tol-clusters, centroid-sorted."""
    pts = [complex(p) for p in points]
    out = []
    for idx in cluster_indices(pts, tol):
        out.append((sum(pts[i] for i in idx) / len(idx), len(idx)))
    out.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    return out


def _horner(coeffs_ascending: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs_ascending[-1])
    for c in coeffs_ascending[-2::-1]:
        out = out * z + c
    return out


def _derive(coeffs_ascending: np.ndarray) -> np.ndarray:
    n = len(coeffs_ascending) - 1
    if n == 0:
        return np.zeros(1, dtype=complex)
    return coeffs_ascending[1:] * np.arange(1, n + 1)


def aberth_roots(coeffs, max_iter: int = ABERTH_MAX_ITER) -> np.ndarray:
    """All roots of an ascending-coefficient polynomial at once.

    Aberth-Ehrlich simultaneous iteration.  Initial guesses sit on a circle
    of radius 1 + max_k |a_{n-k}/a_n|^{1/k}, rotated by a fixed offset so
    symmetric root configurations cannot stall the iteration.  An m-fold
    root converges linearly and its iterates plateau on a ring of radius
    roughly eps^(1/m); callers polish them (see _polish_multiple) before
    judging residuals.
    """
    c = np.asarray(coeffs, dtype=complex)
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    if deg == 1:
        return np.array([-c[0] / c[1]])
    c = c / c[-1]
    dc = _derive(c)
    radius = 1.0 + max(abs(c[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))
    for _ in range(max_iter):
        pv = _horner(c, z)
        dv = _horner(dc, z)
        stuck = np.abs(dv) < 1e-280
        if stuck.any():
            z = np.where(stuck, z * (1 + 1e-9) + 1e-9, z)
            continue
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-280, 1e-280, denom)
        step = newton / denom
        z = z - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            break
    return z


def _expand_roots(points) -> np.ndarray:
    """Ascending coefficients of prod (z - p_i), by incremental convolution."""
    c = np.array([1.0 + 0j])
    for p in points:
        c = np.convolve(c, np.array([-p, 1.0 + 0j]))
    return c


def _reconstruction_gap(points: np.ndarray, coeffs_monic: np.ndarray) -> float:
    """Relative coefficient distance between prod (z - p_i) and the target."""
    c = _expand_roots(points)
    scale = max(1.0, float(np.abs(coeffs_monic).max()))
    return float(np.abs(c - coeffs_monic).max() / scale)


def _polish_multiple(
    z: np.ndarray, coeffs_monic: np.ndarray, scales=(_POLISH_TOL, 1e-4, 1e-2)
) -> np.ndarray:
    """Newton-polish iterate clusters that stalled on a multiple root.

    An m-fold root of p is a simple root of the (m-1)-th derivative, where
    Newton regains quadratic convergence.  Iterates around an m-fold root
    spread at radius ~ eps^(1/m), so clustering is attempted at a ladder
    of scales.  A merge is accepted only when the coefficients rebuilt
    from the merged multiset still reproduce the polynomial (expansion is
    forward-stable, so this rejects every merge that is not a genuine
    multiple root, at any degree).
    """
    derivs = [coeffs_monic]
    for _ in range(len(coeffs_monic) - 1):
        derivs.append(_derive(derivs[-1]))
    out = z.copy()
    gap = _reconstruction_gap(out, coeffs_monic)
    for tol in scales:
        for idx in cluster_indices(out, tol):
            mult = len(idx)
            if mult == 1:
                continue
            centroid = complex(np.mean(out[idx]))
            g, dg = derivs[mult - 1], derivs[mult]
            x = centroid
            for _ in range(60):
                gx = _horner(g, np.array([x]))[0]
                dgx = _horner(dg, np.array([x]))[0]
                if abs(dgx) < 1e-280:
                    break
                delta = gx / dgx
                x -= delta
                if abs(delta) <= 1e-16 * (1 + abs(x)):
                    break
            if abs(x - centroid) > 10 * tol:
                continue
            trial = out.copy()
            trial[idx] = x
            trial_gap = _reconstruction_gap(trial, coeffs_monic)
            if trial_gap <= max(4.0 * gap, 1e-11):
                out = trial
                gap = trial_gap
    return out


@dataclass(frozen=True)
class RootSet:
    """Unordered multiset of complex points with a clustering tolerance."""

    points: tuple[complex, ...]
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    @classmethod
    def from_points(cls, points, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> "RootSet":
        """Snap raw points: each tol-cluster becomes its centroid repeated
        with its multiplicity, and the multiset is lex-sorted."""
        merged = [c for c, mult in cluster_points(points, cluster_tol) for _ in range(mult)]
        return cls(tuple(np.array(sort_lex(merged))), cluster_tol=cluster_tol)

    def clusters(self) -> list[tuple[complex, int]]:
        return cluster_points(self.points, self.cluster_tol)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending-degree coefficient tuple.

    Invariants: len(coeffs) == degree + 1 and the leading coefficient has
    magnitude > 1e-14 unless the degree is zero.  The instance is frozen,
    so its derivative and default-argument roots are computed once and
    kept; equality and hashing see the coefficients only.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds supported maximum {MAX_DEGREE}")
        if len(coeffs) > 1 and abs(coeffs[-1]) <= LEADING_TOL:
            raise ValueError("leading coefficient vanishes; trim before constructing")

    @classmethod
    def from_roots(cls, points) -> "Polynomial":
        """Monic polynomial with exactly the given roots (with multiplicity).

        Coefficient expansion by incremental convolution with (z - p).
        """
        pts = [complex(p) for p in points]
        if not pts:
            raise ValueError("degree zero unsupported: from_roots needs at least one root")
        return cls(tuple(_expand_roots(pts)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    @property
    def is_monic(self) -> bool:
        return abs(self.coeffs[-1] - 1.0) <= 1e-12

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        out = _horner(np.array(self.coeffs), arr if arr.ndim else arr.reshape(1))
        return out if arr.ndim else complex(out[0])

    def derivative(self) -> "Polynomial":
        """Coefficient-wise derivative; degree 0 yields the flagged zero polynomial.

        Memoized: repeated calls return the same instance, so its own
        memoized roots (the critical points) are found once as well.
        """
        return self._derivative

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(_derive(np.array(self.coeffs))))

    def nth_derivative(self, k: int) -> "Polynomial":
        p = self
        for _ in range(k):
            p = p.derivative()
        return p

    def scaled(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

    def shifted(self, s: complex) -> "Polynomial":
        """Coefficients of p(z + s) by repeated synthetic division (Taylor shift)."""
        c = list(self.coeffs)
        n = len(c)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                c[j] += s * c[j + 1]
        return Polynomial(tuple(c))

    def monic(self) -> "Polynomial":
        return self.scaled(1.0 / self.coeffs[-1])

    def find_roots(
        self,
        cluster_tol: float = DEFAULT_CLUSTER_TOL,
        max_iter: int = ABERTH_MAX_ITER,
    ) -> RootSet:
        """All roots with multiplicity, residual-checked.

        Multiple roots are reported as their cluster centroid repeated, after
        a Newton polish on the appropriate derivative.  Raises
        RootFindingError when max |p(root)| exceeds 1e-10 * (1 + max|coeff|).

        At the default arguments the result is memoized on the instance:
        every call returns the same RootSet, which is immutable and shared
        by all callers.  A non-default cluster_tol or max_iter computes
        afresh, and a failure is never cached, so it is raised again on
        every call.
        """
        if cluster_tol == DEFAULT_CLUSTER_TOL and max_iter == ABERTH_MAX_ITER:
            return self._default_roots
        return self._compute_roots(cluster_tol, max_iter)

    @cached_property
    def _default_roots(self) -> RootSet:
        return self._compute_roots(DEFAULT_CLUSTER_TOL, ABERTH_MAX_ITER)

    def _compute_roots(self, cluster_tol: float, max_iter: int) -> RootSet:
        if self.degree < 1:
            raise ValueError("degree >= 1 required for root finding")
        c = np.array(self.coeffs)
        z = aberth_roots(c, max_iter=max_iter)
        # fixed polish rungs catch ordinary multiple roots; the data-driven
        # rungs catch high multiplicities whose iterates stall in a wide
        # noise ball (the certificate rejects all other merges)
        spread = float(np.abs(z[:, None] - z[None, :]).max()) if len(z) > 1 else 0.0
        ladder = (_POLISH_TOL, 1e-4, 1e-2) + tuple(
            spread * f for f in (0.02, 0.1, 0.5, 1.1) if spread * f > 1e-2
        )
        z = _polish_multiple(z, c / c[-1], scales=ladder)
        roots = RootSet.from_points(z, cluster_tol)
        pts = roots.as_array()
        scale = 1.0 + max(abs(x) for x in self.coeffs)
        residual = float(np.abs(_horner(c, pts)).max())
        if residual > RESIDUAL_BUDGET * scale:
            raise RootFindingError("root iteration did not meet residual budget", pts, residual)
        return roots


def reconstruction_error(roots: RootSet, p: Polynomial) -> float:
    """Relative coefficient error of prod (z - z_i) against p made monic."""
    rebuilt = Polynomial.from_roots(roots.points)
    target = np.array(p.monic().coeffs)
    scale = max(1.0, float(np.abs(target).max()))
    return float(np.abs(np.array(rebuilt.coeffs) - target).max() / scale)
