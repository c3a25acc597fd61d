"""Constructors and verifiers for the polynomials maximizing the critical
radius at the origin, and the translated/scaled extremal families.

Even degree n = 2m:  z^{2m} + e^{i theta} z.
Odd degree n = 2m+1: z^{2m+1} + lambda e^{i theta} z^{m+1} + e^{2i theta} z
with real |lambda| <= 2 sqrt(2m+1)/(m+1).  All nonzero roots sit on the
unit circle and every critical point has modulus n^{-1/(n-1)}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

VERIFY_TOL = 1e-8


def _lambda_bound(n: int) -> float:
    m = (n - 1) // 2
    return 2.0 * math.sqrt(2 * m + 1) / (m + 1)


@dataclass(frozen=True)
class ZeroMaximalSpec:
    """Parameters selecting one member of the extremal family."""

    n: int
    theta: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("degree must be >= 2")
        if self.n % 2 == 1 and abs(self.lam) > _lambda_bound(self.n) + 1e-12:
            raise ValueError(
                f"|lambda| = {abs(self.lam)} exceeds bound {_lambda_bound(self.n)} for n = {self.n}"
            )


def construct(spec: ZeroMaximalSpec) -> Polynomial:
    """The extremal polynomial for the given parameters."""
    n, theta, lam = spec.n, spec.theta, spec.lam
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1.0
    if n % 2 == 0:
        coeffs[1] = np.exp(1j * theta)
    else:
        m = (n - 1) // 2
        if abs(lam) > _lambda_bound(n) + 1e-12:
            raise ValueError("lambda bound violated")
        coeffs[m + 1] = lam * np.exp(1j * theta)
        coeffs[1] = np.exp(2j * theta)
    return Polynomial(tuple(coeffs))


@dataclass(frozen=True)
class ZeroMaximalReport:
    radius: float
    radius_deviation: float
    root_circle_deviation: float
    crit_modulus_deviation: float
    is_0maximal: bool


def verify_0maximal(p: Polynomial, tol: float = VERIFY_TOL) -> ZeroMaximalReport:
    """Measure how far p is from the extremal profile.

    Checks |p|_0 against n^{-1/(n-1)}, nonzero roots against the unit
    circle, and all critical moduli against the common radius.  p must be
    monic with p(0) = 0.
    """
    if not p.is_monic:
        raise ValueError("p must be monic")
    if abs(p.coeffs[0]) > 1e-12:
        raise ValueError("p(0) = 0 required")
    n = p.degree
    target = n ** (-1.0 / (n - 1))
    crit = p.derivative().find_roots().as_array()
    radius = float(np.abs(crit).min())
    radius_dev = abs(radius - target)
    crit_dev = float(np.abs(np.abs(crit) - target).max())
    roots = p.find_roots().as_array()
    nonzero = np.delete(roots, int(np.argmin(np.abs(roots))))
    root_dev = float(np.abs(np.abs(nonzero) - 1.0).max()) if len(nonzero) else 0.0
    ok = radius_dev <= tol and crit_dev <= tol and root_dev <= tol
    return ZeroMaximalReport(
        radius=radius,
        radius_deviation=radius_dev,
        root_circle_deviation=root_dev,
        crit_modulus_deviation=crit_dev,
        is_0maximal=bool(ok),
    )


def check_self_inversive(p: Polynomial) -> float:
    """max_k |a_k conj(a_0) - a_n conj(a_{n-k})|, zero when all roots are
    unimodular (diagnostic for arbitrary input)."""
    a = np.array(p.coeffs)
    n = p.degree
    return float(
        max(abs(a[k] * np.conj(a[0]) - a[n] * np.conj(a[n - k])) for k in range(n))
    )


def check_critical_circle_symmetry(q: Polynomial, alpha: complex, R: float) -> float:
    """Residual of the derivative-reflection identity when all critical
    points of q lie at distance R from the zero alpha:

        (n-k-1)! n R^{2k} q^{(k+1)}(alpha) = k! q'(alpha) conj(q^{(n-k)}(alpha))

    for k = 0..n-1.  Each side scales like s^(n+k-1) under q -> s^n q(z/s),
    alpha -> s alpha, R -> s R, so each difference is reported relative to
    k! |q'(alpha)| (n-k)! |c_n| R^k, a magnitude of that degree.
    """
    alpha = complex(alpha)
    if not R > 0:
        raise ValueError("R must be positive")
    if not q.vanishes_at(alpha):
        raise ValueError("alpha must be a zero of q")
    n = q.degree
    crit = q.derivative().find_roots().as_array()
    if np.abs(np.abs(crit - alpha) - R).max() > 1e-6 * R:
        raise ValueError("critical points do not all lie at distance R from alpha")
    derivs = [q]
    for _ in range(n):
        derivs.append(derivs[-1].derivative())
    dvals = [d(alpha) for d in derivs]
    lead = abs(q.coeffs[-1])
    worst = 0.0
    for k in range(n):
        lhs = math.factorial(n - k - 1) * n * R ** (2 * k) * dvals[k + 1]
        rhs = math.factorial(k) * dvals[1] * np.conj(dvals[n - k])
        size = math.factorial(k) * abs(dvals[1]) * math.factorial(n - k) * lead * R**k
        worst = max(worst, abs(lhs - rhs) / size)
    return worst


def rho_extremal(a: complex, R: float, n: int, theta: float = 0.0, lam: float = 0.0) -> Polynomial:
    """Extremal polynomial for the translated/scaled problem: p(a) = 0,
    every critical point at distance >= R from a, and the farthest root at
    the optimal distance R n^{1/(n-1)}.

    Even n = 2m:  (z-a)^{2m} + 2m R^{2m-1} e^{i theta} (z-a).
    Odd n = 2m+1: (z-a)^{2m+1} + lambda sqrt(n) R^m e^{i theta} (z-a)^{m+1}
                  + n R^{2m} e^{2i theta} (z-a).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1.0
    if n % 2 == 0:
        m = n // 2
        coeffs[1] = 2 * m * R ** (2 * m - 1) * np.exp(1j * theta)
    else:
        m = (n - 1) // 2
        if abs(lam) > _lambda_bound(n) + 1e-12:
            raise ValueError("lambda bound violated")
        coeffs[m + 1] = lam * math.sqrt(2 * m + 1) * R**m * np.exp(1j * theta)
        coeffs[1] = (2 * m + 1) * R ** (2 * m) * np.exp(2j * theta)
    centered = Polynomial(tuple(coeffs))
    p = centered.shifted(-complex(a))

    crit = p.derivative().find_roots().as_array()
    roots = p.find_roots().as_array()
    min_crit = float(np.abs(crit - a).min())
    max_root = float(np.abs(roots - a).max())
    rho = R * n ** (1.0 / (n - 1))
    if abs(min_crit - R) > VERIFY_TOL * (1 + R) or abs(max_root - rho) > VERIFY_TOL * (1 + rho):
        raise ValueError(
            f"construction check failed: min crit dist {min_crit} vs {R}, "
            f"max root dist {max_root} vs {rho}"
        )
    return p
