"""Constructor and verifier for the polynomials maximizing the critical
radius at the origin.

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
    if not p.vanishes_at(0.0):
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
