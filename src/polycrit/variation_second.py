"""Second-order counterexample families and unit-zero perturbation bounds.

The degree-4 and degree-5 families deform z^4 + z and z^5 + z inside the
unit-disk class while pushing the critical circle outward at quadratic
rate; the fitted growth coefficient recovers the closed-form constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import alpha_distance, directed_hausdorff
from .poly import Polynomial

WINDOW_MAX = 0.05
PROP112_MIN_N = 4  # prop112_perturbation needs n >= 4
PROP113_MIN_N = 5  # prop113_inequality needs n >= 5
EPS1_MAX = 1e-2  # prop112_perturbation needs |eps_1| <= EPS1_MAX


@dataclass(frozen=True)
class Deg4FamilyConstants:
    r: float
    alpha1: float
    alpha2: float
    C: float


@dataclass(frozen=True)
class Deg5FamilyConstants:
    s: float
    beta: float
    gamma: float
    delta: float
    K: float


def deg4_constants() -> Deg4FamilyConstants:
    r = (1.0 / 4.0) ** (1.0 / 3.0)
    return Deg4FamilyConstants(
        r=r,
        alpha1=3.0 * math.sqrt(3.0) * r / (2.0 - 3.0 * r),
        alpha2=-math.sqrt(3.0) * ((3.0 * r + 2.0) ** 2 + 4.0) / (2.0 * (3.0 * r - 2.0) ** 2),
        C=3.0 / (4.0 * r * (2.0 - 3.0 * r)),
    )


def deg5_constants() -> Deg5FamilyConstants:
    s = (1.0 / 5.0) ** (1.0 / 4.0)
    return Deg5FamilyConstants(
        s=s,
        beta=2.0 * math.sqrt(2.0) * s * s / (1.0 - 2.0 * s * s),
        gamma=4.0 * math.sqrt(2.0) / (5.0 * s * (1.0 - 2.0 * s * s)),
        delta=(60.0 * s**4 - 19.0) / (50.0 * s * s * (2.0 * s * s - 1.0) ** 2),
        K=2.0 / (5.0 * s * (1.0 - 2.0 * s * s)),
    )


def _check_window(a: float) -> None:
    if not 0.0 <= a <= WINDOW_MAX:
        raise ValueError(f"family parameter a = {a} outside validity window [0, {WINDOW_MAX}]")


def family_deg4(a: float) -> Polynomial:
    """Quartic (z - a)(z + 1)(z - zeta)(z - conj zeta) with the unit-circle
    pair rotating at the tuned quadratic phase rate."""
    _check_window(a)
    k = deg4_constants()
    zeta = np.exp(1j * (np.pi / 3.0 + k.alpha1 * a + k.alpha2 * a * a))
    return Polynomial.from_roots([a, -1.0, zeta, np.conj(zeta)])


def family_deg5(a: float) -> tuple[Polynomial, Polynomial]:
    """Quintic q_a and the quartic comparison polynomial s_a (leading 5).

    s_a tracks q_a' so closely that their root multisets differ by O(a^3).
    """
    _check_window(a)
    k = deg5_constants()
    eta = np.exp(1j * (np.pi / 4.0 + k.beta * a))
    q = Polynomial.from_roots([a, eta, 1j * eta, np.conj(eta), -1j * np.conj(eta)])
    rad = k.s + k.K * a * a
    chi1 = a + rad * np.exp(1j * (np.pi / 4.0 + k.gamma * a + k.delta * a * a))
    chi2 = a + rad * np.exp(1j * (3.0 * np.pi / 4.0 + k.gamma * a - k.delta * a * a))
    s = Polynomial.from_roots([chi1, chi2, np.conj(chi1), np.conj(chi2)]).scaled(5.0)
    return q, s


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares model d(p_a) - d(p_0) = c2 a^2 + c3 a^3."""

    c2: float
    c3: float
    residual: float


def fit_quadratic_growth(family: str, grid) -> GrowthFit:
    """Fit the quadratic growth coefficient of d along the "deg4" or
    "deg5" family.  The model carries an a^3 term to absorb the cubic
    error of the construction; both coefficients are reported together
    with the max fit residual.  The grid needs at least 4 points, two of
    them distinct and nonzero, or ValueError is raised.
    """
    grid = [float(a) for a in grid]
    if len(grid) < 4:
        raise ValueError("underdetermined grid: need at least 4 points")
    if (k := len(set(grid) - {0.0})) < 2:
        # the (a^2, a^3) design has rank 2 exactly when two nonzero points differ
        raise ValueError(f"degenerate grid: the a^2, a^3 fit needs 2 distinct nonzero points, got {k}")
    if family == "deg4":
        fam = family_deg4
    elif family == "deg5":
        fam = lambda a: family_deg5(a)[0]
    else:
        raise ValueError(f"unknown family {family!r}")
    d0 = directed_hausdorff(fam(0.0))[0]
    dv = np.array([directed_hausdorff(fam(a))[0] for a in grid])
    g = np.array(grid)
    design = np.vstack([g**2, g**3]).T
    sol, *_ = np.linalg.lstsq(design, dv - d0, rcond=None)
    residual = float(np.abs(design @ sol - (dv - d0)).max())
    return GrowthFit(c2=float(sol[0]), c3=float(sol[1]), residual=residual)


def prop112_perturbation(n: int, eps, kappa: float = 1.0):
    """Perturb the interior zero of z^n - z by eps_1 (others by o(|eps_1|)).

    Returns (Q, lhs, rhs) with lhs = |Q|_alpha at the moved zero alpha, its
    distance to the nearest critical point of Q, and rhs the claimed budget
    n^(-1/(n-1)) - cos(pi/(n-1)) |eps_1|.  Callers compare.
    """
    if n < PROP112_MIN_N:
        raise ValueError(f"n >= {PROP112_MIN_N} required, got {n}")
    eps = np.asarray(eps, dtype=complex)
    if len(eps) != n:
        raise ValueError("eps must have length n")
    e1 = abs(eps[0])
    if not e1 <= EPS1_MAX:
        raise ValueError(f"|eps_1| <= {EPS1_MAX:g} required, got {float(e1)!r}")
    if np.any(np.abs(eps[1:]) > e1 ** (1.0 + kappa) + 1e-300):
        raise ValueError("|eps_j| <= |eps_1|^(1+kappa) violated for some j >= 2")
    base = np.r_[0.0 + 0j, np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))]
    Q = Polynomial.from_roots(base + eps)
    lhs = alpha_distance(Q, base[0] + eps[0]).radius
    rhs = float(n ** (-1.0 / (n - 1)) - math.cos(math.pi / (n - 1)) * e1)
    return Q, lhs, rhs


def prop113_inequality(n: int) -> tuple[float, float]:
    """lhs = sin(pi/(2(n-1)))/sin(pi/n) against rhs = n^(-1/(n-1))."""
    if n < PROP113_MIN_N:
        raise ValueError(f"n >= {PROP113_MIN_N} required, got {n}")
    lhs = math.sin(math.pi / (2.0 * (n - 1))) / math.sin(math.pi / n)
    rhs = n ** (-1.0 / (n - 1))
    return lhs, rhs
