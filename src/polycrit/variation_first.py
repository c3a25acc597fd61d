"""First-order variational machinery at a distinguished zero.

Builds the sensitivity matrices A, B, C, D of the critical points with
respect to disk-automorphism perturbations of the zeros, decides
extensibility through the LP kernel, and computes the phase data that
replaces the linear theory when a multiple critical point sits on the
critical circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lp import FeasibilityCertificate, strict_feasibility
from .metrics import alpha_distance
from .poly import Polynomial, sort_lex

_GL_NODES, _GL_WEIGHTS = leggauss(32)


@dataclass(frozen=True)
class VariationSetup:
    """Zeros and critical points arranged for the variational formulas.

    zeros[0] is the distinguished zero a; the remaining zeros are in
    lexicographic (re, im) order.  crit starts with the r points on the
    a-critical circle sorted by angle about a, then the rest sorted by
    (distance, angle).  generic: find_roots repeated no zero or critical point.
    """

    p: Polynomial
    a: complex
    zeros: tuple[complex, ...]
    crit: tuple[complex, ...]
    radius: float
    r: int
    generic: bool


@dataclass(frozen=True)
class NonGenericData:
    """Second-order phase data at a multiple on-circle critical point.

    Each L_k has unit modulus; beta holds the h-dependent first-order
    matrix entries for the r branch curves.
    """

    c: complex
    d: complex
    L: tuple[complex, ...]
    beta: np.ndarray


def setup(p: Polynomial, a: complex) -> VariationSetup:
    """Classify the configuration of p around its zero a."""
    if p.degree < 2:
        raise ValueError("setup needs degree >= 2")
    a = complex(a)
    if not p.vanishes_at(a):
        raise ValueError(f"a is not a zero of p: |p(a)| = {abs(p(a)):.3e}")
    roots = list(p.find_roots().points)
    nearest = min(range(len(roots)), key=lambda i: abs(roots[i] - a))
    others = [z for i, z in enumerate(roots) if i != nearest]
    zeros = (a, *sort_lex(others))

    crit = p.derivative().find_roots().points
    circle = alpha_distance(p, a)
    on_pts = sorted((crit[i] for i in circle.on_circle), key=lambda w: np.angle(w - a))
    off = (w for i, w in enumerate(crit) if i not in circle.on_circle)
    off_pts = sorted(off, key=lambda w: (abs(w - a), np.angle(w - a)))
    ordered = tuple(on_pts) + tuple(off_pts)

    return VariationSetup(
        p=p,
        a=a,
        zeros=zeros,
        crit=ordered,
        radius=circle.radius,
        r=len(circle.on_circle),
        generic=all(len(set(pts)) == len(pts) for pts in (roots, crit)),
    )


def coefficients_a(s: VariationSetup, j: int) -> np.ndarray:
    """Row of first-order coefficients (a_1(w_j), ..., a_n(w_j)).

    a_1(w) = -(1/(w-a)) [1 + p(w) / ((w-a)^2 p''(w))],
    a_i(w) = -p(w) / ((w-a)(w-z_i)^2 p''(w)) for i >= 2;
    the companion coefficients are b_i(w) = -z_i^2 a_i(w).
    """
    if not s.generic:
        raise ValueError("coefficients require a generic setup")
    if not 0 <= j < s.r:
        raise ValueError(f"index {j} outside the on-circle range 0..{s.r - 1}")
    w = s.crit[j]
    p = s.p
    ppw = p.nth_derivative(2)(w)
    pw = p(w)
    a = s.a
    n = p.degree
    out = np.empty(n, dtype=complex)
    out[0] = -(1.0 / (w - a)) * (1.0 + pw / ((w - a) ** 2 * ppw))
    for i in range(1, n):
        out[i] = -pw / ((w - a) * (w - s.zeros[i]) ** 2 * ppw)
    if not np.isfinite(out).all():
        raise ValueError(f"coefficients at w = {w:.6g} are not finite: p''(w) = {ppw:.3e}")
    return out


def amatrix(s: VariationSetup) -> np.ndarray:
    """r x n matrix of the a_j(w_i) alone."""
    return np.array([coefficients_a(s, i) for i in range(s.r)])


def bmatrix(s: VariationSetup) -> np.ndarray:
    """r x n matrix with entries a_j(w_i) + conj(b_j(w_i)).

    b_j(w_i) = -z_j^2 a_j(w_i), so each entry couples the coefficient with
    the conjugate weighted by the squared zero.
    """
    A = amatrix(s)
    z = np.array(s.zeros)
    return A + np.conj(-(z[None, :] ** 2) * A)


def cmatrix(s: VariationSetup) -> np.ndarray:
    """(n-1) x (n-1) matrix with entries (w_i - z_j)^(-2), j running over
    the zeros other than a."""
    if not s.generic:
        raise ValueError("cmatrix requires a generic setup")
    w = np.array(s.crit)
    z = np.array(s.zeros[1:])
    return (w[:, None] - z[None, :]) ** -2.0


def dmatrix(s: VariationSetup) -> np.ndarray:
    """(n-1) x (n-1) inverse partner of cmatrix.

    delta_jk = -p(w_k) / (p'(z_j) p''(w_k)) * integral over [a, z_j] of
    p'(w)/(w - w_k) dw.  Since w_k is a root of p', the integrand equals
    lead(p') * prod_{l != k} (w - w_l), a polynomial of degree n - 2 <= 62,
    so one 32-node Gauss-Legendre rule along the straight segment (exact
    to degree 63) gives each integral without adaptivity or poles.
    """
    if not s.generic:
        raise ValueError("dmatrix requires a generic setup")
    p = s.p
    dp = p.derivative()
    ddp = dp.derivative()
    w = np.array(s.crit)
    z = np.array(s.zeros[1:])
    n1 = len(w)
    half = (z - s.a) / 2.0
    nodes = (s.a + half)[:, None] + half[:, None] * _GL_NODES
    factors = nodes[:, :, None] - w  # (segment j, node, critical point l)
    integrals = np.empty((n1, n1), dtype=complex)
    for k in range(n1):
        integrand = dp.coeffs[-1] * np.prod(np.delete(factors, k, axis=2), axis=2)
        integrals[:, k] = half * (integrand @ _GL_WEIGHTS)
    return -p(w) / (dp(z)[:, None] * ddp(w)) * integrals


def extensibility(p: Polynomial, a: complex) -> FeasibilityCertificate:
    """Extensible (StrictlyFeasible) versus inextensible (PositivelySingular)
    with respect to the zero a, decided on the matrix from bmatrix."""
    s = setup(p, a)
    if not s.generic:
        raise ValueError(
            "non-generic configuration: the linear test does not apply; "
            "use nongeneric_data for the phase quantities"
        )
    return strict_feasibility(bmatrix(s))


def nongeneric_data(s: VariationSetup, h) -> NonGenericData:
    """Phase data c, d, L_1..L_r at a multiple on-circle critical point.

    Requires the first on-circle critical point to be repeated r >= 2
    times exactly in s.crit, as find_roots returns an r-fold point; h is
    the direction vector for the zeros (aligned with s.zeros).  Directions
    whose d cancels to 1e-12 of the sum of its terms' moduli (the thin
    degenerate set, h = 0 included) are rejected.
    """
    h = np.asarray(h, dtype=complex)
    if len(h) != len(s.zeros):
        raise ValueError("h must align with the zeros")
    w1 = s.crit[0]
    r = s.crit.count(w1)
    if r < 2:
        raise ValueError("on-circle critical point is simple; use the generic path")
    p = s.p
    rfact = float(math.factorial(r))
    c = p.nth_derivative(r + 1)(w1) / rfact
    z = np.array(s.zeros)
    pw1 = p(w1)
    terms = (h - np.conj(h) * z**2) / (w1 - z) ** 2
    d = -pw1 * np.sum(terms)
    # d vanishes when it cancels to rounding against its own terms
    if abs(d) <= 1e-12 * abs(pw1) * np.abs(terms).sum():
        raise ValueError("degenerate direction: d(h) vanishes for this h")
    base = np.angle(pw1 / (rfact * c)) - (r - 1) / r * np.angle(d / c)
    L = tuple(np.exp(1j * (base + 2 * np.pi * k / r)) for k in range(1, r + 1))

    n = p.degree
    a = s.a
    beta = np.empty((r, n), dtype=complex)
    for i in range(r):
        arow = np.empty(n, dtype=complex)
        arow[0] = -(1.0 / (w1 - a)) * (1.0 + L[i] / (w1 - a) ** 2)
        for jz in range(1, n):
            arow[jz] = -L[i] / ((w1 - a) * (w1 - z[jz]) ** 2)
        beta[i] = arow + np.conj(-(z**2) * arow)
    return NonGenericData(c=complex(c), d=complex(d), L=L, beta=beta)


def moebius_move(roots, t: float, h) -> np.ndarray:
    """z_i(t) = (t h_i + z_i) / (1 + t conj(h_i) z_i) for aligned arrays."""
    z = np.asarray(roots, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if len(h) != len(z):
        raise ValueError("h must align with the roots")
    if np.any(np.abs(h) > 1.0 + 1e-12):
        raise ValueError("perturbation directions must satisfy |h_i| <= 1")
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("all roots must lie in the closed unit disk")
    denom = 1.0 + t * np.conj(h) * z
    if np.any(np.abs(denom) <= 1e-12):
        raise ValueError("denominator underflow in the disk automorphism")
    return (t * h + z) / denom


def perturb(p: Polynomial, t: float, h) -> Polynomial:
    """Polynomial with every root moved along its disk automorphism.

    Roots are taken in lexicographic (re, im) order; pass explicit roots to
    moebius_move when a different alignment with h is needed.
    """
    roots = sort_lex(p.find_roots().points)
    return Polynomial.from_roots(moebius_move(roots, t, h))
