"""``roots``: d(p) and Delta(p, q) over four root geometries, degrees 4 to 64.

Each op computes ``directed_hausdorff(p)`` and ``delta_distance(p, q)``,
where q has p's generating roots moved by a seeded jitter of modulus 1e-3.
``poly`` and ``metrics`` do nearly all the work; ``lp`` does none.

The oracle knows the generating roots exactly.  It starts the critical
points from LAPACK eigenvalues of the companion matrix of p' and polishes
them on the exact root product (the eigenvalues alone are off by up to
1e-2 at degree 64), and it matches root sets with scipy's bipartite
matching.  Rounded coefficients and the library's residual contract let a
root of multiplicity m move by up to (delta m! / |p^(m)|)^(1/m), so the
tolerance of each op comes from the condition of its own roots and scales
like eps^(1/m) (see ``oracles.condition_radius``).
"""
from __future__ import annotations

import numpy as np

from common import Op, Verdict, disk_points, error_text

NAME = "roots"
IMPORTS = ("polycrit", "polycrit.maximal_zero")
UNIT_S = 30.0

GEOMETRIES = ("disk", "square", "cluster", "extremal")
DEGREES = (4, 8, 16, 32, 64)
# ops per geometry and degree in one unit, weighted toward degree <= 16.
# Clustered roots cost about ten times more per op, so that geometry gets
# fewer.  The counts keep the median inside the block of ops under 10 ms
# and the tail inside a block of similar ops (square degree 32 and cluster
# degree 16, about 0.45 s each) below the four degree-64 and cluster
# degree-32 ops, so neither statistic sits on a gap between blocks.
COUNTS = {
    "disk": {4: 7, 8: 4, 16: 3, 32: 2, 64: 1},
    "square": {4: 7, 8: 4, 16: 3, 32: 6, 64: 1},
    "cluster": {4: 3, 8: 2, 16: 2, 32: 1, 64: 1},
    "extremal": {4: 7, 8: 4, 16: 3, 32: 3, 64: 1},
}
# each op is timed as the best of this many passes over the whole op list:
# the host's speed drifts by up to 2x over seconds, and the best of passes a
# few seconds apart filters most of that out
PASSES = 3
JITTER = 1e-3
CORPUS_SEED = 20240613  # root shapes; the run seed picks their symmetry
# polycrit.poly.RESIDUAL_BUDGET: find_roots accepts |p(z)| <= 1e-10 (1 + max|c|)
RESIDUAL_BUDGET = 1e-10


def _disk(rng, n):
    return np.array(disk_points(rng, n))


def _square(rng, n):
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def _cluster(rng, n):
    """Exact triple and double roots at disk centers at least 0.05 apart."""
    triples = n // 4 if n >= 8 else 0
    doubles = (n - 3 * triples) // 2
    mults = [3] * triples + [2] * doubles + [1] * (n - 3 * triples - 2 * doubles)
    centers: list[complex] = []
    while len(centers) < len(mults):
        (c,) = _disk(rng, 1)
        if all(abs(c - o) >= 0.05 for o in centers):
            centers.append(c)
    return np.repeat(np.array(centers), mults)


def _extremal(rng, n, odd: bool, lam: float | None = None):
    """(degree, theta, lambda, exact roots) of z^n + e^{i theta} z, or for
    odd degree n - 1 = 2m + 1 of z^{2m+1} + lambda e^{i theta} z^{m+1} + e^{2i theta} z."""
    theta = float(rng.uniform(0.0, 2 * np.pi))
    if not odd:
        k = np.arange(n - 1)
        ring = np.exp(1j * (theta + np.pi + 2 * np.pi * k) / (n - 1))
        return n, theta, 0.0, np.concatenate([[0.0], ring])
    deg = n - 1
    m = (deg - 1) // 2
    bound = 2.0 * np.sqrt(2 * m + 1) / (m + 1)
    if lam is None:
        lam = float(rng.uniform(-0.9, 0.9) * bound)
    roots = [0.0 + 0j]
    for sign in (1.0, -1.0):
        u = np.exp(1j * theta) * (-lam + sign * 1j * np.sqrt(4.0 - lam * lam)) / 2.0
        k = np.arange(m)
        roots.extend(abs(u) ** (1.0 / m) * np.exp(1j * (np.angle(u) + 2 * np.pi * k) / m))
    return deg, theta, lam, np.array(roots)


def _symmetry(geometry: str, rng):
    """A seeded map of the plane that keeps the geometry's distribution and
    every distance: a rotation, or for the square one of its 8 symmetries."""
    if geometry == "square":
        k, flip = int(rng.integers(4)), bool(rng.integers(2))
        return lambda z: 1j**k * (np.conj(z) if flip else z)
    turn = np.exp(2j * np.pi * rng.uniform())
    return lambda z: turn * z


def build(seed: int, units: int) -> list[Op]:
    """Root shapes come from a fixed corpus and the seed picks a symmetry of
    each (and the extremal phase).  d, Delta and the conditioning are the
    same for every seed while every coefficient differs, so the cost of a
    run does not swing with a few unlucky draws at degree 32 and 64."""
    from polycrit import Polynomial, maximal_zero

    ops = []
    for unit in range(units):
        for n in DEGREES:
            for gi, geometry in enumerate(GEOMETRIES):
                shapes = np.random.default_rng([CORPUS_SEED, unit, gi, n])
                rng = np.random.default_rng([seed, unit, gi, n])
                for draw in range(COUNTS[geometry][n]):
                    if geometry == "extremal":
                        deg, _, lam, _ = _extremal(shapes, n, odd=draw % 2 == 1)
                        deg, theta, lam, roots = _extremal(rng, n, odd=draw % 2 == 1, lam=lam)
                        p = maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=deg, theta=theta, lam=lam))
                        moved = roots + JITTER * np.exp(2j * np.pi * shapes.uniform(size=len(roots)))
                    else:
                        move = _symmetry(geometry, rng)
                        base = {"disk": _disk, "square": _square, "cluster": _cluster}[geometry](shapes, n)
                        shift = JITTER * np.exp(2j * np.pi * shapes.uniform(size=len(base)))
                        roots, moved = move(base), move(base + shift)
                        p = Polynomial.from_roots(roots)
                    q = Polynomial.from_roots(moved)
                    ops.append(Op("dh+delta", f"{geometry}.d{n}", (p, q), {"roots": roots, "moved": moved}))
    return ops


def prepare(ops) -> None:
    """Exact d and Delta of the generating roots, and how far the rounded
    coefficients let a correct answer drift from them."""
    import oracles

    for op in ops:
        p, q = op.args
        dp = oracles.derivative(p.coeffs)
        vals, mults = oracles.distinct(op.expect["roots"])
        crit, crit_mults = oracles.critical_points(vals, mults, oracles.companion_roots(dp))
        tol_p = oracles.condition_radius(vals, mults, p.coeffs, RESIDUAL_BUDGET)
        tol_crit = oracles.condition_radius(crit, crit_mults, dp, RESIDUAL_BUDGET)
        qvals, qmults = oracles.distinct(op.expect["moved"])
        tol_q = oracles.condition_radius(qvals, qmults, q.coeffs, RESIDUAL_BUDGET)
        op.expect["d"] = oracles.directed_distance(op.expect["roots"], crit)
        op.expect["delta"] = oracles.bottleneck(op.expect["roots"], op.expect["moved"])
        op.expect["tol_zero"] = tol_p
        op.expect["tol_d"] = tol_p + tol_crit
        op.expect["tol_delta"] = tol_p + tol_q


def execute(op):
    from polycrit import metrics

    p, q = op.args
    d, worst = metrics.directed_hausdorff(p)
    return d, worst, metrics.delta_distance(p, q)


def warmup(ops) -> None:
    execute(next(op for op in ops if op.cell == "disk.d8"))


def renew(op) -> tuple:
    """p and q rebuilt from their coefficients: a pass over the ops never
    sees what an earlier pass stored on the Polynomial objects."""
    from polycrit import Polynomial

    return tuple(Polynomial(x.coeffs) for x in op.args)


def _known_failure(op, exc) -> str | None:
    """Recorded program defects.  find_roots misses its residual budget on
    square roots at degree 64 and on (near-)multiple roots, and at degree
    64 the extremal family either misses it or returns roots off by ~5e-3.
    ``exc`` is None for a wrong answer."""
    if exc is not None and type(exc).__name__ != "RootFindingError":
        return None
    geometry, deg = op.cell.split(".")
    if deg == "d64" and geometry == "extremal":
        return "roots.extremal-d64"
    if exc is None:
        return None
    if deg == "d64" and geometry == "square":
        return "roots.square-d64-residual"
    if geometry == "cluster":
        return "roots.cluster-residual"
    return None


def judge(op, outcome) -> list[Verdict]:
    name = op.cell
    if outcome.error is not None:
        return [Verdict(name, False, _known_failure(op, outcome.error), error_text(outcome.error))]
    d, worst, delta = outcome.value
    e = op.expect
    problems = []
    if abs(d - e["d"]) > e["tol_d"]:
        problems.append(f"d {d!r} vs oracle {e['d']!r} (tol {e['tol_d']:.1e})")
    if np.abs(e["roots"] - worst).min() > e["tol_zero"]:
        problems.append(f"worst zero {worst!r} is not a root (tol {e['tol_zero']:.1e})")
    if abs(delta - e["delta"]) > e["tol_delta"]:
        problems.append(f"Delta {delta!r} vs oracle {e['delta']!r} (tol {e['tol_delta']:.1e})")
    known = _known_failure(op, None) if problems else None
    return [Verdict(name, not problems, known, "; ".join(problems))]


def signature(outcome):
    return outcome.value if outcome.error is None else error_text(outcome.error)
