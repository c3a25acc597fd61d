"""``certify``: LP certificates, where ``lp`` does nearly all the work.

Root finding happens only in set-up (B-matrices and the W/Z product
tuples).  Three kinds of op:

- ``box``: ``strict_feasibility(M)`` on small seeded complex M; inputs
  inside criterion 12's band |t*| <= 1e-7 are rejected at generation.
  These tiny box LPs set op_p50_ms.
- ``ext``: ``strict_feasibility(bmatrix(setup(p, 0)))`` on the extremal
  family z^n + e^{i theta} z (lambda = 0 for odd n), n = 3..48.
- ``major``: ``check_majorization(W, Z)`` on genuine (p, p') pairs, all k
  at degrees 3..7 and k = 1, 2, 3 at degree 8 (the mid-size and large
  equality systems).

A backend change that speeds up the large equality systems (wall_s) but
slows the tiny box LPs (op_p50_ms) shows here.  The oracle is HiGHS on the
same systems plus a recomputation of every certificate's margin and
residuals.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from common import Op, Verdict, disk_points, error_text

NAME = "certify"
IMPORTS = ("polycrit", "polycrit.variation_first", "polycrit.majorization", "polycrit.maximal_zero")
UNIT_S = 20.0
PASSES = 3  # each op is timed as the best of this many passes (see roots.PASSES)

BOX_OPS = 400
EXT_STEP = 3  # one extremal degree in three
CORPUS_SEED = 20240613  # phases and root sets; the run seed picks their symmetry
# genuine pairs per degree; every k is checked (k <= 3 at degree 8)
MAJOR_POLYS = {3: 4, 4: 4, 5: 4, 6: 6, 7: 1, 8: 1}


def _draw_boxes(seed: int, unit: int, count: int):
    """Seeded complex M, 1..8 x 1..10; the band filter runs in prepare."""
    rng = np.random.default_rng([seed, unit, 0])
    for _ in range(count):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 11))
        yield rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def build(seed: int, units: int) -> list[Op]:
    from polycrit import Polynomial, majorization, maximal_zero, variation_first

    ops = []
    for unit in range(units):
        rng = np.random.default_rng([seed, unit, 1])
        shapes = np.random.default_rng([CORPUS_SEED, unit, 1])
        for n in range(3, 49, EXT_STEP):
            # turning the roots by i^k or mirroring them maps the family to itself
            k, flip = int(rng.integers(4)), bool(rng.integers(2))
            theta = float(shapes.uniform(0.0, 2 * np.pi)) + (n - 1) * k * np.pi / 2
            p = maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=n, theta=-theta if flip else theta))
            B = variation_first.bmatrix(variation_first.setup(p, 0.0))
            ops.append(Op("ext", f"ext.n{n}", (B,), {"n": n}))
        for deg, count in MAJOR_POLYS.items():
            for _ in range(count):
                # a corpus root set under a seeded symmetry of the square (turn
                # by i^k, mirror): the product tuples only swap and negate their
                # real and imaginary parts, so the simplex does the same work
                k, flip = int(rng.integers(4)), bool(rng.integers(2))
                roots = [1j**k * (np.conj(z) if flip else z) for z in disk_points(shapes, deg)]
                p = Polynomial.from_roots(roots)
                for k in range(1, 4) if deg == 8 else range(1, deg):
                    W = majorization.tuple_W(p, 0.0, k)
                    Z = majorization.tuple_Z(p, 0.0, k)
                    # about 50 s at or near the simplex pivot cap: too long for
                    # every run within the time budget, so the traced run has it
                    heavy = deg == 8 and k == 3
                    ops.append(Op("major", f"major.n{deg}.k{k}", (W, Z), {"n": deg, "k": k, "traced_only": heavy}))
        # boxes are drawn here but filtered by the oracle; over-draw so the
        # band rejection (a few percent) still leaves BOX_OPS
        for M in _draw_boxes(seed, unit, BOX_OPS + BOX_OPS // 5):
            ops.append(Op("box", f"box.{M.shape[0]}x{M.shape[1]}", (M,)))
    return ops


def prepare(ops) -> None:
    """HiGHS verdicts; drops box inputs inside the band and the surplus."""
    import oracles

    kept = []
    boxes = 0
    for op in ops:
        if op.kind == "box":
            verdict, t_star = oracles.strict_verdict(op.args[0])
            if abs(t_star) <= oracles.BAND or boxes >= BOX_OPS:
                continue
            boxes += 1
            op.expect.update(verdict=verdict, t_star=t_star)
        elif op.kind == "ext":
            verdict, t_star = oracles.strict_verdict(op.args[0])
            op.expect.update(verdict=verdict, t_star=t_star)
        else:
            W, Z = op.args
            A, b = oracles.majorization_system(W.values, Z.values)
            op.expect["feasible"] = oracles.nonneg_feasible(A, b)
        kept.append(op)
    ops[:] = kept


def execute(op):
    from polycrit import lp, majorization

    if op.kind == "major":
        return majorization.check_majorization(*op.args)
    return lp.strict_feasibility(op.args[0])


def warmup(ops) -> None:
    execute(next(op for op in ops if op.kind == "box"))


def renew(op) -> tuple:
    """The op's inputs as new objects with equal values (see roots.renew)."""
    if op.kind == "major":
        return tuple(dataclasses.replace(t) for t in op.args)
    return (op.args[0].copy(),)


# smallest degree at which each defect was seen (README)
EXT_AMBIGUOUS_FROM = 18
EXT_PIVOT_CAP_FROM = 39
MAJOR_DEFECTS_FROM = 8


def _known_failure(op, exc) -> str | None:
    """Recorded program defects of the dense Bland simplex."""
    if type(exc).__name__ != "SimplexIterationError":
        return None
    text = str(exc)
    if op.kind == "ext":
        if "ambiguous" in text and op.expect["n"] >= EXT_AMBIGUOUS_FROM:
            return "certify.ext-ambiguous"
        if "pivot cap" in text and op.expect["n"] >= EXT_PIVOT_CAP_FROM:
            return "certify.ext-pivot-cap"
    if op.cell == "major.n8.k3" and "pivot cap" in text:
        return "certify.major-pivot-cap"
    return None


def judge(op, outcome) -> list[Verdict]:
    import oracles

    name = op.cell
    if outcome.error is not None:
        return [Verdict(name, False, _known_failure(op, outcome.error), error_text(outcome.error))]
    e = op.expect
    if op.kind == "major":
        W, Z = op.args
        if outcome.value is None:
            # phase 1 of the simplex or its residual check rejected a genuine pair
            known = "certify.major-false-infeasible" if e["feasible"] and e["n"] >= MAJOR_DEFECTS_FROM else None
            return [Verdict(name, not e["feasible"], known, "no certificate; HiGHS feasible=%s" % e["feasible"])]
        if not e["feasible"]:
            return [Verdict(name, False, None, "certificate for a system HiGHS finds infeasible")]
        problem = oracles.majorization_problem(W.values, Z.values, outcome.value)
        # the simplex returns R without checking it against its own residual contract
        known = "certify.major-bad-certificate" if problem and e["n"] >= MAJOR_DEFECTS_FROM else None
        return [Verdict(name, not problem, known, problem)]
    cert = outcome.value
    if cert.verdict.value != e["verdict"]:
        return [Verdict(name, False, None, f"verdict {cert.verdict.value}, HiGHS {e['verdict']}")]
    problem = oracles.certificate_problem(op.args[0], cert, e["t_star"])
    return [Verdict(name, not problem, None, problem)]


def signature(outcome):
    if outcome.error is not None:
        return error_text(outcome.error)
    v = outcome.value
    if v is None:
        return None
    if hasattr(v, "verdict"):
        return (v.verdict.value, v.margin, v.witness_h, v.witness_mu)
    return v.R.tobytes()
