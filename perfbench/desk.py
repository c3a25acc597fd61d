"""``desk``: one ``suite.run_all``, the 12-criterion sendov-desk battery.

The battery draws its own inputs from fixed seeds, so ``--seed`` does not
change them.  The op is one run_all, and its latency is the op's seconds;
each criterion is also timed by wrapping the entries of
``suite.ALL_CRITERIA`` for the duration of the call (``desk.cNN_s``).  The
answered questions are the 21 checks.  Every run_all starts cold: the
timed loop clears the library's caches (``suite._svar_corpus`` among them)
before each op, because users pay for the corpus on every
``polycrit suite``.  The oracle is the recorded pass/fail pattern by check
name.
"""
from __future__ import annotations

import functools
import time

from common import Op, Verdict

NAME = "desk"
IMPORTS = ("polycrit.suite",)
UNIT_S = 20.0

# recorded verdicts; the two False entries fail by design (see README)
EXPECTED = {
    "critical-radius-law": True,
    "inextensibility-verdicts": True,
    "uniform-mu-column-sums": True,
    "singularity-cert-residual": True,
    "a-matrix-strictly-feasible": True,
    "c-times-d-identity": True,
    "deg4-fit-constant": False,
    "deg5-fit-constant": True,
    "tilted-cubic-family": True,
    "unit-zero-perturbation": False,
    "sine-ratio-inequality": True,
    "differentiator-identity": True,
    "operator-variation-bound": True,
    "converse-variation-bound": True,
    "converse-equality-family": True,
    "interlace-ratios-nonnegative": True,
    "cauchy-interlacing": True,
    "majorization-feasible": True,
    "majorization-cert-residuals": True,
    "symmetric-mean-identity": True,
    "duality-exclusivity": True,
}
BY_DESIGN = "desk.by-design-finding"
# criteria timed on their own; the rest are summed into desk.rest_s
SEPARATE = ("08", "10", "11", "12")


def build(seed: int, units: int) -> list[Op]:
    return [Op("run_all", "desk", ()) for _ in range(units)]


def execute(op):
    """Checks and per-criterion seconds of one run_all."""
    from polycrit import suite

    seconds: dict[str, float] = {}

    def timed(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            checks = fn()
            seconds[fn.__name__] = time.perf_counter() - t0
            return checks

        return run

    originals = list(suite.ALL_CRITERIA)
    suite.ALL_CRITERIA[:] = [timed(fn) for fn in originals]
    try:
        checks = suite.run_all(verbose=False)
    finally:
        suite.ALL_CRITERIA[:] = originals
    return [(c.name, bool(c.passed), float(c.value)) for c in checks], seconds


def judge(op, outcome) -> list[Verdict]:
    if outcome.error is not None:
        return [Verdict(name, False, None, "run_all raised") for name in EXPECTED]
    got = {name: passed for name, passed, _ in outcome.value[0]}
    verdicts = []
    for name in sorted(set(EXPECTED) | set(got)):
        passed = got.get(name)
        expected = EXPECTED.get(name)
        if passed is None or expected is None or passed != expected:
            verdicts.append(Verdict(name, False, None, f"expected {expected}, got {passed}"))
        elif not passed:
            verdicts.append(Verdict(name, False, BY_DESIGN))
        else:
            verdicts.append(Verdict(name, True))
    return verdicts


def signature(outcome):
    return outcome.value[0] if outcome.error is None else repr(outcome.error)


def extra_metrics(ops, outcomes) -> dict[str, float]:
    """desk.cNN_s per separately timed criterion and desk.rest_s, summed
    over the units run."""
    out = {f"desk.c{key}_s": 0.0 for key in SEPARATE}
    out["desk.rest_s"] = 0.0
    for o in outcomes:
        if o.value is None:
            continue
        for fname, sec in o.value[1].items():
            key = fname.split("_")[1]
            out[f"desk.c{key}_s" if key in SEPARATE else "desk.rest_s"] += sec
    return out
