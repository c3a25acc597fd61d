"""Shared pieces of the benchmark: op records, the timed loop and statistics.

Every workload turns a seed into a list of ``Op``s (set-up, library work),
attaches oracle expectations to them (untimed), runs them one at a time in
a closed loop (``timed_pass``) and judges the outcomes (untimed).
"""
from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Op:
    """One operation of a workload.

    ``cell`` groups ops for per-cell statistics (for example ``disk.d16``);
    ``expect`` holds whatever the oracle prepared for judging the outcome.
    """

    kind: str
    cell: str
    args: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    value: object = None
    error: Exception | None = None


@dataclass
class Verdict:
    """Judgement of one answered question.

    ``defect`` names the recorded program defect a failure belongs to; a
    failure without one is unexplained and makes the run incorrect.
    """

    name: str
    ok: bool
    defect: str | None = None
    detail: str = ""


def disk_points(rng, n) -> list[complex]:
    """n points uniform in the closed unit disk, by rejection from the square."""
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if x * x + y * y <= 1.0:
            pts.append(complex(x, y))
    return pts


def clear_library_caches() -> None:
    """Empty every ``functools`` cache held by a polycrit module, so that an
    op never reuses what an earlier op (or pass over the same inputs) left
    behind: a user's process answers one question and exits."""
    for name, mod in list(sys.modules.items()):
        if name == "polycrit" or name.startswith("polycrit."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def timed_pass(ops, execute, before_op=None) -> tuple[float, list[Outcome]]:
    """Run ``execute(op)`` for every op in order; return (wall seconds, outcomes).

    Each op starts with the library's caches cleared (untimed).  A raised
    exception is the op's outcome, not a benchmark error.
    """
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        clear_library_caches()
        if before_op is not None:
            before_op(op)
        t0 = time.perf_counter()
        try:
            value, error = execute(op), None
        except Exception as exc:  # the op failed; judged later
            value, error = None, exc
        outcomes.append(Outcome(time.perf_counter() - t0, value, error))
    return time.perf_counter() - start, outcomes


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile with at least
    ten samples above it; with ten samples or fewer, the smallest sample."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    k = max(0, n - 11)
    return s[k], 100.0 * (k + 1) / n, n


def median(samples) -> float:
    return float(statistics.median(samples))


def p50(samples) -> float:
    """Median, or 0.0 for an empty cell (per-layer cells a workload never hits)."""
    return median(samples) if samples else 0.0


def finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def error_text(exc: BaseException | None) -> str:
    if exc is None:
        return ""
    return f"{type(exc).__name__}: {str(exc)[:160]}"
