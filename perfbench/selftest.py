"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that the oracles count a
corrupted root set and a flipped verdict as failed, that two traced runs
count identical calls with outputs equal to an untraced run, and that the
benchmark refuses to run without the library.  Exits 1 on the first
broken expectation.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import certify  # noqa: E402
import roots  # noqa: E402
from common import timed_pass  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def expect(cond: bool, what: str) -> None:
    print(("PASS  " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def corrupted_roots() -> None:
    from polycrit import poly

    ops = [op for op in roots.build(SEED, 1) if op.cell in ("disk.d8", "extremal.d16")][:3]
    roots.prepare(ops)
    _, clean = timed_pass(ops, roots.execute)
    expect(all(v.ok for op, o in zip(ops, clean) for v in roots.judge(op, o)), "roots: clean answers pass the oracle")

    original = poly.Polynomial.find_roots
    targets = {op.args[0].coeffs for op in ops}

    def shifted(self, *args, **kwargs):
        """Moves one root of each p (not of p' or q) by 0.05."""
        rs = original(self, *args, **kwargs)
        if self.coeffs not in targets:
            return rs
        pts = list(rs.points)
        pts[0] += 0.05
        return poly.RootSet(tuple(pts), rs.cluster_tol)

    poly.Polynomial.find_roots = shifted
    try:
        _, bad = timed_pass(ops, roots.execute)
    finally:
        poly.Polynomial.find_roots = original
    verdicts = [v for op, o in zip(ops, bad) for v in roots.judge(op, o)]
    expect(
        all(not v.ok and v.defect is None for v in verdicts),
        "roots: a root set with one root moved by 0.05 is counted as an unexplained failure",
    )


def flipped_verdicts() -> None:
    from polycrit import lp

    ops = certify.build(SEED, 1)
    ops = [op for op in ops if op.kind == "box"][:5] + [
        op for op in ops if op.kind == "major" and op.expect["n"] <= 5
    ][:5]
    certify.prepare(ops)
    _, clean = timed_pass(ops, certify.execute)
    expect(
        all(v.ok for op, o in zip(ops, clean) for v in certify.judge(op, o)),
        "certify: clean certificates pass HiGHS and the recomputed residuals",
    )
    for op, o in zip(ops, clean):
        if op.kind == "box":
            cert = o.value
            o.value = lp.FeasibilityCertificate(
                lp.Verdict.POSITIVELY_SINGULAR, None, (1.0,) + (0.0,) * (op.args[0].shape[0] - 1), cert.margin
            )
        else:
            o.value = None  # claims the genuine pair is not majorized
    verdicts = [v for op, o in zip(ops, clean) for v in certify.judge(op, o)]
    expect(
        all(not v.ok and v.defect is None for v in verdicts),
        "certify: a flipped verdict is counted as an unexplained failure",
    )


def _module(op):
    return roots if op.kind == "dh+delta" else certify


def _run(op):
    return _module(op).execute(op)


def traced_twice() -> None:
    ops = [op for op in roots.build(SEED, 1) if op.cell.endswith((".d4", ".d8"))]
    ops += [op for op in certify.build(SEED, 1) if op.kind == "box"][:20]
    runs = []
    for _ in range(2):
        for op in ops:
            op.args = _module(op).renew(op)
        tracer = Tracer()
        tracer.install()
        try:
            _, outs = timed_pass(ops, _run)
        finally:
            tracer.uninstall()
        calls = {k: v for k, v in tracer.layer_metrics().items() if k.endswith((".calls", ".errors"))}
        runs.append((calls, outs))
    expect(runs[0][0] == runs[1][0], "trace: two traced runs count identical calls")
    expect(runs[0][0]["poly.find_roots.calls"] > 0, "trace: find_roots calls are seen through Polynomial")
    expect(runs[0][0]["lp.strict_feasibility.calls"] == 20, "trace: strict_feasibility is counted once per op")
    _, plain = timed_pass(ops, _run)
    same = all(_module(op).signature(a) == _module(op).signature(b) for op, a, b in zip(ops, plain, runs[0][1]))
    expect(same, "trace: traced outputs equal untraced outputs")
    from polycrit import lp, variation_first

    expect(variation_first.strict_feasibility is lp.strict_feasibility, "trace: uninstall restores every binding")


def missing_metric_stops() -> None:
    import run

    try:
        run.select({}, [{"name": "lp.solve_standard_form.calls", "unit": "count"}], "desk")
        stopped = False
    except SystemExit:
        stopped = True
    expect(stopped, "run: a per-layer metric the run did not produce stops it")
    other = run.select({}, [{"name": "desk.c08_s", "unit": "s"}], "cli")
    expect(other["desk.c08_s"]["value"] == 0.0, "run: a metric only another workload produces reads 0")


def refuses_without_library() -> None:
    here = Path(__file__).resolve().parent
    bare = Path(".perfbench_work") / f"selftest-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        res = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "roots", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(res.returncode != 0 and not res.stdout.strip(), "run: refuses to run without src/polycrit")


if __name__ == "__main__":
    corrupted_roots()
    flipped_verdicts()
    traced_twice()
    missing_metric_stops()
    refuses_without_library()
