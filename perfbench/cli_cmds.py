"""``cli``: sequential cold ``python -m polycrit.cli`` processes.

Seven typical subcommands on seeded JSON inputs of degree 5 to 16, one
process at a time.  Nothing else measures the interpreter start, the
``polycrit.cli`` import and the JSON layer.  The oracle is the exit code
and the report's ``outputs`` (or ``error``), which must equal what the
library computes in-process; ``duration_ms`` is ignored.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import Op, Verdict, disk_points

NAME = "cli"
IMPORTS = ("polycrit", "polycrit.jsonio", "polycrit.maximal_zero")
UNIT_S = 24.0
# each subcommand runs once per round and unit, on fresh inputs; a round
# fixes the degrees of p (and q), of the small majorization input and of
# the zero-maximal one (odd degree: the lambda family)
ROUND_DEGREES = ((7, 5, 9), (14, 6, 16))
PASSES = 9  # each command is timed as the best of this many passes (see roots.PASSES)
SUBCOMMANDS = (
    "metrics.d",
    "metrics.delta",
    "varfirst.extensible",
    "zeromax.verify",
    "major.check",
    "normal.compress",
    "varsecond.fit",
)
WORK_DIR = Path(".perfbench_work")
CORPUS_SEED = 20240613  # root shapes; the run seed picks their rotation


def work_dir() -> Path:
    path = WORK_DIR / f"{NAME}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _num(x: complex) -> str:
    return f"{x.real!r},{x.imag!r}"


def _turn(rng, degree: int) -> complex:
    """A seeded rotation by a multiple of 2 pi / degree.  find_roots starts
    from guesses evenly spaced at that step, so it repeats the same
    iterations on the turned roots (up to rounding)."""
    return complex(np.exp(2j * np.pi * int(rng.integers(degree)) / degree))


def build(seed: int, units: int) -> list[Op]:
    """Write the seeded input files and return one op per command line.

    Root shapes come from a fixed corpus and the seed turns each of them.
    Writing a file finds the polynomial's roots, whose cost swings between
    shapes by up to ten times, so set-up costs the same for every seed
    while every coefficient differs."""
    from polycrit import Polynomial, jsonio, maximal_zero

    out = work_dir()
    ops = []
    for unit in range(units):
        for r, (deg_p, deg_small, n0) in enumerate(ROUND_DEGREES):
            shapes = np.random.default_rng([CORPUS_SEED, unit, r])
            rng = np.random.default_rng([seed, unit, r])
            tag = f"u{unit}r{r}"
            base = np.array(disk_points(shapes, deg_p))
            jitter = 1e-3 * np.exp(2j * np.pi * shapes.uniform(size=len(base)))
            turn = _turn(rng, len(base))
            roots = [complex(z) for z in turn * base]
            p = Polynomial.from_roots(roots)
            small_roots = np.array(disk_points(shapes, deg_small))
            small = Polynomial.from_roots(_turn(rng, len(small_roots)) * small_roots)
            lam = float(shapes.uniform(-0.9, 0.9)) * (2 * np.sqrt(n0) / ((n0 - 1) // 2 + 1)) if n0 % 2 else 0.0
            z0 = maximal_zero.construct(
                maximal_zero.ZeroMaximalSpec(n=n0, theta=float(shapes.uniform(0, 2 * np.pi)), lam=lam)
            )
            # the roots turned by w: coefficient k gains w^(n - k)
            w = _turn(rng, n0)
            z0 = Polynomial(tuple(c * w ** (n0 - k) for k, c in enumerate(z0.coeffs)))
            files = {"p": p, "q": Polynomial.from_roots(turn * (base + jitter)), "small": small, "zmax": z0}
            paths = {}
            for key, poly in files.items():
                paths[key] = str(out / f"{tag}-{key}.json")
                jsonio.write_poly(paths[key], poly, repr_kind="roots" if key != "zmax" else "coeffs")
            lines = {
                "metrics.d": ["metrics", "d", paths["p"]],
                "metrics.delta": ["metrics", "delta", paths["p"], paths["q"]],
                # the = form, because argparse reads a leading minus as an option
                "varfirst.extensible": ["varfirst", "extensible", paths["p"], f"--zero={_num(roots[0])}"],
                "zeromax.verify": ["zeromax", "verify", paths["zmax"]],
                "major.check": ["major", "check", paths["small"], "--alpha", "0", "--k", str(1 + r % 2)],
                "normal.compress": ["normal", "compress", paths["p"], "--index", str(int(rng.integers(p.degree)))],
                "varsecond.fit": ["varsecond", "fit", "--family", ("deg4", "deg5")[r % 2], "--grid", f"{1 + r}e-3:8"],
            }
            ops.extend(Op("cli", sub, tuple(lines[sub])) for sub in SUBCOMMANDS)
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def spawn(argv) -> tuple[int, str, float]:
    """Run one cold CLI process; (exit code, stdout, peak RSS in MB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "polycrit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def execute(op):
    return spawn(op.args)


def run_in_process(op) -> tuple[int, str]:
    """The same command through ``polycrit.cli.main`` in this process."""
    from polycrit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.args))
    return code, buf.getvalue()


def _pairs(values):
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def expected(op) -> tuple[int, dict]:
    """Exit code and the ``outputs`` (or ``error``) the library gives in-process."""
    from polycrit import jsonio, lp, majorization, maximal_zero, metrics, normal_ops
    from polycrit import variation_first, variation_second

    a = op.args
    tol = 1e-8
    try:
        if op.cell == "metrics.d":
            d, worst = metrics.directed_hausdorff(jsonio.read_poly(a[2]))
            return 0, {"value": d, "worst_zero": _pairs([worst])[0]}
        if op.cell == "metrics.delta":
            return 0, {"value": metrics.delta_distance(jsonio.read_poly(a[2]), jsonio.read_poly(a[3]))}
        if op.cell == "varfirst.extensible":
            re_s, im_s = a[3].split("=", 1)[1].split(",")
            cert = variation_first.extensibility(jsonio.read_poly(a[2]), complex(float(re_s), float(im_s)))
            strict = cert.verdict is lp.Verdict.STRICTLY_FEASIBLE
            ok = (strict and cert.margin > lp.MARGIN_TOL) or (not strict and cert.margin <= lp.FEAS_TOL)
            return (0 if ok else 1), {
                "verdict": cert.verdict.value,
                "margin": cert.margin,
                "witness_h": _pairs(cert.witness_h) if cert.witness_h else None,
                "witness_mu": list(cert.witness_mu) if cert.witness_mu else None,
            }
        if op.cell == "zeromax.verify":
            rep = maximal_zero.verify_0maximal(jsonio.read_poly(a[2]), tol=tol)
            devs = (rep.radius_deviation, rep.root_circle_deviation, rep.crit_modulus_deviation)
            return (0 if max(devs) <= tol else 1), {
                "radius": rep.radius,
                "radius_deviation": rep.radius_deviation,
                "root_circle_deviation": rep.root_circle_deviation,
                "crit_modulus_deviation": rep.crit_modulus_deviation,
                "is_0maximal": rep.is_0maximal,
            }
        if op.cell == "major.check":
            p = jsonio.read_poly(a[2])
            k = int(a[6])
            cert = majorization.check_majorization(
                majorization.tuple_W(p, 0.0, k), majorization.tuple_Z(p, 0.0, k)
            )
            if cert is None:
                return 1, {"feasible": False}
            worst = max(cert.row_sum_residual, cert.col_sum_residual, cert.neg_entry, cert.reconstruction_residual)
            return (0 if worst <= 1e-7 else 1), {
                "feasible": True,
                "R": [[float(v) for v in row] for row in cert.R],
                "row_sum_residual": cert.row_sum_residual,
                "col_sum_residual": cert.col_sum_residual,
                "neg_entry": cert.neg_entry,
                "reconstruction_residual": cert.reconstruction_residual,
            }
        if op.cell == "normal.compress":
            p = jsonio.read_poly(a[2])
            A = normal_ops.normal_from_roots(p.find_roots().points)
            pair = normal_ops.compression_spectrum(A, int(a[4]))
            ok = normal_ops.eigvals_in_hull(pair, tol=1e-8)
            return (0 if ok else 1), {
                "eig_full": _pairs(pair.eig_full),
                "eig_sub": _pairs(pair.eig_sub),
                "source_index": pair.source_index,
            }
        if op.cell == "varsecond.fit":
            step, count = a[5].split(":")
            grid = [k * float(step) for k in range(1, int(count) + 1)]
            fit = variation_second.fit_quadratic_growth(a[3], grid)
            return 0, {"c2": fit.c2, "c3": fit.c3, "residual": fit.residual, "grid": grid}
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        return 2, {"error": str(exc)}
    raise ValueError(f"unknown subcommand {op.cell}")


def prepare(ops) -> None:
    for op in ops:
        code, body = expected(op)
        op.expect.update(code=code, body=json.loads(json.dumps(body)))


def report_body(stdout: str):
    """``outputs`` (or ``error``) of a JSON run report; None if unparsable."""
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    return {"error": rep["error"]} if "error" in rep else rep.get("outputs")


def judge(op, outcome) -> list[Verdict]:
    name = op.cell
    if outcome.error is not None:
        return [Verdict(name, False, None, f"could not run: {outcome.error!r}")]
    code, stdout = outcome.value[0], outcome.value[1]
    body = report_body(stdout)
    e = op.expect
    if code != e["code"]:
        return [Verdict(name, False, None, f"exit {code}, library says {e['code']}")]
    if body != e["body"]:
        return [Verdict(name, False, None, "report outputs differ from the library's values")]
    return [Verdict(name, True)]


def signature(outcome):
    if outcome.error is not None:
        return repr(outcome.error)
    return outcome.value[0], report_body(outcome.value[1])


def peak_child_rss_mb(outcomes) -> float:
    return max(o.value[2] for o in outcomes if o.value is not None)


def import_probe_ms() -> float:
    """Cold ``import polycrit.cli`` in a fresh interpreter, in ms."""
    code = "import time; t = time.perf_counter(); import polycrit.cli; print(time.perf_counter() - t)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    return float(res.stdout.strip()) * 1e3


def subcommand_p50(ops, outcomes, p50) -> dict[str, float]:
    by_sub: dict[str, list[float]] = {s: [] for s in SUBCOMMANDS}
    for op, o in zip(ops, outcomes):
        by_sub[op.cell].append(o.seconds * 1e3)
    return {f"cli.{s}.p50_ms": p50(v) for s, v in by_sub.items()}


def time_in_process(ops, before_op=None):
    """Wall seconds and (exit code, outputs) of every command run in-process."""
    t0 = time.perf_counter()
    results = []
    for op in ops:
        if before_op is not None:
            before_op(op)
        code, stdout = run_in_process(op)
        results.append((code, report_body(stdout)))
    return time.perf_counter() - t0, results
