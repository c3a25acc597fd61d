"""Unified command line: JSON in, JSON RunReport out.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or input
error.  Complex numbers appear as [re, im] pairs; polynomials follow the
repr/data schema of jsonio.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import (
    jsonio,
    lp,
    majorization,
    maximal_zero,
    metrics,
    normal_ops,
    suite,
    variation_first,
    variation_second,
)
from .poly import Polynomial


def parse_complex(text: str) -> complex:
    """Accept '1.5', '0.3,0.2' (re,im), or Python literals like '1+2j'."""
    s = text.strip().replace("i", "j")
    if "," in s:
        re_s, im_s = s.split(",")
        return complex(float(re_s), float(im_s))
    return complex(s)


def parse_grid(text: str) -> list[float]:
    """'1e-3:8' -> [k * 1e-3 for k = 1..8]; a comma list is taken verbatim."""
    if ":" in text:
        step_s, count_s = text.split(":")
        step = float(step_s)
        return [k * step for k in range(1, int(count_s) + 1)]
    return [float(v) for v in text.split(",")]


def parse_range(text: str) -> list[int]:
    """'5..50' -> [5, ..., 50]; single integers pass through."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


class _Report:
    def __init__(self, command: str, inputs: dict, seed: int | None):
        self.command = command
        self.inputs = inputs
        self.seed = seed
        self.outputs: dict = {}
        self.checks: list[dict] = []
        self.t0 = time.monotonic()

    def check(self, name: str, passed: bool, value: float, tolerance: float) -> None:
        self.checks.append(
            {"name": name, "pass": bool(passed), "value": float(value), "tolerance": float(tolerance)}
        )

    def emit(self, indent: int | None) -> int:
        obj = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "seed": self.seed,
            "duration_ms": int((time.monotonic() - self.t0) * 1000),
        }
        print(json.dumps(obj, indent=indent))
        return 0 if all(c["pass"] for c in self.checks) else 1


def _load_poly(path: str) -> Polynomial:
    return jsonio.read_poly(path)


def _cmd_metrics(args, rep: _Report, tol: float) -> None:
    if args.op == "d":
        p = _load_poly(args.poly)
        value, worst = metrics.directed_hausdorff(p)
        rep.outputs = {"value": value, "worst_zero": jsonio.pairs([worst])[0]}
    elif args.op == "delta":
        p, q = _load_poly(args.p), _load_poly(args.q)
        rep.outputs = {"value": metrics.delta_distance(p, q)}
    elif args.op == "smale":
        p = _load_poly(args.poly)
        value = metrics.smale_ratio(p)
        n = p.degree
        rep.outputs = {"value": value, "mean_value_bound": (n - 1) / n}
        rep.check("smale-ratio-bound", value <= (n - 1) / n + tol, value - (n - 1) / n, tol)


def _cmd_varfirst(args, rep: _Report, tol: float) -> None:
    p = _load_poly(args.poly)
    a = parse_complex(args.zero)
    if args.op == "extensible":
        cert = variation_first.extensibility(p, a)
        rep.outputs = {
            "verdict": cert.verdict.value,
            "margin": cert.margin,
            "witness_h": jsonio.pairs(cert.witness_h) if cert.witness_h else None,
            "witness_mu": list(cert.witness_mu) if cert.witness_mu else None,
        }
        rep.check(
            "certificate-margin",
            (cert.verdict is lp.Verdict.STRICTLY_FEASIBLE and cert.margin > lp.MARGIN_TOL)
            or (cert.verdict is lp.Verdict.POSITIVELY_SINGULAR and cert.margin <= lp.FEAS_TOL),
            cert.margin,
            lp.FEAS_TOL,
        )
    elif args.op == "matrices":
        s = variation_first.setup(p, a)
        wanted = [w.strip().upper() for w in args.emit.split(",")]
        out = {}
        builders = {
            "A": variation_first.amatrix,
            "B": variation_first.bmatrix,
            "C": variation_first.cmatrix,
            "D": variation_first.dmatrix,
        }
        for name in wanted:
            if name not in builders:
                raise ValueError(f"unknown matrix {name!r}; choose among A,B,C,D")
            out[name] = jsonio.matrix_to_obj(builders[name](s))
        rep.outputs = {"r": s.r, "radius": s.radius, "generic": s.generic, "matrices": out}


def _cmd_varsecond(args, rep: _Report, tol: float) -> None:
    if args.op == "fit":
        grid = parse_grid(args.grid)
        fit = variation_second.fit_quadratic_growth(args.family, grid)
        rep.outputs = {"c2": fit.c2, "c3": fit.c3, "residual": fit.residual, "grid": grid}
    elif args.op == "prop112":
        rows = []
        worst = -np.inf
        for n in parse_range(args.n):
            eps = np.zeros(n, dtype=complex)
            eps[0] = args.eps1 * np.exp(1j * args.phase)
            _, lhs, rhs = variation_second.prop112_perturbation(n, eps, kappa=args.kappa)
            rows.append({"n": n, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs})
            worst = max(worst, lhs - rhs)
        rep.outputs = {"rows": rows}
        rep.check("perturbation-inequality", worst <= 0.0, worst, 0.0)
    elif args.op == "prop113":
        rows = []
        worst = -np.inf
        for n in parse_range(args.n):
            lhs, rhs = variation_second.prop113_inequality(n)
            rows.append({"n": n, "lhs": lhs, "rhs": rhs})
            worst = max(worst, lhs - rhs)
        rep.outputs = {"rows": rows}
        rep.check("sine-ratio-inequality", worst < 0.0, worst, 0.0)


def _cmd_zeromax(args, rep: _Report, tol: float) -> None:
    if args.op == "construct":
        spec = maximal_zero.ZeroMaximalSpec(n=args.n, theta=args.theta, lam=getattr(args, "lambda"))
        p = maximal_zero.construct(spec)
        rep.outputs = {"polynomial": jsonio.poly_to_obj(p)}
        if args.out:
            jsonio.write_poly(args.out, p)
            rep.outputs["written"] = args.out
    elif args.op == "verify":
        p = _load_poly(args.poly)
        report = maximal_zero.verify_0maximal(p, tol=tol)
        rep.outputs = {
            "radius": report.radius,
            "radius_deviation": report.radius_deviation,
            "root_circle_deviation": report.root_circle_deviation,
            "crit_modulus_deviation": report.crit_modulus_deviation,
            "is_0maximal": report.is_0maximal,
        }
        rep.check("radius-deviation", report.radius_deviation <= tol, report.radius_deviation, tol)
        rep.check(
            "root-circle-deviation", report.root_circle_deviation <= tol, report.root_circle_deviation, tol
        )
        rep.check(
            "crit-modulus-deviation",
            report.crit_modulus_deviation <= tol,
            report.crit_modulus_deviation,
            tol,
        )


def _cmd_normal(args, rep: _Report, tol: float) -> None:
    if args.op == "compress":
        p = _load_poly(args.poly)
        A = normal_ops.normal_from_roots(p.find_roots().points)
        pair = normal_ops.compression_spectrum(A, args.index)
        rep.outputs = {
            "eig_full": jsonio.pairs(pair.eig_full),
            "eig_sub": jsonio.pairs(pair.eig_sub),
            "source_index": pair.source_index,
        }
        hull_ok = normal_ops.eigvals_in_hull(pair, tol=1e-8)
        rep.check("subspectrum-in-hull", hull_ok, 0.0 if hull_ok else 1.0, 0.0)
    elif args.op == "svar":
        rng = np.random.default_rng(args.seed)
        worst = -np.inf
        if args.poly:
            polys = [_load_poly(args.poly)]
        else:
            polys = []
            for _ in range(args.trials):
                pts = []
                while len(pts) < args.n:
                    x, y = rng.uniform(-1, 1, 2)
                    if x * x + y * y <= 1:
                        pts.append(complex(x, y))
                polys.append(Polynomial.from_roots(pts))
        for p in polys:
            roots = p.find_roots().as_array()
            A = normal_ops.normal_from_roots(roots)
            pair = normal_ops.compression_spectrum(A, 0)
            s = normal_ops.spectral_variation(pair.eig_full, pair.eig_sub)
            worst = max(worst, s - float(np.abs(roots).max()))
        rep.outputs = {"max_excess": worst, "trials": len(polys)}
        rep.check("spectral-variation-bound", worst <= 1e-9, worst, 1e-9)
    elif args.op == "glweights":
        p = _load_poly(args.poly)
        A = normal_ops.normal_from_roots(p.find_roots().points)
        probes = [parse_complex(s) for s in args.probes.split(";")]
        weights, residual = normal_ops.gauss_lucas_weights(A, args.index, probes)
        rep.outputs = {"weights": [float(w) for w in weights], "residual": residual}
        rep.check("weights-sum-to-one", abs(weights.sum() - 1) <= 1e-10, abs(weights.sum() - 1), 1e-10)
        rep.check("partial-fraction-residual", residual <= 1e-8, residual, 1e-8)
    elif args.op == "interlace":
        p = _load_poly(args.poly)
        A = normal_ops.normal_from_roots(p.find_roots().points)
        ratios = normal_ops.interlace_ratios(A, args.index)
        rep.outputs = {"ratios": [float(r) for r in ratios]}
        rep.check("ratios-nonnegative", float(ratios.min()) >= -1e-8, float(ratios.min()), -1e-8)


def _cmd_major(args, rep: _Report, tol: float) -> None:
    p = _load_poly(args.poly)
    alpha = parse_complex(args.alpha)
    if args.op == "check":
        W = majorization.tuple_W(p, alpha, args.k)
        Z = majorization.tuple_Z(p, alpha, args.k)
        cert = majorization.check_majorization(W, Z)
        if cert is None:
            rep.outputs = {"feasible": False}
            rep.check("majorization-feasible", False, 1.0, 0.0)
        else:
            rep.outputs = {
                "feasible": True,
                "R": [[float(v) for v in row] for row in cert.R],
                "row_sum_residual": cert.row_sum_residual,
                "col_sum_residual": cert.col_sum_residual,
                "neg_entry": cert.neg_entry,
                "reconstruction_residual": cert.reconstruction_residual,
            }
            worst = max(
                cert.row_sum_residual,
                cert.col_sum_residual,
                cert.neg_entry,
                cert.reconstruction_residual,
            )
            rep.check("certificate-residuals", worst <= 1e-7, worst, 1e-7)
    elif args.op == "dbs":
        W = majorization.tuple_W(p, alpha, args.k)
        Z = majorization.tuple_Z(p, alpha, args.k)
        lhs, rhs = majorization.dbs_inequality(W, Z, args.f)
        rep.outputs = {"lhs": lhs, "rhs": rhs, "f": args.f}
        rep.check("convex-mean-domination", lhs <= rhs + 1e-10, lhs - rhs, 1e-10)


def _cmd_suite(args, rep: _Report, tol: float) -> None:
    if args.name != "sendov-desk":
        raise ValueError(f"unknown suite {args.name!r}")
    checks = suite.run_all(verbose=not args.quiet)
    for c in checks:
        rep.check(c.name, c.passed, c.value, c.tolerance)
    rep.outputs = {"passed": sum(c.passed for c in checks), "total": len(checks)}


def _cmd_gen(args, rep: _Report, tol: float) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    written: list[str] = []

    def emit(name: str, p: Polynomial) -> None:
        path = out / f"{name}.json"
        jsonio.write_poly(path, p, repr_kind="roots")
        written.append(str(path))

    if args.kind == "random_Sn":
        for idx in range(args.count):
            pts: list[complex] = []
            while len(pts) < args.n:
                x, y = rng.uniform(-1.0, 1.0, 2)
                if x * x + y * y <= 1.0:
                    pts.append(complex(x, y))
            emit(f"random_S{args.n}_{idx:03d}", Polynomial.from_roots(pts))
    elif args.kind == "zero_maximal":
        for idx, theta in enumerate(np.linspace(0.0, 2 * np.pi, args.count, endpoint=False)):
            spec = maximal_zero.ZeroMaximalSpec(n=args.n, theta=float(theta), lam=getattr(args, "lambda"))
            emit(f"zero_maximal_n{args.n}_{idx:03d}", maximal_zero.construct(spec))
    elif args.kind == "deg4_family":
        for idx, a in enumerate(parse_grid(args.grid)):
            emit(f"deg4_family_{idx:03d}", variation_second.family_deg4(a))
    elif args.kind == "roots_grid":
        for idx in range(1, args.count + 1):
            radius = idx / args.count
            pts = radius * np.exp(2j * np.pi * np.arange(args.n) / args.n)
            emit(f"roots_grid_n{args.n}_{idx:03d}", Polynomial.from_roots(pts))
    else:
        raise ValueError(f"unknown corpus kind {args.kind!r}")
    rep.outputs = {"files": written}


def build_parser() -> argparse.ArgumentParser:
    # global flags live on the top level and, via this parent, after any
    # subcommand; SUPPRESS keeps the leaf from clobbering top-level values
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="tolerance for verdict checks")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized subcommands")
    g.add_argument("--json-indent", type=int, default=argparse.SUPPRESS, help="indent for the JSON report")

    ap = argparse.ArgumentParser(prog="polycrit", description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-indent", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("metrics", help="distances d, delta, smale")
    msub = m.add_subparsers(dest="op", required=True)
    d = msub.add_parser("d", parents=[g])
    d.add_argument("poly")
    dl = msub.add_parser("delta", parents=[g])
    dl.add_argument("p")
    dl.add_argument("q")
    sm = msub.add_parser("smale", parents=[g])
    sm.add_argument("poly")

    vf = sub.add_parser("varfirst", help="first-order variational matrices and verdicts")
    vfsub = vf.add_subparsers(dest="op", required=True)
    ext = vfsub.add_parser("extensible", parents=[g])
    ext.add_argument("poly")
    ext.add_argument("--zero", required=True)
    mat = vfsub.add_parser("matrices", parents=[g])
    mat.add_argument("poly")
    mat.add_argument("--zero", required=True)
    mat.add_argument("--emit", default="A,B")

    vs = sub.add_parser("varsecond", help="second-order families and inequalities")
    vssub = vs.add_subparsers(dest="op", required=True)
    fit = vssub.add_parser("fit", parents=[g])
    fit.add_argument("--family", choices=["deg4", "deg5"], required=True)
    fit.add_argument("--grid", required=True, help="step:count or comma list")
    p112 = vssub.add_parser("prop112", parents=[g])
    p112.add_argument("--n", required=True, help="degree or range lo..hi")
    p112.add_argument("--eps1", type=float, default=1e-3)
    p112.add_argument("--phase", type=float, default=0.0)
    p112.add_argument("--kappa", type=float, default=1.0)
    p113 = vssub.add_parser("prop113", parents=[g])
    p113.add_argument("--n", required=True, help="degree or range lo..hi")

    zm = sub.add_parser("zeromax", help="extremal polynomials at the origin")
    zmsub = zm.add_subparsers(dest="op", required=True)
    con = zmsub.add_parser("construct", parents=[g])
    con.add_argument("--n", type=int, required=True)
    con.add_argument("--theta", type=float, default=0.0)
    con.add_argument("--lambda", type=float, default=0.0)
    con.add_argument("--out", default=None)
    ver = zmsub.add_parser("verify", parents=[g])
    ver.add_argument("poly")

    no_p = sub.add_parser("normal", help="normal-matrix compressions and spectra")
    nosub = no_p.add_subparsers(dest="op", required=True)
    comp = nosub.add_parser("compress", parents=[g])
    comp.add_argument("poly")
    comp.add_argument("--index", type=int, default=0)
    svar = nosub.add_parser("svar", parents=[g])
    svar.add_argument("poly", nargs="?", default=None)
    svar.add_argument("--n", type=int, default=5)
    svar.add_argument("--trials", type=int, default=100)
    glw = nosub.add_parser("glweights", parents=[g])
    glw.add_argument("poly")
    glw.add_argument("--index", type=int, default=0)
    glw.add_argument("--probes", default="2,0;3,1", help="semicolon-separated complex probes")
    inter = nosub.add_parser("interlace", parents=[g])
    inter.add_argument("poly")
    inter.add_argument("--index", type=int, default=0)

    mj = sub.add_parser("major", help="majorization checks and convex means")
    mjsub = mj.add_subparsers(dest="op", required=True)
    chk = mjsub.add_parser("check", parents=[g])
    chk.add_argument("poly")
    chk.add_argument("--alpha", default="0")
    chk.add_argument("--k", type=int, default=1)
    dbs = mjsub.add_parser("dbs", parents=[g])
    dbs.add_argument("poly")
    dbs.add_argument("--alpha", default="0")
    dbs.add_argument("--k", type=int, default=1)
    dbs.add_argument("--f", default="abs")

    su = sub.add_parser("suite", help="verification batteries", parents=[g])
    su.add_argument("name")
    su.add_argument("--quiet", action="store_true")

    gen = sub.add_parser("gen", help="seeded corpus generation", parents=[g])
    gen.add_argument("--kind", required=True, choices=["random_Sn", "zero_maximal", "deg4_family", "roots_grid"])
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--grid", default="1e-3:8")
    gen.add_argument("--lambda", type=float, default=0.0)
    gen.add_argument("--out", required=True)
    return ap


_DISPATCH = {
    "metrics": _cmd_metrics,
    "varfirst": _cmd_varfirst,
    "varsecond": _cmd_varsecond,
    "zeromax": _cmd_zeromax,
    "normal": _cmd_normal,
    "major": _cmd_major,
    "suite": _cmd_suite,
    "gen": _cmd_gen,
}


# options whose complex value may start with a minus, as in "--alpha -0.5,0.1"
_COMPLEX_OPTIONS = ("--alpha", "--zero", "--probes")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--alpha -0.5,0.1" as "--alpha=-0.5,0.1".

    argparse takes a token with a leading minus for an option unless the
    whole token is a plain number, so it would refuse a spaced value such
    as -0.5,0.1; attached with "=", the token is always read as the value.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _COMPLEX_OPTIONS and _SIGNED_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(exc.code or 0)
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "json_indent")}
    rep = _Report(command=args.command, inputs={k: str(v) for k, v in inputs.items()}, seed=args.seed)
    try:
        _DISPATCH[args.command](args, rep, args.tol)
    except (ValueError, OSError, json.JSONDecodeError, KeyError, RuntimeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}))
        return 2
    return rep.emit(args.json_indent)


if __name__ == "__main__":
    sys.exit(main())
