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

# each _cmd_* handler imports the layer modules it runs: every command is
# a fresh process, and importing all of them here cost each command 13-20 ms
# with cached bytecode and 27-40 ms compiling from source (2-vCPU VM)
from . import jsonio
from .poly import Polynomial, disk_points, find_roots_batch


def parse_complex(text: str) -> complex:
    """Accept '1.5', '0.3,0.2' (re,im), or Python literals like '1+2j' or
    '1+2i' (a trailing i only, so 'inf' and 'nan' pass); ValueError quotes
    a malformed text."""
    s = re.sub("i$", "j", text.strip())
    try:
        return complex(*map(float, s.split(","))) if "," in s else complex(s)
    except (TypeError, ValueError):
        raise ValueError(f"malformed complex number {text!r}") from None


def parse_grid(text: str) -> list[float]:
    """'1e-3:8' -> [k * 1e-3 for k = 1..8]; a comma list is taken verbatim.
    ValueError quotes a malformed text."""
    try:
        if ":" in text:
            step_s, count_s = text.split(":")
            step = float(step_s)
            return [k * step for k in range(1, int(count_s) + 1)]
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed grid {text!r}") from None


def parse_range(text: str) -> list[int]:
    """'5..50' -> [5, ..., 50]; single integers pass through.  ValueError
    quotes a malformed text or an empty range (lo > hi)."""
    try:
        lo, hi = (int(v) for v in text.split("..")) if ".." in text else (int(text),) * 2
    except ValueError:
        raise ValueError(f"malformed range {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}: {lo} > {hi}")
    return list(range(lo, hi + 1))


def _option(name: str, parse, text: str):
    """parse(text), with a ValueError that names the option name first."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


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
        """Print the report as strict JSON (RFC 8259 has no NaN or
        Infinity); ValueError names the key path of a non-finite value."""
        obj = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "seed": self.seed,
            "duration_ms": int((time.monotonic() - self.t0) * 1000),
        }
        path = _non_finite(obj)
        if path:
            raise ValueError(f"report value {path} is not finite")
        print(json.dumps(obj, indent=indent, allow_nan=False))
        return 0 if all(c["pass"] for c in self.checks) else 1


def _non_finite(obj, path: str = "") -> str | None:
    """Key path (outputs.radius, checks[0].value) of the first non-finite float in obj, or None."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    paths = (_non_finite(v, f"{path}[{k}]" if isinstance(k, int) else f"{path}.{k}".lstrip(".")) for k, v in items)
    return next(filter(None, paths), None)


def _cmd_metrics(args, rep: _Report, tol: float) -> None:
    from . import metrics
    if args.op == "d":
        p = jsonio.read_poly(args.poly)
        value, worst = metrics.directed_hausdorff(p)
        rep.outputs = {"value": value, "worst_zero": jsonio.pairs([worst])[0]}
    elif args.op == "delta":
        p, q = jsonio.read_poly(args.p), jsonio.read_poly(args.q)
        rep.outputs = {"value": metrics.delta_distance(p, q)}
    elif args.op == "smale":
        p = jsonio.read_poly(args.poly)
        value = metrics.smale_ratio(p)
        n = p.degree
        rep.outputs = {"value": value, "mean_value_bound": (n - 1) / n}
        rep.check("smale-ratio-bound", value <= (n - 1) / n + tol, value - (n - 1) / n, tol)


def _cmd_varfirst(args, rep: _Report, tol: float) -> None:
    from . import variation_first
    p = jsonio.read_poly(args.poly)
    a = _option("--zero", parse_complex, args.zero)
    if args.op == "extensible":
        cert = variation_first.extensibility(p, a)
        rep.outputs = {
            "verdict": cert.verdict.value,
            "margin": cert.margin,
            "witness_h": jsonio.pairs(cert.witness_h) if cert.witness_h else None,
            "witness_mu": list(cert.witness_mu) if cert.witness_mu else None,
        }
        rep.check("certificate-margin", cert.holds, cert.margin, cert.gate)
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
    from . import variation_second
    if args.op == "fit":
        grid = _option("--grid", parse_grid, args.grid)
        fit = variation_second.fit_quadratic_growth(args.family, grid)
        rep.outputs = {"c2": fit.c2, "c3": fit.c3, "residual": fit.residual, "grid": grid}
    else:
        ns = _option("--n", parse_range, args.n)
        least = variation_second.PROP112_MIN_N if args.op == "prop112" else variation_second.PROP113_MIN_N
        if ns[0] < least:
            raise ValueError(f"--n: n >= {least} required, got {ns[0]} in {args.n!r}")
        if args.op == "prop112" and not abs(args.eps1) <= variation_second.EPS1_MAX:
            raise ValueError(f"--eps1: |eps_1| <= {variation_second.EPS1_MAX:g} required, got {args.eps1!r}")
        rows = []
        worst = -np.inf
        for n in ns:
            if args.op == "prop112":
                eps = np.zeros(n, dtype=complex)
                eps[0] = args.eps1 * np.exp(1j * args.phase)
                _, lhs, rhs = variation_second.prop112_perturbation(n, eps, kappa=args.kappa)
                rows.append({"n": n, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs})
            else:
                lhs, rhs = variation_second.prop113_inequality(n)
                rows.append({"n": n, "lhs": lhs, "rhs": rhs})
            worst = max(worst, lhs - rhs)
        rep.outputs = {"rows": rows}
        if args.op == "prop112":
            rep.check("perturbation-inequality", worst <= 0.0, worst, 0.0)
        else:
            rep.check("sine-ratio-inequality", worst < 0.0, worst, 0.0)


def _cmd_zeromax(args, rep: _Report, tol: float) -> None:
    from . import maximal_zero
    if args.op == "construct":
        spec = maximal_zero.ZeroMaximalSpec(n=args.n, theta=args.theta, lam=getattr(args, "lambda"))
        p = maximal_zero.construct(spec)
        rep.outputs = {"polynomial": jsonio.poly_to_obj(p)}
        if args.out:
            jsonio.write_poly(args.out, p)
            rep.outputs["written"] = args.out
    elif args.op == "verify":
        p = jsonio.read_poly(args.poly)
        report = maximal_zero.verify_0maximal(p, tol=tol)
        devs = {k: getattr(report, k) for k in ("radius_deviation", "root_circle_deviation", "crit_modulus_deviation")}
        rep.outputs = {"radius": report.radius, **devs, "is_0maximal": report.is_0maximal}
        for name, dev in devs.items():
            rep.check(name.replace("_", "-"), dev <= tol, dev, tol)


def _cmd_normal(args, rep: _Report, tol: float) -> None:
    from . import normal_ops
    if args.op == "svar":
        rng = np.random.default_rng(args.seed)
        if args.poly:
            polys = [jsonio.read_poly(args.poly)]
        elif args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        else:
            polys = [Polynomial.from_roots(disk_points(rng, args.n)) for _ in range(args.trials)]
        find_roots_batch(polys)
        roots = np.array([p.find_roots().as_array() for p in polys])
        full, sub = normal_ops.compression_spectra(normal_ops.normal_from_roots(roots), 0)
        s = normal_ops.spectral_variation(full, sub)
        worst = float((s - np.abs(roots).max(axis=1)).max())
        rep.outputs = {"max_excess": worst, "trials": len(polys)}
        rep.check("spectral-variation-bound", worst <= 1e-9, worst, 1e-9)
        return
    A = normal_ops.normal_from_roots(jsonio.read_poly(args.poly).find_roots().points)
    if args.op == "compress":
        pair = normal_ops.compression_spectrum(A, args.index)
        rep.outputs = {
            "eig_full": jsonio.pairs(pair.eig_full),
            "eig_sub": jsonio.pairs(pair.eig_sub),
            "source_index": pair.source_index,
        }
        hull_ok = normal_ops.eigvals_in_hull(pair, tol=1e-8)
        rep.check("subspectrum-in-hull", hull_ok, 0.0 if hull_ok else 1.0, 0.0)
    elif args.op == "glweights":
        probes = _option("--probes", lambda text: [parse_complex(s) for s in text.split(";")], args.probes)
        weights, residual = normal_ops.gauss_lucas_weights(A, args.index, probes)
        rep.outputs = {"weights": [float(w) for w in weights], "residual": residual}
        rep.check("weights-sum-to-one", abs(weights.sum() - 1) <= 1e-10, abs(weights.sum() - 1), 1e-10)
        rep.check("partial-fraction-residual", residual <= 1e-8, residual, 1e-8)
    elif args.op == "interlace":
        ratios = normal_ops.interlace_ratios(A, args.index)
        rep.outputs = {"ratios": [float(r) for r in ratios]}
        rep.check("ratios-nonnegative", float(ratios.min()) >= -1e-8, float(ratios.min()), -1e-8)


def _cmd_major(args, rep: _Report, tol: float) -> None:
    from . import majorization
    p = jsonio.read_poly(args.poly)
    alpha = _option("--alpha", parse_complex, args.alpha)
    W = majorization.tuple_W(p, alpha, args.k)
    Z = majorization.tuple_Z(p, alpha, args.k)
    if args.op == "check":
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
            rep.check("certificate-residuals", cert.holds, cert.residual, majorization.CERT_TOL)
    elif args.op == "dbs":
        lhs, rhs = majorization.dbs_inequality(W, Z, args.f)
        rep.outputs = {"lhs": lhs, "rhs": rhs, "f": args.f}
        rep.check("convex-mean-domination", lhs <= rhs + 1e-10, lhs - rhs, 1e-10)


def _cmd_suite(args, rep: _Report, tol: float) -> None:
    from . import suite
    if args.name != "sendov-desk":
        raise ValueError(f"unknown suite {args.name!r}")
    checks = suite.run_all(verbose=not args.quiet)
    for c in checks:
        rep.check(c.name, c.passed, c.value, c.tolerance)
    rep.outputs = {"passed": sum(c.passed for c in checks), "total": len(checks)}


def _cmd_gen(args, rep: _Report, tol: float) -> None:
    from . import maximal_zero, variation_second
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
            emit(f"random_S{args.n}_{idx:03d}", Polynomial.from_roots(disk_points(rng, args.n)))
    elif args.kind == "zero_maximal":
        for idx, theta in enumerate(np.linspace(0.0, 2 * np.pi, args.count, endpoint=False)):
            spec = maximal_zero.ZeroMaximalSpec(n=args.n, theta=float(theta), lam=getattr(args, "lambda"))
            emit(f"zero_maximal_n{args.n}_{idx:03d}", maximal_zero.construct(spec))
    elif args.kind == "deg4_family":
        for idx, a in enumerate(_option("--grid", parse_grid, args.grid)):
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


# a value that starts with a minus: a number (exponent forms included),
# -inf, -nan, or a complex value such as -0.5,0.1
_SIGNED_VALUE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


def _attach_signed_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Rewrite "--alpha -0.5,0.1" as "--alpha=-0.5,0.1", for every option
    of parser or of its subcommands that takes a value.

    argparse takes a token with a leading minus for an option unless the
    whole token is a plain number, so it would refuse a spaced value such
    as -0.5,0.1, -1e-3 or -inf; attached with "=", the token is always
    read as the value.
    """
    takes_value: set[str] = set()
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.nargs != 0:
                takes_value.update(action.option_strings)
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in takes_value and _SIGNED_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv, ap))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(exc.code or 0)
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "json_indent")}
    rep = _Report(command=args.command, inputs={k: str(v) for k, v in inputs.items()}, seed=args.seed)
    try:
        if not (np.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
        _DISPATCH[args.command](args, rep, args.tol)
        return rep.emit(args.json_indent)
    except (ValueError, OSError, json.JSONDecodeError, KeyError, RuntimeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
