import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

# one BLAS thread, as perfbench pins it, set before numpy loads: under
# OpenBLAS's default thread pool char_poly at order >= 48 took about
# 750 ms instead of 3-7 ms on a 2-vCPU VM with the other core busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from polycrit import maximal_zero as mz, poly  # noqa: E402

# property tests draw the same examples on every run and keep no database
settings.register_profile("polycrit", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("polycrit")

# Hypothesis reports a falsifying example through libcst, whose import
# raises a DeprecationWarning from mypy_extensions; under
# filterwarnings = error that import, made while pytest writes the report,
# aborts the whole session.  Importing it here first lets a failing
# property test fail like any other test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def disk_points(rng, n, min_sep=0.0, max_mod=1.0):
    """polycrit.poly.disk_points scaled to the disk of radius max_mod,
    redrawn until pairwise separations exceed min_sep."""
    while True:
        arr = max_mod * poly.disk_points(rng, n)
        if min_sep == 0.0:
            return arr
        d = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > min_sep:
            return arr


def horner(coeffs_ascending, z):
    """Horner's rule started from the leading coefficient: the evaluator
    Polynomial.__call__ and vanishes_at used before np.polyval."""
    out = np.full_like(z, coeffs_ascending[-1])
    for c in coeffs_ascending[-2::-1]:
        out = out * z + c
    return out


def loop_directed_hausdorff(p):
    """d(p) zero by zero, as metrics.directed_hausdorff computed it before
    the nearest-distance kernel: a later zero replaces the witness only
    when its distance exceeds the current one by more than 1e-12 relative."""
    crit = p.derivative().find_roots().as_array()
    best_val = -1.0
    worst = None
    for z in p.find_roots().points:
        m = float(np.abs(crit - z).min())
        if m > best_val * (1 + 1e-12):
            best_val = m
            worst = z
    return best_val, complex(worst)


def reference_polys():
    """The corpus of the reference-copy tests: seeded disk polynomials of
    degree 2-64, then tie-heavy symmetric ones: scaled roots of unity,
    z^n + z, z^n - z and zero-maximal polynomials at three phases."""
    rng = np.random.default_rng(20241021)
    polys = [poly.Polynomial.from_roots(poly.disk_points(rng, n)) for n in range(2, 65)]
    for n in range(2, 17):
        polys.append(poly.Polynomial.from_roots(roots_of_unity(n, radius=0.8)))
        polys += [poly.Polynomial((0.0, s) + (0.0,) * (n - 2) + (1.0,)) for s in (1.0, -1.0)]
        polys += [mz.construct(mz.ZeroMaximalSpec(n=n, theta=t, lam=0.5 * (n % 2))) for t in (0.0, 0.7, np.pi / 3)]
    return polys


def lex_sorted(points) -> list:
    """Python's stable sort by (re, im): the oracle of the RootSet order."""
    return sorted(points, key=lambda v: (v.real, v.imag))


def roots_of_unity(n, radius=1.0, phase=0.0):
    return radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + phase))


def scaled(p, s):
    """p_s(z) = s^n p(z / s): coefficient k times s^(n - k), so the roots,
    the critical points and every distance between them scale by s."""
    n = p.degree
    return poly.Polynomial(tuple(c * s ** (n - k) for k, c in enumerate(p.coeffs)))


def shifted(p, s):
    """Coefficients of p(z + s): the Taylor coefficients t_j(s) (Taylor shift)."""
    t, _ = poly._poly_taylor(np.array(p.coeffs))(np.array([complex(s)]), p.degree)
    return poly.Polynomial(tuple(t[:, 0]))


def highs_box_optimum(M) -> float:
    """t* of max t s.t. Re(M h) >= t, |Re h|, |Im h| <= 1 by HiGHS."""
    import scipy.optimize

    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m, n = M.shape
    G = np.hstack([M.real, -M.imag])
    res = scipy.optimize.linprog(
        np.r_[np.zeros(2 * n), -1.0],
        A_ub=np.hstack([-G, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * (2 * n) + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def seeded_matrices(rng, count):
    """Seeded complex M of m <= 8 rows and n <= 10 columns."""
    for _ in range(count):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        yield rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def fresh_python(code: str):
    """The value of the last line a fresh interpreter prints after code,
    with this checkout's src on its path."""
    src = str(Path(poly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
