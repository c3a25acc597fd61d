"""Scaling oracle: p_s(z) = s^n p(z / s) has the geometry of p scaled by s.

Multiplicities, genericity, the on-circle count r and its indices must
not change; |p|_a, d(p) and the inverse-length matrix s * A must scale
exactly (to rounding of the scaled coefficients); the Smale ratio and
the Gauss-Lucas weights are dimensionless.  Extensibility verdicts are
not part of the oracle: B's conj(-z^2 A) term is not homogeneous in s;
strict_feasibility's verdicts on s M are, and are checked against HiGHS
on M.  Hull membership is checked under affine maps z -> alpha z + beta.
Majorization verdicts are scale-free: at every s and k, the genuine pair
(W, Z) of s times a degree-6 root set has a certificate that holds, and
3 W, whose mean is three times Z's, has none.
"""
from collections import Counter

import numpy as np
import pytest

from polycrit import majorization as mj, maximal_zero as mz, metrics, normal_ops as no, variation_first as vf
from polycrit.lp import Verdict, in_convex_hull, strict_feasibility
from polycrit.poly import Polynomial

from conftest import disk_points, highs_box_optimum, scaled, seeded_matrices

SCALES = [1e-12, 1e-9, 1e-3, 1e3]
FIVE = [0, 0.5, -0.5j, 0.3 + 0.4j, -0.6 + 0.1j]


def _seeded(seed):
    """A seeded disk set of degree 3..12 with a zero at 0."""
    rng = np.random.default_rng(4200 + seed)
    pts = disk_points(rng, int(rng.integers(3, 13)))
    pts[0] = 0.0
    return pts


CASES = {"five-point": FIVE, **{f"disk-{k}": _seeded(k) for k in range(6)}}


def _close(got, want, s, scale=None):
    """got / s against want, relative to scale (default: the largest entry
    of want)."""
    got, want = np.asarray(got) / s, np.asarray(want)
    return np.abs(got - want).max() <= 1e-12 * (np.abs(want).max() if scale is None else scale)


def _geometry(p):
    st = vf.setup(p, 0.0)
    circle = metrics.alpha_distance(p, 0.0)
    d, worst = metrics.directed_hausdorff(p)
    return {
        "zeros": sorted(Counter(p.find_roots().points).values()),
        "crit": sorted(Counter(p.derivative().find_roots().points).values()),
        "generic": st.generic,
        "r": st.r,
        "on_circle": circle.on_circle,
        "radius": circle.radius,
        "d": d,
        "worst": worst,
        "A": vf.amatrix(st) if st.generic else None,
        "smale": metrics.smale_ratio(p),
    }


def _weights(roots, s):
    """Gauss-Lucas weights of normal_from_roots(s roots) at index 1, keyed
    by the lex order of the eigenvalues over s."""
    A = no.normal_from_roots(s * np.asarray(roots, dtype=complex))
    w, _ = no.gauss_lucas_weights(A, 1, [s * (3.0 + 0.5j)])
    lam = A.eigenvalues / s
    return w[np.lexsort((lam.imag, lam.real))]


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("case", list(CASES))
def test_scaled_polynomial_has_scaled_geometry(case, s):
    p = Polynomial.from_roots(CASES[case])
    want, got = _geometry(p), _geometry(scaled(p, s))
    for key in ("zeros", "crit", "generic", "r", "on_circle"):
        assert got[key] == want[key], key
    assert want["generic"]
    assert _close(got["radius"], want["radius"], s)
    assert _close(got["d"], want["d"], s)
    assert _close(got["worst"], want["worst"], s, scale=np.abs(CASES[case]).max())
    assert _close(got["A"], want["A"], 1 / s)
    assert abs(got["smale"] - want["smale"]) <= 1e-12 * want["smale"]
    assert np.abs(_weights(CASES[case], s) - _weights(CASES[case], 1.0)).max() <= 1e-12


@pytest.mark.parametrize("s", SCALES)
def test_multiple_roots_keep_their_multiplicity(s):
    # a double zero and the double critical point it carries: non-generic
    # at every scale, with the same exact repeats
    p = Polynomial.from_roots([0, 0.5, 0.5, -0.5j, 0.3 + 0.4j])
    q = scaled(p, s)
    for a, b in ((p, q), (p.derivative(), q.derivative())):
        assert sorted(Counter(b.find_roots().points).values()) == sorted(
            Counter(a.find_roots().points).values()
        )
    assert vf.setup(q, 0.0).generic is vf.setup(p, 0.0).generic is False


AFFINE = [(1e-9, 0.0), (1e-9, 0.3 - 0.2j), (1e3 * np.exp(0.7j), -2.0 + 5.0j), (1e-12j, 1e-12)]


@pytest.mark.parametrize("alpha,beta", AFFINE)
def test_hull_membership_is_affine_invariant(alpha, beta):
    rng = np.random.default_rng(77)
    # sets of 3 or more points, so that no probe lies on a degenerate hull,
    # where the rounding of alpha z + beta alone can move it off the hull
    for _ in range(20):
        pts = disk_points(rng, int(rng.integers(3, 9)))
        centre = pts.mean()
        probes = [centre, *(centre + 1.5 * (pts - centre)), 2.0 + 0j]
        for z in probes:
            assert in_convex_hull(alpha * z + beta, alpha * pts + beta) == in_convex_hull(z, pts)
    # outside by half the segment's length, at any scale
    for seg_scale in (1.0, 1e-9):
        assert not in_convex_hull(1.5 * seg_scale, [0.0, seg_scale])
        assert in_convex_hull(0.5 * seg_scale, [0.0, seg_scale])


@pytest.mark.parametrize("s", [1e-3, 1e-2])
def test_verify_0maximal_rejects_scaled_nonzero_constant(s):
    # |q(0)| = 1e-9 s^4 is far above rounding for z^4 + z + 1e-9, but
    # below an absolute 1e-12
    q = scaled(Polynomial((1e-9, 1.0, 0.0, 0.0, 1.0)), s)
    assert not q.vanishes_at(0.0)
    with pytest.raises(ValueError, match="p\\(0\\) = 0 required"):
        mz.verify_0maximal(q)


@pytest.mark.parametrize("s", [1e2, 1e3])
def test_verify_0maximal_accepts_scaled_rounding_constant(s):
    # a constant term at rounding level, 1e-16 |c_1| s, is above an
    # absolute 1e-12 at these scales
    q = scaled(mz.construct(mz.ZeroMaximalSpec(n=5, theta=0.3, lam=0.5)), s)
    q = Polynomial((1e-16 * abs(q.coeffs[1]) * s, *q.coeffs[1:]))
    assert abs(q.coeffs[0]) > 1e-12 and q.vanishes_at(0.0)
    rep = mz.verify_0maximal(q)
    assert abs(rep.radius / s - 5 ** (-1 / 4)) <= 1e-12
    assert not rep.is_0maximal  # the critical radius is s times the extremal one


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 1.0, 1e3, 1e9])
def test_strict_feasibility_verdicts_are_scale_free(s):
    # HiGHS on M at unit scale (it drops entries below 1e-9): above the
    # band t* > 1e-7 max|M_ij| the verdict on s M must be strict; inside
    # it, either certificate meeting its gate on s M is valid
    strict = 0
    for M in seeded_matrices(np.random.default_rng(2200), 200):
        cert = strict_feasibility(s * M)
        size = np.abs(s * M).max()
        if cert.verdict is Verdict.STRICTLY_FEASIBLE:
            strict += 1
            h = np.array(cert.witness_h)
            assert np.min((s * M @ h).real) == cert.margin > 1e-9 * size
        else:
            assert highs_box_optimum(M) <= 1e-7 * np.abs(M).max()
            assert np.abs(np.array(cert.witness_mu) @ (s * M)).max() == cert.margin <= 1e-8 * size
    assert strict > 100


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("s", [1e-3, 1e-2, 0.1, 1e2, 1e3])
def test_majorization_verdicts_are_scale_free(s, k):
    # on rows not divided by max|Y|, genuine pairs are rejected (s = 1e3,
    # k >= 2) and 3 W is accepted (s = 1e-3, k = 4, 5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = Polynomial.from_roots(s * disk_points(rng, 6))
        W, Z = mj.tuple_W(p, 0.0, k), mj.tuple_Z(p, 0.0, k)
        cert = mj.check_majorization(W, Z)
        assert cert is not None and cert.holds
        assert mj.check_majorization(mj.ProductTuple(tuple(3 * v for v in W.values), 0.0, k), Z) is None
