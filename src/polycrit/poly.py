"""Dense complex polynomials and a simultaneous root finder.

Coefficients are stored in ascending degree order with the leading
coefficient explicit, so derivatives (leading coefficient n) and scaled
families sit beside monic polynomials without special cases.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

LEADING_TOL = 1e-14
MAX_DEGREE = 64
ABERTH_MAX_ITER = 500
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_NEWTON_MAX = 60
_SHAKY = 1e-3  # a point whose Newton step exceeds this share of its gap may be multiple
_BLOCK_ENTRIES = 4096  # stacks go through in blocks of about this many (point, point) or matrix entries
_BINOM = np.array([[math.comb(i, j) for j in range(MAX_DEGREE + 1)] for i in range(MAX_DEGREE + 1)], dtype=float)


class RootFindingError(RuntimeError):
    """Roots failed their backward-error certificate; carries the best iterate."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.best = best
        self.residual = residual


def _lex_argsort(z: np.ndarray) -> np.ndarray:
    """Indices that sort each row of z (..., J) by (re, im), stably: the RootSet order."""
    return np.lexsort((z.imag, z.real), axis=-1)


def _blocks(count: int, entries: int) -> list[slice]:
    """Slices of range(count) in blocks of about _BLOCK_ENTRIES entries, each
    item holding the given number of entries; one item at least per block."""
    step = max(1, _BLOCK_ENTRIES // entries)
    return [slice(s, s + step) for s in range(0, count, step)]


def disk_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded points uniform in the closed unit disk.

    Rejection from the square: candidates are uniform(-1, 1) pairs (x, y),
    kept when x^2 + y^2 <= 1.  The k missing points take at least k more
    candidates, drawn in one rng.uniform(-1, 1, (k, 2)) call, so the points
    and the generator's state are those of one draw per candidate, which
    suite corpora and generated files depend on.
    """
    pts = np.empty(0, dtype=complex)
    while len(pts) < n:
        xy = rng.uniform(-1.0, 1.0, (n - len(pts), 2))
        x, y = xy.T
        pts = np.concatenate([pts, xy[x * x + y * y <= 1.0].view(complex)[:, 0]])
    return pts


def cluster_indices(points, tol: float) -> list[list[int]]:
    """Index groups of points whose pairwise chains stay within tol.

    Transitive closure is intentional: a chain of nearby iterates coming
    from one multiple root must land in a single cluster.  Each group is
    the sorted leaves of one tree of the _single_linkage forest at tol,
    and the groups are ordered by their first index.
    """
    return sorted(sorted(_leaves(tree)) for tree in _single_linkage(points, tol))


def _check_finite(what: str, values) -> None:
    """ValueError naming the index and value of the first non-finite value."""
    bad = [k for k, v in enumerate(values) if not cmath.isfinite(v)]
    if bad:
        raise ValueError(f"{what} {bad[0]} is not finite: {values[bad[0]]}")


def _gamma(n: int, k):
    """Rounding factor of the k-th Taylor coefficient of a degree-n
    polynomial or of a sum over n poles (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 5.1, with room for the Taylor weights);
    elementwise for an array of orders k."""
    return 4.0 * (n + 2 * k + 4) * _EPS


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of an ascending-coefficient polynomial at once, or of each
    row of a stack (k, n + 1) of one degree: roots (k, n), 1-D being one row.

    Aberth-Ehrlich simultaneous iteration.  Initial guesses sit on a circle
    of radius 1 + max_k |a_{n-k}/a_n|^{1/k}, rotated by a fixed offset so
    symmetric root configurations cannot stall the iteration.  A row stops
    one step after every iterate z meets the backward-error bound |p(z)| <=
    gamma_0 * sum |a_k| |z|^k, which makes z an exact root of a polynomial
    within rounding of p.  The iterates of an m-fold root stall on a ring
    of radius about eps^(1/m); find_roots merges them (_resolve_multiple).
    A row takes at most ABERTH_MAX_ITER steps, read at each call.  The
    iteration is elementwise over the points, and the stopping rule, the
    nudge off a vanishing derivative and the step count are per row, so
    each row of a stack gets bit for bit the roots of a call on it alone.
    """
    c = np.asarray(coeffs, dtype=complex)
    deg = c.shape[-1] - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    if deg == 1:
        return -c[..., :1] / c[..., 1:]
    shape = c.shape[:-1] + (deg,)
    c = c.reshape(-1, deg + 1)
    c = c / c[:, -1:]
    # |a_(n-k)|^(1/k) by Python's abs and pow, which numpy's vector loops
    # for them may not match to the last bit
    rows = c.tolist()
    radius = np.array([1.0 + max(abs(a) ** (1.0 / k) for k, a in enumerate(row[-2::-1], 1)) for row in rows])
    z = radius[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))
    out = np.empty_like(z)
    live = np.arange(len(c))  # the rows still iterating; z holds their iterates
    taylor = _poly_taylor(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            (pv, dv), (budget, _) = taylor(z, 1)
            met = np.all(np.abs(pv) <= budget, axis=1)
            newton = pv / dv
            diff = z[:, :, None] - z[:, None, :]
            diff.reshape(len(z), -1)[:, :: deg + 1] = np.inf
            repulsion = (1.0 / diff).sum(axis=2)
            denom = 1.0 - newton * repulsion
            denom = np.where(np.abs(denom) < 1e-280, 1e-280, denom)
            step = z - newton / denom
            small = np.abs(dv) < 1e-280
            if small.any():  # a row with a vanishing derivative takes a nudge, not a step
                stuck = small.any(axis=1)
                step[stuck] = np.where(small[stuck], z[stuck] * (1 + 1e-9) + 1e-9, z[stuck])
                met &= ~stuck
            z = step
            if met.any():
                out[live[met]] = z[met]
                live, z = live[~met], z[~met]
                if not len(live):
                    break
                taylor = _poly_taylor(c[live])
    out[live] = z
    return out.reshape(shape)


def _leja_order(points: np.ndarray) -> np.ndarray:
    """Leja ordering of each row of a stack (k, n), 1-D being one row: the
    point of largest modulus first, then each next point maximises the
    product of its distances to those already taken.  The scores are sums
    of log distances, added elementwise in the order a row alone adds
    them, so each row gets the order of a call on it alone."""
    pts = np.atleast_2d(points)
    k, n = pts.shape
    rows = np.arange(k)
    # log |p_a - p_j| at [r, j, a], -inf at a = j: adding row j retires point j
    logd = np.log(np.maximum(np.abs(pts[:, None, :] - pts[:, :, None]), _TINY))
    logd.reshape(k, n * n)[:, :: n + 1] = -np.inf
    order = np.empty((n, k), dtype=int)
    score = np.zeros((k, n))
    j = np.abs(pts).argmax(axis=1)
    for i in range(n):
        order[i] = j
        score += logd[rows, j]
        j = score.argmax(axis=1)
    return order.T.reshape(np.shape(points))


def _expand_roots(points) -> np.ndarray:
    """Ascending coefficients of prod (z - p_i) for each row of a stack of
    points (k, n), (k, n + 1), 1-D being one row: incremental convolution
    in each row's Leja order (Reichel, BIT 1990), which keeps the partial
    products well scaled up to the degree cap.  Each step is one matmul of
    the windows (c_(j-1), c_j) on (1, -p), a stack of length-2 dot
    products, which round as np.convolve(c, [-p, 1]) does, so each row
    gets bit for bit the coefficients of that convolution chain.  A stack
    takes (k, n, n) floats for the Leja scores."""
    pts = np.asarray(points, dtype=complex)
    stack = np.atleast_2d(pts)
    k, n = stack.shape
    taps = np.ones((n, k, 1, 2, 1), dtype=complex)  # step m: (1, -p) for the m-th point in Leja order
    taps[:, :, 0, 1, 0] = -stack[np.arange(k)[:, None], _leja_order(stack)].T
    buf = np.zeros((k, n + 2), dtype=complex)  # 0, c_0, ..., c_n
    buf[:, 1] = 1.0
    item = buf.itemsize  # windows[r, j] = (c_(j-1), c_j), a read-only view of buf
    windows = as_strided(buf, (k, n + 1, 1, 2), (buf.strides[0], item, 0, item), writeable=False)
    for m in range(1, n + 1):
        buf[:, 1 : m + 2] = (windows[:, : m + 1] @ taps[m - 1])[..., 0, 0]
    return buf[:, 1:].reshape(pts.shape[:-1] + (n + 1,))


def _poly_taylor(coeffs: np.ndarray):
    """Taylor callback of a polynomial, or of each row of a stack (k, n + 1)
    of one degree at points x (k, J): orders 0..k <= n of t_j(x) = p^(j)(x)
    / j! = sum_i R[j, i] x^i on the rows R[j, i] = C(i+j, j) c_(i+j), zero
    above degree n - j, and their budgets gamma_j * sum_i |R[j, i]| |x|^i +
    tiny, each (k + 1,) + x.shape.  One Horner pass over the columns of R
    and |R| gives every order and budget, bit for bit the per-order values:
    at finite x the padding adds 0 x + 0 = 0, and complex arithmetic on
    real |R| and |x| rounds as real.  The pass is elementwise, so a row of
    a stack gets the values of its own callback."""
    n = coeffs.shape[-1] - 1
    R = np.zeros(coeffs.shape[:-1] + (n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        R[..., j, : n + 1 - j] = coeffs[..., j:] * _BINOM[j : n + 1, j]
    cols = np.empty((n + 1, 2) + R.shape[-2::-1], dtype=complex)  # cols[i] = (R[:, i], |R[:, i]|)
    cols[:, 0] = R.T
    cols[:, 1] = np.abs(R.T)
    gamma = _gamma(n, np.arange(n + 1.0)).reshape((n + 1,) + (1,) * coeffs.ndim)

    def taylor(x: np.ndarray, k: int):
        pts = np.empty((2, 1) + x.shape, dtype=complex)
        pts[0, 0] = x
        pts[1, 0] = np.abs(x)
        out = np.empty((2, k + 1) + x.shape, dtype=complex)
        out[...] = cols[n, :, : k + 1, ..., None]
        for col in cols[-2::-1, :, : k + 1, ..., None]:
            out *= pts
            out += col
        return out[0], gamma[: k + 1] * out[1].real + _TINY

    return taylor


def _newton(x: np.ndarray, taylor, m: int, first=None, keep=None):
    """Newton on f^(m-1), where an m-fold zero of f is simple, from the
    points x (..., J) row by row (1-D: one row): each step moves the points
    of a row outside the mask keep, until each of them meets its budget on
    |t_(m-1)|, or for _NEWTON_MAX steps.  taylor(x, k) gives t_j(x) =
    f^(j)(x) / j!, j = 0..k, and their budgets, each (k + 1,) + x.shape;
    first, if given, is taylor(x, m) at the starts.  Returns the points
    with the Taylor orders 0..m and budgets there."""
    hold = False if keep is None else keep
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_NEWTON_MAX + 1):
            t, b = taylor(x, m) if it or first is None else first
            done = ((np.abs(t[m - 1]) <= b[m - 1]) | hold).all(axis=-1, keepdims=True)
            if it == _NEWTON_MAX or done.all():
                break
            x = np.where(done | hold, x, x - t[m - 1] / (m * t[m]))
    return x, t, b


def _single_linkage(points, tol: float = math.inf) -> list:
    """Single-linkage merge forest of the points from the pairwise
    distances shorter than tol: a leaf is a point index, an inner node the
    pair of subtrees joined at the next-shortest distance (ties broken by
    the index pair).  At the default tol, finite points form one tree."""
    pts = [complex(p) for p in points]
    n = len(pts)
    edges = sorted(
        (d, i, j) for i in range(n) for j in range(i + 1, n) if (d := abs(pts[i] - pts[j])) < tol
    )
    owner = list(range(n))
    trees: dict[int, object] = {j: j for j in range(n)}
    for _, i, j in edges:
        if len(trees) == 1:
            break
        a, b = owner[i], owner[j]
        if a != b:
            trees[a] = (trees[a], trees.pop(b))
            owner = [a if o == b else o for o in owner]
    return list(trees.values())


def _leaves(tree) -> list[int]:
    return [tree] if isinstance(tree, int) else _leaves(tree[0]) + _leaves(tree[1])


def _shaky(z: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the points of z (..., J), with Taylor orders 0 and 1 and
    their budgets t, b (2, ..., J), whose Newton step, at least the
    rounding level max(|t_0|, budget_0) / |t_1|, is not small against
    their gap to the other points of their row."""
    step = np.maximum(np.abs(t[0]), b[0]) / np.abs(t[1])
    gaps = np.abs(z[..., :, None] - z[..., None, :])
    J = z.shape[-1]
    gaps[..., range(J), range(J)] = np.inf
    return ~(step <= _SHAKY * gaps.min(axis=-1))


def _resolve_multiple(z: np.ndarray, shaky: np.ndarray, taylor):
    """Merge the points of z that stalled around a multiple zero of f.

    taylor(x, k) returns t_j(x) = f^(j)(x) / j! for j = 0..k and their
    backward-error budgets.  shaky, the screen of _resolve_rows, masks the
    points that may be part of a multiple zero; they are merged top-down
    along their single-linkage tree: an m-fold merge is Newton on f^(m-1)
    from the centroid, accepted when t_0..t_(m-1) all meet their budgets
    and the zero lies within the cloud's diameter (or twice the m-fold
    Newton step at a collapsed cloud); one more Newton step sets the merged
    point.  These merges are final: no caller moves or merges a returned
    point again.  Returns the points, merged ones exactly repeated, and
    the mask of merged ones.
    """
    z = np.array(z, dtype=complex)
    done = np.zeros(len(z), dtype=bool)
    shaky = np.flatnonzero(shaky)

    def merge(tree) -> None:
        idx = shaky[_leaves(tree)]
        m = len(idx)
        if m == 1:
            return
        centroid = z[idx].mean()
        tc = taylor(np.array([centroid]), 1)[0][:, 0]
        x, t, b = _newton(np.array([centroid]), taylor, m)
        diameter = np.abs(z[idx, None] - z[idx]).max()
        # reach max(diameter, 2m |t_0 / t_1|), scaled by |t_1| so t_1 = 0 needs no care
        reach = max(diameter * abs(tc[1]), 2 * m * abs(tc[0]))
        if abs(x[0] - centroid) * abs(tc[1]) <= reach and np.all(np.abs(t[:m, 0]) <= b[:m, 0]):
            last = t[m - 1, 0] / (m * t[m, 0])
            z[idx] = x[0] - last if np.isfinite(last) else x[0]
            done[idx] = True
        else:
            merge(tree[0])
            merge(tree[1])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for tree in _single_linkage(z[shaky]):
            merge(tree)
    return z, done


def _resolve_rows(z: np.ndarray, t: np.ndarray, b: np.ndarray, row_taylor):
    """_resolve_multiple over a stack of points z (k, J) with Taylor orders
    0 and 1 and budgets t, b (2, k, J) there: _shaky screens the stack once,
    and each row r with two or more shaky points, the only rows a merge can
    change, is resolved with the callback row_taylor(r).  Returns
    _resolve_multiple's points and merged mask, each (k, J)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shaky = _shaky(z, t, b)
    z = z.copy()
    merged = np.zeros(z.shape, dtype=bool)
    for r in np.flatnonzero(shaky.sum(axis=-1) > 1):
        z[r], merged[r] = _resolve_multiple(z[r], shaky[r], row_taylor(r))
    return z, merged


@dataclass(frozen=True)
class RootSet:
    """Lex-sorted multiset of complex points: an m-fold point is one value
    repeated exactly m times, as the zero certifier returns it.  cluster_tol
    is not read; perfbench/selftest.py constructs RootSet(points, cluster_tol)."""

    points: tuple[complex, ...]
    cluster_tol: float = 1e-8

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending-degree coefficient tuple.

    Invariants: len(coeffs) == degree + 1, every coefficient is finite,
    and the leading coefficient has magnitude > 1e-14 unless the degree is
    zero.  The instance is frozen,
    so its derivative and roots are computed once and kept; equality and
    hashing see the coefficients only.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        _check_finite("coefficient", coeffs)
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds supported maximum {MAX_DEGREE}")
        if len(coeffs) > 1 and abs(coeffs[-1]) <= LEADING_TOL:
            raise ValueError("leading coefficient vanishes; trim before constructing")

    @classmethod
    def from_roots(cls, points) -> "Polynomial":
        """Monic polynomial with exactly the given roots (with multiplicity),
        expanded by convolution with (z - p) in Leja order."""
        pts = [complex(p) for p in points]
        if not pts:
            raise ValueError("degree zero unsupported: from_roots needs at least one root")
        _check_finite("root", pts)
        return cls(tuple(_expand_roots(pts)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return abs(self.coeffs[-1] - 1.0) <= 1e-12

    def __call__(self, z):
        """p(z) by Horner's rule (np.polyval): an array for an array z, a
        complex for a scalar."""
        arr = np.asarray(z, dtype=complex)
        out = np.polyval(self.coeffs[::-1], arr)
        return out if arr.ndim else complex(out)

    def vanishes_at(self, z: complex) -> bool:
        """|p(z)| <= 1e-10 sum |c_k| rho^k, rho = max(|z|, max_k |c_(n-k)/c_n|^(1/k)):
        unchanged under p -> s^n p(z / s), z -> s z, and met by every root
        find_roots certifies (gamma_0 < 1e-10 up to MAX_DEGREE)."""
        c = np.abs(self.coeffs)
        n = self.degree
        rho = max([abs(complex(z))] + [(c[n - k] / c[n]) ** (1.0 / k) for k in range(1, n + 1)])
        return abs(self(z)) <= 1e-10 * float(np.polyval(c[::-1], rho))

    def derivative(self) -> "Polynomial":
        """Coefficient-wise derivative; degree 0 yields the constant 0.

        Memoized: repeated calls return the same instance, so its own
        memoized roots (the critical points) are found once as well.
        """
        return self._derivative

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(np.array(self.coeffs[1:]) * np.arange(1, self.degree + 1)))

    def nth_derivative(self, k: int) -> "Polynomial":
        p = self
        for _ in range(k):
            p = p.derivative()
        return p

    def scaled(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

    def find_roots(self) -> RootSet:
        """All roots with multiplicity, certified by backward error.

        Aberth iteration runs until every iterate meets the bound
        |p(z)| <= gamma_0 * sum |c_k| |z|^k; iterates stalled around a
        multiple root are merged by Newton on the matching derivative and
        reported as one point repeated.  That merge alone decides
        multiplicity: nearby points it leaves apart are returned apart,
        however close.  Raises RootFindingError unless every returned
        point meets the bound.

        The contract is backward, not forward: each returned point is an
        exact root, and each m-fold point an m-fold root, of one polynomial
        within gamma of p componentwise.  For the roots k/20, k = 1..20, it
        returns 13 points, five of them multiple, up to 8e-2 from the roots.

        The result is memoized on the instance: every call returns the
        same RootSet, which is immutable and shared by all callers.  A
        failure is never cached, so it is raised again on every call.
        One polynomial runs as a stack of one through the code that
        find_roots_batch runs on many of one degree, which fills this memo
        with the same RootSet.
        """
        return self._roots

    @cached_property
    def _roots(self) -> RootSet:
        if self.degree < 1:
            raise ValueError("degree >= 1 required for root finding")
        c = np.array(self.coeffs)
        (roots,) = _certify(c[None], aberth_roots(c)[None])
        if isinstance(roots, RootFindingError):
            raise roots
        return roots


def _certify(c: np.ndarray, z: np.ndarray) -> list:
    """The RootSet of each row of a stack of coefficients c (k, n + 1) from
    its Aberth iterates z (k, n), or the RootFindingError to raise for it.

    One evaluation of orders 0 and 1 at z feeds _resolve_rows, which
    merges multiple roots; then one lex sort (_lex_argsort, the only
    RootSet order) and the backward-error check run over the stack.
    """
    taylor = _poly_taylor(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, b = taylor(z, 1)
    z, _ = _resolve_rows(z, t, b, lambda r: _poly_taylor(c[r]))
    z = np.take_along_axis(z, _lex_argsort(z), axis=-1)
    t, b = taylor(z, 0)
    held = np.all(np.abs(t[0]) <= b[0], axis=-1)
    out = []
    for r, pts in enumerate(z):
        if held[r]:
            out.append(RootSet(tuple(pts)))
            continue
        worst = int(np.argmax(np.abs(t[0, r]) / b[0, r]))
        out.append(RootFindingError(
            f"root {pts[worst]:.6g} does not meet its backward-error bound {b[0, r, worst]:.3e}",
            pts,
            float(abs(t[0, r, worst])),
        ))
    return out


def find_roots_batch(polys) -> None:
    """Certify the roots of many polynomials at once and keep each RootSet
    in its polynomial's memo, where find_roots() returns it.

    The polynomials of one degree go through aberth_roots and the
    certificate of find_roots as one stack, in blocks of about
    _BLOCK_ENTRIES (point, point) pairs, and each gets bit for bit the
    RootSet its own find_roots() computes.  A polynomial whose roots fail
    the certificate keeps no memo, so its own find_roots() raises; those
    of degree 0 and those already memoized are skipped.
    """
    by_degree: dict[int, list[Polynomial]] = {}
    for p in polys:
        if p.degree >= 1 and "_roots" not in p.__dict__:
            by_degree.setdefault(p.degree, []).append(p)
    for n, todo in by_degree.items():
        for s in _blocks(len(todo), n * n):
            block = todo[s]
            c = np.array([p.coeffs for p in block])
            for p, roots in zip(block, _certify(c, aberth_roots(c))):
                if isinstance(roots, RootSet):
                    p.__dict__["_roots"] = roots
