"""Normal matrices, trace-vector compressions, and submatrix spectra.

The discrete Fourier unitary turns diag(roots) into a normal matrix whose
every degeneracy-one principal submatrix has characteristic polynomial
proportional to the derivative: deleting a row and column differentiates
the spectrum.  Spectral variation, Gauss-Lucas weights, and interlacing
ratios quantify how submatrix spectra sit inside the parent spectrum.
Submatrix spectra come from the Gauss-Lucas partial-fraction identity on
one Schur form; char_poly serves the differentiator identity itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .lp import flapack, in_convex_hull
from . import metrics, poly
from .poly import Polynomial, cluster_indices

NORMALITY_TOL = 1e-11  # as_normal: Schur departure relative to max(departure, max |lambda|)
COMPRESSION_TOL = 1e-8  # compression_spectrum groups the parent spectrum at this distance
INTERLACE_TOL = 1e-6  # interlace_ratios groups the parent spectrum at this distance


@dataclass(frozen=True, eq=False)
class NormalMatrix:
    """A matrix or a stack (..., n, n) with its certificate of normality
    from as_normal, the Schur form A = Z T Z* of each matrix: eigenvalues
    (..., n), the diagonal of T; Z (..., n, n), an orthonormal eigenbasis;
    departure (...), max |T_ij| over i < j.  Equality is identity."""

    entries: np.ndarray
    eigenvalues: np.ndarray
    Z: np.ndarray
    departure: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[-1]


def _unsorted(z) -> None:
    """zgees's eigenvalue-selection callback, unused: the form is unsorted."""


@lru_cache(maxsize=poly.MAX_DEGREE)
def _zgees_lwork(n: int) -> int:
    """zgees's workspace size at order n, which depends on n alone."""
    return int(flapack().zgees(_unsorted, np.zeros((n, n), dtype=complex), lwork=-1)[-2][0].real)


def as_normal(matrix) -> NormalMatrix:
    """A matrix, or a stack (..., n, n) of one order, certified normal by
    one complex Schur form A = Z T Z* per matrix (the zgees call of
    scipy.linalg.schur(output="complex") without its wrapper, with the
    workspace size of its order).  The only normality rule: the departure
    max_{i<j} |T_ij| (Henrici) is at most NORMALITY_TOL times
    max(departure, max |lambda|), else, or on a non-finite entry,
    ValueError names the normality check.  LAPACK is loaded on the first
    call (lp.flapack): CLI commands without a Schur form skip it."""
    A = np.asarray(matrix, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("square matrix required")
    if not np.isfinite(A).all():
        raise ValueError("normality check: matrix has non-finite entries")
    n = A.shape[-1]
    stack = A.reshape(-1, n, n)
    T, Z = np.empty_like(stack), np.empty_like(stack)
    lwork, zgees = _zgees_lwork(n), flapack().zgees
    for k, M in enumerate(stack):
        T[k], _, _, Z[k], _, info = zgees(_unsorted, M, lwork=lwork)
        if info != 0:
            raise ValueError(f"eigendecomposition failed: zgees returned info = {info}")
    lam = np.diagonal(T, axis1=1, axis2=2).copy()
    departure = np.abs(np.triu(T, 1)).max(axis=(1, 2))
    bound = NORMALITY_TOL * np.maximum(departure, np.abs(lam).max(axis=1))
    if (departure > bound).any():
        k = int(np.argmax(departure > bound))
        where = f" (matrix {k} of the stack)" if A.ndim > 2 else ""
        raise ValueError(f"normality check: Schur departure {departure[k]:.3e} exceeds the bound {bound[k]:.3e}{where}")
    return NormalMatrix(A, lam.reshape(A.shape[:-1]), Z.reshape(A.shape), departure.reshape(A.shape[:-2])[()])


def dft_unitary(n: int) -> np.ndarray:
    """u_{ij} = eta^{ij} / sqrt(n), eta = exp(2 pi i / n), 1-based exponents.

    Each column is a trace vector for any matrix diagonal in the standard
    basis; the matrix is symmetric and unitary, built afresh on each call.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    k = np.arange(1, n + 1)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _diagonal(r: np.ndarray) -> np.ndarray:
    """diag(r) of each root set r (..., n), n >= 2."""
    n = r.shape[-1] if r.ndim else 0
    if n < 2:
        raise ValueError("need at least two eigenvalues")
    D = np.zeros(r.shape + (n,), dtype=complex)
    D[..., range(n), range(n)] = r
    return D


def fourier_entries(roots) -> np.ndarray:
    """U* diag(roots) U with the Fourier unitary, uncertified, for one root
    set or a stack (k, n), bit for bit each set's alone.  Every standard
    basis vector is a trace vector, so deleting any row/column pair
    compresses the spectrum onto the critical points of the
    characteristic polynomial."""
    D = _diagonal(np.asarray(roots, dtype=complex))
    U = dft_unitary(D.shape[-1])
    return U.conj().T @ D @ U


def normal_from_roots(roots) -> NormalMatrix:
    """fourier_entries(roots), certified by as_normal: one matrix or a
    stack."""
    return as_normal(fourier_entries(roots))


def random_normal(roots, seed) -> NormalMatrix:
    """V diag(roots) V* with a Haar-ish unitary V from a seeded Gaussian
    QR, certified by as_normal: one root set (n,) with one seed, or a
    stack of root sets (k, n) with one seed each, each matrix bit for bit
    that of its seed alone.

    Deterministic per seed; the R-diagonal phase fix makes the QR output
    unique, so identical seeds give identical matrices.
    """
    D = _diagonal(np.asarray(roots, dtype=complex))
    G, n = np.empty_like(D), D.shape[-1]
    for k, s in np.ndenumerate(np.reshape(seed, D.shape[:-2])):
        rng = np.random.default_rng(int(s))
        G[k] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    V = Q * (d / np.abs(d))[..., None, :]
    return as_normal(V @ D @ V.conj().swapaxes(-1, -2))


def char_poly(M):
    """Coefficients of det(M - z I) by the Faddeev-LeVerrier recursion over a
    stack (..., n, n), n capped at poly.MAX_DEGREE: a Polynomial for one
    matrix, ascending rows (..., n + 1) for a stack, bit for bit the
    one-matrix recursion's.  Non-finite entries or coefficients raise ValueError."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("square matrix required")
    n = M.shape[-1]
    if n > poly.MAX_DEGREE:
        raise ValueError(f"matrix order {n} exceeds char_poly cap {poly.MAX_DEGREE}")
    if not np.isfinite(M).all():
        raise ValueError("char_poly: matrix has non-finite entries")
    # det(zI - M) = z^n + c[1] z^{n-1} + ... + c[n]
    c = np.zeros(M.shape[:-2] + (n + 1,), dtype=complex)
    c[..., 0] = 1.0
    Mk = np.zeros(M.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            Mk.reshape(M.shape[:-2] + (n * n,))[..., :: n + 1] += c[..., k - 1, None]
            Mk = M @ Mk
            c[..., k] = -np.trace(Mk, axis1=-2, axis2=-1) / k
    if not np.isfinite(c).all():
        raise ValueError("char_poly: coefficients overflow")
    ascending = c[..., ::-1] * (-1.0) ** n
    return Polynomial(tuple(ascending)) if M.ndim == 2 else ascending


def principal_submatrix(M, i: int) -> np.ndarray:
    M = np.asarray(M)
    _check_index("principal_submatrix", M.shape[0], i)
    return np.delete(np.delete(M, i, axis=0), i, axis=1)


@dataclass(frozen=True)
class SpectrumPair:
    """Parent spectrum and the spectrum after deleting one row/column."""

    eig_full: tuple[complex, ...]
    eig_sub: tuple[complex, ...]
    source_index: int


class CompressionSpectrumError(ValueError):
    """A free eigenvalue of a compression failed its backward-error check
    in the final Newton polish; carries the point, residual and budget."""

    def __init__(self, point: complex, residual: float, budget: float):
        super().__init__(
            f"compression free-zero polish: residual {residual:.3e} exceeds "
            f"budget {budget:.3e} at z = {point:.6g}"
        )
        self.point = point
        self.residual = residual
        self.budget = budget


def _spectral_scale(lam: np.ndarray) -> np.ndarray:
    """max |lambda| = ||A||_2 of a normal A from its eigenvalues (..., n),
    or 1 for the zero matrix."""
    s = np.abs(lam).max(axis=-1)
    return np.where(s > 0.0, s, 1.0)


def _row_groups(keys: np.ndarray):
    """(key, rows) for each distinct value of keys (k,), rows ascending."""
    for key in sorted(set(keys.tolist())):
        yield key, (keys == key).nonzero()[0]


def _parent_clusters(lam: np.ndarray, Z: np.ndarray, i, tol: float) -> list:
    """Distinct eigenvalues of each Schur form of a stack, lam (k, n) and
    Z (k, n, n), at tol relative to max |lambda|: per number K of them,
    the rows that have K, their lex-sorted centroids mu, multiplicities
    and aggregated Gauss-Lucas weights W for index i (one per row, or
    one for all), each (rows, K).
    A stacked screen sends only rows with two eigenvalues closer than
    tol through cluster_indices; the others are their own clusters."""
    k, n = lam.shape
    thr = tol * _spectral_scale(lam)
    label = np.tile(np.arange(n), (k, 1))
    near = np.abs(lam[:, :, None] - lam[:, None, :]) < thr[:, None, None]
    near[:, range(n), range(n)] = False
    for r in near.any(axis=(1, 2)).nonzero()[0]:
        for c, g in enumerate(cluster_indices(lam[r], thr[r])):
            label[r, g] = c
    flat = (label + n * np.arange(k)[:, None]).ravel()

    def per_label(weights=None) -> np.ndarray:
        return np.bincount(flat, weights, minlength=k * n).reshape(k, n)

    mult, re, im = per_label(), per_label(lam.real.ravel()), per_label(lam.imag.ravel())
    W = per_label((np.abs(Z[np.arange(k), i, :]) ** 2).ravel())
    groups = []
    for size, rows in _row_groups(label.max(axis=1) + 1):
        mu = (re[rows, :size] + 1j * im[rows, :size]) / mult[rows, :size]
        lex = partial(np.take_along_axis, indices=poly._lex_argsort(mu), axis=1)
        groups.append((rows, lex(mu), lex(mult[rows, :size]), lex(W[rows, :size])))
    return groups


def _pf(mu: np.ndarray, W: np.ndarray, x: np.ndarray, k: int):
    """Taylor values of f(z) = sum W / (z - mu) over a stack, mu and W
    (..., K), at the points x (..., J):
    t_j(x) = f^(j)(x) / j! = (-1)^j sum W / (x - mu)^(j+1) for j = 0..k,
    with the backward-error budget of each value,
    gamma_j * (sum W |x-mu|^(-j-1) + (|x| + |mu|) sum W |x-mu|^(-j-2)),
    both (k + 1, ..., J), each row bit for bit the row on its own."""
    inv = 1.0 / (x[..., :, None] - mu[..., None, :])
    w = W[..., None, :] * (1.0 + (np.abs(x)[..., :, None] + np.abs(mu)[..., None, :]) * np.abs(inv))
    t = np.empty((k + 1,) + x.shape, dtype=complex)
    b = np.empty((k + 1,) + x.shape)
    Wc = W[..., :, None]
    p = inv
    for j in range(k + 1):
        t[j] = (p @ Wc)[..., 0]
        b[j] = poly._gamma(mu.shape[-1], j) * (np.abs(p) * w).sum(axis=-1)
        p = -p * inv
    return t, b


def _free_zeros(mu: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Free points of each row of a stack of clusters mu, W (g, K): the
    free zeros of f(z) = sum W / (z - mu), then the centres of detached
    clusters, K - 1 points per row.

    A cluster whose weight is too small to move its free zero off mu by a
    representable amount (e_i orthogonal to its eigenspace, up to
    rounding) is detached: it keeps its full multiplicity and leaves f.
    Rows are solved together per number of attached clusters.
    """
    g, K = mu.shape
    rho = np.abs(mu).max(axis=1)
    d = mu[:, :, None] - mu[:, None, :]
    d[:, range(K), range(K)] = np.inf
    attached = W > poly._gamma(K, 0) * rho[:, None] * np.abs(((1.0 / d) @ W[:, :, None])[..., 0])
    if attached.all():
        return _attached_zeros(mu, W)
    free = np.empty((g, K - 1), dtype=complex)
    for size, rows in _row_groups(attached.sum(axis=1)):
        on, m, w = attached[rows], mu[rows], W[rows]
        kept = (len(rows), size)
        free[rows] = np.concatenate(
            [_attached_zeros(m[on].reshape(kept), w[on].reshape(kept)), m[~on].reshape(len(rows), K - size)],
            axis=1,
        )
    return free


def _attached_zeros(mu: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Zeros of f(z) = sum W / (z - mu) over a stack (g, K) of attached
    clusters, (g, K - 1).

    They start as LAPACK eigenvalues of diag(mu) compressed to the
    complement of sqrt(W), whose characteristic polynomial is the
    numerator of f.  One evaluation of _pf at the starts feeds
    poly._resolve_rows, the resolver find_roots uses, whose merges are
    final, and the first step of poly._newton, which polishes every other
    start on f over the stack until each point of its row meets the
    budget of f, or raises CompressionSpectrumError.
    """
    g, K = mu.shape
    if K < 2:
        return np.empty((g, 0), dtype=complex)
    u = np.sqrt(W / W.sum(axis=1, keepdims=True))
    u[:, 0] += 1.0
    Q = np.eye(K)[:, 1:] - u[:, :, None] * u[:, None, 1:] * (2.0 / (u[:, None, :] @ u[:, :, None]))
    z = np.linalg.eigvals((Q.transpose(0, 2, 1) * mu[:, None, :]) @ Q).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, b = _pf(mu, W, z, 1)
    z, merged = poly._resolve_rows(z, t, b, lambda r: partial(_pf, mu[r], W[r]))
    return _polish(mu, W, z, merged, t, b)


def _polish(mu, W, x, keep, t, b) -> np.ndarray:
    """poly._newton on f from the points x (g, J) outside keep, with t, b =
    _pf(mu, W, x, 1) at x; CompressionSpectrumError names the worst free
    point of the first row that misses its budget."""
    x, t, b = poly._newton(x, partial(_pf, mu, W), 1, (t, b), keep)
    bad = ~(np.abs(t[0]) <= b[0]) & ~keep
    if bad.any():
        r = bad.any(axis=1).nonzero()[0][0]
        j = bad[r].nonzero()[0]
        j = j[np.argmax(np.abs(t[0, r, j]) - b[0, r, j])]
        raise CompressionSpectrumError(complex(x[r, j]), float(np.abs(t[0, r, j])), float(b[0, r, j]))
    return x


def _check_index(where: str, n: int, i, cap: int | None = None, one: NormalMatrix | None = None) -> None:
    """ValueError from the function where unless every deletion index i
    (one, or one per matrix) lies in 0..n-1, the order n is within cap,
    and one, if given, is one matrix rather than a stack."""
    if one is not None and one.entries.ndim != 2:
        raise ValueError(f"{where}: one matrix required, got a stack of shape {one.entries.shape}")
    bad = [j for j in np.ravel(i) if not 0 <= j < n]
    if bad:
        raise ValueError(f"{where}: index out of range: i = {bad[0]} for a matrix of order {n}")
    if cap is not None and n > cap:
        raise ValueError(f"{where}: matrix order {n} exceeds compression order cap {cap}")


def _compress(lam: np.ndarray, Z: np.ndarray, i) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (k, n) and compressed spectra (k, n - 1) from the Schur
    forms lam (k, n), Z (k, n, n) of a stack, rows lex-sorted; see
    compression_spectrum."""
    k, n = lam.shape
    full = np.empty((k, n), dtype=complex)
    sub = np.empty((k, n - 1), dtype=complex)
    for rows, mu, mult, W in _parent_clusters(lam, Z, i, COMPRESSION_TOL):
        g, K = mu.shape
        full[rows] = np.repeat(mu.ravel(), mult.ravel()).reshape(g, n)
        forced = np.repeat(mu.ravel(), (mult - 1).ravel()).reshape(g, n - K)
        pts = np.concatenate([forced, _free_zeros(mu, W)], axis=1)
        sub[rows] = np.take_along_axis(pts, poly._lex_argsort(pts), 1)
    return full, sub


def compression_spectra(A: NormalMatrix, i) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of a NormalMatrix, one matrix or a stack (k, n, n), and of
    each matrix with row/column i deleted (one index for all, or one per
    matrix): arrays (k, n) and (k, n - 1), one row per matrix (k = 1 for
    one), in RootSet format (lex-sorted, a multiple eigenvalue as one
    value repeated), each row bit for bit that of its matrix alone
    (compression_spectrum).

    From A's Schur forms, every step of compression_spectrum's method
    runs over the stack: the cluster screen, the Householder compression,
    np.linalg.eigvals, the partial-fraction Taylor values and the Newton
    polish, poly._newton row by row; poly._resolve_multiple runs only on
    the rows with shaky starts.  The stack goes through in the blocks of
    poly._blocks, which bound the temporaries.  Raises
    CompressionSpectrumError as compression_spectrum does.
    """
    n = A.n
    _check_index("compression_spectra", n, i, poly.MAX_DEGREE)
    lam, Z = A.eigenvalues.reshape(-1, n), A.Z.reshape(-1, n, n)
    k = len(lam)
    i = np.broadcast_to(i, k)
    full = np.empty((k, n), dtype=complex)
    sub = np.empty((k, n - 1), dtype=complex)
    for s in poly._blocks(k, n * n):
        full[s], sub[s] = _compress(lam[s], Z[s], i[s])
    return full, sub


def compression_spectrum(A: NormalMatrix, i: int) -> SpectrumPair:
    """Spectra of A and of A with row/column i deleted, in RootSet format
    (lex-sorted, a k-fold eigenvalue as one value repeated k times):
    compression_spectra on the one matrix A.

    Both come from one Schur form A = Z diag(lambda) Z* and the paper's
    Gauss-Lucas identity

        det(zI - A_[i]) / det(zI - A) = sum_j w_j / (z - lambda_j),
        w_j = |Z_ij|^2.

    The parent spectrum is the Schur diagonal of A's certificate (A is
    normal: by Bauer-Fike each eigenvalue has condition number 1).  Cluster the
    parent spectrum at COMPRESSION_TOL relative to max |lambda| =
    ||A||_2, so that s A compresses to s times the spectra of A: a
    cluster mu_k of size m_k with aggregated weight W_k leaves m_k - 1
    forced copies of mu_k in the submatrix (all m_k when W_k vanishes),
    and the other eigenvalues are the free zeros of sum W_k / (z - mu_k),
    found by _free_zeros without forming any characteristic polynomial.
    The submatrix can be defective (the compression of scaled roots of
    unity is nilpotent); its multiple free eigenvalues come back as
    exactly repeated points.  The merges of poly._resolve_multiple alone
    decide their multiplicity: a free eigenvalue next to a forced copy
    stays where it was found, however close.  The order of A is capped at
    poly.MAX_DEGREE.
    """
    _check_index("compression_spectrum", A.n, i, poly.MAX_DEGREE, one=A)
    full, sub = compression_spectra(A, i)
    return SpectrumPair(eig_full=tuple(full[0]), eig_sub=tuple(sub[0]), source_index=i)


def spectral_variation(E1, E2):
    """Directed Hausdorff distance from E1 to E2: a float, or one per row
    for stacks (..., a) and (..., b)."""
    a = np.asarray(E1, dtype=complex)
    b = np.asarray(E2, dtype=complex)
    if a.shape[-1] == 0 or b.shape[-1] == 0:
        raise ValueError("spectral variation needs nonempty spectra")
    s = metrics._nearest(a, b).max(axis=-1)
    return float(s) if s.ndim == 0 else s


def gauss_lucas_weights(A: NormalMatrix, i: int, probes) -> tuple[np.ndarray, float]:
    """Weights |<u_i, e_j>|^2 in the partial-fraction identity

        det(A_[i] - zI) / det(A - zI) = sum_j w_j / (z_j - z),

    plus the max residual of the identity over the probe points.  Weights
    are nonnegative and sum to 1 (row of a unitary), which places every
    submatrix eigenvalue in the convex hull of the parent spectrum.  A
    probe that is not finite or lies near the spectrum raises ValueError.
    """
    _check_index("gauss_lucas_weights", A.n, i, one=A)
    lam, n = A.eigenvalues, A.n
    weights = np.abs(A.Z[i]) ** 2
    sub = principal_submatrix(A.entries, i)
    probes = np.asarray(probes, dtype=complex)
    poly._check_finite("probe", probes)
    worst = 0.0
    for z in probes:
        if np.abs(lam - z).min() < 1e-3 * _spectral_scale(lam):
            raise ValueError(f"probe {z:.6g} too close to the spectrum (within 1e-3 ||A||_2)")
        ratio = np.linalg.det(sub - z * np.eye(n - 1)) / np.linalg.det(A.entries - z * np.eye(n))
        worst = max(worst, abs(ratio - np.sum(weights / (lam - z))))
    return weights, float(worst)


def interlace_ratios(A: NormalMatrix, i):
    """Nonnegative ratios generalizing Cauchy interlacing to normal matrices.

    For each distinct eigenvalue z_k (multiplicity n_k, clustered at
    INTERLACE_TOL relative to max |lambda|) the submatrix keeps forced
    copies of multiplicity n_k - 1; the remaining m-1 free points w_j form
    the ratio prod_j (w_j - z_k) / prod_{l != k} (z_l - z_k), which equals
    the aggregated weight sum |<u_i, e>|^2 over the eigenspace of z_k, >= 0.
    The forced/free split is the one compression_spectrum uses; an
    eigenvalue whose eigenspace is orthogonal to e_i keeps all n_k copies,
    so one of them counts as free and its ratio is 0.  Distinct
    eigenvalues closer than 10 INTERLACE_TOL max |lambda| raise
    ValueError, so the ratios of s A are those of A.

    A is one matrix, with one index i, and gives one array of ratios; or
    a stack (k, n, n), with one index for all or one per matrix, and
    gives a list of k arrays (their lengths are the numbers of distinct
    eigenvalues), each bit for bit that of its matrix alone.  From A's
    Schur forms, in the blocks of poly._blocks: clustering, free zeros
    and ratios over the rows with the same number of distinct
    eigenvalues.  The checks go step by step over a block, the gray zone
    of every matrix before the ratios of any, and each raises the error
    of the first matrix that fails it.
    """
    n = A.n
    _check_index("interlace_ratios", n, i)
    lam_all, Z = A.eigenvalues.reshape(-1, n), A.Z.reshape(-1, n, n)
    k = len(lam_all)
    i = np.broadcast_to(i, k)
    out: list = [None] * k
    for s in poly._blocks(k, n * n):
        lam = lam_all[s]
        groups = _parent_clusters(lam, Z[s], i[s], INTERLACE_TOL)
        # a gap barely above the clustering scale cannot be reliably told
        # apart from a multiplicity, so refuse the gray zone
        gap = 10 * INTERLACE_TOL * _spectral_scale(lam)
        errors = {}
        for rows, mu, _, _ in groups:
            d = np.abs(mu[:, :, None] - mu[:, None, :])
            d[:, range(mu.shape[1]), range(mu.shape[1])] = np.inf
            for r in (d < gap[rows, None, None]).any(axis=(1, 2)).nonzero()[0]:
                near = [g for g in cluster_indices(mu[r], gap[rows[r]]) if len(g) > 1]
                if near:
                    errors[rows[r]] = ValueError(
                        f"clustering ambiguity: distinct eigenvalues {mu[r][near[0]]} closer than {gap[rows[r]]:.1e}"
                    )
        _raise_first(errors)
        for rows, mu, _, W in groups:
            den = mu[:, None, :] - mu[:, :, None]
            den[:, range(mu.shape[1]), range(mu.shape[1])] = 1.0
            val = np.prod(_free_zeros(mu, W)[:, None, :] - mu[:, :, None], axis=-1) / np.prod(den, axis=-1)
            unreal = np.abs(val.imag) > 1e-8 * (1.0 + np.abs(val))
            for r in unreal.any(axis=1).nonzero()[0]:
                errors[rows[r]] = ValueError(f"ratio not numerically real: {complex(val[r][unreal[r]][0])}")
            for r, v in zip(rows, val.real):
                out[s.start + r] = v
        _raise_first(errors)
    return out[0] if A.entries.ndim == 2 else out


def _raise_first(errors: dict) -> None:
    """Raise the error of the first row, if any, of {row: ValueError}."""
    if errors:
        raise errors[min(errors)]


def eigvals_in_hull(pair: SpectrumPair, tol: float = 1e-8) -> bool:
    """Convex-hull containment of the submatrix spectrum in the parent's."""
    return all(in_convex_hull(w, pair.eig_full, tol=tol) for w in pair.eig_sub)
