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
from functools import cached_property, partial

import numpy as np

from .lp import in_convex_hull
from . import poly
from .poly import Polynomial, RootSet, cluster_indices

NORMALITY_TOL = 1e-9  # as_normal: ||A A* - A* A||_max relative to max |A_ij|^2
COMPRESSION_TOL = 1e-8  # compression_spectrum groups the parent spectrum at this distance
INTERLACE_TOL = 1e-6  # interlace_ratios groups the parent spectrum at this distance


@dataclass(frozen=True, eq=False)
class NormalMatrix:
    """Dense complex matrix certified normal at construction; equality is
    identity, since entries is an array."""

    entries: np.ndarray
    normality_residual: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        # one Schur form per matrix serves every deletion index
        return _orthonormal_eigenbasis(self.entries)


def as_normal(matrix) -> NormalMatrix:
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    if not np.isfinite(A).all():
        raise ValueError("normality check: matrix has non-finite entries")
    res = float(np.abs(A @ A.conj().T - A.conj().T @ A).max())
    if res > NORMALITY_TOL * float(np.abs(A).max(initial=0.0)) ** 2:
        raise ValueError(f"matrix is not normal within tolerance: residual {res:.3e}")
    return NormalMatrix(entries=A, normality_residual=res)


def dft_unitary(n: int) -> np.ndarray:
    """u_{ij} = eta^{ij} / sqrt(n), eta = exp(2 pi i / n), 1-based exponents.

    Each column is a trace vector for any matrix diagonal in the standard
    basis; the matrix is symmetric and unitary.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    k = np.arange(1, n + 1)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def normal_from_roots(roots) -> NormalMatrix:
    """U* diag(roots) U with the Fourier unitary.

    Every standard basis vector becomes a trace vector, so deleting any
    row/column pair compresses the spectrum onto the critical points of
    the characteristic polynomial.
    """
    r = np.asarray(roots, dtype=complex)
    if len(r) < 2:
        raise ValueError("need at least two eigenvalues")
    U = dft_unitary(len(r))
    A = U.conj().T @ np.diag(r) @ U
    return as_normal(A)


def random_normal(roots, seed: int) -> NormalMatrix:
    """V* diag(roots) V with a Haar-ish unitary from a seeded Gaussian QR.

    Deterministic per seed; the R-diagonal phase fix makes the QR output
    unique, so identical seeds give identical matrices.
    """
    r = np.asarray(roots, dtype=complex)
    if len(r) < 2:
        raise ValueError("need at least two eigenvalues")
    for attempt in range(2):
        rng = np.random.default_rng(seed + attempt)
        G = rng.standard_normal((len(r), len(r))) + 1j * rng.standard_normal((len(r), len(r)))
        Q, R = np.linalg.qr(G)
        d = np.diagonal(R)
        if np.all(np.abs(d) > 1e-12):
            V = Q * (d / np.abs(d))
            return as_normal(V @ np.diag(r) @ V.conj().T)
    raise RuntimeError("orthonormalization breakdown twice in a row")


def char_poly(M) -> Polynomial:
    """Coefficients of det(M - z I) by the Faddeev-LeVerrier recursion; the
    order of M is capped at poly.MAX_DEGREE."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    n = M.shape[0]
    if n > poly.MAX_DEGREE:
        raise ValueError(f"matrix order {n} exceeds char_poly cap {poly.MAX_DEGREE}")
    # det(zI - M) = z^n + c[1] z^{n-1} + ... + c[n]
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ (Mk + c[k - 1] * np.eye(n))
        c[k] = -np.trace(Mk) / k
    ascending = c[::-1] * (-1.0) ** n
    return Polynomial(tuple(ascending))


def principal_submatrix(M, i: int) -> np.ndarray:
    M = np.asarray(M)
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


def _spectral_scale(A: NormalMatrix) -> float:
    """max |lambda| = ||A||_2 of the normal A, or 1 for the zero matrix."""
    return float(np.abs(A._eigenbasis[0]).max()) or 1.0


def _parent_clusters(A: NormalMatrix, i: int, tol: float):
    """Distinct eigenvalues of A at tol relative to max |lambda| (lex-sorted
    centroids mu), their multiplicities and their aggregated Gauss-Lucas
    weights W for index i, all from the one Schur form of A."""
    lam, Z = A._eigenbasis
    label = np.empty(len(lam), dtype=int)
    for k, g in enumerate(cluster_indices(lam, tol * _spectral_scale(A))):
        label[g] = k
    mult = np.bincount(label)
    mu = (np.bincount(label, lam.real) + 1j * np.bincount(label, lam.imag)) / mult
    W = np.bincount(label, np.abs(Z[i, :]) ** 2)
    order = np.lexsort((mu.imag, mu.real))
    return mu[order], mult[order], W[order]


def _pf(mu: np.ndarray, W: np.ndarray, x: np.ndarray, k: int):
    """Taylor callback of f(z) = sum W / (z - mu) for poly._resolve_multiple:
    t_j(x) = f^(j)(x) / j! = (-1)^j sum W / (x - mu)^(j+1) for j = 0..k,
    with the backward-error budget of each value,
    gamma_j * (sum W |x-mu|^(-j-1) + (|x| + |mu|) sum W |x-mu|^(-j-2))."""
    inv = 1.0 / (x[:, None] - mu)
    w = W * (1.0 + (np.abs(x)[:, None] + np.abs(mu)) * np.abs(inv))
    t = np.empty((k + 1, len(x)), dtype=complex)
    b = np.empty((k + 1, len(x)))
    p = inv
    for j in range(k + 1):
        t[j] = p @ W
        b[j] = poly._gamma(len(mu), j) * (np.abs(p) * w).sum(axis=1)
        p = -p * inv
    return t, b


def _free_zeros(mu: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attached clusters and the free zeros of f(z) = sum W / (z - mu).

    A cluster whose weight is too small to move its free zero off mu by a
    representable amount (e_i orthogonal to its eigenspace, up to
    rounding) is detached: it keeps its full multiplicity and leaves f.
    The free zeros start as LAPACK eigenvalues of diag(mu) compressed to
    the complement of sqrt(W), whose characteristic polynomial is the
    numerator of f.  Starts that stalled around a multiple zero are
    merged by poly._resolve_multiple, the resolver find_roots uses, and
    those merges are final; every other start is polished by Newton on f,
    whose first step reuses the resolver's screen values, until it meets
    the budget of f, or raises CompressionSpectrumError.
    """
    K = len(mu)
    rho = float(np.abs(mu).max())
    d = mu[:, None] - mu
    np.fill_diagonal(d, np.inf)
    attached = W > poly._gamma(K, 0) * rho * np.abs((1.0 / d) @ W)
    mu, W = mu[attached], W[attached]
    K = len(mu)
    if K < 2:
        return attached, np.empty(0, dtype=complex)
    u = np.sqrt(W / W.sum())
    u[0] += 1.0
    Q = np.eye(K)[:, 1:] - u[:, None] * u[1:] * (2.0 / (u @ u))
    z = np.linalg.eigvals((Q.T * mu) @ Q).astype(complex)
    taylor = partial(_pf, mu, W)
    z, done, (t, b) = poly._resolve_multiple(z, taylor)
    rest = np.flatnonzero(~done)
    x, t, b = poly._newton(z[rest], taylor, 1, (t[:, rest], b[:, rest]))
    res, budget = np.abs(t[0]), b[0]
    bad = np.flatnonzero(~(res <= budget))
    if len(bad):
        j = bad[np.argmax(res[bad] - budget[bad])]
        raise CompressionSpectrumError(complex(x[j]), float(res[j]), float(budget[j]))
    z[rest] = x
    return attached, z


def compression_spectrum(A: NormalMatrix, i: int) -> SpectrumPair:
    """Spectra of A and of A with row/column i deleted, in RootSet format
    (lex-sorted, a k-fold eigenvalue as one value repeated k times).

    Both come from one Schur form A = Z diag(lambda) Z* and the paper's
    Gauss-Lucas identity

        det(zI - A_[i]) / det(zI - A) = sum_j w_j / (z - lambda_j),
        w_j = |Z_ij|^2.

    The parent spectrum is the Schur diagonal (A is certified normal, so
    by Bauer-Fike every eigenvalue has condition number 1).  Cluster the
    parent spectrum at COMPRESSION_TOL relative to max |lambda| =
    ||A||_2, so that s A compresses to s times the spectra of A: a
    cluster mu_k of size m_k with aggregated weight W_k leaves m_k - 1
    forced copies of mu_k in the submatrix (all m_k when W_k vanishes),
    and the other eigenvalues are the free zeros of sum W_k / (z - mu_k),
    found by _free_zeros without forming any characteristic polynomial.  The submatrix can be defective
    (the compression of scaled roots of unity is nilpotent); its multiple
    free eigenvalues come back as exactly repeated points.  The merges of
    poly._resolve_multiple alone decide their multiplicity: a free
    eigenvalue next to a forced copy stays where it was found, however
    close.  The order of A is capped at poly.MAX_DEGREE.
    """
    if not 0 <= i < A.n:
        raise ValueError("index out of range")
    if A.n > poly.MAX_DEGREE:
        raise ValueError(f"matrix order {A.n} exceeds compression order cap {poly.MAX_DEGREE}")
    mu, mult, W = _parent_clusters(A, i, COMPRESSION_TOL)
    attached, free = _free_zeros(mu, W)
    forced = np.repeat(mu, np.where(attached, mult - 1, mult))
    full = tuple(np.repeat(mu, mult))
    sub = RootSet.from_points(np.concatenate([forced, free])).points
    return SpectrumPair(eig_full=full, eig_sub=sub, source_index=i)


def spectral_variation(E1, E2) -> float:
    """Directed Hausdorff distance from E1 to E2."""
    a = np.asarray(E1, dtype=complex)
    b = np.asarray(E2, dtype=complex)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("spectral variation needs nonempty spectra")
    return float(np.abs(a[:, None] - b[None, :]).min(axis=1).max())


def spectral_radius(E) -> float:
    return float(np.abs(np.asarray(E, dtype=complex)).max())


def _orthonormal_eigenbasis(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors via the complex Schur form,
    which is diagonal (to 1e-7 of its largest entry) when the matrix is normal."""
    import scipy.linalg  # here, not at module level: CLI commands without a Schur form skip it

    T, Z = scipy.linalg.schur(entries, output="complex")
    off = np.abs(T - np.diag(np.diagonal(T))).max()
    if off > 1e-7 * np.abs(T).max():
        raise ValueError(f"eigendecomposition failed: Schur form not diagonal ({off:.3e})")
    return np.diagonal(T).copy(), Z


def gauss_lucas_weights(A: NormalMatrix, i: int, probes) -> tuple[np.ndarray, float]:
    """Weights |<u_i, e_j>|^2 in the partial-fraction identity

        det(A_[i] - zI) / det(A - zI) = sum_j w_j / (z_j - z),

    plus the max residual of the identity over the probe points.  Weights
    are nonnegative and sum to 1 (row of a unitary), which places every
    submatrix eigenvalue in the convex hull of the parent spectrum.
    """
    if not 0 <= i < A.n:
        raise ValueError("index out of range")
    eigvals, Z = A._eigenbasis
    weights = np.abs(Z[i, :]) ** 2
    sub = principal_submatrix(A.entries, i)
    n = A.n
    worst = 0.0
    for z in np.asarray(probes, dtype=complex):
        if np.abs(eigvals - z).min() < 1e-3 * _spectral_scale(A):
            raise ValueError(f"probe {z:.6g} too close to the spectrum (within 1e-3 ||A||_2)")
        ratio = np.linalg.det(sub - z * np.eye(n - 1)) / np.linalg.det(
            A.entries - z * np.eye(n)
        )
        worst = max(worst, abs(ratio - np.sum(weights / (eigvals - z))))
    return weights, float(worst)


def interlace_ratios(A: NormalMatrix, i: int) -> np.ndarray:
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
    """
    if not 0 <= i < A.n:
        raise ValueError("index out of range")
    centers, _, W = _parent_clusters(A, i, INTERLACE_TOL)
    m = len(centers)
    # a gap barely above the clustering scale cannot be reliably told
    # apart from a multiplicity, so refuse the gray zone
    gap = 10 * INTERLACE_TOL * _spectral_scale(A)
    near = [g for g in cluster_indices(centers, gap) if len(g) > 1]
    if near:
        raise ValueError(
            f"clustering ambiguity: distinct eigenvalues {centers[near[0]]} "
            f"closer than {gap:.1e}"
        )
    attached, free = _free_zeros(centers, W)
    free = np.concatenate([free, centers[~attached]])
    out = np.empty(m)
    for k, zk in enumerate(centers):
        num = np.prod(free - zk)
        den = np.prod(np.delete(centers, k) - zk)
        val = complex(num) / complex(den)
        if abs(val.imag) > 1e-8 * (1.0 + abs(val)):
            raise ValueError(f"ratio not numerically real: {val}")
        out[k] = val.real
    return out

def eigvals_in_hull(pair: SpectrumPair, tol: float = 1e-8) -> bool:
    """Convex-hull containment of the submatrix spectrum in the parent's."""
    return all(in_convex_hull(w, pair.eig_full, tol=tol) for w in pair.eig_sub)


def collinear(points) -> bool:
    """Best-fit-line residual test: the smallest singular value of the
    centered data is at most 1e-9 times the largest."""
    pts = np.asarray(points, dtype=complex)
    xy = np.column_stack([pts.real, pts.imag])
    sv = np.linalg.svd(xy - xy.mean(axis=0), compute_uv=False)
    return bool(sv[-1] <= 1e-9 * sv[0])
