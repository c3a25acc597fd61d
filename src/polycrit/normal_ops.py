"""Normal matrices, trace-vector compressions, and submatrix spectra.

The discrete Fourier unitary turns diag(roots) into a normal matrix whose
every degeneracy-one principal submatrix has characteristic polynomial
proportional to the derivative: deleting a row and column differentiates
the spectrum.  Spectral variation, Gauss-Lucas weights, and interlacing
ratios quantify how submatrix spectra sit inside the parent spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lp import in_convex_hull
from .metrics import bottleneck_assignment
from .poly import Polynomial, RootSet, cluster_points

NORMALITY_TOL = 1e-9
CHAR_POLY_MAX = 32


@dataclass(frozen=True)
class NormalMatrix:
    """Dense complex matrix certified normal at construction."""

    entries: np.ndarray
    normality_residual: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def as_normal(matrix, tol: float = NORMALITY_TOL) -> NormalMatrix:
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    res = float(np.abs(A @ A.conj().T - A.conj().T @ A).max())
    if res > tol:
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
    """Coefficients of det(M - z I) by the Faddeev-LeVerrier recursion."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    n = M.shape[0]
    if n > CHAR_POLY_MAX:
        raise ValueError(f"matrix order {n} exceeds char_poly cap {CHAR_POLY_MAX}")
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


def compression_spectrum(A: NormalMatrix, i: int) -> SpectrumPair:
    """Spectra of A and of A with row/column i deleted, in RootSet format
    (lex-sorted, a k-fold eigenvalue as its cluster centroid repeated k
    times).

    The parent spectrum comes from LAPACK: A is certified normal, so by
    Bauer-Fike every eigenvalue, multiple ones included, has condition
    number 1 and a backward-stable eigensolver is as accurate as the
    spectrum allows.  The submatrix need not be normal and can be
    defective (the compression of scaled roots of unity is nilpotent);
    there an eigensolver splits an m-fold eigenvalue into a ring of radius
    about eps^(1/m), so that spectrum goes through the characteristic
    polynomial and the root finder, whose polish restores multiplicities.
    The order of A stays capped at CHAR_POLY_MAX, as when both spectra
    went through char_poly, so the accepted orders do not change.
    """
    if not 0 <= i < A.n:
        raise ValueError("index out of range")
    if A.n > CHAR_POLY_MAX:
        raise ValueError(f"matrix order {A.n} exceeds char_poly cap {CHAR_POLY_MAX}")
    full = RootSet.from_points(np.linalg.eigvals(A.entries)).points
    sub = char_poly(principal_submatrix(A.entries, i)).find_roots().points
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


def _orthonormal_eigenbasis(A: NormalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors via the complex Schur form,
    which is diagonal exactly when the matrix is normal."""
    T, Z = scipy.linalg.schur(A.entries, output="complex")
    off = np.abs(T - np.diag(np.diagonal(T))).max()
    if off > 1e-7:
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
    eigvals, Z = _orthonormal_eigenbasis(A)
    weights = np.abs(Z[i, :]) ** 2
    sub = principal_submatrix(A.entries, i)
    n = A.n
    worst = 0.0
    for z in np.asarray(probes, dtype=complex):
        if np.abs(eigvals - z).min() < 1e-3:
            raise ValueError("probe too close to the spectrum")
        ratio = np.linalg.det(sub - z * np.eye(n - 1)) / np.linalg.det(
            A.entries - z * np.eye(n)
        )
        worst = max(worst, abs(ratio - np.sum(weights / (eigvals - z))))
    return weights, float(worst)


def interlace_ratios(A: NormalMatrix, i: int, cluster_tol: float = 1e-6) -> np.ndarray:
    """Nonnegative ratios generalizing Cauchy interlacing to normal matrices.

    For each distinct eigenvalue z_k (multiplicity n_k) the submatrix keeps
    forced copies of multiplicity n_k - 1; the remaining m-1 free points
    w_j form the ratio prod_j (w_j - z_k) / prod_{l != k} (z_l - z_k),
    which equals n_k |<u_i, e_k>|^2 >= 0.
    """
    pair = compression_spectrum(A, i)
    clusters = cluster_points(pair.eig_full, cluster_tol)
    centers = [c for c, _ in clusters]
    mults = [m for _, m in clusters]
    if len(centers) > 1:
        gaps = [
            abs(centers[a] - centers[b])
            for a in range(len(centers))
            for b in range(a + 1, len(centers))
        ]
        # a gap barely above the clustering scale cannot be reliably told
        # apart from a multiplicity, so refuse the gray zone
        if min(gaps) < 10 * cluster_tol:
            raise ValueError(f"clustering ambiguity: distinct eigenvalue gap {min(gaps):.3e}")
    forced: list[complex] = []
    for c, m in zip(centers, mults):
        forced.extend([c] * (m - 1))
    sub = list(pair.eig_sub)
    free = sub
    if forced:
        # peel the forced copies off the submatrix spectrum (bottleneck matching)
        matched, assignment = bottleneck_assignment(forced, sub)
        if matched > 1e2 * cluster_tol:
            raise ValueError(f"forced multiplicities not visible in submatrix ({matched:.3e})")
        taken = set(assignment)
        free = [w for j, w in enumerate(sub) if j not in taken]
    m = len(centers)
    out = np.empty(m)
    for k, (zk, nk) in enumerate(zip(centers, mults)):
        num = np.prod([wf - zk for wf in free]) if free else 1.0
        den = np.prod([centers[l] - zk for l in range(m) if l != k]) if m > 1 else 1.0
        val = complex(num) / complex(den)
        if abs(val.imag) > 1e-8 * (1.0 + abs(val)):
            raise ValueError(f"ratio not numerically real: {val}")
        out[k] = val.real
    return out


def eigvals_in_hull(pair: SpectrumPair, tol: float = 1e-8) -> bool:
    """Convex-hull containment of the submatrix spectrum in the parent's."""
    return all(in_convex_hull(w, pair.eig_full, tol=tol) for w in pair.eig_sub)


def collinear(points, tol: float = 1e-9) -> bool:
    """Best-fit-line residual test (smallest singular value of centered data)."""
    pts = np.asarray(points, dtype=complex)
    xy = np.column_stack([pts.real, pts.imag])
    xy = xy - xy.mean(axis=0)
    sv = np.linalg.svd(xy, compute_uv=False)
    scale = 1.0 + sv[0]
    return bool(sv[-1] <= tol * scale)
