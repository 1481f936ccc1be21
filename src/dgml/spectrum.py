"""Eigenvalues of the two-level error operator and cluster analysis.

Dirichlet error spectra are computed exactly from the 1D operators: the
mesh reflection splits them into even and odd halves, the nonzero spectrum
follows from the coarse-space complement identity (see
``two_level_error_eigenvalues``), and the 2D inverse is applied by
tensor-product fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
1964).  Each 2D Gram block is built from the 1D factors by two GEMMs, and
the swap of the square's axes splits the blocks that pair a half with
itself in two (Bossavit, CMAME 56, 1986).  Periodic error spectra are the
union of the Fourier block symbols' eigenvalues
(``lfa.error_spectrum_symbols``), in 2D the Kronecker products of the 1D
blocks.  Neither path assembles an operator of size ndof; the dense
eigensolve of the assembled operator is the oracle the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lfa
from .discretization import BoundaryCondition, DiscretizationConfig, assemble_1d, check_dense_cap
from .twolevel import MethodParams, Prolongation, smoother_scale


@dataclass(frozen=True)
class Cluster:
    center: complex
    count: int
    radius: float


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    clusters: list[Cluster]


def eigenvalues_dense(M) -> np.ndarray:
    """All eigenvalues of a dense (generally nonsymmetric) matrix; numpy's LinAlgError passes."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    check_dense_cap(A.shape[0])
    return np.linalg.eigvals(A)


def cluster_eigenvalues(eigs, tol: float) -> list[Cluster]:
    """Single-linkage grouping with link distance tol; raises ValueError
    on a value that is not finite.

    Eigenvalues are sorted by (real, imag) first, so the result does not
    depend on input order; clusters are returned sorted the same way.

    Equal values are collapsed (exact repeats, such as Dirichlet structural
    zeros, cost one pair search).  Linked pairs (|x - y| <= tol) are found
    among the neighbours whose real parts are close in the sorted order,
    and components are labelled by their smallest index through min-label
    propagation with pointer jumping.
    """
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    eigs = np.asarray(eigs, dtype=complex)
    bad = eigs.size - np.count_nonzero(np.isfinite(eigs))
    if bad:  # NaN compares false with everything, so it would stand alone
        raise ValueError(f"{bad} of {eigs.size} eigenvalues are not finite")
    n = eigs.size
    if n == 0:
        return []
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    first = np.flatnonzero(np.r_[True, eigs[1:] != eigs[:-1]])  # of each run of equal values
    vals, d = eigs[first], first.size
    # candidates j > i with Re x_j <= Re x_i + 2 tol: the margin keeps rounding
    # in the real parts from dropping a linked pair; the exact test follows
    ends = np.searchsorted(vals.real, vals.real + 2.0 * tol, side="right")
    spans = ends - np.arange(d) - 1
    starts = np.cumsum(spans) - spans  # offset of i's candidates in the flat pair list
    left = np.repeat(np.arange(d), spans)
    right = left + 1 + np.arange(left.size) - starts[left]
    linked = np.abs(vals[right] - vals[left]) <= tol
    left, right = left[linked], right[linked]
    labels = np.arange(d)
    while True:
        before = labels.copy()
        np.minimum.at(labels, left, labels[right])
        np.minimum.at(labels, right, labels[left])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    labels = np.repeat(labels, np.diff(np.r_[first, n]))  # equal values share a cluster
    order = np.argsort(labels, kind="stable")
    _, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    members = eigs[order]
    centers = members[starts]  # a lone value is its own mean
    for i in np.flatnonzero(counts > 1):  # mean()'s pairwise sum, not reduceat's running one
        centers[i] = members[starts[i] : starts[i] + counts[i]].mean()
    radii = np.maximum.reduceat(np.abs(members - np.repeat(centers, counts)), starts)
    clusters = [Cluster(complex(c), int(k), float(r)) for c, k, r in zip(centers, counts, radii)]
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return clusters


def analyze(eigs, tol: float = 1e-6) -> SpectrumReport:
    """Spectrum report (eigenvalues, radius, clusters) of an eigenvalue
    multiset; raises ValueError on a value that is not finite."""
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.ndim != 1:
        raise ValueError(f"eigenvalues must form a 1D array, got shape {eigs.shape}")
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return SpectrumReport(eigs, radius, cluster_eigenvalues(eigs, tol))


def _mirror_halves(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd halves of a 1D operator that commutes with the mesh
    reflection.

    With F the row reflection i -> rows-1-i and Fc the column reflection,
    F M Fc = M.  In the orthonormal bases (e_i +/- e_{rows-1-i})/sqrt(2),
    i < rows/2 (columns alike), M is block diagonal, and each block is the
    leading quarter of M plus or minus its column-reversed copy.
    """
    rows, cols = M.shape[0] // 2, M.shape[1] // 2
    head, mirrored = M[:rows, :cols], M[:rows, ::-1][:, :cols]
    return head + mirrored, head - mirrored


def two_level_error_eigenvalues(config: DiscretizationConfig, params: MethodParams) -> np.ndarray:
    """Eigenvalue multiset of the two-level error operator
    E = (I - P A0^{-1} R A)(I - alpha*s*A), with Dinv = s*I.

    Dirichlet systems return a complex array: the eigenvalues on the
    complement of the coarse space in ascending order, then the
    coarse-dimension structural zeros.  Periodic (singular) systems return
    the Fourier symbol eigenvalues (``lfa.error_spectrum_symbols``) with the
    constant mode deflated: E fixes the constant vector, which lies in the
    k = 0 block, so compressing E to its complement turns exactly one
    eigenvalue 1 of that block into 0 (whichever, should two equal 1).

    Dirichlet systems are symmetric positive definite and the spectrum is
    computed exactly from the 1D operators A1 and P1 alone:

    * Complement identity.  With A = L L^T, L^T E L^{-T} = (I - Pi)(I -
      alpha s L^T L), Pi the orthogonal projector onto range(L^T P): the
      coarse dimension gives zeros, the rest is I - alpha s L^T L compressed
      to range(L^T P)^perp.  Write x = L^T v in that space: P^T A v = 0, so
      A v = N y with N an orthonormal basis of range(P)^perp, x = L^{-1} N y,
      and x^T L^T L x / x^T x = y^T y / y^T N^T A^{-1} N y.  The compressed
      eigenvalues are therefore 1 - alpha s / nu, nu over eig(N^T A^{-1} N).
    * Mirror blocks.  A1 and P1 commute with the mesh reflection (the
      Dirichlet closure is symmetric and the 4x2 prolongation block maps to
      itself with its columns swapped), so both split exactly into even and
      odd halves (``_mirror_halves``).  In 2D, A = A1 (x) I + I (x) A1 and
      P = P1 (x) P1 split into the four Kronecker blocks ee, eo, oe, oo;
      eo and oe are the same operator up to swapping the tensor factors,
      so eo is computed once and counted twice, and ee and oo commute with
      that swap, so each splits into its symmetric and antisymmetric parts
      (``_kronecker_grams``).
    * Fast diagonalization.  In a block with halves (a, b), A_a = V_a
      diag(lam_a) V_a^T and A^{-1} = (V_a (x) V_b) diag(1/(lam_a + lam_b))
      (V_a (x) V_b)^T.  With [Q | N] the complete QR factor of the half-size
      prolongation, U = V^T [Q | N], N^T A^{-1} N is (U_a (x) U_b)^T
      diag(1/(lam_a + lam_b)) (U_a (x) U_b) less its coarse x coarse rows
      and columns: two GEMMs of O(J^5) flops on the squared columns of U_a
      and U_b.  In 1D the block is N^T A_a^{-1} N.

    No operator of size ndof is assembled on either path.
    """
    check_dense_cap(config.ndof)
    alpha_s = params.alpha * smoother_scale(config, params)  # also checks the penalties agree
    if config.bc is BoundaryCondition.PERIODIC:
        eigs = lfa.error_spectrum_symbols(config.cells_per_dim, params, config.dim)
        eigs[np.argmin(np.abs(eigs[: 4**config.dim] - 1.0))] = 0.0
        return eigs
    line = config.with_dim(1)
    halves = []  # per mirror half: eig(A_h) and U = V^T [Q | N], V its eigenvectors
    for A_h, P_h in zip(
        _mirror_halves(assemble_1d(line)),
        _mirror_halves(np.asarray(Prolongation(line, params.discontinuity))),
    ):
        lam, V = np.linalg.eigh(A_h)
        QN, _ = np.linalg.qr(P_h, mode="complete")
        halves.append((lam, V.T @ QN))
    k = P_h.shape[1]  # U's coarse columns
    if config.dim == 1:
        grams = ((U[:, k:].T @ (U[:, k:] / lam[:, None]), 1) for lam, U in halves)
    else:
        grams = (g for a, b in ((0, 0), (0, 1), (1, 1)) for g in _kronecker_grams(halves[a], halves[b], k))
    nonzero = np.concatenate([np.tile(1.0 - alpha_s / np.linalg.eigvalsh(G), copies) for G, copies in grams])
    zeros = np.zeros(config.cells_per_dim ** config.dim)
    return np.concatenate([np.sort(nonzero), zeros]).astype(complex)


def _kronecker_grams(half_a, half_b, k: int) -> list[tuple[np.ndarray, int]]:
    """The Gram blocks of N^T A^{-1} N in the 2D Kronecker block of two
    mirror halves (lam, U) with k coarse columns, and their multiplicities.

    F[p, r, q, s] = sum_ij U_a[i, p] U_a[i, r] U_b[j, q] U_b[j, s] /
    (lam_a[i] + lam_b[j]) is the entry at row (p, q) and column (r, s); the
    rows and columns with max(p, q) >= k are kept.  Distinct halves give one
    block, counted twice for its swapped twin.  One half twice makes F
    commute with (p, q) <-> (q, p), and the bases (e_pq +/- e_qp)/sqrt(2),
    p < q, and e_pp split it into F[p, r, q, s] +/- F[p, s, q, r] (the sum
    scaled by 1/sqrt(2) per diagonal pair).  F is freed before the
    eigensolves.
    """
    (lam_a, U_a), (lam_b, U_b) = half_a, half_b
    h = len(lam_a)
    W_a, W_b = ((U[:, :, None] * U[:, None, :]).reshape(h, h * h) for U in (U_a, U_b))
    F = (W_a.T @ (1.0 / np.add.outer(lam_a, lam_b) @ W_b)).reshape(h, h, h, h)
    p, q = np.triu_indices(h, 1)
    p, q, d = p[q >= k], q[q >= k], np.arange(k, h)  # p < q and p = q, less coarse x coarse
    if half_a is not half_b:
        p, q = np.r_[p, q, d], np.r_[q, p, d]
        return [(np.take(F[p, :, q, :].reshape(len(p), h * h), p * h + q, axis=1), 2)]
    n, p, q = len(p), np.r_[p, d], np.r_[q, d]
    rows = F[p, :, q, :].reshape(len(p), h * h)  # over (r, s)
    same, swapped = np.take(rows, p * h + q, axis=1), np.take(rows, q * h + p, axis=1)
    w = np.r_[np.ones(n), np.full(h - k, np.sqrt(0.5))]
    return [((same + swapped) * w[:, None] * w, 1), (same[:n, :n] - swapped[:n, :n], 1)]
