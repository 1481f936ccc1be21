"""Oracle utilities for the tests.

The coarse-cell Fourier bases built here block-diagonalize the dense
periodic operators independently of the symbol formulas, so comparing
projected blocks against the symbol module is a genuine two-route check.
deflate_constant gives the dense periodic spectrum with the constant mode
deflated, the oracle of the symbol-based periodic spectra.  sipg_1d_loop,
prolongation_loop and dense_two_level build the two-level set-up entry by
entry and product by product, the oracle of the structured build_two_level
and preconditioner_matrix.
"""

from types import SimpleNamespace

import numpy as np

from dgml.discretization import BoundaryCondition
from dgml.twolevel import smoother_scale


def cell_fourier_basis(J, k, width):
    """Orthonormal coarse-cell Fourier basis at theta = 4*pi*k/J: column j
    puts e^{i theta m}/sqrt(J/2) on dof width*m + j of each of the J/2 coarse
    cells m (width 4 on the fine grid, 2 on the coarse grid)."""
    m = np.arange(J // 2)
    phase = np.exp(4j * np.pi * k * m / J) / np.sqrt(J // 2)
    return np.kron(phase[:, None], np.eye(width))


def projected_block(op, basis_out, basis_in):
    """Matrix of a dense operator between two orthonormal bases."""
    return basis_out.conj().T @ op @ basis_in


def invariance_defect(op, basis):
    """How far the operator maps the span of basis outside itself."""
    image = op @ basis
    return np.linalg.norm(image - basis @ (basis.conj().T @ image))


def deflate_constant(M):
    """Compress M to the complement of the constant vector, Pi M Pi."""
    n = M.shape[0]
    w = np.full(n, 1.0 / np.sqrt(n))
    Pi = np.eye(n) - np.outer(w, w)
    return Pi @ M @ Pi


def sipg_1d_loop(J, delta0, bc):
    """The 1D SIPG matrix from the stencil in the discretization docstring,
    one entry at a time (periodic indices wrap and accumulate)."""
    n = 2 * J
    periodic = bc is BoundaryCondition.PERIODIC
    A = np.zeros((n, n))
    for m in range(J):
        stencil = {
            2 * m: ((2 * m - 2, -0.5), (2 * m - 1, 1 - delta0), (2 * m, delta0), (2 * m + 2, -0.5)),
            2 * m + 1: ((2 * m - 1, -0.5), (2 * m + 1, delta0), (2 * m + 2, 1 - delta0), (2 * m + 3, -0.5)),
        }
        for row, entries in stencil.items():
            for col, v in entries:
                if periodic:
                    A[row, col % n] += v
                elif 0 <= col < n:
                    A[row, col] += v
    if not periodic:  # boundary-face penalty
        A[0, 0] += delta0
        A[n - 1, n - 1] += delta0
    return A * float(J) ** 2


def prolongation_loop(J, c):
    """The 1D prolongation: the 4x2 block placed once per coarse cell."""
    P = np.zeros((2 * J, J))
    for K in range(J // 2):
        P[4 * K : 4 * K + 4, 2 * K : 2 * K + 2] = [[1.0, 0.0], [c, 1.0 - c], [1.0 - c, c], [0.0, 1.0]]
    return P


def dense_two_level(config, params):
    """The two-level set-up from dense products: A0 = R A P, its inverse (the
    pseudo-inverse when periodic) and, in 1D, the preconditioner
    Minv = P A0inv R (I - alpha s A) + alpha s I (None in 2D)."""
    J, dim = config.cells_per_dim, config.dim
    A = sipg_1d_loop(J, config.penalty, config.bc)
    P = prolongation_loop(J, params.discontinuity)
    if dim == 2:
        eye = np.eye(2 * J)
        A, P = np.kron(A, eye) + np.kron(eye, A), np.kron(P, P)
    R = P.T / 2**dim
    A0 = R @ A @ P
    if config.bc is BoundaryCondition.PERIODIC:
        A0inv = np.linalg.pinv(A0, rcond=1e-10, hermitian=True)
    else:
        A0inv = np.linalg.inv(A0)
    Minv = None
    if dim == 1:
        n = A.shape[0]
        a_s = params.alpha * smoother_scale(config, params)
        Minv = P @ A0inv @ R @ (np.eye(n) - a_s * A)
        Minv[np.diag_indices(n)] += a_s
    return SimpleNamespace(A=A, P=P, A0=A0, A0inv=A0inv, Minv=Minv)
