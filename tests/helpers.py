"""Oracle utilities for the tests.

The Fourier bases built here block-diagonalize the dense periodic operators
independently of the symbol formulas, so comparing projected blocks against
the symbol module is a genuine two-route check.  deflate_constant gives the
dense periodic spectrum with the constant mode deflated, the oracle of the
symbol-based periodic spectra.
"""

import numpy as np


def fourier_component_vectors(J, k):
    """Orthonormal fine-grid Fourier vectors at frequency k, one per trace
    side: (left-of-node component, right-of-node component)."""
    m = np.arange(J)
    phase = np.exp(2j * np.pi * k * m / J)
    right = np.zeros(2 * J, complex)
    right[2 * m] = phase
    left = np.zeros(2 * J, complex)
    left[(2 * m - 1) % (2 * J)] = phase
    return left / np.sqrt(J), right / np.sqrt(J)


def fine_pair_basis(J, k):
    """2J x 4 orthonormal basis of the invariant subspace for the harmonic
    pair {k - J/2, k}; column order matches the symbol layout."""
    am, ap = fourier_component_vectors(J, k - J // 2)
    bm, bp = fourier_component_vectors(J, k)
    return np.column_stack([ap, am, bp, bm])


def coarse_basis(J, k):
    """J x 2 orthonormal coarse-grid basis at coarse frequency k."""
    Jc = J // 2
    L = np.arange(Jc)
    phase = np.exp(2j * np.pi * k * L / Jc)
    right = np.zeros(2 * Jc, complex)
    right[2 * L] = phase
    left = np.zeros(2 * Jc, complex)
    left[(2 * L - 1) % (2 * Jc)] = phase
    return np.column_stack([right, left]) / np.sqrt(Jc)


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
