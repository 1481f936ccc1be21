"""Independent reference computations for the benchmark's checks.

Nothing here imports dgml.  Each oracle is rebuilt from a formula the
package documents, not from its code:

* the 1D SIPG stencil written in ``dgml.discretization``'s module docstring;
* the 4x2 prolongation block written in ``dgml.twolevel``'s module docstring;
* the 2D Kronecker sum and the Galerkin two-level error operator
  ``(I - P A0^+ R A)(I - alpha * s * A)``, with the smoother scale
  ``s = h^2/delta0`` in 1D and ``h^2/(2 delta0)`` in 2D;
* the three quartics whose real roots are the clustering triple.
"""

from __future__ import annotations

import numpy as np

DISCONTINUITY_QUARTIC = (4, -8, 8, -8, 3)  # c in (0, 1)
PENALTY_QUARTIC = (12, -32, 24, -4, -1)  # delta0 in (1, inf)
RELAXATION_QUARTIC = (183, -352, 214, -40, -1)  # alpha in (0, 1)


def sipg_1d(J: int, delta0: float, periodic: bool = False) -> np.ndarray:
    """1D SIPG matrix from the documented stencil, in units of 1/h^2:

        row 2m   : -1/2 @ 2m-2,  (1-delta0) @ 2m-1,  delta0 @ 2m,  -1/2 @ 2m+2
        row 2m+1 : -1/2 @ 2m-1,  delta0 @ 2m+1,  (1-delta0) @ 2m+2,  -1/2 @ 2m+3

    Periodic wraps indices mod 2J.  Dirichlet drops couplings outside the
    interval and doubles the two corner diagonals.
    """
    n = 2 * J
    A = np.zeros((n, n))
    for m in range(J):
        stencil = (
            (2 * m, ((2 * m - 2, -0.5), (2 * m - 1, 1 - delta0), (2 * m, delta0), (2 * m + 2, -0.5))),
            (2 * m + 1, ((2 * m - 1, -0.5), (2 * m + 1, delta0), (2 * m + 2, 1 - delta0), (2 * m + 3, -0.5))),
        )
        for row, entries in stencil:
            for col, value in entries:
                if periodic:
                    A[row, col % n] += value
                elif 0 <= col < n:
                    A[row, col] += value
    if not periodic:
        A[0, 0] += delta0
        A[n - 1, n - 1] += delta0
    return A * J**2


def prolongation_1d(J: int, c: float) -> np.ndarray:
    """Block-diagonal tiling of the 4x2 block [[1,0],[c,1-c],[1-c,c],[0,1]]."""
    block = np.array([[1.0, 0.0], [c, 1.0 - c], [1.0 - c, c], [0.0, 1.0]])
    return np.kron(np.eye(J // 2), block)


def kron_sum(A1: np.ndarray) -> np.ndarray:
    """2D operator A (x) I + I (x) A."""
    eye = np.eye(A1.shape[0])
    return np.kron(A1, eye) + np.kron(eye, A1)


def error_operator(J: int, triple, dim: int = 1, periodic: bool = False) -> np.ndarray:
    """Dense two-level error operator (I - P A0^+ P^T A)(I - alpha*s*A).

    The restriction's scale cancels in P (R A P)^+ R, so R = P^T is used.
    The coarse matrix is singular only in the periodic case (constant
    kernel), where the pseudo-inverse acts on its complement.
    """
    alpha, delta0, c = triple
    A = sipg_1d(J, delta0, periodic)
    P = prolongation_1d(J, c)
    scale = 1.0 / (J**2 * delta0)
    if dim == 2:
        A, P, scale = kron_sum(A), np.kron(P, P), scale / 2.0
    A0 = P.T @ A @ P
    A0inv = np.linalg.pinv(A0, rcond=1e-10, hermitian=True) if periodic else np.linalg.inv(A0)
    n = A.shape[0]
    return (np.eye(n) - P @ A0inv @ P.T @ A) @ (np.eye(n) - alpha * scale * A)


def quartic_root(coeffs, lo: float, hi: float) -> float:
    """The single real root of a quartic in (lo, hi), by np.roots."""
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and lo < r.real < hi]
    if len(real) != 1:
        raise ValueError(f"expected one real root of {coeffs} in ({lo}, {hi}), got {roots}")
    return real[0]


def clustering_triple() -> tuple[float, float, float]:
    """(alpha, delta0, c) from the three quartics."""
    return (
        quartic_root(RELAXATION_QUARTIC, 0.0, 1.0),
        quartic_root(PENALTY_QUARTIC, 1.0, np.inf),
        quartic_root(DISCONTINUITY_QUARTIC, 0.0, 1.0),
    )


def radius_without_kernel(E: np.ndarray) -> float:
    """Largest |eigenvalue| of a periodic error operator once the single
    eigenvalue 1 of the constant direction is set aside."""
    mods = np.sort(np.abs(np.linalg.eigvals(E)))
    if abs(mods[-1] - 1.0) > 1e-8:
        raise ValueError(f"expected the constant direction's eigenvalue 1, largest is {mods[-1]}")
    return float(mods[-2])
