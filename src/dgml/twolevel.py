"""Two-level preconditioner: smoother, transfer operators, coarse operator.

The preconditioner applies one damped cell-Jacobi presmoothing step followed
by a Galerkin coarse correction:

    x = alpha * s * g
    y = x + P @ solve(A0, R @ (g - A @ x))

with s the scalar inverse of the cell block-Jacobi smoother (its blocks are
multiples of the identity at this stencil).

The prolongation carries a discontinuity parameter c: each coarse cell's two
endpoint values map to the four fine dofs it covers through the 4x2 block

    [[1,   0  ],
     [c,   1-c],
     [1-c, c  ],
     [0,   1  ]]

so c = 1/2 reproduces continuous linear interpolation and any other c leaves
a controlled jump at the fine midpoint node.  Restriction is R = P^T / 2
(P^T / 4 in 2D) and the coarse operator is inherited, A0 = R A P.

The 1D prolongation P1 is block diagonal, so products with it act on the
4x2 blocks in O(rows * cols) and no set-up forms R A P densely.  With
K = P1^T A1 P1 / 2 (banded: block tridiagonal with 2x2 blocks, plus the
periodic corners) the coarse operator is A0 = K in 1D and, since
P2 = P1 (x) P1 and A2 = A1 (x) I + I (x) A1, A0 = K (x) M + M (x) K with
M = P1^T P1 / 2 in 2D (the restriction scale cancels).  The 1D Dirichlet
A0 is inverted by block elimination in O(m^2); 2D Dirichlet uses a dense
inverse.  For periodic problems A0 is singular with the constant vector as
kernel; coarse solves then act on the orthogonal complement
(pseudo-inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    assemble,
    assemble_1d,
)


class SingularCoarseError(np.linalg.LinAlgError):
    """Coarse operator is singular outside the documented periodic kernel."""


@dataclass(frozen=True)
class MethodParams:
    """Relaxation alpha, jump penalty delta0, interpolation discontinuity c.

    alpha = 0 is admitted as the degenerate no-presmoothing case used when
    studying the pure coarse correction.
    """

    alpha: float
    penalty: float
    discontinuity: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 1.0 < self.penalty < np.inf:
            raise ConfigError(f"penalty must be finite and exceed 1, got {self.penalty}")
        if not 0.0 < self.discontinuity < 1.0:
            raise ConfigError(
                f"discontinuity must lie in (0, 1), got {self.discontinuity}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.penalty, self.discontinuity)


def smoother_scale(config: DiscretizationConfig, params: MethodParams) -> float:
    """The scalar s of the inverse cell block-Jacobi smoother Dinv = s * I.

    1D blocks are delta0/h^2 times the identity, 2D blocks (Kronecker sum)
    are 2*delta0/h^2 times the identity, so s = h^2/(dim*delta0).
    """
    if config.penalty != params.penalty:
        raise ConfigError(
            f"config penalty {config.penalty} != params penalty {params.penalty}"
        )
    return config.mesh_size ** 2 / (config.dim * params.penalty)


def _prolongation_block(c: float) -> np.ndarray:
    """The 4x2 block mapping one coarse cell's two dofs to its four fine dofs."""
    return np.array([[1.0, 0.0], [c, 1.0 - c], [1.0 - c, c], [0.0, 1.0]])


def _times_prolongation(X: np.ndarray, block: np.ndarray) -> np.ndarray:
    """X @ P1 for the 1D prolongation P1 = kron(I, block), in O(rows * cols)."""
    rows = X.shape[0]
    return (X.reshape(rows, -1, 4) @ block).reshape(rows, -1)


def _prolongate(block: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P1 @ X for the 1D prolongation P1 = kron(I, block), in O(rows * cols)."""
    cols = X.shape[1]
    return (block @ X.reshape(-1, 2, cols)).reshape(-1, cols)


def prolongation_matrix(config: DiscretizationConfig, c: float) -> np.ndarray:
    """Coarse-to-fine transfer with discontinuity parameter c.

    1D: block-diagonal tiling of the 4x2 stencil block, one block per coarse
    cell; the same matrix serves periodic and Dirichlet problems because the
    dof ordering is cell-major in both cases.  2D: Kronecker product of the
    1D operator with itself.
    """
    J = config.cells_per_dim
    if J % 2 != 0:
        raise ConfigError(f"prolongation needs an even cell count, got {J}")
    P = np.kron(np.eye(J // 2), _prolongation_block(c))
    return np.kron(P, P) if config.dim == 2 else P


@dataclass(frozen=True)
class TwoLevelOperators:
    """The operators of one two-level setup, assembled consistently; the
    smoother inverse is the scalar smoother_scale times the identity.

    Every field is a dense array.  A and P are the fine-grid operators; they
    stay dense because the benchmark and the dense oracles (error_matrix,
    preconditioner_matrix) read them.  The restriction is not stored: it is
    P^T / 2^dim.  A0 and A0inv are computed from the 1D factors, as the
    module docstring describes.
    """

    config: DiscretizationConfig
    params: MethodParams
    A: np.ndarray
    smoother_scale: float
    P: np.ndarray
    A0: np.ndarray
    A0inv: np.ndarray


def _block_tridiagonal_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of a block-tridiagonal matrix with 2x2 blocks by block
    elimination on the identity, without pivoting (T is SPD here): O(m^2)
    for m rows against O(m^3) for a dense inverse.  A singular pivot block
    raises LinAlgError."""
    m = T.shape[0]
    X = np.eye(m)
    pivots = np.empty((m // 2, 2, 2))
    for k in range(m // 2):  # forward elimination of the sub-diagonal blocks
        rows, prev = slice(2 * k, 2 * k + 2), slice(2 * k - 2, 2 * k)
        pivot = T[rows, rows]
        if k:
            W = T[rows, prev] @ pivots[k - 1]
            pivot = pivot - W @ T[prev, rows]
            X[rows, : 2 * k] -= W @ X[prev, : 2 * k]  # X[prev] is zero from column 2k on
        pivots[k] = np.linalg.inv(pivot)
    for k in reversed(range(m // 2)):  # back substitution
        rows, nxt = slice(2 * k, 2 * k + 2), slice(2 * k + 2, 2 * k + 4)
        if k < m // 2 - 1:
            X[rows] -= T[rows, nxt] @ X[nxt]
        X[rows] = pivots[k] @ X[rows]
    return X


def build_two_level(config: DiscretizationConfig, params: MethodParams) -> TwoLevelOperators:
    """Assemble system, smoother, transfers and coarse operator in one go.

    R = P^T / 2^dim: in 2D the transfers are Kronecker products of the 1D
    ones, hence R = P^T / 4 there; the preconditioner is invariant to this
    scaling because A0 is built from the same R and P.  A singular coarse
    operator outside the periodic kernel raises SingularCoarseError.
    """
    s = smoother_scale(config, params)
    A = assemble(config)
    P = prolongation_matrix(config, params.discontinuity)
    block = _prolongation_block(params.discontinuity)
    A1 = A if config.dim == 1 else assemble_1d(config.with_dim(1))
    # K = (R1 A1) P1, associated as the dense R A P; R1 A1 = (A1 P1)^T / 2 as A1 is symmetric
    K = _times_prolongation(_times_prolongation(A1, block).T / 2, block)
    if config.dim == 1:
        A0 = K
    else:
        M = np.kron(np.eye(config.cells_per_dim // 2), block.T @ block / 2)  # P1^T P1 / 2
        A0 = np.kron(K, M) + np.kron(M, K)
    if config.bc is BoundaryCondition.PERIODIC:
        A0inv = np.linalg.pinv(A0, rcond=1e-10, hermitian=True)
    else:
        invert = _block_tridiagonal_inverse if config.dim == 1 else np.linalg.inv
        try:
            A0inv = invert(A0)
        except np.linalg.LinAlgError as exc:
            raise SingularCoarseError(f"coarse operator not invertible: {exc}") from exc
    return TwoLevelOperators(config, params, A, s, P, A0, A0inv)


def preconditioner_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Dense 1D M^{-1} = alpha*s*I + P A0^{-1} R (I - alpha*s*A).

    A is symmetric, so R (I - alpha*s*A) = (P - alpha*s*A P)^T / 2, and the
    products with P use its 4x2 blocks; the one dense product left is
    A0^{-1} times that m x n matrix.
    """
    if ops.config.dim != 1:
        raise ConfigError("preconditioner_matrix is 1D only; use apply_preconditioner in 2D")
    a_s = ops.params.alpha * ops.smoother_scale
    block = _prolongation_block(ops.params.discontinuity)
    C = (ops.P - a_s * _times_prolongation(ops.A, block)).T / 2
    Minv = _prolongate(block, ops.A0inv @ C)
    Minv[np.diag_indices(Minv.shape[0])] += a_s
    return Minv


def apply_preconditioner(ops: TwoLevelOperators, g: np.ndarray) -> np.ndarray:
    """M^{-1} g from the stored operators: the smoothing step x = alpha*s*g,
    then the coarse correction of its residual.  Equals
    preconditioner_matrix(ops) @ g without forming the n x n matrix."""
    x = ops.params.alpha * ops.smoother_scale * g
    return x + ops.P @ (ops.A0inv @ (ops.P.T @ (g - ops.A @ x) / 2**ops.config.dim))


def error_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Error operator E = (I - P A0^{-1} R A)(I - alpha*s*A) of an assembled
    two-level setup."""
    n = ops.A.shape[0]
    coarse = np.eye(n) - ops.P @ ops.A0inv @ (ops.P.T / 2**ops.config.dim) @ ops.A
    return coarse @ (np.eye(n) - ops.params.alpha * ops.smoother_scale * ops.A)

