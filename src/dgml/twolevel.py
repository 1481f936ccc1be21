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
periodic corners), scattered from the stencil triplets by coarse cell, the
coarse operator is A0 = K in 1D and, since P2 = P1 (x) P1 and
A2 = A1 (x) I + I (x) A1, A0 = K (x) M + M (x) K with M = P1^T P1 / 2 in
2D (the restriction scale cancels).  The 1D Dirichlet K is factored once by
block LDL^T, so a coarse solve costs O(m) per column; 2D Dirichlet uses a
dense inverse.  For periodic problems A0 is singular with the constant
vector as kernel; coarse solves then act on the orthogonal complement
(pseudo-inverse).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    _stencil_1d,
    assemble,
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


def _block_matrix(blocks: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The matrix with blocks[k, t] at block row targets[k, t] and block
    column k, zero elsewhere, written through a reshaped view of zeros."""
    cells, _, r, c = blocks.shape
    out = np.zeros((cells * r, cells * c))
    out.reshape(cells, r, cells, c)[targets, :, np.arange(cells)[:, None]] = blocks
    return out


def _block_diagonal(block: np.ndarray, count: int) -> np.ndarray:
    """kron(eye(count), block)."""
    return _block_matrix(np.broadcast_to(block, (count, 1, *block.shape)), np.arange(count)[:, None])


def _times_prolongation(X: np.ndarray, block: np.ndarray) -> np.ndarray:
    """X @ P1 for the 1D prolongation P1 = kron(I, block), in O(X.size); X
    is a row vector or a stack of rows."""
    lead = X.shape[:-1]
    return (X.reshape(*lead, -1, 4) @ block).reshape(*lead, -1)


def _prolongate(block: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P1 @ X for the 1D prolongation P1 = kron(I, block), in O(X.size); X
    is a vector or a matrix."""
    return (block @ X.reshape(X.shape[0] // 2, 2, -1)).reshape(-1, *X.shape[1:])


def _stencil_times_prolongation(config: DiscretizationConfig, block: np.ndarray):
    """A1 @ P1 from the stencil triplets, by coarse cell: (X, targets) with
    X[k, t] the 4x2 block in the rows of cell k and the columns of cell
    targets[k, t], one slot t per distinct cell among k-1, k, k+1 (mod J/2);
    the other blocks are zero.  Each entry is the dense product's 4-term sum."""
    cells = config.cells_per_dim // 2
    rows, cols, vals = _stencil_1d(config)
    slot = (cols // 4 - rows // 4 + 1) % cells
    band = np.zeros((cells, min(3, cells), 4, 4))  # [k, t] = A1's 4x4 block
    np.add.at(band, (rows // 4, slot, rows % 4, cols % 4), vals)
    k = np.arange(cells)[:, None]
    return band @ block, (k + np.arange(band.shape[1]) - 1) % cells


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
    P = _block_diagonal(_prolongation_block(c), J // 2)
    return np.kron(P, P) if config.dim == 2 else P


@dataclass(frozen=True)
class TwoLevelOperators:
    """The operators of one two-level setup, assembled consistently; the
    smoother inverse is the scalar smoother_scale times the identity.

    A and P are the dense fine-grid operators; they stay dense because the
    benchmark and the dense oracles (error_matrix, preconditioner_matrix)
    read them.  The restriction is not stored: it is P^T / 2^dim.  A0 is the
    dense coarse operator, computed from the 1D factors as the module
    docstring describes, and coarse_solve maps Y to A0^{-1} Y (the
    pseudo-inverse when periodic) for a vector or a matrix Y.
    """

    config: DiscretizationConfig
    params: MethodParams
    A: np.ndarray
    smoother_scale: float
    P: np.ndarray
    A0: np.ndarray
    coarse_solve: Callable[[np.ndarray], np.ndarray]


def _sweep(blocks: np.ndarray, X: np.ndarray) -> None:
    """X[k] -= blocks[k-1] @ X[k-1] for k = 1, 2, ... in turn, in place."""
    if X.shape[2] > 1:
        for b, x, prev in zip(blocks, X[1:], X[:-1]):
            x -= b @ prev
        return
    x = X.ravel().tolist()  # one column: float arithmetic beats 2x2 numpy calls
    for k, (a, b, c, d) in enumerate(blocks.reshape(-1, 4).tolist(), 1):
        x[2 * k] -= a * x[2 * k - 2] + b * x[2 * k - 1]
        x[2 * k + 1] -= c * x[2 * k - 2] + d * x[2 * k - 1]
    X[...] = np.reshape(x, X.shape)


def _block_tridiagonal_solver(T: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Y -> T^{-1} Y for a symmetric block-tridiagonal T with 2x2 blocks.

    T is factored once by block LDL^T without pivoting (T is SPD here): the
    pivots are S_0 = D_0 and S_k = D_k - L_{k-1} S_{k-1}^{-1} L_{k-1}^T, with
    D_k the diagonal and L_k the sub-diagonal blocks.  A solve is one forward
    sweep U_k = S_k^{-1} (Y_k - L_{k-1} U_{k-1}) and one backward sweep
    X_k = U_k - S_k^{-1} L_k^T X_{k+1}, O(m) per column for m rows.  A
    singular pivot block raises LinAlgError.
    """
    cells = T.shape[0] // 2
    k = np.arange(cells)
    # sub[k] = L_k (the last one wraps round and is never used); up[-1] is
    # still zero at j = 0, so the first pivot is D_0
    diag, sub = T.reshape(cells, 2, cells, 2)[[k, (k + 1) % cells], :, k]
    pivots_inv, up = np.empty((cells, 2, 2)), np.zeros((cells, 2, 2))  # up[k] = S_k^{-1} L_k^T
    for j in range(cells):
        pivots_inv[j] = np.linalg.inv(diag[j] - sub[j - 1] @ up[j - 1])
        up[j] = pivots_inv[j] @ sub[j].T
    down = pivots_inv[1:] @ sub[:-1]  # S_k^{-1} L_{k-1}

    def solve(Y: np.ndarray) -> np.ndarray:
        X = pivots_inv @ Y.reshape(cells, 2, -1)
        _sweep(down, X)
        _sweep(up[-2::-1], X[::-1])
        return X.reshape(Y.shape)

    return solve


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
    # K = (R1 A1) P1 with R1 A1 = (A1 P1)^T / 2, associated as the dense R A P
    X, targets = _stencil_times_prolongation(config.with_dim(1), block)
    K = _block_matrix(X.swapaxes(2, 3) / 2 @ block, targets)
    if config.dim == 1:
        A0 = K
    else:
        M = _block_diagonal(block.T @ block / 2, len(K) // 2)  # P1^T P1 / 2
        A0 = np.kron(K, M) + np.kron(M, K)
    if config.bc is BoundaryCondition.PERIODIC:
        coarse_solve = partial(np.matmul, np.linalg.pinv(A0, rcond=1e-10, hermitian=True))
    else:
        try:
            if config.dim == 1:
                coarse_solve = _block_tridiagonal_solver(A0)
            else:
                coarse_solve = partial(np.matmul, np.linalg.inv(A0))
        except np.linalg.LinAlgError as exc:
            raise SingularCoarseError(f"coarse operator not invertible: {exc}") from exc
    return TwoLevelOperators(config, params, A, s, P, A0, coarse_solve)


def preconditioner_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Dense 1D M^{-1} = alpha*s*I + P A0^{-1} C with C = R (I - alpha*s*A).

    C = P^T/2 - alpha*s*R A is scattered from the stencil triplets, the coarse
    solve acts on its m x n columns and P is applied by its 4x2 blocks.
    """
    if ops.config.dim != 1:
        raise ConfigError("preconditioner_matrix is 1D only; use apply_preconditioner in 2D")
    a_s = ops.params.alpha * ops.smoother_scale
    block = _prolongation_block(ops.params.discontinuity)
    X, targets = _stencil_times_prolongation(ops.config, block)
    T = -a_s * X
    T[targets == np.arange(len(X))[:, None]] += block  # P - alpha*s*A P, by coarse-cell blocks
    # C = R (I - alpha*s*A) is freed once solved, so one m x n array is held with M^{-1}
    Minv = _prolongate(block, ops.coarse_solve(_block_matrix(T.swapaxes(2, 3) / 2, targets)))
    Minv[np.diag_indices(Minv.shape[0])] += a_s
    return Minv


def apply_preconditioner(ops: TwoLevelOperators, g: np.ndarray) -> np.ndarray:
    """M^{-1} g from the stored operators: the smoothing step x = alpha*s*g,
    then the coarse correction of its residual.  Equals
    preconditioner_matrix(ops) @ g without forming the n x n matrix; in 1D
    P and P^T act by their 4x2 blocks."""
    x = ops.params.alpha * ops.smoother_scale * g
    r = g - ops.A @ x
    if ops.config.dim == 2:
        return x + ops.P @ ops.coarse_solve(ops.P.T @ r / 4)
    block = _prolongation_block(ops.params.discontinuity)
    return x + _prolongate(block, ops.coarse_solve(_times_prolongation(r.T, block).T / 2))


def error_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Error operator E = (I - P A0^{-1} R A)(I - alpha*s*A) of an assembled
    two-level setup."""
    n, m = ops.P.shape
    # A0^{-1} = coarse_solve(I) keeps the dense oracles' association P A0^{-1} R,
    # so periodic spectra round exactly as theirs do
    coarse = np.eye(n) - ops.P @ ops.coarse_solve(np.eye(m)) @ (ops.P.T / 2**ops.config.dim) @ ops.A
    return coarse @ (np.eye(n) - ops.params.alpha * ops.smoother_scale * ops.A)
