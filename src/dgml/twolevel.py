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

For periodic problems A0 is singular with the constant vector as kernel;
coarse solves then act on the orthogonal complement (pseudo-inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
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
        if not self.penalty > 1.0:
            raise ConfigError(f"penalty must exceed 1, got {self.penalty}")
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
    block = np.array([[1.0, 0.0], [c, 1.0 - c], [1.0 - c, c], [0.0, 1.0]])
    P = np.zeros((2 * J, J))
    for K in range(J // 2):
        P[4 * K : 4 * K + 4, 2 * K : 2 * K + 2] = block
    return np.kron(P, P) if config.dim == 2 else P


@dataclass(frozen=True)
class TwoLevelOperators:
    """All dense operators of one two-level setup, assembled consistently;
    the smoother inverse is the scalar smoother_scale times the identity."""

    config: DiscretizationConfig
    params: MethodParams
    A: np.ndarray
    smoother_scale: float
    P: np.ndarray
    R: np.ndarray
    A0: np.ndarray
    A0inv: np.ndarray


def build_two_level(config: DiscretizationConfig, params: MethodParams) -> TwoLevelOperators:
    """Assemble system, smoother, transfers and coarse operator in one go.

    R = P^T / 2^dim: in 2D the transfers are Kronecker products of the 1D
    ones, hence R = P^T / 4 there; the preconditioner is invariant to this
    scaling because A0 is built from the same R and P.
    """
    s = smoother_scale(config, params)
    A = assemble(config)
    P = prolongation_matrix(config, params.discontinuity)
    R = P.T / 2**config.dim
    A0 = R @ A @ P
    if config.bc is BoundaryCondition.PERIODIC:
        A0inv = np.linalg.pinv(A0, rcond=1e-10, hermitian=True)
    else:
        try:
            A0inv = np.linalg.inv(A0)
        except np.linalg.LinAlgError as exc:
            raise SingularCoarseError(f"coarse operator not invertible: {exc}") from exc
    return TwoLevelOperators(config, params, A, s, P, R, A0, A0inv)


def preconditioner_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Dense M^{-1} = alpha*s*I + P A0^{-1} R (I - alpha*s*A)."""
    n = ops.A.shape[0]
    a_s = ops.params.alpha * ops.smoother_scale
    Minv = ops.P @ ops.A0inv @ ops.R @ (np.eye(n) - a_s * ops.A)
    Minv[np.diag_indices(n)] += a_s
    return Minv


def apply_preconditioner(ops: TwoLevelOperators, g: np.ndarray) -> np.ndarray:
    """M^{-1} g from the stored operators: the smoothing step x = alpha*s*g,
    then the coarse correction of its residual.  Equals
    preconditioner_matrix(ops) @ g without forming the n x n matrix."""
    x = ops.params.alpha * ops.smoother_scale * g
    return x + ops.P @ (ops.A0inv @ (ops.R @ (g - ops.A @ x)))


def error_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Error operator E = (I - P A0^{-1} R A)(I - alpha*s*A) of an assembled
    two-level setup."""
    n = ops.A.shape[0]
    coarse = np.eye(n) - ops.P @ ops.A0inv @ ops.R @ ops.A
    return coarse @ (np.eye(n) - ops.params.alpha * ops.smoother_scale * ops.A)

