"""Two-level preconditioner: smoother, transfer operators, coarse operator.

The preconditioner applies one damped cell-Jacobi presmoothing step followed
by a Galerkin coarse correction:

    x = alpha * Dinv @ g
    y = x + P @ solve(A0, R @ (g - A @ x))

The prolongation carries a discontinuity parameter c: each coarse cell's two
endpoint values map to the four fine dofs it covers through the 4x2 block

    [[1,   0  ],
     [c,   1-c],
     [1-c, c  ],
     [0,   1  ]]

so c = 1/2 reproduces continuous linear interpolation and any other c leaves
a controlled jump at the fine midpoint node.  Restriction is R = P^T / 2 and
the coarse operator is inherited, A0 = R A P.

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
    OperatorMatrix,
    OperatorRole,
    as_array,
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
    are 2*delta0/h^2 times the identity, so s = h^2/delta0 in 1D and
    h^2/(2*delta0) in 2D.
    """
    if config.penalty != params.penalty:
        raise ConfigError(
            f"config penalty {config.penalty} != params penalty {params.penalty}"
        )
    h2 = config.mesh_size ** 2
    return h2 / params.penalty if config.dim == 1 else h2 / (2.0 * params.penalty)


def smoother_matrix(config: DiscretizationConfig, params: MethodParams) -> OperatorMatrix:
    """Inverse of the cell block-Jacobi smoother (scalar at this stencil)."""
    scale = smoother_scale(config, params)
    return OperatorMatrix(scale * np.eye(config.ndof), OperatorRole.SMOOTHER)


def prolongation_matrix(config: DiscretizationConfig, c: float) -> OperatorMatrix:
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
    if config.dim == 2:
        P = np.kron(P, P)
    return OperatorMatrix(P, OperatorRole.PROLONGATION)


def restriction_matrix(P) -> OperatorMatrix:
    """Restriction R = P^T / 2, exactly."""
    return OperatorMatrix(0.5 * as_array(P).T, OperatorRole.RESTRICTION)


def coarse_operator(A, R, P) -> OperatorMatrix:
    """Galerkin coarse operator A0 = R A P."""
    A0 = as_array(R) @ as_array(A) @ as_array(P)
    return OperatorMatrix(A0, OperatorRole.COARSE)


def coarse_inverse(A0, periodic: bool) -> np.ndarray:
    """Dense inverse of A0; pseudo-inverse on the constant-free complement
    for the periodic case."""
    A0 = as_array(A0)
    if periodic:
        return np.linalg.pinv(A0, rcond=1e-10, hermitian=True)
    try:
        return np.linalg.inv(A0)
    except np.linalg.LinAlgError as exc:
        raise SingularCoarseError(f"coarse operator not invertible: {exc}") from exc


@dataclass(frozen=True)
class TwoLevelOperators:
    """All dense operators of one two-level setup, assembled consistently."""

    config: DiscretizationConfig
    params: MethodParams
    A: np.ndarray
    Dinv: np.ndarray
    P: np.ndarray
    R: np.ndarray
    A0: np.ndarray
    A0inv: np.ndarray

    @property
    def periodic(self) -> bool:
        return self.config.bc is BoundaryCondition.PERIODIC


def build_two_level(config: DiscretizationConfig, params: MethodParams) -> TwoLevelOperators:
    """Assemble system, smoother, transfers and coarse operator in one go.

    In 2D the transfer operators are the Kronecker products of the 1D ones,
    hence R = P^T / 4 there; the preconditioner is invariant to this scaling
    because A0 is built from the same R and P.
    """
    if config.penalty != params.penalty:
        raise ConfigError(
            f"config penalty {config.penalty} != params penalty {params.penalty}"
        )
    A = assemble(config)
    Dinv = smoother_matrix(config, params)
    if config.dim == 1:
        P = prolongation_matrix(config, params.discontinuity)
        R = restriction_matrix(P)
    else:
        P1 = prolongation_matrix(config.with_dim(1), params.discontinuity).entries
        R1 = 0.5 * P1.T
        P = OperatorMatrix(np.kron(P1, P1), OperatorRole.PROLONGATION)
        R = OperatorMatrix(np.kron(R1, R1), OperatorRole.RESTRICTION)
    A0 = coarse_operator(A, R, P)
    A0inv = coarse_inverse(A0, config.bc is BoundaryCondition.PERIODIC)
    return TwoLevelOperators(
        config, params, A.entries, Dinv.entries, P.entries, R.entries, A0.entries, A0inv
    )


def apply_preconditioner(A, A0, P, R, Dinv, params: MethodParams, g, periodic=False):
    """One application of the two-level preconditioner to a residual g."""
    A, P, R, Dinv = map(as_array, (A, P, R, Dinv))
    g = np.asarray(g, dtype=float)
    x = params.alpha * (Dinv @ g)
    rc = R @ (g - A @ x)
    A0inv = coarse_inverse(A0, periodic)
    return x + P @ (A0inv @ rc)


def preconditioner_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Dense M^{-1} = alpha*Dinv + P A0^{-1} R (I - alpha*A*Dinv)."""
    n = ops.A.shape[0]
    aD = ops.params.alpha * ops.Dinv
    return aD + ops.P @ ops.A0inv @ ops.R @ (np.eye(n) - ops.A @ aD)


def preconditioned_matrix(ops: TwoLevelOperators) -> OperatorMatrix:
    """Dense preconditioned system M^{-1} A."""
    return OperatorMatrix(preconditioner_matrix(ops) @ ops.A, OperatorRole.PRECONDITIONED)


def error_operator(A, A0, P, R, Dinv, params: MethodParams, periodic=False) -> OperatorMatrix:
    """Stationary error propagator E = (I - P A0^{-1} R A)(I - alpha Dinv A)."""
    A, P, R, Dinv = map(as_array, (A, P, R, Dinv))
    n = A.shape[0]
    A0inv = coarse_inverse(A0, periodic)
    coarse = np.eye(n) - P @ A0inv @ R @ A
    smooth = np.eye(n) - params.alpha * Dinv @ A
    return OperatorMatrix(coarse @ smooth, OperatorRole.ERROR)


def error_matrix(ops: TwoLevelOperators) -> OperatorMatrix:
    """Error operator of an assembled two-level setup."""
    n = ops.A.shape[0]
    coarse = np.eye(n) - ops.P @ ops.A0inv @ ops.R @ ops.A
    smooth = np.eye(n) - ops.params.alpha * ops.Dinv @ ops.A
    return OperatorMatrix(coarse @ smooth, OperatorRole.ERROR)


def deflate_constant(M) -> np.ndarray:
    """Compress M to the complement of the constant vector, Pi M Pi."""
    M = as_array(M)
    n = M.shape[0]
    w = np.full(n, 1.0 / np.sqrt(n))
    Pi = np.eye(n) - np.outer(w, w)
    return Pi @ M @ Pi
