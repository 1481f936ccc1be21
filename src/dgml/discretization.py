"""SIPG discretization of the Poisson equation on uniform 1D/2D meshes.

The 1D mesh covers the unit interval with J cells of width h = 1/J.  Each
cell carries two degrees of freedom, the solution values at its left and
right endpoints (DG solutions are discontinuous across nodes, so interior
nodes host two values, one from each adjacent cell).

Dof layout used throughout the package (0-based index i, n = 2J):

    i = 2m      value at the left end of cell m   (trace right of node m)
    i = 2m + 1  value at the right end of cell m  (trace left of node m+1)

so the vector walks the interval left to right, cell by cell, and interior
node m hosts the adjacent pair (i = 2m-1, i = 2m).  The interior stencil of
the system matrix, in units of 1/h^2, is

    row 2m   : -1/2 @ 2m-2,  (1-delta0) @ 2m-1,  delta0 @ 2m,  -1/2 @ 2m+2
    row 2m+1 : -1/2 @ 2m-1,  delta0 @ 2m+1,  (1-delta0) @ 2m+2,  -1/2 @ 2m+3

i.e. the penalty delta0 sits on the diagonal, (1-delta0) couples the two
traces that meet at a shared node, and -1/2 couples same-side traces at
adjacent nodes.  Periodic boundary conditions wrap the stencil cyclically
(indices mod 2J).

Dirichlet boundary conditions are imposed weakly at the two boundary faces:
stencil couplings that would reach a ghost trace outside the interval are
dropped and the boundary-face penalty doubles the two corner diagonal
entries.  The resulting first and last 2x2 diagonal blocks are, in units
of 1/h^2,

    [[2*delta0, 0],            [[delta0, 0],
     [0,        delta0]]  and   [0,      2*delta0]],

the first off-stencil coupling being -1/2 from row 0 to row 2 (mirrored at
the right end).  This closure keeps the matrix symmetric positive
definite; it is a documented choice, and only the periodic operator is
used for exact Fourier verification.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_DENSE_CAP = 4096


class BoundaryCondition(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


class ConfigError(ValueError):
    """Invalid discretization or method configuration."""


class SizeCapError(ValueError):
    """Requested dense operator exceeds the configured size cap."""


def check_real(**values) -> None:
    """Raise ConfigError unless each named value is a real number, so that a
    string fails as a configuration error, not in a later comparison."""
    for name, value in values.items():
        if not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {value!r}")


def dense_cap() -> int:
    """Row cap for dense operators; override with env var DGML_DENSE_CAP, an
    integer >= 1 (ConfigError otherwise)."""
    text = os.environ.get("DGML_DENSE_CAP", str(DEFAULT_DENSE_CAP))
    try:
        if (cap := int(text)) >= 1:
            return cap
    except ValueError:
        pass
    raise ConfigError(f"DGML_DENSE_CAP must be an integer >= 1, got {text!r}")


def check_dense_cap(rows: int) -> None:
    """Raise SizeCapError if a dense operator with this many rows exceeds the cap."""
    if rows > dense_cap():
        raise SizeCapError(
            f"{rows} rows exceed the dense cap {dense_cap()} (set DGML_DENSE_CAP to raise it)"
        )


@dataclass(frozen=True)
class DiscretizationConfig:
    """Mesh size J, jump penalty, boundary condition and spatial dimension."""

    cells_per_dim: int
    penalty: float = 2.0
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.cells_per_dim, numbers.Integral):
            raise ConfigError(f"cells_per_dim must be an integer, got {self.cells_per_dim!r}")
        if not isinstance(self.bc, BoundaryCondition):  # users test it by identity
            raise ConfigError(f"bc must be a BoundaryCondition, got {self.bc!r}")
        check_real(penalty=self.penalty)
        if self.cells_per_dim < 2 or self.cells_per_dim % 2 != 0:
            raise ConfigError(
                f"cells_per_dim must be even and >= 2 (coarsening by 2), "
                f"got {self.cells_per_dim}"
            )
        if not 1.0 < self.penalty < np.inf:
            raise ConfigError(f"penalty must be finite and exceed 1, got {self.penalty}")
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")

    @property
    def mesh_size(self) -> float:
        return 1.0 / self.cells_per_dim

    @property
    def ndof(self) -> int:
        n = 2 * self.cells_per_dim
        return n if self.dim == 1 else n * n

    def with_dim(self, dim: int) -> "DiscretizationConfig":
        return DiscretizationConfig(self.cells_per_dim, self.penalty, self.bc, dim)


def _stencil_1d(config: DiscretizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The 1D system matrix in ELL form, (cols, weights) of shape (n, 4):
    row i is the sum over t of weights[i, t] * x[cols[i, t] % n], slot 0 the
    diagonal, the weights scaled by 1/h^2.  The columns are not wrapped, so
    they run from -2 to n+1 and name the cell each coupling reaches; wrapped,
    repeated ones add (at n=4 the +-2 couplings meet).  The Dirichlet closure
    gives the couplings to ghost traces weight 0 and doubles the two corner
    diagonals."""
    n, d0 = 2 * config.cells_per_dim, config.penalty
    i = np.arange(n)
    partner = np.where(i % 2 == 0, i - 1, i + 1)  # node pairs are (2m-1, 2m)
    cols = np.stack([i, partner, i - 2, i + 2])  # one row per ELL slot
    vals = np.repeat([d0, 1.0 - d0, -0.5, -0.5], n).reshape(4, n)
    if config.bc is BoundaryCondition.DIRICHLET:
        vals[(cols < 0) | (cols >= n)] = 0.0
        vals[0, [0, n - 1]] += d0  # the boundary-face penalty
    vals *= float(config.cells_per_dim) ** 2
    return cols.T, vals.T


def assemble_1d(config: DiscretizationConfig) -> np.ndarray:
    """Assemble the 1D SIPG system matrix for -u'' on the unit interval."""
    if config.dim != 1:
        raise ConfigError("assemble_1d requires dim=1")
    n = 2 * config.cells_per_dim
    check_dense_cap(n)
    cols, vals = _stencil_1d(config)
    A = np.zeros((n, n))
    np.add.at(A, (np.arange(n)[:, None], cols % n), vals)
    return A


def assemble_2d(config: DiscretizationConfig) -> np.ndarray:
    """Assemble the 2D operator as the Kronecker sum A (x) I + I (x) A."""
    if config.dim != 2:
        raise ConfigError("assemble_2d requires dim=2")
    n1 = 2 * config.cells_per_dim
    check_dense_cap(n1 * n1)
    A1 = assemble_1d(config.with_dim(1))
    A = np.zeros((n1, n1, n1, n1))  # A[i, j, k, l] couples dof (i, j) to (k, l)
    i = np.arange(n1)
    A[:, i, :, i] = A1  # A1 (x) I
    A[i, :, i, :] += A1  # I (x) A1
    return A.reshape(n1 * n1, n1 * n1)


def assemble(config: DiscretizationConfig) -> np.ndarray:
    """Assemble the system matrix for either spatial dimension."""
    return assemble_1d(config) if config.dim == 1 else assemble_2d(config)


class SystemOperator:
    """The system matrix of a configuration, held as the 1D stencil in ELL
    form (see _stencil_1d).  A @ X applies A1 along each grid axis of X, a
    vector or a stack of columns, in O(X.size): A1 in 1D, the Kronecker sum
    A1 (x) I + I (x) A1 in 2D.  np.asarray(A) is assemble's dense matrix,
    under the dense cap."""

    def __init__(self, config: DiscretizationConfig):
        self.config, self.shape = config, (config.ndof, config.ndof)
        cols, self.weights = self._stencil = _stencil_1d(config)  # _cell_band reads it
        self.cols = cols % len(cols)

    def __matmul__(self, X) -> np.ndarray:
        X = np.asarray(X)
        if len(X) != self.shape[1]:  # one comparison: it runs on every GMRES step
            raise ValueError(f"A @ X needs {self.shape[1]} rows, got X of shape {X.shape}")
        if X.ndim == 1 and self.config.dim == 1:  # each GMRES step; rounds as below
            return np.einsum("ij,ij->i", self.weights, X[self.cols])
        n = len(self.cols)
        G = X.reshape(*(n,) * self.config.dim, *X.shape[1:])  # the grid axes first
        Y = np.einsum("ij,ij...->i...", self.weights, G[self.cols])
        if self.config.dim == 2:
            Y += np.einsum("jk,ijk...->ij...", self.weights, G[:, self.cols])
        return Y.reshape(X.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(assemble(self.config), dtype=dtype)


def _cell_band(A: SystemOperator) -> np.ndarray:
    """A's 1D matrix as a band over the J/2 coarse cells, shape
    (J/2, 3, 4, 4): [k, t] is its block at block row k and block column
    k+t-1 (mod J/2), coupling cell k's four fine dofs to those of its left
    neighbour, itself and its right neighbour in fixed slots t = 0, 1, 2.
    The slot comes from each coupling's unwrapped column, so blocks that
    land on one place when J/2 <= 2 stay apart."""
    cols, vals = A._stencil
    rows = np.arange(len(cols))[:, None]
    # the flat index of [k, t, row % 4, column % 4] in the band
    flat = ((rows // 4 * 3 + cols // 4 - rows // 4 + 1) * 4 + rows % 4) * 4 + cols % 4
    m = len(cols) // 4
    return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=m * 48).reshape(m, 3, 4, 4)


def source_vector(config: DiscretizationConfig) -> np.ndarray:
    """Load vector sampled at the dofs (at this scaling the load of f is f
    evaluated at each dof's node).

    Dirichlet: the constant source f = 1, i.e. all ones.  Periodic: the
    system matrix annihilates constants, so a consistent load must have zero
    mean and f = 1 has no solution; the source is f = cos(2 pi x) (plus
    cos(2 pi y) in 2D), which sums to zero over the nodes.
    """
    if config.bc is BoundaryCondition.DIRICHLET:
        return np.ones(config.ndof)
    J = config.cells_per_dim
    node = (np.arange(2 * J) + 1) // 2  # dof 2m sits at node m, dof 2m+1 at node m+1
    f = np.cos(2.0 * np.pi * node / J)
    if config.dim == 1:
        return f
    one = np.ones(2 * J)
    return np.kron(f, one) + np.kron(one, f)
