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


def dense_cap() -> int:
    """Row cap for dense operators; override with env var DGML_DENSE_CAP."""
    return int(os.environ.get("DGML_DENSE_CAP", DEFAULT_DENSE_CAP))


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


def _couplings(n: int, delta0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interior stencil of rows 0..n-1 as (rows, cols, values), in units
    of 1/h^2; the columns are not wrapped, so they run from -2 to n+1."""
    i = np.arange(n)
    partner = np.where(i % 2 == 0, i - 1, i + 1)  # node pairs are (2m-1, 2m)
    rows = np.tile(i, 4)
    cols = np.concatenate([i, partner, i - 2, i + 2])
    vals = np.repeat([delta0, 1.0 - delta0, -0.5, -0.5], n)
    return rows, cols, vals


def _stencil_1d(config: DiscretizationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 1D system matrix as (rows, cols, values) triplets, the boundary
    closure applied and the values scaled by 1/h^2; repeated (row, col)
    pairs add (at n=4 the wrapped +-2 couplings meet)."""
    n = 2 * config.cells_per_dim
    delta0 = config.penalty
    rows, cols, vals = _couplings(n, delta0)
    if config.bc is BoundaryCondition.PERIODIC:
        cols %= n
    else:  # drop the couplings to ghost traces outside the interval
        inside = (cols >= 0) & (cols < n)
        # the boundary-face penalty doubles the two corner entries
        rows = np.append(rows[inside], [0, n - 1])
        cols = np.append(cols[inside], [0, n - 1])
        vals = np.append(vals[inside], [delta0, delta0])
    return rows, cols, vals * float(config.cells_per_dim) ** 2


def assemble_1d(config: DiscretizationConfig) -> np.ndarray:
    """Assemble the 1D SIPG system matrix for -u'' on the unit interval."""
    if config.dim != 1:
        raise ConfigError("assemble_1d requires dim=1")
    n = 2 * config.cells_per_dim
    check_dense_cap(n)
    rows, cols, vals = _stencil_1d(config)
    A = np.zeros((n, n))
    np.add.at(A, (rows, cols), vals)
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
