"""Two-level preconditioner: smoother, transfer operators, coarse operator.

The preconditioner M^{-1} (Preconditioner) applies one damped cell-Jacobi
presmoothing step followed by a Galerkin coarse correction.

The prolongation carries a discontinuity parameter c: each coarse cell's two
endpoint values map to the four fine dofs it covers through the 4x2 block

    [[1,   0  ],
     [c,   1-c],
     [1-c, c  ],
     [0,   1  ]]

so c = 1/2 reproduces continuous linear interpolation and any other c leaves
a controlled jump at the fine midpoint node.  Restriction is R = P^T / 2
(P^T / 4 in 2D) and the coarse operator is inherited, A0 = R A P.

A is held as the 1D stencil in ELL form (discretization.SystemOperator) and
P as its 4x2 block (Prolongation): both apply by `@` in O(size), and only
np.asarray, for the dense oracles, forms a fine-grid matrix.  No set-up
forms R A P densely either.  K = P1^T A1 P1 / 2 (block tridiagonal with
2x2 blocks, plus the periodic corners) is formed block by block from A1's
band over coarse cells, discretization._cell_band, which lfa sums into its
symbols.  The coarse operator is A0 = K in 1D and, since P2 = P1 (x) P1 and
A2 = A1 (x) I + I (x) A1, A0 = K (x) M + M (x) K with M = P1^T P1 / 2 in 2D
(the restriction scale cancels).  A0 is never stored: it lives only in the
coarse solve.  The 1D Dirichlet K is factored once by
recursive static condensation over chunks of rows (_condensed_solver), in
O(m) set-up, memory and flops per column.  There the restriction of the
smoothed residual, R (I - alpha*s*A), maps each coarse cell from a window of
eight fine dofs (_restriction_blocks), so the set-up composes it into the
condensation's forward map (_restricted): M^{-1} g is one gather of g, one
batched product, the separators' solve and one batched product back, then
P and alpha*s*g.  Every other coarse solve is a
fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964) from one
eigendecomposition of the m x m pair (K, M), M = I in 1D, in O(m^3) where a
dense 2D inverse costs O(m^6).  Periodic A0 is singular with the constant
vector as kernel; the solve drops the constant eigenvector, which gives the
pseudo-inverse.

Every product along grid axes is one kernel: _tiled(block, X) is
kron(I, block) @ X along axis 0, and _on_grid applies it along each grid
axis, in 2D on two reshaped views of the grid, which no axis swap copies.
It applies P (the 4x2 block), P^T (its transpose) and, in the fast
diagonalization, the tiling of M^{-1/2} and the eigenvectors V (one tile).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    SystemOperator,
    _cell_band,
    check_dense_cap,
    check_real,
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
        check_real(alpha=self.alpha, penalty=self.penalty, discontinuity=self.discontinuity)
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


def _tiled(block: np.ndarray, X: np.ndarray) -> np.ndarray:
    """kron(I, block) @ X along axis 0 of X, in O(X.size) per block row:
    one GEMM on the rows of a vector, one batched product for an array."""
    k = block.shape[1]
    if X.ndim == 1:
        return (X.reshape(-1, k) @ block.T).ravel()
    return (block @ X.reshape(len(X) // k, k, -1)).reshape(-1, *X.shape[1:])


def _on_grid(block: np.ndarray, Y: np.ndarray, n: int, dim: int) -> np.ndarray:
    """The tiling of block applied along each axis of the n^dim grid of Y,
    a vector or a stack of columns: kron(I, block) in 1D, its Kronecker
    square in 2D."""
    if dim == 1:  # the grid is Y itself
        return _tiled(block, Y)
    X = _tiled(block, Y.reshape(n, -1))  # axis 0: the rows of an n x (n * columns) view
    # axis 1: I (x) kron(I, block) is kron(I, block) on the flat grid rows, again a view
    return _tiled(block, X.reshape(-1, *Y.shape[1:]))


class Prolongation:
    """The coarse-to-fine transfer with discontinuity parameter c, held as
    its 4x2 block: P = P1 in 1D and P1 (x) P1 in 2D, with P1 = kron(I, block),
    one block per coarse cell (the dof ordering is cell-major for periodic
    and Dirichlet problems alike).  P @ Y applies the block along each grid
    axis of Y, a vector or a stack of columns, in O(P.shape[0] * columns).
    np.asarray(P) forms that matrix by np.kron, under the dense cap."""

    def __init__(self, config: DiscretizationConfig, c: float):
        self.config, self.block = config, _prolongation_block(c)
        self.shape = (config.ndof, config.ndof // 2**config.dim)

    def __matmul__(self, Y) -> np.ndarray:
        Y = np.asarray(Y)
        if len(Y) != self.shape[1]:  # one comparison: it runs on every GMRES step
            raise ValueError(f"P @ Y needs {self.shape[1]} rows, got Y of shape {Y.shape}")
        return _on_grid(self.block, Y, self.config.cells_per_dim, self.config.dim)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        check_dense_cap(self.shape[0])
        P = np.kron(np.eye(self.config.cells_per_dim // 2), self.block)
        return np.asarray(np.kron(P, P) if self.config.dim == 2 else P, dtype=dtype)


@dataclass(frozen=True)
class TwoLevelOperators:
    """The operators of one two-level setup, assembled consistently, from
    which Preconditioner applies M^{-1}.

    A and P are structured: A @ X and P @ Y cost O(size) from the 1D
    stencil and the 4x2 prolongation block (P and P^T through _on_grid),
    and no fine-grid matrix is stored; np.asarray densifies them, under
    the dense cap, for the dense oracles.  The restriction is not stored:
    it is P^T / 2^dim.  Nor is the coarse operator A0 = R A P: coarse_solve
    maps Y to A0^{-1} Y (the pseudo-inverse when periodic) for a vector or
    a matrix Y and holds at most m x m arrays (the 1D Dirichlet chunk
    inverses or the eigenvectors of the pair (K, M)), never A0 or a dense
    inverse of it.  smoothed_coarse_solve is the coarse part of M^{-1}: in
    1D Dirichlet one condensation solve with the restriction composed in,
    otherwise A, P^T and coarse_solve in turn.
    """

    config: DiscretizationConfig
    params: MethodParams
    A: SystemOperator
    P: Prolongation
    coarse_solve: Callable[[np.ndarray], np.ndarray]
    smoothed_coarse_solve: Callable[[np.ndarray], np.ndarray]


_CHUNK = 16  # block rows per condensation chunk, chosen by measurement


def _tridiagonal(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The dense symmetric block-tridiagonal matrices with 2x2 blocks
    diag[..., k] on the diagonal and sub[..., k] at block (k+1, k),
    batched over the leading axes."""
    *lead, n = diag.shape[:-2]
    T, k = np.zeros((*lead, n, 2, n, 2)), np.arange(n)
    blocks = T.swapaxes(-3, -2)  # [..., row, column] = that 2x2 block
    blocks[..., k, k, :, :] = diag
    blocks[..., k[1:], k[:-1], :, :] = sub
    blocks[..., k[:-1], k[1:], :, :] = sub.swapaxes(-1, -2)
    return T.reshape(*lead, 2 * n, 2 * n)


def _restricted(M: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """M R for each of C chunks: M (C, a, 2L) maps the chunk's L block rows,
    and R maps a window of 4L+4 entries to those rows, block row j by
    blocks[:, j] (2 x 8) on the window's entries 4j ... 4j+7.  R is formed
    one chunk at a time, so the work arrays stay one chunk's size."""
    C, a, n = M.shape
    j, r, q = np.ix_(np.arange(n // 2), np.arange(2), np.arange(8))
    R, MR = np.zeros((n, 2 * n + 4)), np.empty((C, a, 2 * n + 4))
    for c in range(C):
        R[2 * j + r, 4 * j + q] = blocks[c]
        np.matmul(M[c], R, out=MR[c])
    return MR


def _condensed_solver(diag: np.ndarray, sub: np.ndarray, restriction: np.ndarray, rows=None):
    """The solves Y -> T^{-1} Y and g -> (T^{-1} R g)[rows] for
    T = _tridiagonal(diag, sub) of N block rows, from one factorization by
    the block partition method (Wang, ACM TOMS 7, 1981) applied
    recursively.  Block row k of R is restriction[k] (2 x 8) on entries
    4k-2 ... 4k+5 of g; those outside g weigh 0 there.  Y and g are vectors
    or stacks of columns.  rows defaults to all 2N; the inner levels, which
    pass rows, need only the second solve, and get None for the first.

    The rows form chunks of L = _CHUNK, the last one padded with identity
    blocks that couple to nothing.  Each chunk's first L-1 rows, its
    interior, couple only to the separators: its last row and the one
    before the chunk.  One batched inv inverts all interiors; the
    separators' Schur complement is again block tridiagonal and is solved
    the same way until N <= L, where one dense inv of at most 2L rows ends
    the recursion.  Both sweeps of a level are fixed linear maps, stored at
    set-up as one stacked matrix per chunk.  The forward map reads the
    chunk's rows of Y or, composed with R, which is local to a chunk, its
    window of 4L+4 entries of g.  The separators' solve reads the chunks'
    last four forward results through an R of its own, which adds each
    chunk's share of the next separator's right-hand side, and returns
    each chunk's previous and own separator; up to 2L separators, it is one
    dense product (beyond L, formed at set-up by their level of two chunks
    on the identity).  A solve is one gather and one batched product
    forward, the separators' solve and one batched product back per level.
    Set-up and storage are O(N L), and a solve is O(N L) flops per column.
    A singular interior or last block raises LinAlgError.
    """
    N, top = len(diag), rows is None
    rows = slice(2 * N) if top else rows
    if N <= _CHUNK:
        inverse = np.linalg.inv(_tridiagonal(diag, sub))
        fused = _restricted(inverse[None], restriction[None])[0, rows, 2:-2]  # T^{-1} R, 4N columns
        return (lambda Y: inverse @ Y) if top else None, (lambda g: fused @ g)
    L, C = _CHUNK, -(-N // _CHUNK)
    D, S = np.tile(np.eye(2), (C * L, 1, 1)), np.zeros((C * L, 2, 2))
    D[:N], S[: N - 1] = diag, sub
    D, S = D.reshape(C, L, 2, 2), S.reshape(C, L, 2, 2)
    T = _tridiagonal(D[:, :-1], S[:, :-2])
    interior, cols = np.linalg.inv(T), [0, 1, -2, -1]
    # one refinement step on the end columns, the only ones the separators
    # see, about halves the solve's largest forward errors
    ends = interior[:, :, cols]
    ends += interior @ (np.eye(T.shape[-1])[:, cols] - T @ ends)
    # separator c couples to chunk c's last interior row by up[c] and to
    # chunk c+1's first by down[c]^T; right and left: T^{-1} times those
    up, down = S[:, -2], S[:-1, -1]
    right = ends[:, :, 2:] @ up.swapaxes(1, 2)
    left = ends[1:, :, :2] @ down
    schur = D[:, -1] - up @ right[:, -2:]
    schur[:-1] -= down.swapaxes(1, 2) @ left[:, :2]
    # fwd maps a chunk's interior and separator rows to: the interior solved
    # alone; a zero pair, the slot of the separator's solution; the
    # interior's share of the previous separator's right-hand side, left^T
    # times the interior rows (T^{-1} is symmetric); and the separator's
    # right-hand side less the interior's share, right^T times them.  back
    # maps the previous and the own separator's solution to the interior's
    # solution, less its forward result, and to the separator's own (chunk
    # 0 reads the last separator as its previous, which back weighs 0)
    n = 2 * L - 2
    fwd = np.zeros((C, n + 6, n + 2))
    fwd[:, :n, :n] = interior
    fwd[1:, n + 2 : n + 4, :n] = -left.swapaxes(1, 2)
    fwd[:, n + 4 :, :n] = -right.swapaxes(1, 2)
    fwd[:, n + 4 :, n:] = np.eye(2)
    back = np.zeros((C, n + 2, 4))
    back[1:, :n, :2], back[:, :n, 2:], back[:, n:, 2:] = left, right, -np.eye(2)
    del T, interior  # the set-up's largest arrays, before R is composed
    # the separators' right-hand sides: each chunk's last two forward
    # results plus the next chunk's previous share, entries 4c+2 ... 4c+5
    # of the chunks' last four results
    shift = np.zeros((C, 2, 8))
    shift[:, :, 4:6], shift[:-1, :, 6:] = np.eye(2), np.eye(2)
    pairs = (2 * np.arange(C)[:, None] + np.arange(-2, 2)).ravel() % (2 * C)
    _, separators = _condensed_solver(schur, -up[1:] @ left[:, -2:], shift, pairs)
    # beyond L and up to 2L separators, one product is about a fifth
    # faster than their level of two chunks (one apply at J = 1,024, 2 cores)
    if L < C <= 2 * L:
        dense = separators(np.eye(4 * C))
        separators = lambda G: dense @ G

    def sweep(F: np.ndarray) -> np.ndarray:
        """The chunks' forward results to the (2 C L, columns) solution."""
        X = separators(F[:, -4:].reshape(4 * C, -1)).reshape(C, 4, -1)
        return (F[:, :-4] - back @ X).reshape(2 * C * L, -1)

    blocks = np.zeros((C * L, 2, 8))
    blocks[:N] = restriction
    fused = _restricted(fwd, blocks.reshape(C, L, 2, 8))
    # the entries each chunk reads, clipped to g and Y: R weighs g's missing
    # ends 0, and what the padded rows read reaches only their own results
    window = np.clip(4 * L * np.arange(C)[:, None] + np.arange(-2, 4 * L + 2), 0, 4 * N - 1)

    def restricted_solve(g: np.ndarray) -> np.ndarray:
        return sweep(fused @ g[window].reshape(C, 4 * L + 4, -1))[rows].reshape(-1, *g.shape[1:])

    if not top:
        return None, restricted_solve
    inputs = np.minimum(np.arange(2 * C * L).reshape(C, 2 * L), 2 * N - 1)

    def solve(Y: np.ndarray) -> np.ndarray:
        return sweep(fwd @ Y[inputs].reshape(C, 2 * L, -1))[rows].reshape(-1, *Y.shape[1:])

    return solve, restricted_solve


def _fast_diagonal_solver(band: np.ndarray, M_block: np.ndarray, dim: int, periodic: bool):
    """Y -> A0^{-1} Y for A0 = K (x) M + M (x) K in 2D and A0 = K in 1D
    (M_block = I), M the tiling of the 2x2 SPD M_block, by fast diagonalization.
    K is _tridiagonal of its (m/2, 3, 2, 2) band plus the periodic wrap blocks.
    eigh and the blockwise M^{-1/2} congruence read only its lower triangle,
    so its upper blocks, the lower ones transposed, need not match the band's.

    V = M^{-1/2} W, with eig(M^{-1/2} K M^{-1/2}) = W diag(mu) W^T, gives
    V^T K V = diag(mu) and V^T M V = I, so A0^{-1} = (V (x) V) diag(1/(mu_i +
    mu_j)) (V (x) V)^T (V diag(1/mu) V^T in 1D), applied one axis at a time.
    Periodic: M 1 = 1, so all eigenvectors but the constant one (mu_0) are
    orthogonal to the constants and dropping it gives the pseudo-inverse.  A
    kept eigenvalue at or below 1e-10 times the largest raises
    SingularCoarseError.
    """
    K = _tridiagonal(band[:, 1], band[:-1, 2])
    if periodic:  # the wrap blocks, which add to filled blocks when m <= 4
        K[-2:, :2] += band[0, 0]
        K[:2, -2:] += band[-1, 2]
    w, U = np.linalg.eigh(M_block)
    root = U / np.sqrt(w) @ U.T  # M^{-1/2} is its tiling, applied by 2x2 blocks
    mu, W = np.linalg.eigh(_tiled(root, _tiled(root, K.T).T))
    V, m = _tiled(root, W), len(K)  # V is one m x m tile
    eigs = (mu if dim == 1 else np.add.outer(mu, mu)).ravel()
    kept = eigs[int(periodic):]
    if not kept.min() > 1e-10 * eigs.max():
        raise SingularCoarseError(f"coarse eigenvalue {kept.min():.3e}, largest {eigs.max():.3e}")
    inverse = np.zeros_like(eigs)
    inverse[int(periodic):] = 1.0 / kept

    def solve(Y: np.ndarray) -> np.ndarray:
        X = (_on_grid(V.T, Y, m, dim).T * inverse).T  # scales the rows of X
        return _on_grid(V, X, m, dim)

    return solve


def _restriction_blocks(band: np.ndarray, block: np.ndarray, a_s: float) -> np.ndarray:
    """R (I - a_s A) in 1D, R = P1^T / 2, by coarse cell: (J/2, 2, 8), block k
    mapping fine dofs 4k-2 ... 4k+5 to coarse dofs 2k and 2k+1.  band is A's
    _cell_band; A's rows in cell k reach no further, and a Dirichlet band
    gives the dofs outside the interval weight 0."""
    rows = np.concatenate([band[:, 0, :, 2:], band[:, 1], band[:, 2, :, :2]], axis=2)
    rows *= -a_s
    rows[:, :, 2:6] += np.eye(4)
    return block.T @ rows / 2


def build_two_level(config: DiscretizationConfig, params: MethodParams) -> TwoLevelOperators:
    """Assemble system, smoother, transfers and coarse solve in one go.

    R = P^T / 2^dim: in 2D the transfers are Kronecker products of the 1D
    ones, hence R = P^T / 4 there; the preconditioner is invariant to this
    scaling because A0 = R A P is built from the same R and P.  A singular
    coarse operator outside the periodic kernel raises SingularCoarseError.
    """
    a_s = params.alpha * smoother_scale(config, params)
    check_dense_cap(config.ndof)  # the same limit as np.asarray of A and P
    A, P = SystemOperator(config), Prolongation(config, params.discontinuity)
    band = _cell_band(A)
    # K's band: [k, t] is its block at block row k+t-1 and block column k,
    # associated as the dense R A P, (A1 P1)^T / 2 @ P1, so each entry rounds
    # as it does
    K = (band @ P.block).swapaxes(2, 3) / 2 @ P.block
    periodic = config.bc is BoundaryCondition.PERIODIC
    if config.dim == 1 and not periodic:
        restriction = _restriction_blocks(band, P.block, a_s)
        del band  # the condensation below sets the set-up's memory peak
        try:  # K's diagonal blocks and K[k+1, k]
            coarse_solve, smoothed_coarse_solve = _condensed_solver(K[:, 1], K[:-1, 2], restriction)
        except np.linalg.LinAlgError as exc:
            raise SingularCoarseError(f"coarse operator not invertible: {exc}") from exc
    else:
        # 1D: the pair (K, I) keeps the eigenvectors orthonormal, so the 1D
        # pseudo-inverse rounds as the dense one does; 2D: M = P1^T P1 / 2
        M_block = np.eye(2) if config.dim == 1 else P.block.T @ P.block / 2
        coarse_solve = _fast_diagonal_solver(K, M_block, config.dim, periodic)
        n, dim = 2 * config.cells_per_dim, config.dim

        def smoothed_coarse_solve(g: np.ndarray) -> np.ndarray:
            # P^T is _on_grid with the transposed 4x2 block, on each grid axis
            r = g - A @ (a_s * g)
            return coarse_solve(_on_grid(P.block.T, r, n, dim) / 2**dim)

    return TwoLevelOperators(config, params, A, P, coarse_solve, smoothed_coarse_solve)


class Preconditioner:
    """The M^{-1} = alpha*s*I + P A0^{-1} R (I - alpha*s*A) of a set-up, with
    s = smoother_scale: one damped smoothing step alpha*s*g, then the coarse
    correction of its residual g - A (alpha*s*g).  M @ Y, for a vector or a
    stack of columns Y, is a_s * Y + P @ smoothed_coarse_solve(Y), a_s =
    alpha*s; np.asarray(M) is dense under the cap."""

    def __init__(self, ops: TwoLevelOperators):
        self.ops, self.shape = ops, ops.A.shape
        self.a_s = ops.params.alpha * smoother_scale(ops.config, ops.params)

    def __matmul__(self, Y) -> np.ndarray:
        Y = np.asarray(Y)
        return self.a_s * Y + self.ops.P @ self.ops.smoothed_coarse_solve(Y)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        check_dense_cap(self.shape[0])
        return np.asarray(_dense(self.__matmul__, self.shape[0]), dtype=dtype)


def preconditioner_matrix(ops: TwoLevelOperators) -> Preconditioner:
    """The M^{-1} of a set-up: apply it by `@`, densify it by np.asarray."""
    return Preconditioner(ops)


def _dense(apply: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """The n x n matrix of a linear map, applied to 2^15 // n identity
    columns at a time, so that its work arrays stay O(2^15) entries."""
    out, width = np.empty((n, n)), max(1, 2**15 // n)
    for j in range(0, n, width):
        out[:, j : j + width] = apply(np.eye(n, min(width, n - j), -j))
    return out


def error_matrix(ops: TwoLevelOperators) -> np.ndarray:
    """Error operator E = (I - P A0^{-1} R A)(I - alpha*s*A) of an assembled
    two-level setup, as I - M^{-1} A, densified by blocks of columns; the
    algebra holds for the periodic pseudo-inverse too."""
    Minv = Preconditioner(ops)
    return _dense(lambda E: E - Minv @ (ops.A @ E), ops.A.shape[0])
