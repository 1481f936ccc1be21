"""Krylov and stationary solvers for the preconditioned experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    residual_history holds the norm the method monitors (for GMRES the
    preconditioned residual, starting with the initial one); true_residual
    is the final unpreconditioned residual norm, recorded for reporting.
    contraction is the stationary method's late-iteration error reduction
    factor estimate (NaN when not applicable).
    """

    iterations: int
    residual_history: list[float]
    converged: bool
    solution: np.ndarray
    true_residual: float = math.nan
    contraction: float = math.nan


def _checked(b, tol, max_iter) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b must be a 1-D vector, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    if not 0 <= tol < math.inf:  # NaN too
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    return b


def gmres(apply_A, apply_M, b, tol: float = 1e-8, max_iter: int | None = None) -> SolveReport:
    """Left-preconditioned GMRES, no restarts, modified Gram-Schmidt.

    Minimizes the preconditioned residual over the full Krylov space with
    zero initial guess; stops when it drops below tol relative to the
    initial one.  A happy breakdown (invariant subspace reached) returns
    converged=True only if the tolerance is met at that point; a zero rotated
    column (singular operator) adds nothing and ends at the previous iterate.
    """
    b = _checked(b, tol, max_iter)
    if not np.any(b):
        raise ValueError("right-hand side must be nonzero")
    if apply_M is None:
        apply_M = lambda v: v
    if max_iter is None:
        max_iter = b.size
    r0 = apply_M(b)
    beta = _norm(r0)
    history = [beta]
    if beta == 0.0 or max_iter == 0:
        return SolveReport(0, history, False, np.zeros_like(b), _norm(b))

    # the Hessenberg columns, rotations and g are Python floats: each costs
    # one rounding, as a numpy scalar would, at a fraction of the overhead
    basis = [r0 / beta]  # Krylov basis as rows
    columns = []  # rotated Hessenberg column j, length j + 1
    cs, sn, g = [], [], [beta]
    converged = False
    for j in range(max_iter):
        w = apply_M(apply_A(basis[j]))
        h = [float(basis[0] @ w)]  # modified Gram-Schmidt
        w = w - h[0] * basis[0]  # a new array, which the later steps update
        for v in basis[1:]:
            h.append(float(v @ w))
            w -= h[-1] * v
        below = _norm(w)  # the subdiagonal entry h[j + 1]
        happy = below <= 1e-14 * beta
        if not happy:
            basis.append(w / below)
        for i in range(j):  # apply stored rotations to the new column
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
        denom = math.hypot(h[j], below)
        if denom == 0.0:
            break
        cs.append(h[j] / denom)
        sn.append(below / denom)
        h[j] = denom
        columns.append(h)
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]
        history.append(abs(g[j + 1]))
        converged = history[-1] <= tol * beta
        if converged or happy:
            break

    m = len(columns)
    R = np.zeros((m, m))  # upper-triangular factor of the Hessenberg matrix
    for j, column in enumerate(columns):
        R[: j + 1, j] = column
    x = np.linalg.solve(R, g[:m]) @ np.array(basis[:m])
    return SolveReport(m, history, converged, x, _norm(b - apply_A(x)))


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float vector, as np.linalg.norm computes it."""
    return math.sqrt(v @ v)


def stationary_solve(
    apply_A,
    apply_M,
    b,
    tol: float = 1e-8,
    max_iter: int = 1000,
    x0=None,
    project=None,
) -> SolveReport:
    """Stationary two-level iteration u <- u + M(b - A u).

    project (the identity by default) restricts iterates and residuals to a
    subspace (kernel deflation for singular periodic systems).  The
    contraction field estimates the asymptotic residual reduction factor from
    the last iterations (geometric mean, which averages out equioscillation).
    """
    if project is None:
        project = lambda v: v
    b = project(_checked(b, tol, max_iter))
    u = project(np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float).copy())
    ref = float(np.linalg.norm(b)) or 1.0  # a zero b is measured absolutely

    r = project(b - apply_A(u))
    history = [float(np.linalg.norm(r))]
    converged = history[0] <= tol * ref
    iterations = grow = 0
    while not converged and iterations < max_iter:
        u = project(u + apply_M(r))
        r = project(b - apply_A(u))
        history.append(float(np.linalg.norm(r)))
        iterations += 1
        if history[-1] <= tol * ref:
            converged = True
            break
        grow = grow + 1 if history[-1] > history[-2] else 0
        if grow >= 10:
            break

    contraction = math.nan
    if len(history) >= 3:
        k = min(10, len(history) - 1)
        if history[-1 - k] > 0:
            contraction = (history[-1] / history[-1 - k]) ** (1.0 / k)
    return SolveReport(iterations, history, converged, u, history[-1], contraction)
