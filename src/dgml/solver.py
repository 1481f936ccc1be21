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


def _back_substitution(U: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve U y = g for upper-triangular U."""
    if not np.all(np.diag(U)):
        raise np.linalg.LinAlgError("Singular matrix")
    y = np.zeros(len(g))
    for i in reversed(range(len(g))):
        y[i] = (g[i] - U[i, i + 1 :] @ y[i + 1 :]) / U[i, i]
    return y


def gmres(apply_A, apply_M, b, tol: float = 1e-8, max_iter: int | None = None) -> SolveReport:
    """Left-preconditioned GMRES, no restarts, modified Gram-Schmidt.

    Minimizes the preconditioned residual over the full Krylov space with
    zero initial guess; stops when it drops below tol relative to the
    initial one.  A happy breakdown (invariant subspace reached) returns
    converged=True only if the tolerance is met at that point.
    """
    b = np.asarray(b, dtype=float)
    if not np.any(b):
        raise ValueError("right-hand side must be nonzero")
    if apply_M is None:
        apply_M = lambda v: v
    n = b.size
    if max_iter is None:
        max_iter = n
    r0 = apply_M(b)
    beta = float(np.linalg.norm(r0))
    history = [beta]
    if beta == 0.0:
        return SolveReport(0, history, False, np.zeros(n), float(np.linalg.norm(b)))

    cap = min(max_iter, 32)  # Arnoldi steps V and H hold; doubled when reached
    V = np.zeros((cap + 1, n))  # basis as rows
    H = np.zeros((cap + 1, cap))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    V[0] = r0 / beta
    g[0] = beta

    converged = False
    m = 0
    for j in range(max_iter):
        if j == cap:
            grow = min(cap, max_iter - cap)
            V = np.pad(V, ((0, grow), (0, 0)))
            H = np.pad(H, ((0, grow), (0, grow)))
            cap += grow
        w = apply_M(apply_A(V[j]))
        for i in range(j + 1):  # modified Gram-Schmidt
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        happy = H[j + 1, j] <= 1e-14 * beta
        if not happy:
            V[j + 1] = w / H[j + 1, j]
        for i in range(j):  # apply stored rotations to the new column
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = math.hypot(H[j, j], H[j + 1, j])
        cs[j] = H[j, j] / denom if denom else 1.0
        sn[j] = H[j + 1, j] / denom if denom else 0.0
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        m = j + 1
        history.append(abs(g[j + 1]))
        if abs(g[j + 1]) <= tol * beta:
            converged = True
            break
        if happy:
            break

    y = _back_substitution(H[:m, :m], g[:m])
    x = y @ V[:m]
    true_res = float(np.linalg.norm(b - apply_A(x)))
    return SolveReport(m, history, converged, x, true_res)


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

    project, when given, restricts iterates and residuals to a subspace
    (kernel deflation for singular periodic systems).  The contraction
    field estimates the asymptotic residual reduction factor from the last
    iterations (geometric mean, which averages out equioscillation).
    """
    b = np.asarray(b, dtype=float)
    if project is not None:
        b = project(b)
    u = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float).copy()
    if project is not None:
        u = project(u)
    bnorm = float(np.linalg.norm(b))
    ref = bnorm if bnorm > 0 else 1.0

    def residual(u):
        r = b - apply_A(u)
        return project(r) if project is not None else r

    r = residual(u)
    history = [float(np.linalg.norm(r))]
    converged = history[0] <= tol * ref
    iterations = 0
    grow = 0
    while not converged and iterations < max_iter:
        u = u + apply_M(r)
        if project is not None:
            u = project(u)
        r = residual(u)
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
