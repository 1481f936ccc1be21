"""Left-preconditioned GMRES for the preconditioned experiments (the
stationary iteration is a test reference that shares _checked)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a solve stalls when its residual has not halved over the last 25 steps; the
# slowest converging solve the tests run (100 spread eigenvalues) falls about 9x in 25
STAGNATION_STEPS, STAGNATION_FACTOR = 25, 0.5


@dataclass
class SolveReport:
    """Outcome of one GMRES solve.

    residual_history holds the preconditioned residual norms, starting with
    the initial one; true_residual is the final unpreconditioned residual
    norm, recorded for reporting.
    """

    iterations: int
    residual_history: list[float]
    converged: bool
    solution: np.ndarray
    true_residual: float


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
    initial one, or with converged=False once it is above STAGNATION_FACTOR
    times its value STAGNATION_STEPS steps earlier (as for an inconsistent
    load on a singular operator).  A happy breakdown (invariant subspace
    reached) returns converged=True only if the tolerance is met at that
    point; a zero rotated column (singular operator) adds nothing and ends at
    the previous iterate.
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
        stalled = len(history) > STAGNATION_STEPS and history[-1] > STAGNATION_FACTOR * history[-1 - STAGNATION_STEPS]
        if converged or happy or stalled:
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
