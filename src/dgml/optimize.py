"""Parameter selection for the two-level method.

The spectrum-clustering triple (alpha, delta0, c) solves a nonlinear
3-equation system that removes every frequency dependence from the error
symbol's eigenvalues; its components are roots of three quartics, each
bisected on its bracket.  Baseline choices (relaxation
only, or relaxation plus penalty, at continuous interpolation c = 1/2) are
found by direct minimization of the two-level convergence factor, and the
2D optimum by Nelder-Mead on the spectral radius of the 2D error operator
(``spectrum.two_level_error_eigenvalues``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lfa, spectrum
from .discretization import ConfigError, DiscretizationConfig
from .twolevel import MethodParams

# quartics whose bracketed real roots give the clustering parameters,
# highest-degree coefficient first
DISCONTINUITY_QUARTIC = (4.0, -8.0, 8.0, -8.0, 3.0)  # c in (0, 1)
PENALTY_QUARTIC = (12.0, -32.0, 24.0, -4.0, -1.0)  # delta0 in (1, 10)
RELAXATION_QUARTIC = (183.0, -352.0, 214.0, -40.0, -1.0)  # alpha in (0, 1)


class NewtonDivergenceError(RuntimeError):
    """Newton iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = tuple(last_iterate)


@dataclass(frozen=True)
class ClusteringSolution:
    """A parameter triple with its system residuals and predicted factor.

    failed_evals counts objective evaluations whose eigensolve raised
    (scored as +inf for the search).
    """

    params: MethodParams
    residuals: tuple[float, float, float]
    rho: float
    iterations: int = 0
    failed_evals: int = 0


def bracketed_root(coeffs, lo: float, hi: float) -> float:
    """The root of a polynomial (highest-degree coefficient first) on a
    bracket [lo, hi] over which it strictly changes sign.

    Bisects until lo and hi are adjacent floats and returns the endpoint
    with the smaller |p|; raises ValueError without a strict sign change.
    p is Horner's y = y*x + a from y = 0 on floats, np.polyval's order and bits.
    """
    coeffs = np.asarray(coeffs, dtype=float).tolist()

    def p(x):
        y = 0.0
        for a in coeffs:
            y = y * x + a
        return y

    flo, fhi = p(lo), p(hi)
    if not (lo < hi and (flo < 0 < fhi or fhi < 0 < flo)):
        raise ValueError(f"no strict sign change on [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fmid = p(mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


def clustering_residuals(alpha: float, d0: float, c: float) -> np.ndarray:
    """Residuals of the three conditions that make the error-symbol
    eigenvalues frequency independent, read off ``lfa._coefficients``.

    With x = cos(4*pi*k/J), the center (num0 + num1*x)/(den0 + den1*x)
    vanishes for every x when num1 = num0 = 0, and the radicand (r0 + r1*x
    + r2*x^2)/(s0 + s1*x + s2*x^2) loses its x dependence with r2/s2 =
    r1/s1 (r0/s0 agrees at the clustering triple).  The residuals are
    (num1/(1-c), -num0, 2*(r2/s2 - r1/s1)), the first with num1's factor
    1-c divided out.
    """
    (num0, num1), _, (_, r1, r2), (_, s1, s2) = lfa._coefficients(alpha, d0, c)
    if c == 1.0 or abs(s1) < 1e-300 or abs(s2) < 1e-300:
        raise lfa.DegenerateParameterError(
            f"clustering residuals undefined at (alpha, delta0, c) = {(alpha, d0, c)}: "
            "zero denominator"
        )
    return np.array([num1 / (1 - c), -num0, 2 * (r2 / s2 - r1 / s1)])


def clustering_system_residuals(params: MethodParams) -> tuple[float, float, float]:
    """clustering_residuals of a validated parameter triple, as floats."""
    return tuple(float(r) for r in clustering_residuals(*params.as_tuple()))


def predicted_radius(params: MethodParams) -> float:
    """|lambda| predicted by the closed form at the zero phase."""
    return float(np.max(np.abs(lfa.eigenvalues_closed_form_at(1.0, params))))


def clustering_parameters() -> ClusteringSolution:
    """The clustering triple from the three quartic roots, each bisected on
    the bracket where its quartic changes sign once."""
    c = bracketed_root(DISCONTINUITY_QUARTIC, 0.0, 1.0)
    d0 = bracketed_root(PENALTY_QUARTIC, 1.0, 10.0)
    alpha = bracketed_root(RELAXATION_QUARTIC, 0.0, 1.0)
    params = MethodParams(alpha, d0, c)
    res = clustering_system_residuals(params)
    return ClusteringSolution(params, res, predicted_radius(params))


def solve_clustering_system(
    initial: MethodParams, tol: float = 1e-10, max_iter: int = 100
) -> ClusteringSolution:
    """Damped Newton on the clustering system with finite-difference
    Jacobian; raises NewtonDivergenceError with the last iterate if the
    residual cannot be driven below tol."""
    x = np.array(initial.as_tuple(), dtype=float)
    fx = clustering_residuals(*x)
    for it in range(max_iter):
        norm = np.max(np.abs(fx))
        if norm < tol:
            try:
                params = MethodParams(*x)
            except ConfigError as exc:  # never return a triple outside the box
                raise NewtonDivergenceError(
                    f"converged outside the valid box: {exc}", x
                ) from exc
            return ClusteringSolution(
                params, clustering_system_residuals(params), predicted_radius(params), it
            )
        Jac = np.empty((3, 3))
        try:
            for j in range(3):
                step = 1e-7 * max(abs(x[j]), 1.0)
                xp = x.copy()
                xp[j] += step
                Jac[:, j] = (clustering_residuals(*xp) - fx) / step
            delta = np.linalg.solve(Jac, -fx)
        except (lfa.DegenerateParameterError, np.linalg.LinAlgError) as exc:
            raise NewtonDivergenceError(f"no Newton step: {exc}", x) from exc
        lam = 1.0
        for _ in range(40):
            x_new = x + lam * delta
            try:
                f_new = clustering_residuals(*x_new)
            except (lfa.DegenerateParameterError, FloatingPointError):
                f_new = np.array([np.inf] * 3)
            if np.all(np.isfinite(f_new)) and np.max(np.abs(f_new)) < norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"no descent after damping, residual {norm:.3e}", x
            )
        x, fx = x_new, f_new
    raise NewtonDivergenceError(
        f"no convergence in {max_iter} iterations, residual {np.max(np.abs(fx)):.3e}", x
    )


def golden_section(f, lo: float, hi: float, tol: float = 1e-8, max_iter: int = 200):
    """Golden-section minimization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


@dataclass
class NelderMeadResult:
    x: np.ndarray
    fval: float
    nfev: int
    best_history: list[float]  # best objective after each accepted step


def nelder_mead(f, x0, steps, max_evals=2000) -> NelderMeadResult:
    """Standard Nelder-Mead simplex minimization (reflect/expand/contract/
    shrink) until the simplex spans < 1e-12 in value and < 1e-9 in x;
    best_history records the best value after every simplex update, so
    accepted steps are non-increasing by construction."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.repeat(x0[None], n + 1, axis=0)
    sim[np.arange(1, n + 1), np.arange(n)] += steps
    fvals = np.array([f(x) for x in sim])
    nfev = n + 1
    history = [float(fvals.min())]
    while nfev < max_evals:
        order = np.argsort(fvals)
        sim, fvals = sim[order], fvals[order]
        if math.isfinite(fvals[0]) and fvals[-1] - fvals[0] < 1e-12 and np.abs(sim[1:] - sim[0]).max() < 1e-9:
            break
        centroid = sim[:-1].sum(axis=0) / n
        xr = centroid + (centroid - sim[-1])
        fr = f(xr)
        nfev += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = f(xe)
            nfev += 1
            sim[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = f(xc)
            nfev += 1
            if fc < fvals[-1]:
                sim[-1], fvals[-1] = xc, fc
            else:  # shrink toward the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fvals[1:] = [f(x) for x in sim[1:]]
                nfev += n
        history.append(float(fvals.min()))
    order = np.argsort(fvals)
    return NelderMeadResult(sim[order][0], float(fvals[order][0]), nfev, history)


def optimize_1d_alpha(penalty: float, c: float) -> tuple[float, float]:
    """Best relaxation for fixed (penalty, c): minimizes the two-level
    convergence factor over a dense phase grid."""

    def objective(alpha):
        return lfa.symbol_radius(MethodParams(alpha, penalty, c))

    return golden_section(objective, 1e-4, 1.0, tol=1e-9)


def optimize_1d_alpha_delta(c: float) -> tuple[float, float, float]:
    """Best (relaxation, penalty) for fixed c; returns (alpha, delta0, rho)."""

    def objective(v):
        alpha, d0 = v
        if not (0.0 < alpha <= 1.0 and d0 > 1.0):
            return np.inf
        return lfa.symbol_radius(MethodParams(alpha, d0, c))

    result = nelder_mead(objective, (0.9, 1.8), steps=(0.05, 0.2), max_evals=400)
    alpha, d0 = result.x
    return alpha, d0, result.fval


def optimize_2d(
    config: DiscretizationConfig,
    initial: MethodParams | None = None,
    max_evals: int = 200,
) -> ClusteringSolution:
    """Minimize the 2D error-operator spectral radius over the full triple by
    Nelder-Mead, starting from the 1D clustering triple.

    An evaluation whose eigensolve raises LinAlgError scores +inf for the
    search and is counted in the result's failed_evals.
    """
    if initial is None:
        initial = clustering_parameters().params
    failed = 0

    def objective(v):
        nonlocal failed
        alpha, d0, c = v
        if not (0.0 < alpha <= 1.0 and d0 > 1.0 and 0.0 < c < 1.0):
            return np.inf
        p = MethodParams(alpha, d0, c)
        cfg = DiscretizationConfig(config.cells_per_dim, d0, config.bc, 2)
        try:
            eigs = spectrum.two_level_error_eigenvalues(cfg, p)
        except np.linalg.LinAlgError:
            failed += 1
            return np.inf
        return float(np.max(np.abs(eigs)))

    result = nelder_mead(
        objective,
        np.array(initial.as_tuple()),
        steps=(0.02, 0.05, 0.02),
        max_evals=max_evals,
    )
    params = MethodParams(*result.x)
    return ClusteringSolution(
        params, clustering_system_residuals(params), result.fval, result.nfev, failed
    )
