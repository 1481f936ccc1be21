"""Parameter selection for the two-level method.

The spectrum-clustering triple (alpha, delta0, c) solves a nonlinear
3-equation system that removes every frequency dependence from the error
symbol's eigenvalues; its components are the real roots of three quartics
on their brackets, stored correctly rounded as the constant CLUSTERING.
Baseline choices (relaxation only, or relaxation plus penalty, at
continuous interpolation c = 1/2) minimize the two-level convergence factor
exactly at the phase extremes cos(theta) = +/-1: there each eigenvalue is
1 + mu*alpha over the four slopes of ``lfa._extreme_slopes``, so the radius
is the larger of two lines in alpha, minimized at their crossing or a
bracket end; delta0 is where the derivative of that minimum in delta0 (a
complex step through the same slopes) changes sign.  ``lfa.symbol_radius``
proves the radius there the supremum over all frequencies, and is each
result's rho.
The 2D optimum is found by Nelder-Mead on the spectral radius of the 2D
error operator (``spectrum.two_level_error_eigenvalues``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import lfa, spectrum
from .discretization import ConfigError, DiscretizationConfig
from .twolevel import MethodParams

# quartics whose one real root on each bracket is a clustering parameter,
# highest-degree coefficient first
DISCONTINUITY_QUARTIC = (4.0, -8.0, 8.0, -8.0, 3.0)  # c in (0, 1)
PENALTY_QUARTIC = (12.0, -32.0, 24.0, -4.0, -1.0)  # delta0 in (1, 10)
RELAXATION_QUARTIC = (183.0, -352.0, 214.0, -40.0, -1.0)  # alpha in (0, 1)
# the clustering triple: each component is the float nearest its quartic's
# root (the exact quartic changes sign between the midpoints to the
# neighbouring floats), 0x1.d0f9942686aa6p-1, 0x1.8458b09bdf95ep+0 and
# 0x1.2113cfca41cb1p-1
CLUSTERING = MethodParams(0.9081541344670157, 1.51697830014708, 0.5646042761226423)

# brackets of the exact 1D optimizers: alpha for both, delta0 for
# optimize_1d_alpha_delta (which never evaluates delta0 = 1)
ALPHA_RANGE = (1e-4, 1.0)
PENALTY_RANGE = (1.0, 10.0)
# imaginary step of the complex-step derivative in delta0; the slopes are
# rational in delta0, so any step this far below delta0's ulp gives the
# derivative to rounding
_COMPLEX_STEP = 1e-150
_real = operator.attrgetter("real")


@dataclass(frozen=True)
class ClusteringSolution:
    """The clustering triple with its system residuals and LFA radius, or a
    2D optimum (residuals None) with its error-operator radius, objective
    evaluations and failed ones (eigensolve raised, scored +inf)."""

    params: MethodParams
    residuals: tuple[float, float, float] | None
    rho: float
    iterations: int = 0
    failed_evals: int = 0


def clustering_residuals(alpha: float, d0: float, c: float) -> np.ndarray:
    """Residuals of the three conditions that make the error-symbol
    eigenvalues frequency independent, read off ``lfa._coefficients``.

    With x = cos(4*pi*k/J) and E = den0 + den1*x, the center (num0 +
    num1*x)/E vanishes for every x when num1 = num0 = 0, and the radicand
    (r0 + r1*x + r2*x^2)/E^2, where E^2 = den0^2 + s1*x + s2*x^2 with
    s1 = 2*den0*den1 and s2 = den1^2, loses its x dependence with r2/s2 =
    r1/s1 (r0/den0^2 agrees at the clustering triple).  The residuals are
    (num1/(1-c), -num0, 2*(r2/s2 - r1/s1)), the first with num1's factor
    1-c divided out.  s1 and s2 vanish where E's coefficients do: at c = 1,
    or off the admissible box (den0 > 0 > den1 on it).
    """
    (num0, num1), (den0, den1), (_, r1, r2) = lfa._coefficients(alpha, d0, c)
    s1, s2 = 2 * den0 * den1, den1 * den1
    if s1 == 0 or s2 == 0:
        raise lfa.DegenerateParameterError(
            f"clustering residuals undefined at (alpha, delta0, c) = {(alpha, d0, c)}: "
            "zero denominator"
        )
    return np.array([num1 / (1 - c), -num0, 2 * (r2 / s2 - r1 / s1)])


def clustering_parameters() -> ClusteringSolution:
    """CLUSTERING with its system residuals and its LFA radius."""
    residuals = tuple(map(float, clustering_residuals(*CLUSTERING.as_tuple())))
    return ClusteringSolution(CLUSTERING, residuals, lfa.symbol_radius(CLUSTERING))


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


def _minimize_alpha(d0, c) -> tuple:
    """(alpha, radius) minimizing over ALPHA_RANGE the largest eigenvalue
    modulus at cos(theta) = +/-1; d0 may carry a complex step.

    There each eigenvalue is 1 + mu*alpha over lfa's four extreme slopes mu,
    so for alpha > 0 the largest modulus is the larger of the lines
    1 + top*alpha and -1 - bottom*alpha over the largest and smallest slope,
    minimized at their crossing -2/(top + bottom) or a bracket end.
    """
    slopes = lfa._extreme_slopes(d0, c)
    top, bottom = max(slopes, key=_real), min(slopes, key=_real)
    lo, hi = ALPHA_RANGE
    candidates = [lo, hi] + ([-2 / (top + bottom)] if top + bottom != 0 else [])
    return min(((alpha, max(1 + top * alpha, -1 - bottom * alpha, key=_real))
                for alpha in candidates if lo <= alpha.real <= hi), key=lambda pair: pair[1].real)


def optimize_1d_alpha(penalty: float, c: float) -> tuple[float, float]:
    """Best relaxation in ALPHA_RANGE for fixed (penalty, c), as (alpha, rho):
    alpha minimizes the radius at cos(theta) = +/-1 exactly (to rounding),
    and rho is its symbol_radius."""
    MethodParams(ALPHA_RANGE[1], penalty, c)  # raises ConfigError on a bad (penalty, c)
    alpha, _ = _minimize_alpha(float(penalty), float(c))
    return alpha, lfa.symbol_radius(MethodParams(alpha, penalty, c))


def optimize_1d_alpha_delta(c: float) -> tuple[float, float, float]:
    """Best (relaxation, penalty) for fixed c in ALPHA_RANGE x (1, 10], as
    (alpha, delta0, rho).

    The endpoint minimum over alpha falls and then rises with delta0: its
    derivative changes sign once on (1, 10] at every c sampled in
    [1e-3, 1 - 1e-3] and at c = 1e-9 and 1 - 1e-9 (delta0 from 1 + 1e-12
    up; no rounding flip near delta0 = 1).  delta0 is bisected, down
    to adjacent floats, on that sign, the derivative taken exactly to
    rounding by a complex step (Squire & Trapp, SIAM Rev. 40, 1998).  The
    sign changes where the active branches switch and equioscillate (at
    c = 1/2, three of them at 1/5 at (0.9, 1.5)), or at a stationary point
    of one branch (alpha = 1, c above about 0.8).  rho is the result's
    symbol_radius.
    """
    MethodParams(ALPHA_RANGE[1], PENALTY_RANGE[1], c)  # raises ConfigError on a bad c
    c = float(c)
    lo, hi = PENALTY_RANGE
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _minimize_alpha(complex(mid, _COMPLEX_STEP), c)[1].imag < 0:
            lo = mid
        else:
            hi = mid
    alpha, _ = _minimize_alpha(hi, c)
    return alpha, hi, lfa.symbol_radius(MethodParams(alpha, hi, c))


def optimize_2d(
    config: DiscretizationConfig,
    initial: MethodParams | None = None,
    max_evals: int = 200,
) -> ClusteringSolution:
    """Minimize the 2D error-operator spectral radius over the full triple by
    Nelder-Mead, starting from the 1D clustering triple CLUSTERING.

    An evaluation whose eigensolve raises LinAlgError scores +inf for the
    search and is counted in the result's failed_evals.  A config whose dim
    is not 2 raises ConfigError.
    """
    if config.dim != 2:
        raise ConfigError(f"optimize_2d needs a 2D config, got dim={config.dim}")
    if initial is None:
        initial = CLUSTERING
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
    return ClusteringSolution(MethodParams(*result.x), None, result.fval, result.nfev, failed)
