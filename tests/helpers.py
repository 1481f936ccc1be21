"""Oracle utilities for the tests.

The coarse-cell Fourier bases built here block-diagonalize the dense
periodic operators independently of the symbol formulas, so comparing
projected blocks against the symbol module is a genuine two-route check.
deflate_constant gives the dense periodic spectrum with the constant mode
deflated, the oracle of the symbol-based periodic spectra.  sipg_1d_loop,
prolongation_loop and dense_two_level build the two-level set-up entry by
entry and product by product, the oracle of the structured build_two_level
(its A @ X and P @ Y too), preconditioner_matrix and error_matrix.  coarse_operator builds the
Galerkin coarse operator R A P, which build_two_level does not store, from
the same loops at every size the set-up accepts.  closed_form_pairs is the
complex-path closed form, the bits of lfa.eigenvalues_closed_form_at, and
reference_symbol_radius its largest modulus on a 256-point theta grid: the
objective of the searches below and a grid whose excess over the radius at
the phase extremes radicand_slack and exact_modulus account for.
rational_pair is the closed-form pair at cos(theta) = +/-1 in exact
rational arithmetic, and exact_radius its largest modulus, with the
rounding bound that lfa.symbol_radius must meet against it.
polyval_bracketed_root is the np.polyval bisection the clustering constant
is checked against.  solve_clustering_system is damped
Newton on optimize.clustering_residuals, the independent solve that
optimize.CLUSTERING must agree with.  loop_nelder_mead builds
and shrinks the simplex vertex by vertex and takes the centroid by mean,
the reference of optimize.nelder_mead's iterates.  search_1d_alpha and
search_1d_alpha_delta are the golden-section and Nelder-Mead searches the
1D optimizers ran before their exact solve, with the same brackets, start
and steps, on reference_symbol_radius: the radii that the exact optimizers
must match or beat.  loop_gmres keeps the Hessenberg column
in an array and the rotations in numpy scalars and takes norms by
np.linalg.norm, the reference that solver.gmres must reproduce bit for bit,
its stagnation stop included.
stationary_solve is the stationary two-level iteration whose late
contraction acceptance criterion 8 compares with the LFA radius; it checks
its inputs by solver._checked, as gmres does.  multiset_deviation is the
greedy matching distance between two eigenvalue multisets, with which the
tests compare spectra.
"""

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from dgml import lfa, optimize, solver
from dgml.discretization import BoundaryCondition, ConfigError
from dgml.twolevel import MethodParams, smoother_scale


def cell_fourier_basis(J, k, width):
    """Orthonormal coarse-cell Fourier basis at theta = 4*pi*k/J: column j
    puts e^{i theta m}/sqrt(J/2) on dof width*m + j of each of the J/2 coarse
    cells m (width 4 on the fine grid, 2 on the coarse grid)."""
    m = np.arange(J // 2)
    phase = np.exp(4j * np.pi * k * m / J) / np.sqrt(J // 2)
    return np.kron(phase[:, None], np.eye(width))


def projected_block(op, basis_out, basis_in):
    """Matrix of a dense operator between two orthonormal bases."""
    return basis_out.conj().T @ op @ basis_in


def invariance_defect(op, basis):
    """How far the operator maps the span of basis outside itself."""
    image = op @ basis
    return np.linalg.norm(image - basis @ (basis.conj().T @ image))


def deflate_constant(M):
    """Compress M to the complement of the constant vector, Pi M Pi."""
    n = M.shape[0]
    w = np.full(n, 1.0 / np.sqrt(n))
    Pi = np.eye(n) - np.outer(w, w)
    return Pi @ M @ Pi


def sipg_1d_loop(J, delta0, bc):
    """The 1D SIPG matrix from the stencil in the discretization docstring,
    one entry at a time (periodic indices wrap and accumulate)."""
    n = 2 * J
    periodic = bc is BoundaryCondition.PERIODIC
    A = np.zeros((n, n))
    for m in range(J):
        stencil = {
            2 * m: ((2 * m - 2, -0.5), (2 * m - 1, 1 - delta0), (2 * m, delta0), (2 * m + 2, -0.5)),
            2 * m + 1: ((2 * m - 1, -0.5), (2 * m + 1, delta0), (2 * m + 2, 1 - delta0), (2 * m + 3, -0.5)),
        }
        for row, entries in stencil.items():
            for col, v in entries:
                if periodic:
                    A[row, col % n] += v
                elif 0 <= col < n:
                    A[row, col] += v
    if not periodic:  # boundary-face penalty
        A[0, 0] += delta0
        A[n - 1, n - 1] += delta0
    return A * float(J) ** 2


def prolongation_loop(J, c):
    """The 1D prolongation: the 4x2 block placed once per coarse cell."""
    P = np.zeros((2 * J, J))
    for K in range(J // 2):
        P[4 * K : 4 * K + 4, 2 * K : 2 * K + 2] = [[1.0, 0.0], [c, 1.0 - c], [1.0 - c, c], [0.0, 1.0]]
    return P


def dense_two_level(config, params):
    """The two-level set-up from dense products: A0 = R A P, its inverse (the
    pseudo-inverse when periodic) and, in 1D, the preconditioner
    Minv = P A0inv R (I - alpha s A) + alpha s I (None in 2D)."""
    J, dim = config.cells_per_dim, config.dim
    A = sipg_1d_loop(J, config.penalty, config.bc)
    P = prolongation_loop(J, params.discontinuity)
    if dim == 2:
        eye = np.eye(2 * J)
        A, P = np.kron(A, eye) + np.kron(eye, A), np.kron(P, P)
    R = P.T / 2**dim
    A0 = R @ A @ P
    periodic = config.bc is BoundaryCondition.PERIODIC
    if dim == 1:
        A0inv = refined_inverse(coarse_band(A0), periodic)
    elif periodic:
        A0inv = np.linalg.pinv(A0, rcond=1e-10, hermitian=True)
    else:
        A0inv = np.linalg.inv(A0)
    Minv = None
    if dim == 1:
        n = A.shape[0]
        a_s = params.alpha * smoother_scale(config, params)
        Minv = P @ A0inv @ R @ (np.eye(n) - a_s * A)
        Minv[np.diag_indices(n)] += a_s
    return SimpleNamespace(A=A, P=P, A0=A0, A0inv=A0inv, Minv=Minv)


def coarse_operator(config, params):
    """R A P from sipg_1d_loop and prolongation_loop: K = P1^T A1 P1 / 2 in
    1D and, with M = P1^T P1 / 2, K (x) M + M (x) K in 2D.  P1 acts by its
    4x2 blocks through reshapes, as a dense P^T (A P) is slow at J = 2048."""
    J = config.cells_per_dim
    block = prolongation_loop(2, params.discontinuity)

    def galerkin(A):  # P1^T A P1 / 2
        AP = (A.reshape(2 * J, J // 2, 4) @ block).reshape(2 * J, J)
        return (block.T @ AP.reshape(J // 2, 4, J)).reshape(J, J) / 2

    K = galerkin(sipg_1d_loop(J, config.penalty, config.bc))
    if config.dim == 1:
        return K
    M = galerkin(np.eye(2 * J))
    return np.kron(K, M) + np.kron(M, K)


def closed_form_pairs(cosine, params):
    """Closed-form pairs N/E +/- sqrt(R)/E through a complex square root,
    from _coefficients of the triple's own components, after a mask check of
    the denominator E: the (..., 2) complex array of eigenvalues_closed_form_at."""
    (num0, num1), (den0, den1), (r0, r1, r2) = lfa._coefficients(*params.as_tuple())
    x = np.asarray(cosine, dtype=float)
    den = den0 + den1 * x
    bad = np.abs(den) < 1e-14
    if np.any(bad):
        raise lfa.DegenerateParameterError(
            f"degenerate eigenvalue expression at cos={x[bad]}: zero denominator"
        )
    center = (num0 + num1 * x) / den
    root = np.sqrt((r0 + r1 * x + r2 * x * x).astype(complex)) / den
    return np.stack([center + root, center - root], axis=-1)


def reference_symbol_radius(params):
    """max |lambda| of closed_form_pairs on the 256-point theta grid in
    [0, 2*pi): the value symbol_radius must return."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    return float(np.abs(closed_form_pairs(np.cos(thetas), params)).max())


def radicand_slack(params):
    """How far rounding may lift a float closed-form modulus above the
    radius at cos(theta) = +/-1 where the pair is nearly double: 8 ulp plus
    sqrt's share of the radicand's rounding, a few units of eps on the terms
    of its numerator, which cancel there (err/(2 sqrt(q)), or sqrt(err)
    where q is within err of zero)."""
    _, (den0, den1), r = lfa._coefficients(*params.as_tuple())
    slack = 0.0
    for x in (1.0, -1.0):
        den = (den0 + den1 * x) ** 2
        q = (r[0] + r[1] * x + r[2] * x * x) / den
        err = 4 * sys.float_info.epsilon * sum(map(abs, r)) / abs(den)
        slack = max(slack, err / (2 * math.sqrt(q)) if q > err else math.sqrt(err))
    return 8 * math.ulp(lfa.symbol_radius(params)) + slack


def rational_pair(alpha, d0, c, x):
    """The closed-form pair center +/- sqrt(q) of lfa._coefficients in exact
    rational arithmetic at a rational cosine x = +/-1, where q is a rational
    square."""
    (num0, num1), (den0, den1), (r0, r1, r2) = lfa._coefficients(alpha, d0, c)
    center = Fraction(num0 + num1 * x) / (den0 + den1 * x)
    q = Fraction(r0 + r1 * x + r2 * x * x) / (den0 + den1 * x) ** 2
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    assert root * root == q
    return {center + root, center - root}


def exact_radius(params):
    """(r, bound) in rational arithmetic: the exact radius r, the largest
    modulus of rational_pair at cos(theta) = +/-1 of the float triple, and
    the bound on |lfa.symbol_radius - r|.

    The bound counts roundings, each at most 2^-53 relative.  Each of
    lfa._extreme_slopes' four slopes mu is a quotient of products of sums
    whose terms have one sign, so its relative error is at most 2^-53 times
    the number of roundings on its longest path: 15 for
    -2u(1-2w)/(c^2 + u(t(d0+1) + 2w)) (the inputs d0 - 1, 1 - c and 1 - 2c
    one each, w two, t and 1 - 2w three), fewer for the other three.
    alpha*mu adds one, and 1 + alpha*mu one relative to its own size, so
    |symbol_radius - r| <= 2^-53 (16 alpha*max|mu| + r) to first order; one
    more rounding on both terms covers the second order:
    17 * 2^-53 (max|lambda - 1| + r).
    """
    alpha, d0, c = map(Fraction, params.as_tuple())
    pairs = rational_pair(alpha, d0, c, 1) | rational_pair(alpha, d0, c, -1)
    exact = max(map(abs, pairs))
    return exact, Fraction(17, 2**53) * (max(abs(lam - 1) for lam in pairs) + exact)


def exact_modulus(params, x, bits=300):
    """max |lambda| of the closed-form pair at a float cosine x in rational
    arithmetic, its square root truncated to `bits` bits; the pair is real on
    [-1, 1]."""
    (n0, n1), (e0, e1), r = lfa._coefficients(*map(Fraction, params.as_tuple()))
    x = Fraction(x)
    centre = (n0 + n1 * x) / (e0 + e1 * x)
    q = (r[0] + r[1] * x + r[2] * x * x) / (e0 + e1 * x) ** 2
    assert q >= 0
    return abs(centre) + Fraction(math.isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def polyval_bracketed_root(coeffs, lo, hi):
    """Bisection of a strict sign change on [lo, hi] with np.polyval, down
    to adjacent floats; the endpoint with the smaller |p| is the root."""
    flo, fhi = np.polyval(coeffs, lo), np.polyval(coeffs, hi)
    if not (lo < hi and np.sign(flo) * np.sign(fhi) < 0):
        raise ValueError(f"no strict sign change on [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fmid = np.polyval(coeffs, mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


class NewtonDivergenceError(RuntimeError):
    """Newton iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = tuple(last_iterate)


def solve_clustering_system(initial, tol=1e-10, max_iter=100):
    """Damped Newton on the clustering system with finite-difference
    Jacobian, as an optimize.ClusteringSolution carrying its iteration
    count; raises NewtonDivergenceError with the last iterate if the
    residual cannot be driven below tol."""
    x = np.array(initial.as_tuple(), dtype=float)
    fx = optimize.clustering_residuals(*x)
    for it in range(max_iter):
        norm = np.max(np.abs(fx))
        if norm < tol:
            try:
                params = MethodParams(*x)
            except ConfigError as exc:  # never return a triple outside the box
                raise NewtonDivergenceError(f"converged outside the valid box: {exc}", x) from exc
            return optimize.ClusteringSolution(
                params, tuple(map(float, fx)), lfa.symbol_radius(params), it
            )
        Jac = np.empty((3, 3))
        try:
            for j in range(3):
                step = 1e-7 * max(abs(x[j]), 1.0)
                xp = x.copy()
                xp[j] += step
                Jac[:, j] = (optimize.clustering_residuals(*xp) - fx) / step
            delta = np.linalg.solve(Jac, -fx)
        except (lfa.DegenerateParameterError, np.linalg.LinAlgError) as exc:
            raise NewtonDivergenceError(f"no Newton step: {exc}", x) from exc
        lam = 1.0
        for _ in range(40):
            x_new = x + lam * delta
            try:
                f_new = optimize.clustering_residuals(*x_new)
            except (lfa.DegenerateParameterError, FloatingPointError):
                f_new = np.array([np.inf] * 3)
            if np.all(np.isfinite(f_new)) and np.max(np.abs(f_new)) < norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(f"no descent after damping, residual {norm:.3e}", x)
        x, fx = x_new, f_new
    raise NewtonDivergenceError(
        f"no convergence in {max_iter} iterations, residual {np.max(np.abs(fx)):.3e}", x
    )


def search_1d_alpha(penalty, c):
    """Golden section for the relaxation on [1e-4, 1]: (alpha, radius)."""
    return optimize.golden_section(
        lambda alpha: reference_symbol_radius(MethodParams(alpha, penalty, c)), 1e-4, 1.0, tol=1e-9
    )


def search_1d_alpha_delta(c):
    """Nelder-Mead for (alpha, delta0) from (0.9, 1.8) with steps (0.05, 0.2):
    (alpha, delta0, radius)."""

    def objective(v):
        alpha, d0 = v
        if not (0.0 < alpha <= 1.0 and d0 > 1.0):
            return np.inf
        return reference_symbol_radius(MethodParams(alpha, d0, c))

    result = optimize.nelder_mead(objective, (0.9, 1.8), steps=(0.05, 0.2), max_evals=400)
    return (*result.x, result.fval)


def loop_nelder_mead(f, x0, steps, max_evals=2000):
    """Nelder-Mead with the simplex built and shrunk one vertex at a time;
    returns (best x, best value, evaluations, best value after each step)."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = [x0]
    for j in range(n):
        xj = x0.copy()
        xj[j] += steps[j]
        sim.append(xj)
    sim = np.array(sim)
    fvals = np.array([f(x) for x in sim])
    nfev = n + 1
    history = [float(fvals.min())]
    while nfev < max_evals:
        order = np.argsort(fvals)
        sim, fvals = sim[order], fvals[order]
        if fvals[-1] - fvals[0] < 1e-12 and np.max(np.abs(sim[1:] - sim[0])) < 1e-9:
            break
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = f(xr)
        nfev += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = f(xe)
            nfev += 1
            if fe < fr:
                sim[-1], fvals[-1] = xe, fe
            else:
                sim[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = f(xc)
            nfev += 1
            if fc < fvals[-1]:
                sim[-1], fvals[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fvals[j] = f(sim[j])
                nfev += n
        history.append(float(fvals.min()))
    order = np.argsort(fvals)
    return sim[order][0], float(fvals[order][0]), nfev, history


def loop_gmres(apply_A, apply_M, b, tol):
    """Left-preconditioned MGS GMRES from zero with the Hessenberg column in
    an array, stopped as solver.gmres is on convergence, breakdown or
    stagnation; returns (iterations, residual history, solution)."""
    r0 = apply_M(b)
    beta = float(np.linalg.norm(r0))
    basis, columns, cs, sn, g, history = [r0 / beta], [], [], [], [beta], [beta]
    for j in range(len(b)):
        w = apply_M(apply_A(basis[j]))
        h = np.empty(j + 2)
        for i in range(j + 1):
            h[i] = basis[i] @ w
            w = w - h[i] * basis[i]
        h[j + 1] = np.linalg.norm(w)
        happy = h[j + 1] <= 1e-14 * beta
        if not happy:
            basis.append(w / h[j + 1])
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
        denom = math.hypot(h[j], h[j + 1])
        if denom == 0.0:
            break
        cs.append(h[j] / denom)
        sn.append(h[j + 1] / denom)
        h[j] = denom
        columns.append(h[: j + 1])
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]
        history.append(abs(g[j + 1]))
        steps, factor = solver.STAGNATION_STEPS, solver.STAGNATION_FACTOR
        stalled = len(history) > steps and history[-1] > factor * history[-1 - steps]
        if history[-1] <= tol * beta or happy or stalled:
            break
    m = len(columns)
    R = np.zeros((m, m))
    for j, column in enumerate(columns):
        R[: j + 1, j] = column
    return m, history, np.linalg.solve(R, g[:m]) @ np.array(basis)[:m]


def coarse_band(K):
    """The (m/2, 3, 2, 2) band of a dense block-tridiagonal coarse operator
    with periodic wrap: [k, t] is its 2x2 block at block row k+t-1 (mod
    m/2) and block column k.  When m/2 <= 2 the slots name some block
    twice; each block is then kept in one slot only, so that the band's
    sum is K."""
    M = len(K) // 2
    band, seen = np.zeros((M, 3, 2, 2)), set()
    for t in (1, 0, 2):
        for k in range(M):
            i = (k + t - 1) % M
            if (i, k) not in seen:
                seen.add((i, k))
                band[k, t] = K[2 * i : 2 * i + 2, 2 * k : 2 * k + 2]
    return band


def band_residual(K_band, X, periodic, Y=None):
    """Y - K X, or (I - 11^T/m) Y - K X when periodic, in np.longdouble, for
    a stack of columns X and Y (the identity by default), with K X taken
    block by block through the band: O(m) per column."""
    M, m = len(K_band), 2 * len(K_band)
    band, Xb = K_band.astype(np.longdouble), X.astype(np.longdouble).reshape(M, 2, -1)
    R = (np.eye(m, X.shape[1]) if Y is None else Y).astype(np.longdouble)
    if periodic:
        R -= R.sum(axis=0) / m
    R = R.reshape(M, 2, -1)
    for t in range(3):  # block column k reaches block row k + t - 1
        R -= np.roll(np.einsum("kab,kbc->kac", band[:, t], Xb), t - 1, axis=0)
    return R.reshape(m, -1)


def refined_solve(K_band, Y, periodic):
    """K^{-1} Y, or K^+ Y when periodic (kernel: the constants), for the
    coarse operator of a band (see coarse_band) and a stack of columns Y:
    the float64 inv or pinv X0 applied to Y, then up to three steps
    X += X0 R with the residual R of band_residual, taken in
    np.longdouble."""
    M = len(K_band)
    K = np.zeros((2 * M, 2 * M))
    for k in range(M):
        for t in range(3):
            i = (k + t - 1) % M
            K[2 * i : 2 * i + 2, 2 * k : 2 * k + 2] += K_band[k, t]
    X0 = np.linalg.pinv(K, rcond=1e-10, hermitian=True) if periodic else np.linalg.inv(K)
    X = X0 @ Y
    for _ in range(3):
        step = X0 @ band_residual(K_band, X, periodic, Y).astype(float)
        X += step
        if np.abs(step).max() <= np.finfo(float).eps * np.abs(X).max():
            break
    return X


def refined_inverse(K_band, periodic):
    """K^{-1}, or the pseudo-inverse K^+ when periodic: refined_solve of
    the identity."""
    return refined_solve(K_band, np.eye(2 * len(K_band)), periodic)


def stationary_solve(
    apply_A,
    apply_M,
    b,
    tol: float = 1e-8,
    max_iter: int = 1000,
    x0=None,
    project=None,
):
    """Stationary two-level iteration u <- u + M(b - A u).

    project (the identity by default) restricts iterates and residuals to a
    subspace (kernel deflation for singular periodic systems).  The
    contraction field estimates the asymptotic residual reduction factor from
    the last iterations (geometric mean, which averages out equioscillation).
    """
    if project is None:
        project = lambda v: v
    b = project(solver._checked(b, tol, max_iter))
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
    return SimpleNamespace(
        iterations=iterations,
        residual_history=history,
        converged=converged,
        solution=u,
        true_residual=history[-1],
        contraction=contraction,
    )


def multiset_deviation(a, b) -> float:
    """Greedy nearest-neighbour matching distance between two eigenvalue
    multisets of equal size; adequate when clusters are far apart relative
    to the tolerance being tested."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = list(np.sort_complex(np.asarray(b, dtype=complex)))
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    worst = 0.0
    for x in a:
        dists = np.abs(np.array(b) - x)
        j = int(np.argmin(dists))
        worst = max(worst, float(dists[j]))
        b.pop(j)
    return worst
