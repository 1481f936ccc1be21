"""Fourier (block) symbols of the two-level operators on periodic meshes.

The symbols live on the coarse-cell Fourier basis.  A periodic fine mesh with
J cells has J/2 coarse cells; coarse cell m holds the fine dofs 4m..4m+3 and
the coarse dofs 2m, 2m+1.  At frequency index k in [0, J/2), with
theta = 4*pi*k/J, fine basis vector j puts e^{i theta m}/sqrt(J/2) on dof
4m + j of every cell m, and coarse basis vector l does the same on dof
2m + l.  The fine span is that of the harmonics k and k - J/2, which
coarsening aliases.  An operator that is periodic over one coarse cell has
the block sum_d A_d e^{i d theta} there, A_d coupling a cell to its d-th
neighbour (Trottenberg, Oosterlee & Schueller, Multigrid, 2001, ch. 4), so
the block-diagonal prolongation has its own real 4x2 block as symbol and
restriction its transpose over 2^dim.

Every symbol takes k as a scalar or an integer array and returns its 4x4
blocks stacked over k's shape.  In 2D, at k = (kx, ky), the basis is the
Kronecker product of the 1D ones (x-major, as the 2D dofs), the system
block A(kx) (x) I + I (x) A(ky) and the prolongation block P (x) P.  The
blocks are the exact matrices of the dense periodic operators on this
orthonormal basis (tests verify this entrywise), so

    union over k of eig(error symbol) = eig(dense error operator)

holds to rounding error.  The nonzero eigenvalues of the 4x4 error symbol
have the closed form lambda = center +/- sqrt(num/den) with polynomial
center/num/den in (alpha, delta0, c) and cos(theta);
eigenvalues_closed_form_at evaluates it on an array of cosines, and
symbol_radius takes the pairs' moduli in real arithmetic on a fixed grid.
"""

from __future__ import annotations

import numpy as np

from .discretization import BoundaryCondition, DiscretizationConfig, SystemOperator, _cell_band
from .twolevel import MethodParams, _prolongation_block, smoother_scale


class DegenerateParameterError(ValueError):
    """Parameter combination puts a symbol denominator at zero."""


def _theta(k, J: int) -> np.ndarray:
    """The phase theta = 4*pi*k/J of frequency indices k in [0, J/2)."""
    k = np.asarray(k)
    if np.any((k < 0) | (k >= J // 2)):
        raise ValueError(f"frequency index k={k} outside [0, {J // 2})")
    return 4.0 * np.pi * k / J


def symbol_system(k, J: int, penalty: float) -> np.ndarray:
    """4x4 symbols A_- e^{-i theta} + A_0 + A_+ e^{i theta} of the system
    matrix, from the coupling blocks of one coarse cell: the band of the
    two-cell periodic mesh, whose one cell is its own left and right
    neighbour, with 1/h^2 = 4 divided out."""
    A = SystemOperator(DiscretizationConfig(2, penalty, BoundaryCondition.PERIODIC))
    minus, centre, plus = _cell_band(A)[0] / 4
    e = np.exp(1j * _theta(k, J))[..., None, None]
    return (centre + plus * e + minus * np.conj(e)) * float(J) ** 2  # 1/h^2


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two block stacks, broadcast over the stack axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def symbol_error(k, J: int, params: MethodParams, dim: int = 1) -> np.ndarray:
    """Error symbols (I - P A0^{-1} R A)(I - alpha s A) at frequencies k:
    4x4 blocks in 1D, 16x16 in 2D, where k has a trailing (kx, ky) axis.

    P is the prolongation block (its Kronecker square in 2D), R = P^T/2^dim,
    A0 = R A P is the Galerkin coarse symbol and s = h^2/(dim*delta0) the
    smoother.  A0 is singular exactly at the kernel frequency k = 0
    (constant vector), where its pseudo-inverse solves on the complement and
    the constant direction keeps eigenvalue 1, as in the dense periodic
    operator; a singular A0 at any other k raises DegenerateParameterError.
    """
    k = np.asarray(k)
    d0 = params.penalty
    P = _prolongation_block(params.discontinuity)
    if dim == 1:
        A = symbol_system(k, J, d0)
        kernel = k == 0
    elif dim == 2 and k.shape[-1:] == (2,):
        kx, ky = k[..., 0], k[..., 1]
        I4 = np.eye(4)
        A = _kron(symbol_system(kx, J, d0), I4) + _kron(I4, symbol_system(ky, J, d0))
        P = np.kron(P, P)
        kernel = (kx == 0) & (ky == 0)
    else:
        raise ValueError(f"need dim 1, or dim 2 with a trailing (kx, ky) axis; got {dim}, k of shape {k.shape}")
    RA = (P.T / 2**dim) @ A
    A0 = RA @ P
    A0inv = np.empty_like(A0)
    A0inv[kernel] = np.linalg.pinv(A0[kernel], rcond=1e-10)
    rest = A0[~kernel]
    singular = np.abs(np.linalg.det(rest)) < 1e-12 * np.maximum(np.linalg.norm(rest, axis=(-2, -1)), 1.0)
    if np.any(singular):
        raise DegenerateParameterError(
            f"coarse symbol singular at k={k[~kernel][singular]} (off the kernel frequency)"
        )
    A0inv[~kernel] = np.linalg.inv(rest)
    s = smoother_scale(DiscretizationConfig(J, d0, BoundaryCondition.PERIODIC, dim), params)
    eye = np.eye(A.shape[-1])
    A *= params.alpha * s  # in place, with the bits of (I - P A0^{-1} R A)(I - alpha s A)
    coarse = P @ A0inv @ RA
    return np.subtract(eye, coarse, out=coarse) @ np.subtract(eye, A, out=A)


def _coefficients(alpha: float, d0: float, c: float):
    """Polynomial pieces of the closed-form eigenvalues; returns the
    (constant, cos) coefficients of center numerator/denominator and the
    (constant, cos, cos^2) coefficients of radicand numerator/denominator.

    The center is (-alpha*g1 + d0*g2 + (1-c)*g3*x) / (d0*g2 - d0*(c-1)^2*x)
    with x = cos(theta); the same bracket g2 appears in numerator and
    denominator (the numeric oracle pins this down, together with the
    overall factor 1/2 of the radicand).
    """
    g1 = 3 * c**2 * d0 * (4 * d0 - 3) + c * (-12 * d0**2 + 9 * d0 + 1) + 4 * d0**2 - 2 * d0 - 1
    g2 = c**2 * (8 * d0**2 - 4 * d0 - 1) + c * (-8 * d0**2 + 4 * d0 + 2) + 2 * d0**2 - 1
    g3 = alpha + alpha * c * (d0 - 2) + (c - 1) * d0
    num0 = -alpha * g1 + d0 * g2
    num1 = (1 - c) * g3
    den0 = d0 * g2
    den1 = -d0 * (c - 1) ** 2

    r0 = alpha**2 * (
        16 * (c - 1) ** 2 * c**2 * d0**4
        - 2 * (c - 1) ** 2 * (4 * c**2 + c + 2) * d0
        - 8 * (c - 1) * c * (3 * (c - 1) * c - 1) * d0**3
        + (c * (17 * c + 8) * (c - 1) ** 2 + 2) * d0**2
        + 2 * (c - 1) ** 2 * ((c - 1) * c + 1)
    )
    r1 = 2 * alpha**2 * (
        4 * (c - 1) * c * d0**2 - 3 * (c - 1) * c * d0 + c + d0 - 1
    ) * (c * (3 * (c - 1) * d0 - 2 * c + 3) + d0 - 1)
    r2 = alpha**2 * (c - 1) ** 2 * c * (c * ((d0 - 4) * d0 + 2) + 2 * (d0 - 1))

    s0 = d0**2 * (4 * c * (c - 1) * d0 - 2 * (1 - 2 * c) ** 2 * d0**2 + (c - 1) ** 2) ** 2
    s1 = 2 * d0**2 * (
        -2 * (2 * c**2 - 3 * c + 1) ** 2 * d0**2 + 4 * c * (c - 1) ** 3 * d0 + (c - 1) ** 4
    )
    s2 = (c - 1) ** 4 * d0**2
    return (num0, num1), (den0, den1), (r0, r1, r2), (s0, s1, s2)


def _closed_form_parts(x, params: MethodParams):
    """(center, q) of lambda = center +/- sqrt(q) at cosines x, in float arithmetic."""
    try:
        (num0, num1), (den0, den1), (r0, r1, r2), (s0, s1, s2) = _coefficients(*map(float, params.as_tuple()))
    except OverflowError as exc:
        raise DegenerateParameterError(f"closed-form coefficients overflow at {params.as_tuple()}") from exc
    den = den0 + den1 * x
    radicand_den = s0 + s1 * x + s2 * x * x
    bad = (np.abs(den) < 1e-14) | (np.abs(radicand_den) < 1e-300)
    if bad.any():
        raise DegenerateParameterError(
            f"degenerate eigenvalue expression at cos={x[bad]}: zero denominator"
        )
    return (num0 + num1 * x) / den, (r0 + r1 * x + r2 * x * x) / radicand_den


def eigenvalues_closed_form_at(cosine, params: MethodParams) -> np.ndarray:
    """Closed-form eigenvalue pairs (lambda_plus, lambda_minus) at values of
    cos(theta); a scalar or array cosine gives a (..., 2) complex array."""
    center, q = _closed_form_parts(np.asarray(cosine, dtype=float), params)
    root = np.sqrt(q.astype(complex))
    return np.stack([center + root, center - root], axis=-1)


def eigenvalues_closed_form(k, J: int, params: MethodParams) -> np.ndarray:
    """Closed-form nonzero eigenvalues of the error symbols at frequencies k,
    evaluated at the cosine of the symbols' own phase theta = 4*pi*k/J."""
    return eigenvalues_closed_form_at(np.cos(_theta(k, J)), params)


def eigenvalues_over_theta(params: MethodParams, npoints: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Sample the closed form on a uniform grid in [0, 2*pi) of the symbols'
    phase theta = 4*pi*k/J.

    Returns the grid and an (npoints, 2) array of (lambda_plus, lambda_minus).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, npoints, endpoint=False)
    return thetas, eigenvalues_closed_form_at(np.cos(thetas), params)


_RADIUS_COSINES = np.cos(np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))


def symbol_radius(params: MethodParams) -> float:
    """max |lambda| over a 256-point theta grid: the two-level convergence
    factor.  The even count keeps both phase extremes cos = +/-1 on the
    grid, where non-clustered spectra attain their maximum.  In real arithmetic,
    |center| + sqrt(q) where q >= 0 and hypot(center, sqrt(-q)) where q < 0."""
    center, q = _closed_form_parts(_RADIUS_COSINES, params)
    if q.min() >= 0:  # all pairs real, as at every 1D optimizer iterate: no hypot, no select
        return float((np.abs(center) + np.sqrt(q)).max())
    root = np.sqrt(np.abs(q))
    return float(np.where(q >= 0, np.abs(center) + root, np.hypot(center, root)).max())


def error_spectrum_symbols(J: int, params: MethodParams, dim: int = 1) -> np.ndarray:
    """Union over the frequency grid of the error-symbol eigenvalues
    ((2J)^dim values), frequency-major: 4^dim values per frequency, k = 0
    first.  In 2D the grid (kx, ky) in [0, J/2)^2 runs kx-major.  The
    constant direction of the k = 0 block keeps its eigenvalue 1."""
    half = np.arange(J // 2)
    k = half if dim == 1 else np.stack(np.meshgrid(half, half, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.linalg.eigvals(symbol_error(k, J, params, dim)).ravel()


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
