"""Fourier (block) symbols of the two-level operators on periodic meshes.

A periodic fine mesh with J cells couples each frequency k in [0, J/2) with
its coarsening alias k - J/2.  Collecting the two dof components of both
harmonics gives 4x4 fine-level blocks; the coarse level sees a single
harmonic, giving 2x2 blocks, and the transfers are 2x4 / 4x2.  Throughout,
theta = 2*pi*k/J.

Every symbol takes k as a scalar or an integer array and returns its blocks
stacked over k's shape: (..., 4, 4) for the system and error symbols,
(..., 2, 4) for restriction and (..., 4, 2) for prolongation.

Block layout: component order (value right of a node, value left of a node)
and harmonic order (alias k - J/2 first, base frequency k second).  The
node shared by coarse and fine mesh is taken at an even fine index.

All blocks are the exact matrix representations of the dense periodic
operators on the orthonormal Fourier pair bases (tests verify this
entrywise against an FFT-based block diagonalization).  The coarse symbol
is the Galerkin product restriction @ system @ prolongation, built as such,
and the smoother is the scalar h^2/delta0, so

    prolongation = 2 * restriction^H,
    union over k of eig(error symbol) = eig(dense error operator)

hold to rounding error.  The nonzero eigenvalues of the 4x4 error symbol
have the closed form lambda = center +/- sqrt(num/den) with polynomial
center/num/den in (alpha, delta0, c) and cos(4*pi*k/J);
eigenvalues_closed_form_at evaluates it on an array of cosines.
"""

from __future__ import annotations

import numpy as np

from .twolevel import MethodParams


class DegenerateParameterError(ValueError):
    """Parameter combination puts a symbol denominator at zero."""


def _frequencies(k, J: int) -> np.ndarray:
    k = np.asarray(k)
    if np.any((k < 0) | (k >= J // 2)):
        raise ValueError(f"frequency index k={k} outside [0, {J // 2})")
    return k


def symbol_system(k, J: int, penalty: float) -> np.ndarray:
    """4x4 symbols of the system matrix at the harmonic pairs {k - J/2, k}.

    Each harmonic contributes a 2x2 block [[d, 1-delta0], [1-delta0, d]]
    with d = delta0 + cos(theta) at the alias k - J/2 (the shift by J/2
    flips the cosine's sign) and d = delta0 - cos(theta) at the base
    frequency; units of 1/h^2.
    """
    k = _frequencies(k, J)
    cos = np.cos(2.0 * np.pi * k / J)
    M = np.zeros(k.shape + (4, 4), dtype=complex)
    M[..., 0, 0] = M[..., 1, 1] = penalty + cos
    M[..., 2, 2] = M[..., 3, 3] = penalty - cos
    M[..., 0, 1] = M[..., 1, 0] = M[..., 2, 3] = M[..., 3, 2] = 1.0 - penalty
    return M * float(J) ** 2  # 1/h^2


def symbol_restriction(k, J: int, c: float) -> np.ndarray:
    """2x4 restriction symbols, rows = coarse components, cols = fine pair.

    This is the exact block of the dense restriction on the orthonormal
    Fourier bases: 1/(2*sqrt(2)) times a bracket whose entries are
    1 +/- (c-1)e^{i theta} and +/- c e^{i theta} combinations, with the
    (2,1) entry carrying a minus sign (the entry is -c e^{-i theta}; the
    dense oracle pins both the sign and the prefactor).
    """
    e = np.exp(2j * np.pi * _frequencies(k, J) / J)
    ec = np.conj(e)
    entries = [
        1.0 + (c - 1.0) * e, -c * e, 1.0 - (c - 1.0) * e, c * e,
        -c * ec, 1.0 + (c - 1.0) * ec, c * ec, 1.0 - (c - 1.0) * ec,
    ]
    return np.stack(entries, axis=-1).reshape(e.shape + (2, 4)) / (2.0 * np.sqrt(2.0))


def symbol_prolongation(k, J: int, c: float) -> np.ndarray:
    """4x2 prolongation symbols, twice the conjugate transpose of restriction."""
    return 2.0 * np.conj(np.swapaxes(symbol_restriction(k, J, c), -1, -2))


def symbol_error(k, J: int, params: MethodParams) -> np.ndarray:
    """4x4 error symbols (I - P A0^{-1} R A)(I - alpha s A) at frequencies k.

    A0 = R A P is the Galerkin coarse symbol and s = h^2/delta0 the smoother.
    A0 is singular exactly at the kernel frequency k = 0 (constant vector),
    where its pseudo-inverse solves on the complement and the constant
    direction keeps eigenvalue 1, as in the dense periodic operator; a
    singular A0 at any other k raises DegenerateParameterError.
    """
    k = _frequencies(k, J)
    A = symbol_system(k, J, params.penalty)
    RA = symbol_restriction(k, J, params.discontinuity) @ A
    P = symbol_prolongation(k, J, params.discontinuity)
    A0 = RA @ P
    kernel = k == 0
    A0inv = np.empty_like(A0)
    A0inv[kernel] = np.linalg.pinv(A0[kernel], rcond=1e-10)
    rest = A0[~kernel]
    singular = np.abs(np.linalg.det(rest)) < 1e-12 * np.maximum(np.linalg.norm(rest, axis=(-2, -1)), 1.0)
    if np.any(singular):
        raise DegenerateParameterError(
            f"coarse symbol singular at k={k[~kernel][singular]} (off the kernel frequency)"
        )
    A0inv[~kernel] = np.linalg.inv(rest)
    h = 1.0 / J
    s = h * h / params.penalty
    eye = np.eye(4)
    # updated in place: at J in the thousands the (J/2, 4, 4) stacks are the
    # largest temporaries
    coarse = P @ A0inv @ RA
    np.subtract(eye, coarse, out=coarse)
    A *= -params.alpha * s
    A += eye
    return coarse @ A


def _coefficients(alpha: float, d0: float, c: float):
    """Polynomial pieces of the closed-form eigenvalues; returns the
    (constant, cos) coefficients of center numerator/denominator and the
    (constant, cos, cos^2) coefficients of radicand numerator/denominator.

    The center is (-alpha*g1 + d0*g2 + (1-c)*g3*x) / (d0*g2 - d0*(c-1)^2*x)
    with x = cos(4*pi*k/J); the same bracket g2 appears in numerator and
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


def eigenvalues_closed_form_at(cosine, params: MethodParams) -> np.ndarray:
    """Closed-form eigenvalue pairs (lambda_plus, lambda_minus) at values of
    cos(4*pi*k/J); a scalar or array cosine gives a (..., 2) complex array."""
    (num0, num1), (den0, den1), (r0, r1, r2), (s0, s1, s2) = _coefficients(*params.as_tuple())
    x = np.asarray(cosine, dtype=float)
    den = den0 + den1 * x
    radicand_den = s0 + s1 * x + s2 * x * x
    bad = (np.abs(den) < 1e-14) | (np.abs(radicand_den) < 1e-300)
    if np.any(bad):
        raise DegenerateParameterError(
            f"degenerate eigenvalue expression at cos={x[bad]}: zero denominator"
        )
    center = (num0 + num1 * x) / den
    root = np.sqrt(((r0 + r1 * x + r2 * x * x) / radicand_den).astype(complex))
    return np.stack([center + root, center - root], axis=-1)


def eigenvalues_closed_form(k, J: int, params: MethodParams) -> np.ndarray:
    """Closed-form nonzero eigenvalues of the error symbols at frequencies k."""
    return eigenvalues_closed_form_at(np.cos(4.0 * np.pi * _frequencies(k, J) / J), params)


def eigenvalues_over_theta(params: MethodParams, npoints: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Sample the closed form on a uniform theta = 4*pi*k/J grid in [0, 2*pi).

    Returns the grid and an (npoints, 2) array of (lambda_plus, lambda_minus).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, npoints, endpoint=False)
    return thetas, eigenvalues_closed_form_at(np.cos(thetas), params)


def symbol_radius(params: MethodParams, npoints: int = 256) -> float:
    """max |lambda| over a theta grid: the two-level convergence factor.

    An even npoints keeps both phase extremes cos = +/-1 on the grid, where
    non-clustered spectra attain their maximum.
    """
    _, pairs = eigenvalues_over_theta(params, npoints)
    return float(np.max(np.abs(pairs)))


def error_spectrum_symbols(J: int, params: MethodParams) -> np.ndarray:
    """Union over k in [0, J/2) of the error-symbol eigenvalues (2J values),
    k-major: four values per frequency, k = 0 first.  The constant direction
    of the k = 0 block keeps its eigenvalue 1."""
    return np.linalg.eigvals(symbol_error(np.arange(J // 2), J, params)).ravel()


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
