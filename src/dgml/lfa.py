"""Fourier (block) symbols of the two-level operators on periodic meshes.

A periodic fine mesh with J cells couples each frequency k in [0, J/2) with
its coarsening alias k - J/2.  Collecting the two dof components of both
harmonics gives 4x4 fine-level blocks; the coarse level sees a single
harmonic, giving 2x2 blocks, and the transfers are 2x4 / 4x2.  Throughout,
theta = 2*pi*k/J and the coarse operator depends on k only through
cos(2*theta) = cos(4*pi*k/J).

Block layout: component order (value right of a node, value left of a node)
and harmonic order (alias k - J/2 first, base frequency k second).  The
node shared by coarse and fine mesh is taken at an even fine index; the odd
choice flips the sign of the transfer cross terms and is spectrally
equivalent (similarity by a sign flip), which the transfer and coarse
symbols expose through their parity argument.

All blocks are the exact matrix representations of the dense periodic
operators on the orthonormal Fourier pair bases (tests verify this
entrywise against an FFT-based block diagonalization), so the product and
spectral identities hold to rounding error:

    coarse symbol = restriction @ system @ prolongation,
    prolongation = 2 * restriction^H,
    union over k of eig(error symbol) = eig(dense error operator).

The nonzero eigenvalues of the 4x4 error symbol have the closed form
lambda = center +/- sqrt(num/den) with polynomial center/num/den in
(alpha, delta0, c) and cos(4*pi*k/J); eigenvalues_closed_form evaluates it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .twolevel import MethodParams


class DegenerateParameterError(ValueError):
    """Parameter combination puts a symbol denominator at zero."""


@dataclass(frozen=True)
class SymbolEigenvalues:
    """Closed-form nonzero eigenvalues of the error symbol at one frequency."""

    k: float
    lambda_plus: complex
    lambda_minus: complex
    center: complex
    radicand_num: complex
    radicand_den: complex


def _check_k(k: int, J: int):
    if not 0 <= k < J // 2:
        raise ValueError(f"frequency index k={k} outside [0, {J // 2})")


def symbol_system(k: int, J: int, penalty: float) -> np.ndarray:
    """4x4 symbol of the system matrix at the harmonic pair {k - J/2, k}.

    Each harmonic contributes a 2x2 block [[d, 1-delta0], [1-delta0, d]]
    with d = delta0 + cos(theta) at the alias k - J/2 (the shift by J/2
    flips the cosine's sign) and d = delta0 - cos(theta) at the base
    frequency; units of 1/h^2.
    """
    _check_k(k, J)
    theta = 2.0 * np.pi * k / J
    off = 1.0 - penalty
    d_alias = penalty + np.cos(theta)
    d_base = penalty - np.cos(theta)
    M = np.zeros((4, 4), dtype=complex)
    M[0, 0] = M[1, 1] = d_alias
    M[2, 2] = M[3, 3] = d_base
    M[0, 1] = M[1, 0] = M[2, 3] = M[3, 2] = off
    M *= float(J) ** 2  # 1/h^2
    return M


def symbol_smoother_inv(penalty: float, h: float) -> np.ndarray:
    """Symbol of the smoother inverse, (h^2/delta0) * I4."""
    return (h * h / penalty) * np.eye(4, dtype=complex)


def symbol_restriction(k: int, J: int, c: float, parity: int = 1) -> np.ndarray:
    """2x4 restriction symbol, rows = coarse components, cols = fine pair.

    This is the exact block of the dense restriction on the orthonormal
    Fourier bases: 1/(2*sqrt(2)) times a bracket whose entries are
    1 +/- (c-1)e^{i theta} and +/- c e^{i theta} combinations, with the
    (2,1) entry carrying a minus sign (the entry is -parity * c e^{-i
    theta}; the dense oracle pins both the sign and the prefactor).
    """
    _check_k(k, J)
    e = np.exp(2j * np.pi * k / J)
    ec = np.conj(e)
    s = float(parity)
    return np.array(
        [
            [1.0 + (c - 1.0) * e, -c * e, s * (1.0 - (c - 1.0) * e), s * c * e],
            [-s * c * ec, s * (1.0 + (c - 1.0) * ec), c * ec, 1.0 - (c - 1.0) * ec],
        ],
        dtype=complex,
    ) / (2.0 * np.sqrt(2.0))


def symbol_prolongation(k: int, J: int, c: float, parity: int = 1) -> np.ndarray:
    """4x2 prolongation symbol, twice the conjugate transpose of restriction."""
    return 2.0 * symbol_restriction(k, J, c, parity).conj().T


def symbol_coarse(k: int, J: int, penalty: float, c: float, parity: int = 1) -> np.ndarray:
    """2x2 coarse-operator symbol in closed form, units of 1/h^2.

    Coincides with restriction @ system @ prolongation built from the other
    symbols to rounding error (tests enforce 1e-12); the bracket depends on
    k only through cos/exp of 4*pi*k/J.
    """
    _check_k(k, J)
    d0 = penalty
    w = np.exp(4j * np.pi * k / J)
    cosw = np.cos(4.0 * np.pi * k / J)
    s = float(parity)
    diag = 0.5 * (c * (4.0 * (c - 1.0) * d0 - 2.0 * c + 3.0) + (c - 1.0) * cosw + 2.0 * d0 - 1.0)
    cross = -(2.0 * c - 1.0) * (c * (2.0 * d0 - 1.0) - d0 + 1.0)
    upper = 0.5 * s * (cross * w - c - d0 + 1.0)
    lower = 0.5 * s * (cross * np.conj(w) - c - d0 + 1.0)
    return np.array([[diag, upper], [lower, diag]], dtype=complex) * float(J) ** 2


def symbol_error(k: int, J: int, params: MethodParams, coarse_inverse: str = "solve") -> np.ndarray:
    """4x4 error symbol (I - P A0^{-1} R A)(I - alpha Dinv A) at frequency k.

    The coarse symbol is singular at the kernel frequency k = 0 (constant
    vector); pass coarse_inverse="pinv" there, or "project" to additionally
    compress the block onto the complement of the constant direction.
    """
    _check_k(k, J)
    if coarse_inverse not in ("solve", "pinv", "project"):
        raise ValueError(f"unknown coarse_inverse mode {coarse_inverse!r}")
    A = symbol_system(k, J, params.penalty)
    Dinv = symbol_smoother_inv(params.penalty, 1.0 / J)
    R = symbol_restriction(k, J, params.discontinuity)
    P = symbol_prolongation(k, J, params.discontinuity)
    A0 = symbol_coarse(k, J, params.penalty, params.discontinuity)
    if coarse_inverse == "solve":
        if abs(np.linalg.det(A0)) < 1e-12 * max(np.linalg.norm(A0), 1.0):
            raise DegenerateParameterError(
                f"coarse symbol singular at k={k} (kernel frequency); "
                "use coarse_inverse='pinv' or 'project'"
            )
        A0inv = np.linalg.inv(A0)
    else:
        A0inv = np.linalg.pinv(A0, rcond=1e-10)
    E = (np.eye(4) - P @ A0inv @ R @ A) @ (np.eye(4) - params.alpha * Dinv @ A)
    if coarse_inverse == "project":
        # the constant fine vector lives in the base harmonic (second
        # block) with equal components: kill that direction on both sides
        v = np.zeros(4, dtype=complex)
        v[2] = v[3] = 1.0 / np.sqrt(2.0)
        Pi = np.eye(4) - np.outer(v, v.conj())
        E = Pi @ E @ Pi
    return E


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


def eigenvalues_closed_form_at(cosine: float, params: MethodParams, k: float = np.nan) -> SymbolEigenvalues:
    """Closed-form eigenvalue pair at a given value of cos(4*pi*k/J)."""
    alpha, d0, c = params.as_tuple()
    (num0, num1), (den0, den1), (r0, r1, r2), (s0, s1, s2) = _coefficients(alpha, d0, c)
    x = cosine
    den = den0 + den1 * x
    radicand_den = s0 + s1 * x + s2 * x * x
    if abs(den) < 1e-14 or abs(radicand_den) < 1e-300:
        raise DegenerateParameterError(
            f"degenerate eigenvalue expression at cos={cosine}: zero denominator"
        )
    center = complex((num0 + num1 * x) / den)
    radicand_num = complex(r0 + r1 * x + r2 * x * x)
    root = cmath.sqrt(radicand_num / radicand_den)
    return SymbolEigenvalues(
        k, center + root, center - root, center, radicand_num, complex(radicand_den)
    )


def eigenvalues_closed_form(k: int, J: int, params: MethodParams) -> SymbolEigenvalues:
    """Closed-form nonzero eigenvalues of the error symbol at frequency k."""
    _check_k(k, J)
    return eigenvalues_closed_form_at(np.cos(4.0 * np.pi * k / J), params, k=float(k))


def eigenvalues_over_theta(params: MethodParams, npoints: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Sample the closed form on a uniform theta = 4*pi*k/J grid in [0, 2*pi).

    Returns the grid and an (npoints, 2) array of (lambda_plus, lambda_minus).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, npoints, endpoint=False)
    pairs = np.empty((npoints, 2), dtype=complex)
    for i, t in enumerate(thetas):
        ev = eigenvalues_closed_form_at(np.cos(t), params)
        pairs[i, 0] = ev.lambda_plus
        pairs[i, 1] = ev.lambda_minus
    return thetas, pairs


def symbol_radius(params: MethodParams, npoints: int = 256) -> float:
    """max |lambda| over a theta grid: the two-level convergence factor.

    An even npoints keeps both phase extremes cos = +/-1 on the grid, where
    non-clustered spectra attain their maximum.
    """
    _, pairs = eigenvalues_over_theta(params, npoints)
    return float(np.max(np.abs(pairs)))


def error_spectrum_symbols(J: int, params: MethodParams, kernel: str = "pinv") -> np.ndarray:
    """Union over k in [0, J/2) of the error-symbol eigenvalues (2J values).

    kernel selects the treatment of the singular k = 0 coarse block:
    "pinv" solves on the complement (the constant direction then shows its
    eigenvalue 1), "project" additionally compresses the k = 0 block onto
    the complement of the constant direction (that eigenvalue becomes 0).
    """
    return np.concatenate([
        np.linalg.eigvals(symbol_error(k, J, params, coarse_inverse=kernel if k == 0 else "solve"))
        for k in range(J // 2)
    ])


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
