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
have the closed form lambda = (N +/- sqrt(R))/E with N, E linear and R
quadratic in cos(theta), polynomial in (alpha, delta0, c) (_coefficients);
eigenvalues_closed_form_at evaluates it on an array of cosines.  At
cos(theta) = +/-1, where symbol_radius's docstring proves the supremum over
all frequencies sits, the radicand is a square and each eigenvalue is
1 + mu*alpha with mu rational in (delta0, c) (_extreme_slopes), so
symbol_radius takes their largest modulus with no square root.
"""

from __future__ import annotations

import math

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
    """Polynomial pieces of the closed-form eigenvalues (N +/- sqrt(R))/E in
    x = cos(theta): the (constant, x) coefficients of N and of E, and the
    (constant, x, x^2) coefficients of R.

    N = -alpha*g1 + d0*g2 + (1-c)*g3*x and E = d0*g2 - d0*(c-1)^2*x share the
    bracket g2 (the numeric oracle pins this down, together with the
    overall factor 1/2 of R).  The radicand R/E^2 has E^2 as its
    denominator (symbol_radius's proof), so E is the one denominator.
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
    return (num0, num1), (den0, den1), (r0, r1, r2)


def eigenvalues_closed_form_at(cosine, params: MethodParams) -> np.ndarray:
    """Closed-form eigenvalue pairs (lambda_plus, lambda_minus) = N/E +/-
    sqrt(R)/E at values of cos(theta); a scalar or array cosine gives a
    (..., 2) complex array."""
    x = np.asarray(cosine, dtype=float)
    alpha, d0, c = map(float, params.as_tuple())
    try:
        (num0, num1), (den0, den1), (r0, r1, r2) = _coefficients(alpha, d0, c)
    except OverflowError as exc:
        raise DegenerateParameterError(f"closed-form coefficients overflow at {(alpha, d0, c)}") from exc
    den = den0 + den1 * x
    bad = np.abs(den) < 1e-14
    if np.any(bad):
        raise DegenerateParameterError(f"degenerate eigenvalue expression at cos={x[bad]}: zero denominator")
    center = (num0 + num1 * x) / den
    root = np.sqrt((r0 + r1 * x + r2 * x * x).astype(complex)) / den
    return np.stack([center + root, center - root], axis=-1)


def _extreme_slopes(d0, c):
    """The slopes mu of the four closed-form eigenvalues 1 + mu*alpha at
    cos(theta) = 1 (the first two) and -1, as quotients of sums whose terms
    have one sign (symbol_radius derives them).  Integer literals keep
    Fraction components exact; d0 may carry a complex step."""
    u, w, t = d0 - 1, c * (1 - c), (1 - 2 * c) ** 2
    v = 1 - 2 * w  # c^2 + (1-c)^2
    return (
        -2 / d0,
        -2 * u * v / (c * c + u * (t * (d0 + 1) + 2 * w)),
        -(2 * d0 - 1) / d0 / d0,
        -(2 * d0 - 1) * v / (d0 * (t * d0 + 2 * w)),
    )


def symbol_radius(params: MethodParams) -> float:
    """The two-level convergence factor: the largest modulus of the
    closed-form pairs over all phases, which cos(theta) = +/-1 attain.
    There every eigenvalue is 1 + mu*alpha with mu rational in (delta0, c),
    so the radius is max |1 + alpha*mu| over the four slopes of
    _extreme_slopes, with no square root.

    Proof, with x = cos(theta) and the pair (N +/- sqrt(R))/E of
    _coefficients for N = num0 + num1*x, E = den0 + den1*x and R = r0 +
    r1*x + r2*x^2, so that the radicand's denominator is E^2 by
    construction: E = -delta0*L with L = (1-c)^2 (1+x) - 4c(1-c) delta0 -
    2 delta0^2 (1-2c)^2 < 0 on [-1, 1] (L(-1) sums negative terms; L(1) is
    -2c^2 at delta0 = 1 and falls in delta0), so E's zero x* = -den0/den1
    lies outside [-1, 1].  R >= 0 there: the nonzero
    eigenvalues are the smoother's on the A-orthogonal complement of the
    coarse space, a Hermitian problem.  A branch turns only at a double root
    in x of G = (E*lambda - N)^2 - R.  G's discriminant in x, a quadratic
    A2*lambda^2 + A1*lambda + A0, has A1^2 = 4*A2*A0, and its one root
    -A1/(2*A2) puts the double root at x*.  Indeed G(x*) = N(x*)^2 - R(x*)
    vanishes for every lambda, so G = (x - x*) l(x) with l linear in x, which
    also covers A2 = 0 (forcing A1 = 0) and a vanishing x^2 coefficient
    (den1*lambda - num1)^2 - r2.  Let the largest modulus over [-1, 1] be
    |mu| for an eigenvalue mu at x1.  Then G = E^2 (mu - lambda_+)(mu -
    lambda_-) >= 0 on [-1, 1] and G(x1) = 0, so l keeps one sign there; an
    interior x1 makes l and G vanish identically, and mu is an eigenvalue at
    x = +/-1 too.

    At x = +/-1 the radicand is a square, R(+/-1) = (2*alpha*F+/-)^2 with
    F+ = 2c^2 delta0^2 - c^2 - 2c delta0^2 + 2c + delta0 - 1 and
    F- = c(c-1)(delta0-1)(2 delta0-1), and N = E - 2*alpha*n, so the slopes
    are (-n +/- F)/e with e = E/2.  In u = delta0 - 1, w = c(1-c) and
    t = (1-2c)^2 every term of e and n has one sign:
    e+ = c^2 + u(2 - 6w + c^2) + u^2(3 - 10w) + u^3 t,
    n+ = c^2 + u(3 - 8w) + u^2(2 - 6w), e- = 1 - 2w + u(3 - 8w) +
    u^2(3 - 10w) + u^3 t and n- = 1 - 2w + u(3 - 7w) + u^2(2 - 6w).  And
    -n +/- F factors with e: the slopes are -2/delta0 and
    -2u(1-2w)/(c^2 + u(t(delta0+1) + 2w)) at x = 1, -(2 delta0-1)/delta0^2
    and -(2 delta0-1)(1-2w)/(delta0(t delta0 + 2w)) at x = -1, each with
    at most 15 roundings, where a square root of the cancelling radicand
    keeps half the digits.  (sympy derives these identities; the tests
    check them in rational arithmetic.)
    """
    alpha, d0, c = map(float, params.as_tuple())
    slopes = _extreme_slopes(d0, c)
    if not all(map(math.isfinite, slopes)):
        raise DegenerateParameterError(f"closed-form slopes overflow at {(alpha, d0, c)}")
    return max(abs(1 + alpha * mu) for mu in slopes)


def error_spectrum_symbols(J: int, params: MethodParams, dim: int = 1) -> np.ndarray:
    """Union over the frequency grid of the error-symbol eigenvalues
    ((2J)^dim values), frequency-major: 4^dim values per frequency, k = 0
    first.  In 2D the grid (kx, ky) in [0, J/2)^2 runs kx-major.  The
    constant direction of the k = 0 block keeps its eigenvalue 1."""
    half = np.arange(J // 2)
    k = half if dim == 1 else np.stack(np.meshgrid(half, half, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.linalg.eigvals(symbol_error(k, J, params, dim)).ravel()
