import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    cell_fourier_basis,
    closed_form_pairs,
    coarse_operator,
    deflate_constant,
    invariance_defect,
    projected_block,
    reference_symbol_radius,
)

from dgml.discretization import BoundaryCondition, DiscretizationConfig
from dgml.twolevel import (
    MethodParams,
    _prolongation_block,
    build_two_level,
    error_matrix,
    smoother_scale,
)
from dgml import cli, lfa, optimize, twolevel

PER = BoundaryCondition.PERIODIC


def random_params(rng):
    return MethodParams(
        rng.uniform(0.05, 1.0), rng.uniform(1.05, 3.0), rng.uniform(0.05, 0.95)
    )


# the admissible (alpha, delta0, c) box, delta0 capped at 10
ALPHA = st.floats(0.0, 1.0)
PENALTY = st.floats(1.0, 10.0, exclude_min=True)
DISCONTINUITY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def galerkin_coarse(k, J, delta0, c):
    """The coarse symbol R A P from the system symbol and the prolongation
    block P, with R = P^T / 2."""
    P = _prolongation_block(c)
    return P.T @ lfa.symbol_system(k, J, delta0) @ P / 2


def hand_typed_coarse(k, J, delta0, c):
    """Independent reference: the 2x2 coarse symbol's closed-form bracket on
    another orthonormal basis of the same span (coarse dofs 2m and 2m-1),
    units of 1/h^2; it depends on k only through exp(4*pi*i*k/J)."""
    w = np.exp(4j * np.pi * k / J)
    diag = 0.5 * (c * (4.0 * (c - 1.0) * delta0 - 2.0 * c + 3.0) + (c - 1.0) * w.real + 2.0 * delta0 - 1.0)
    cross = -(2.0 * c - 1.0) * (c * (2.0 * delta0 - 1.0) - delta0 + 1.0)
    upper = 0.5 * (cross * w - c - delta0 + 1.0)
    lower = 0.5 * (cross * np.conj(w) - c - delta0 + 1.0)
    return np.array([[diag, upper], [lower, diag]], dtype=complex) * float(J) ** 2


# ---------------------------------------------------------------------------
# entrywise agreement with FFT-projected dense operators


@pytest.mark.parametrize("delta0,c,alpha", [(1.7, 0.37, 0.81), (2.4, 0.64, 0.3)])
def test_symbols_match_projected_dense_blocks(delta0, c, alpha):
    # J = 2 and 4 wrap: a cell's left and right neighbours are the cell
    # itself (J = 2) or each other (J = 4), and the dense blocks accumulate
    params = MethodParams(alpha, delta0, c)
    block = _prolongation_block(c)
    for J in (2, 4, 8, 16):
        cfg = DiscretizationConfig(J, delta0, PER)
        ops, A0 = build_two_level(cfg, params), coarse_operator(cfg, params)
        E = error_matrix(ops)
        for k in range(J // 2):
            V, W = cell_fourier_basis(J, k, 4), cell_fourier_basis(J, k, 2)
            assert invariance_defect(ops.A, V) < 1e-10
            np.testing.assert_allclose(
                projected_block(ops.A, V, V), lfa.symbol_system(k, J, delta0),
                atol=1e-10,
            )
            np.testing.assert_allclose(projected_block(ops.P, V, W), block, atol=1e-12)
            np.testing.assert_allclose(projected_block(np.asarray(ops.P).T / 2, W, V), block.T / 2, atol=1e-12)
            np.testing.assert_allclose(
                projected_block(A0, W, W), galerkin_coarse(k, J, delta0, c),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                projected_block(E, V, V), lfa.symbol_error(k, J, params), atol=1e-11,
            )


@pytest.mark.parametrize("J", [2, 4])
def test_2d_symbols_match_projected_dense_blocks(J):
    # the 2D dofs are ordered x-major (A = A1 (x) I + I (x) A1), so the
    # Kronecker products of the 1D cell bases block-diagonalize the 2D operators
    params = MethodParams(0.81, 1.7, 0.37)
    ops = build_two_level(DiscretizationConfig(J, params.penalty, PER, 2), params)
    E = error_matrix(ops)
    for kx in range(J // 2):
        for ky in range(J // 2):
            V = np.kron(cell_fourier_basis(J, kx, 4), cell_fourier_basis(J, ky, 4))
            assert invariance_defect(E, V) < 1e-10
            np.testing.assert_allclose(
                projected_block(E, V, V), lfa.symbol_error((kx, ky), J, params, 2), atol=1e-11,
            )


def test_smoother_symbol_values():
    # the error symbol presmooths with the dense smoother's scalar h^2/delta0:
    # E(alpha) = E(0) @ (I - alpha * s * A_hat)
    for J, delta0, s in [(8, 2.0, 1.0 / 128), (32, 1.5169783001470802, (1.0 / 1024) / 1.5169783001470802)]:
        params = MethodParams(0.7, delta0, 0.4)
        assert smoother_scale(DiscretizationConfig(J, delta0, PER), params) == pytest.approx(s, rel=1e-15)
        k = np.arange(1, J // 2)
        coarse_only = lfa.symbol_error(k, J, MethodParams(0.0, delta0, 0.4))
        np.testing.assert_allclose(
            lfa.symbol_error(k, J, params),
            coarse_only @ (np.eye(4) - 0.7 * s * lfa.symbol_system(k, J, delta0)),
            atol=1e-12,
        )


def test_smoother_symbol_normalizes_system_diagonal():
    # diag of s * A_hat is 1 with s = h^2/delta0
    k, J, delta0 = 2, 16, 1.8
    M = (1.0 / J) ** 2 / delta0 * lfa.symbol_system(k, J, delta0)
    np.testing.assert_allclose(np.diag(M), 1.0, rtol=0, atol=1e-15)


def test_system_symbol_hermitian_and_block_eigenvalues():
    # the span holds the harmonics k and k - J/2, whose 2x2 blocks have the
    # eigenvalues delta0 -/+ cos(2 pi k/J) +/- (1 - delta0)
    k, J, delta0 = 3, 16, 2.3
    A = lfa.symbol_system(k, J, delta0)
    np.testing.assert_allclose(A, A.conj().T, atol=1e-13)
    cos = np.cos(2 * np.pi * k / J)
    expected = sorted(delta0 + s * cos + t * (1 - delta0) for s in (1, -1) for t in (1, -1))
    np.testing.assert_allclose(np.linalg.eigvalsh(A) / J**2, expected, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_coarse_symbol_is_product_of_symbols(seed):
    # the two bases differ, so compare what does not depend on the basis
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    J = 16
    for k in range(J // 2):
        A0 = galerkin_coarse(k, J, params.penalty, params.discontinuity)
        ref = hand_typed_coarse(k, J, params.penalty, params.discontinuity)
        scale = np.abs(ref).max()
        assert np.abs(np.linalg.eigvalsh(A0) - np.linalg.eigvalsh(ref)).max() < 1e-12 * scale
        np.testing.assert_allclose(A0, A0.conj().T, atol=1e-12 * scale)


@pytest.mark.parametrize("J", [2, 4, 8, 64])
def test_coarse_band_is_the_galerkin_coarse_symbol(monkeypatch, J):
    # one formula: the periodic set-up's coarse band, summed with the phases
    # of the module docstring, is the LFA coarse symbol at every frequency;
    # slot t of block column k is K's block at block row k+t-1, so it
    # couples a cell to its (1-t)-th neighbour
    bands = []
    original = twolevel._band_matrix
    monkeypatch.setattr(twolevel, "_band_matrix", lambda K: bands.append(K) or original(K))
    k = np.arange(J // 2)
    phases = np.exp(1j * np.outer(4.0 * np.pi * k / J, [1, 0, -1]))
    for params in (MethodParams(8.0 / 9.0, 2.0, 0.5), random_params(np.random.default_rng(J))):
        build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
        symbols = np.einsum("ft,ctij->cfij", phases, bands.pop())  # [cell, frequency]
        ref = galerkin_coarse(k, J, params.penalty, params.discontinuity)
        assert np.abs(symbols - ref).max() <= 1e-12 * np.abs(ref).max()


def test_error_symbol_rank_structure():
    params = MethodParams(0.7, 2.2, 0.3)
    ev = np.sort(np.abs(np.linalg.eigvals(lfa.symbol_error(2, 8, params))))
    assert ev[0] < 1e-12 and ev[1] < 1e-12  # two structural zeros


def test_frequency_out_of_range():
    with pytest.raises(ValueError):
        lfa.symbol_system(4, 8, 2.0)
    with pytest.raises(ValueError):
        lfa.symbol_system(-1, 8, 2.0)
    with pytest.raises(ValueError):
        lfa.symbol_error(np.arange(5), 8, MethodParams(0.7, 2.2, 0.3))
    with pytest.raises(ValueError):
        lfa.symbol_error((1, 4), 8, MethodParams(0.7, 2.2, 0.3), 2)
    with pytest.raises(ValueError):  # 2D needs a trailing (kx, ky) axis
        lfa.symbol_error(np.arange(3), 8, MethodParams(0.7, 2.2, 0.3), 2)


# ---------------------------------------------------------------------------
# closed-form eigenvalues


def test_closed_form_matches_error_symbol():
    rng = np.random.default_rng(7)
    J = 32
    worst = 0.0
    for _ in range(50):
        params = random_params(rng)
        for k in range(1, J // 2):
            ev = np.linalg.eigvals(lfa.symbol_error(k, J, params))
            ev = ev[np.argsort(-np.abs(ev))][:2]
            cf = lfa.eigenvalues_closed_form(k, J, params)
            worst = max(worst, lfa.multiset_deviation(ev, cf))
    assert worst < 1e-9


def test_closed_form_zero_relaxation_degenerates():
    # with no presmoothing the radicand vanishes and both eigenvalues
    # coincide with the center
    params = MethodParams(0.0, 1.9, 0.4)
    lambda_plus, lambda_minus = lfa.eigenvalues_closed_form_at(0.3, params)
    (num0, num1), (den0, den1), radicand_num, _ = lfa._coefficients(*params.as_tuple())
    assert radicand_num == (0.0, 0.0, 0.0)
    assert lambda_plus == lambda_minus == (num0 + num1 * 0.3) / (den0 + den1 * 0.3)


def test_closed_form_zero_denominator_raises():
    # cosine value chosen to zero the radicand denominator
    params = MethodParams(0.9, 2.0, 0.5)
    with pytest.raises(lfa.DegenerateParameterError):
        lfa.eigenvalues_closed_form_at(7.0, params)


def test_closed_form_conjugate_pair_when_radicand_negative():
    # inside the valid parameter box the error operator is self-adjoint in
    # the energy inner product and the radicand stays nonnegative, so the
    # complex branch is exercised with an out-of-range cosine argument
    params = MethodParams(0.9, 2.0, 0.5)
    found = False
    for x in np.linspace(5.0, 9.0, 400):
        try:
            cf = lfa.eigenvalues_closed_form_at(x, params)
        except lfa.DegenerateParameterError:
            continue
        if abs(cf[0].imag) > 1e-10:
            np.testing.assert_allclose(cf[0], np.conj(cf[1]), atol=1e-12)
            found = True
            break
    assert found


def test_flat_spectrum_at_clustering_triple(clustering_triple):
    _, pairs = lfa.eigenvalues_over_theta(clustering_triple, 100)
    mods = np.abs(pairs)
    assert mods.max() - mods.min() < 1e-8
    assert abs(mods.mean() - 0.19732) < 1e-4
    # equioscillation: centers are zero
    np.testing.assert_allclose(pairs[:, 0] + pairs[:, 1], 0.0, atol=1e-10)


def test_symbol_radius_matches_dense_radius(classical_params):
    ops = build_two_level(DiscretizationConfig(32, 2.0, PER), classical_params)
    dense = np.abs(np.linalg.eigvals(deflate_constant(error_matrix(ops)))).max()
    assert abs(lfa.symbol_radius(classical_params) - dense) < 1e-6


# ---------------------------------------------------------------------------
# dense equivalence (the master oracle)


@pytest.mark.parametrize("J", [4, 8, 16, 32])
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(alpha=ALPHA, penalty=st.floats(1.01, 10.0), c=DISCONTINUITY)
def test_dense_error_spectrum_equals_symbol_union(J, alpha, penalty, c):
    # delta0 stays 1e-2 above 1: closer, the dense eigensolve of the periodic
    # error operator drifts (1e-6 at J = 32, delta0 = 1 + 1e-6) while the
    # 4x4 symbol spectra keep agreeing with a 50-digit evaluation to 1e-15
    params = MethodParams(alpha, penalty, c)
    ops = build_two_level(DiscretizationConfig(J, penalty, PER), params)
    dense = np.linalg.eigvals(error_matrix(ops))
    sym = lfa.error_spectrum_symbols(J, params)
    assert lfa.multiset_deviation(dense, sym) < 1e-8


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2]),
    J=st.sampled_from([4, 8, 16, 32]),
    alpha=ALPHA,
    penalty=PENALTY,
    c=DISCONTINUITY,
)
def test_symbol_spectrum_is_k_major_union_of_blocks(dim, J, alpha, penalty, c):
    # with b = 4^dim, values b*m..b*m+b-1 are the spectrum of the single-k
    # error symbol at the m-th frequency, which equals slice m of the batched
    # symbol; frequencies run k-major (kx-major in 2D), k = 0 comes first
    # and keeps the constant mode's eigenvalue 1
    params = MethodParams(alpha, penalty, c)
    b = 4**dim
    freqs = list(range(J // 2)) if dim == 1 else [(kx, ky) for kx in range(J // 2) for ky in range(J // 2)]
    eigs = lfa.error_spectrum_symbols(J, params, dim)
    batch = lfa.symbol_error(np.array(freqs), J, params, dim)
    assert eigs.shape == ((2 * J) ** dim,) and batch.shape == (len(freqs), b, b)
    for m, k in enumerate(freqs):
        single = lfa.symbol_error(k, J, params, dim)
        np.testing.assert_allclose(batch[m], single, rtol=0, atol=1e-13 * np.abs(single).max())
        assert lfa.multiset_deviation(eigs[b * m : b * m + b], np.linalg.eigvals(single)) < 1e-12
    assert np.min(np.abs(eigs[:b] - 1.0)) < 1e-12


@pytest.mark.parametrize("edge", ["c->0", "c->1", "delta0->1+", "alpha->0"])
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    log_gap=st.floats(-5.0, -2.0),
    alpha=st.floats(0.05, 1.0),
    penalty=st.floats(1.05, 10.0),
    c=st.floats(0.05, 0.95),
)
def test_closed_form_at_parameter_edges(edge, log_gap, alpha, penalty, c):
    # one parameter at distance 1e-5..1e-2 from its edge of the box, the
    # other two inside it.  The closed form keeps 1e-8 there; much nearer,
    # its radicand at cos = -1 cancels to rounding level as c -> 1 or
    # delta0 -> 1+ and the root keeps only half the digits (2.6e-8 at
    # delta0 = 1 + 1e-9), while the 4x4 eigensolve stays accurate
    gap = 10.0 ** log_gap
    if edge == "c->0":
        c = gap
    elif edge == "c->1":
        c = 1.0 - gap
    elif edge == "delta0->1+":
        penalty = 1.0 + gap
    else:
        alpha = gap
    params = MethodParams(alpha, penalty, c)
    J = 32
    k = np.arange(1, J // 2)
    ev = np.linalg.eigvals(lfa.symbol_error(k, J, params))
    top = np.take_along_axis(ev, np.argsort(-np.abs(ev), axis=-1)[:, :2], axis=-1)
    cf = lfa.eigenvalues_closed_form(k, J, params)
    assert max(lfa.multiset_deviation(a, b) for a, b in zip(top, cf)) < 1e-8


def test_fault_injection_breaks_equivalence():
    # the spectral form of lfa-verify --inject-error, which hands the symbol
    # side c + 1e-3: the multiset comparison sees it far above the 1e-8 gate
    params = MethodParams(0.8, 2.0, 0.4)
    nudged = MethodParams(0.8, 2.0, 0.4 + 1e-3)
    J = 8
    ops = build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
    dense = np.linalg.eigvals(error_matrix(ops))
    assert lfa.multiset_deviation(dense, lfa.error_spectrum_symbols(J, params)) < 1e-8
    assert lfa.multiset_deviation(dense, lfa.error_spectrum_symbols(J, nudged)) > 1e-5


@pytest.mark.xfail(strict=True, reason="pinv's relative rcond keeps the rounding-level singular "
                   "value of the k = 0 coarse block when delta0 is near 1")
def test_kernel_symbol_keeps_the_constant_mode_near_delta0_one():
    # E 1 = 1 on the dense periodic mesh (to 2.5e-10 here), so the k = 0
    # symbol maps the constant vector to itself; the coarse block's singular
    # values are 2.6e-6 and 7.2e-16, and pinv(rcond=1e-10) inverts both
    params = MethodParams(1.0, 1.0 + 1e-8, 1e-4)
    np.testing.assert_allclose(lfa.symbol_error(0, 8, params) @ np.ones(4), np.ones(4), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# the real-arithmetic kernels against the complex path, bit for bit


def same_outcome(f, g, *args):
    """f and g return the same bits, or both raise DegenerateParameterError
    with the same message."""
    try:
        want = g(*args)
    except lfa.DegenerateParameterError as exc:
        with pytest.raises(lfa.DegenerateParameterError) as got:
            f(*args)
        assert str(got.value) == str(exc)
        return False
    have = f(*args)
    assert type(have) is type(want)
    assert np.shape(have) == np.shape(want) and np.asarray(have).dtype == np.asarray(want).dtype
    assert np.asarray(have).tobytes() == np.asarray(want).tobytes(), (args, have, want)
    return True


@pytest.mark.parametrize("cast", [float, np.float64])
def test_symbol_radius_is_the_complex_path_radius_on_seeded_draws(cast):
    # the box's interior and its neighbourhood of delta0 = 1 (gaps down to 1e-9)
    rng = np.random.default_rng(2207)
    for _ in range(1500):
        gap = 10.0 ** rng.uniform(-9.0, 1.0)
        p = MethodParams(cast(rng.uniform(0.0, 1.0)), cast(1.0 + gap), cast(rng.uniform(1e-6, 1.0 - 1e-6)))
        assert same_outcome(lfa.symbol_radius, reference_symbol_radius, p)


@pytest.mark.parametrize("edge", ["c->0", "c->1", "delta0->1+", "alpha=0"])
@pytest.mark.parametrize("cast", [float, np.float64])
def test_symbol_radius_is_the_complex_path_radius_at_the_edges(edge, cast):
    # at the edges the radicand vanishes (alpha = 0) or cancels to rounding
    # level, where q >= 0 and q < 0 meet on the same grid
    rng = np.random.default_rng(["c->0", "c->1", "delta0->1+", "alpha=0"].index(edge))
    gaps = [2.0**-e for e in range(1, 60)] + [5e-324, 1e-300, 1e-200, 1e-100]
    for gap in gaps:
        alpha, d0, c = rng.uniform(0.05, 1.0), rng.uniform(1.05, 10.0), rng.uniform(0.05, 0.95)
        if edge == "c->0":
            c = gap
        elif edge == "c->1":
            c = min(1.0 - gap, np.nextafter(1.0, 0.0))
        elif edge == "delta0->1+":
            d0 = max(1.0 + gap, np.nextafter(1.0, 2.0))
        else:
            alpha = 0.0
        p = MethodParams(cast(alpha), cast(d0), cast(c))
        same_outcome(lfa.symbol_radius, reference_symbol_radius, p)


@pytest.mark.parametrize("name", cli.PRESETS_1D)
def test_symbol_radius_is_the_complex_path_radius_at_the_presets(name):
    assert same_outcome(lfa.symbol_radius, reference_symbol_radius, cli.preset_params(name))


def test_closed_form_pairs_are_the_complex_path_pairs():
    rng = np.random.default_rng(2208)
    for cast in (float, np.float64):
        for _ in range(200):
            p = MethodParams(cast(rng.uniform(0.0, 1.0)), cast(1.0 + 10.0 ** rng.uniform(-6.0, 1.0)),
                             cast(rng.uniform(0.01, 0.99)))
            x = rng.uniform(-1.0, 1.0, 6)
            for cosine in (x, x.reshape(2, 3), x[0], float(x[1]), np.float64(x[2]), np.asarray(x[3])):
                assert same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, cosine, p)
    # the complex branch: out-of-range cosines make the radicand negative
    p = MethodParams(0.9, 2.0, 0.5)
    grid = np.linspace(5.0, 9.0, 401)
    complex_branch = 0
    for x in grid:
        if same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, x, p):
            complex_branch += abs(lfa.eigenvalues_closed_form_at(x, p)[0].imag) > 0
    assert complex_branch > 100
    ok = [x for x in grid if same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, x, p)]
    assert same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, np.array(ok), p)


def test_degenerate_cosines_are_named():
    p = MethodParams(0.9, 2.0, 0.5)
    with pytest.raises(lfa.DegenerateParameterError, match=r"cos=\[7\.\]"):
        lfa.eigenvalues_closed_form_at(np.array([0.3, 7.0, -0.5]), p)
    assert not same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, np.array([[7.0, 0.3], [7.0, 1.0]]), p)
    assert not same_outcome(lfa.eigenvalues_closed_form_at, closed_form_pairs, 7.0, p)


@pytest.mark.parametrize("closed_form", ["symbol_radius", "eigenvalues_closed_form_at", "predicted_radius"])
@pytest.mark.parametrize("cast", [float, np.float64])
def test_closed_form_names_an_overflowing_penalty(closed_form, cast):
    # float components have always raised OverflowError here; np.float64 ones
    # returned NaN until the coefficients were taken as Python floats
    f = {
        "symbol_radius": lfa.symbol_radius,
        "eigenvalues_closed_form_at": lambda p: lfa.eigenvalues_closed_form_at(1.0, p),
        "predicted_radius": optimize.predicted_radius,
    }[closed_form]
    with pytest.raises(lfa.DegenerateParameterError):
        f(MethodParams(0.5, cast(1e80), 0.5))


# ---------------------------------------------------------------------------
# helpers


def test_multiset_deviation_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert lfa.multiset_deviation(a, a[::-1]) == 0.0
    assert abs(lfa.multiset_deviation(a, a + 1e-3) - 1e-3) < 1e-12
    with pytest.raises(ValueError):
        lfa.multiset_deviation(a, a[:2])
