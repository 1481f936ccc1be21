import numpy as np
import pytest

from helpers import coarse_basis, fine_pair_basis, invariance_defect, projected_block

from dgml.discretization import BoundaryCondition, DiscretizationConfig
from dgml.twolevel import MethodParams, build_two_level, deflate_constant, error_matrix
from dgml import lfa

PER = BoundaryCondition.PERIODIC


def random_params(rng):
    return MethodParams(
        rng.uniform(0.05, 1.0), rng.uniform(1.05, 3.0), rng.uniform(0.05, 0.95)
    )


# ---------------------------------------------------------------------------
# entrywise agreement with FFT-projected dense operators


@pytest.mark.parametrize("delta0,c,alpha", [(1.7, 0.37, 0.81), (2.4, 0.64, 0.3)])
def test_symbols_match_projected_dense_blocks(delta0, c, alpha):
    J = 8
    params = MethodParams(alpha, delta0, c)
    ops = build_two_level(DiscretizationConfig(J, delta0, PER), params)
    E = error_matrix(ops)
    for k in range(J // 2):
        V = fine_pair_basis(J, k)
        W = coarse_basis(J, k)
        assert invariance_defect(ops.A, V) < 1e-10
        np.testing.assert_allclose(
            projected_block(ops.A, V, V), lfa.symbol_system(k, J, delta0),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            projected_block(ops.R, W, V), lfa.symbol_restriction(k, J, c),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            projected_block(ops.P, V, W), lfa.symbol_prolongation(k, J, c),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            projected_block(ops.A0, W, W), lfa.symbol_coarse(k, J, delta0, c),
            atol=1e-10,
        )
        mode = "pinv" if k == 0 else "solve"
        np.testing.assert_allclose(
            projected_block(E, V, V),
            lfa.symbol_error(k, J, params, coarse_inverse=mode),
            atol=1e-11,
        )


def test_smoother_symbol_values():
    np.testing.assert_array_equal(
        lfa.symbol_smoother_inv(2.0, 1.0 / 8), (1.0 / 128) * np.eye(4)
    )
    D = lfa.symbol_smoother_inv(1.5169783001470802, 1.0 / 32)
    np.testing.assert_allclose(np.diag(D).real, (1.0 / 1024) / 1.5169783001470802)


def test_smoother_symbol_normalizes_system_diagonal():
    # diag of Dinv_hat @ A_hat is 1 +/- cos(theta)/delta0
    k, J, delta0 = 2, 16, 1.8
    M = lfa.symbol_smoother_inv(delta0, 1.0 / J) @ lfa.symbol_system(k, J, delta0)
    theta = 2 * np.pi * k / J
    np.testing.assert_allclose(
        np.diag(M).real,
        [1 + np.cos(theta) / delta0] * 2 + [1 - np.cos(theta) / delta0] * 2,
        atol=1e-13,
    )


def test_system_symbol_hermitian_and_block_eigenvalues():
    k, J, delta0 = 3, 16, 2.3
    A = lfa.symbol_system(k, J, delta0)
    np.testing.assert_allclose(A, A.conj().T, atol=1e-13)
    lower = A[2:, 2:] / J**2  # base-frequency block
    theta = 2 * np.pi * k / J
    expected = sorted(
        [delta0 - np.cos(theta) + (1 - delta0), delta0 - np.cos(theta) - (1 - delta0)]
    )
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(lower)), expected, atol=1e-13)


def test_restriction_values_at_zero_frequency():
    c = 0.5
    R = lfa.symbol_restriction(0, 8, c)
    scale = 1.0 / (2 * np.sqrt(2.0))
    expected = np.array(
        [
            [1 + (c - 1), -c, 1 - (c - 1), c],
            [-c, 1 + (c - 1), c, 1 - (c - 1)],
        ]
    ) * scale
    np.testing.assert_allclose(R, expected, atol=1e-15)


def test_restriction_complex_at_quarter_frequency():
    R = lfa.symbol_restriction(4, 16, 0.5)  # e^{i theta} = i
    assert np.abs(R.imag).max() > 0.1


def test_prolongation_is_twice_adjoint():
    for k in range(4):
        R = lfa.symbol_restriction(k, 8, 0.7)
        P = lfa.symbol_prolongation(k, 8, 0.7)
        np.testing.assert_array_equal(P, 2.0 * R.conj().T)


@pytest.mark.parametrize("seed", range(5))
def test_coarse_symbol_is_product_of_symbols(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    J = 16
    for k in range(J // 2):
        A = lfa.symbol_system(k, J, params.penalty)
        R = lfa.symbol_restriction(k, J, params.discontinuity)
        P = lfa.symbol_prolongation(k, J, params.discontinuity)
        A0 = lfa.symbol_coarse(k, J, params.penalty, params.discontinuity)
        scale = np.abs(A0).max()
        assert np.abs(R @ A @ P - A0).max() < 1e-12 * scale
        np.testing.assert_allclose(A0, A0.conj().T, atol=1e-12 * scale)


def test_error_symbol_rank_structure():
    params = MethodParams(0.7, 2.2, 0.3)
    ev = np.sort(np.abs(np.linalg.eigvals(lfa.symbol_error(2, 8, params))))
    assert ev[0] < 1e-12 and ev[1] < 1e-12  # two structural zeros


def test_error_symbol_kernel_frequency_raises():
    params = MethodParams(0.7, 2.2, 0.3)
    with pytest.raises(lfa.DegenerateParameterError):
        lfa.symbol_error(0, 8, params, coarse_inverse="solve")


def test_frequency_out_of_range():
    with pytest.raises(ValueError):
        lfa.symbol_system(4, 8, 2.0)
    with pytest.raises(ValueError):
        lfa.symbol_restriction(-1, 8, 0.5)


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
            worst = max(
                worst, lfa.multiset_deviation(ev, [cf.lambda_plus, cf.lambda_minus])
            )
    assert worst < 1e-9


def test_closed_form_zero_relaxation_degenerates():
    # with no presmoothing the radicand vanishes and both eigenvalues
    # coincide with the center
    params = MethodParams(0.0, 1.9, 0.4)
    cf = lfa.eigenvalues_closed_form_at(0.3, params)
    assert cf.lambda_plus == cf.lambda_minus == cf.center
    assert cf.radicand_num == 0.0


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
        if abs(cf.lambda_plus.imag) > 1e-10:
            np.testing.assert_allclose(
                cf.lambda_plus, np.conj(cf.lambda_minus), atol=1e-12
            )
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
def test_dense_error_spectrum_equals_symbol_union(J):
    rng = np.random.default_rng(J)
    for _ in range(3):
        params = random_params(rng)
        ops = build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
        dense = np.linalg.eigvals(error_matrix(ops))
        sym = lfa.error_spectrum_symbols(J, params, kernel="pinv")
        assert lfa.multiset_deviation(dense, sym) < 1e-8


def test_dense_equivalence_projected_mode():
    rng = np.random.default_rng(99)
    params = random_params(rng)
    J = 8
    ops = build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
    dense = np.linalg.eigvals(deflate_constant(error_matrix(ops)))
    sym = lfa.error_spectrum_symbols(J, params, kernel="project")
    assert lfa.multiset_deviation(dense, sym) < 1e-8


def test_fault_injection_breaks_equivalence():
    # lfa-verify --inject-error hands the symbol side c + 1e-3; the
    # comparison must see it far above its 1e-8 gate
    params = MethodParams(0.8, 2.0, 0.4)
    nudged = MethodParams(0.8, 2.0, 0.4 + 1e-3)
    J = 8
    ops = build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
    dense = np.linalg.eigvals(error_matrix(ops))
    assert lfa.multiset_deviation(dense, lfa.error_spectrum_symbols(J, params)) < 1e-8
    assert lfa.multiset_deviation(dense, lfa.error_spectrum_symbols(J, nudged)) > 1e-5


# ---------------------------------------------------------------------------
# parity and helpers


def test_odd_parity_coarse_symbol_is_similar():
    # the odd-node variant flips the off-diagonal signs; spectra agree
    for k in range(4):
        even = lfa.symbol_coarse(k, 8, 2.1, 0.35, parity=1)
        odd = lfa.symbol_coarse(k, 8, 2.1, 0.35, parity=-1)
        S = np.diag([1.0, -1.0])
        np.testing.assert_allclose(S @ even @ S, odd, atol=1e-12 * np.abs(even).max())
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(even)), np.sort(np.linalg.eigvalsh(odd)), atol=1e-10
        )


def test_odd_parity_error_spectrum_matches_even():
    params = MethodParams(0.8, 1.9, 0.6)
    J, k = 8, 2
    A = lfa.symbol_system(k, J, params.penalty)
    Dinv = lfa.symbol_smoother_inv(params.penalty, 1.0 / J)
    for parity in (1, -1):
        R = lfa.symbol_restriction(k, J, params.discontinuity, parity)
        P = lfa.symbol_prolongation(k, J, params.discontinuity, parity)
        A0 = R @ A @ P
        E = (np.eye(4) - P @ np.linalg.inv(A0) @ R @ A) @ (
            np.eye(4) - params.alpha * Dinv @ A
        )
        if parity == 1:
            even_eigs = np.linalg.eigvals(E)
        else:
            odd_eigs = np.linalg.eigvals(E)
    assert lfa.multiset_deviation(even_eigs, odd_eigs) < 1e-10


def test_multiset_deviation_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert lfa.multiset_deviation(a, a[::-1]) == 0.0
    assert abs(lfa.multiset_deviation(a, a + 1e-3) - 1e-3) < 1e-12
    with pytest.raises(ValueError):
        lfa.multiset_deviation(a, a[:2])
