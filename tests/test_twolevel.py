import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgml.discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    assemble_1d,
    assemble_2d,
)
from dgml.twolevel import (
    MethodParams,
    SingularCoarseError,
    _prolongation_block,
    apply_preconditioner,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
    prolongation_matrix,
    smoother_scale,
)
from dgml import lfa
from helpers import deflate_constant, dense_two_level

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def propagate_error(ops, e):
    """Matrix-free error propagation: smoothing, then coarse correction."""
    e = e - ops.params.alpha * ops.smoother_scale * (ops.A @ e)
    return e - ops.P @ (ops.coarse_solve(np.eye(len(ops.A0))) @ (ops.P.T / 2 @ (ops.A @ e)))


def test_method_params_validation():
    with pytest.raises(ConfigError):
        MethodParams(1.5, 2.0, 0.5)
    with pytest.raises(ConfigError):
        MethodParams(-0.1, 2.0, 0.5)
    with pytest.raises(ConfigError):
        MethodParams(0.9, 1.0, 0.5)
    with pytest.raises(ConfigError, match="finite"):
        MethodParams(0.9, np.inf, 0.5)
    with pytest.raises(ConfigError):
        MethodParams(0.9, 2.0, 1.0)
    MethodParams(0.0, 2.0, 0.5)  # degenerate no-presmoothing case is allowed


def test_smoother_1d_values():
    cfg = DiscretizationConfig(4, 2.0, PER)
    params = MethodParams(0.9, 2.0, 0.5)
    assert smoother_scale(cfg, params) == 1.0 / 16 / 2.0
    assert build_two_level(cfg, params).smoother_scale == 1.0 / 16 / 2.0


def test_smoother_scale():
    assert smoother_scale(DiscretizationConfig(4, 2.0, DIR), MethodParams(0.9, 2.0, 0.5)) == 1.0 / 32
    cfg2 = DiscretizationConfig(4, 2.0, DIR, 2)
    assert smoother_scale(cfg2, MethodParams(0.9, 2.0, 0.5)) == 1.0 / 64
    with pytest.raises(ConfigError):
        smoother_scale(cfg2, MethodParams(0.9, 1.5, 0.5))


def test_smoother_normalizes_periodic_diagonal():
    cfg = DiscretizationConfig(8, 1.7, PER)
    A = assemble_1d(cfg)
    s = smoother_scale(cfg, MethodParams(0.9, 1.7, 0.5))
    np.testing.assert_allclose(np.diag(s * A), 1.0, atol=1e-13)


def test_smoother_2d_matches_cell_block():
    # the 4x4 node-pair blocks of the 2D operator are scalar; the smoother
    # is their inverse
    cfg = DiscretizationConfig(2, 2.0, PER, 2)
    A2 = assemble_2d(cfg)
    h2 = cfg.mesh_size ** 2
    assert smoother_scale(cfg, MethodParams(0.9, 2.0, 0.5)) == h2 / 4.0
    np.testing.assert_allclose(np.diag(A2), 2 * 2.0 / h2, atol=1e-12)


def test_smoother_penalty_mismatch():
    cfg = DiscretizationConfig(4, 2.0, PER)
    with pytest.raises(ConfigError):
        smoother_scale(cfg, MethodParams(0.9, 2.5, 0.5))
    with pytest.raises(ConfigError):
        build_two_level(cfg, MethodParams(0.9, 2.5, 0.5))


def test_prolongation_continuous_case():
    P = prolongation_matrix(DiscretizationConfig(2, 2.0, DIR), 0.5)
    np.testing.assert_array_equal(P, [[1, 0], [0.5, 0.5], [0.5, 0.5], [0, 1]])


def test_prolongation_discontinuous_rows():
    c = 0.564604
    P = prolongation_matrix(DiscretizationConfig(2, 2.0, DIR), c)
    np.testing.assert_allclose(P[1], [c, 1 - c])
    np.testing.assert_allclose(P[2], [1 - c, c])
    np.testing.assert_allclose(P.sum(axis=1), 1.0)


def test_prolongation_column_sums():
    P = prolongation_matrix(DiscretizationConfig(4, 2.0, PER), 0.31)
    np.testing.assert_allclose(P.sum(axis=0), 2.0)
    assert P.shape == (8, 4)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.564604, 0.9])
def test_partition_of_unity(c):
    P = prolongation_matrix(DiscretizationConfig(8, 2.0, DIR), c)
    np.testing.assert_allclose(P @ np.ones(8), np.ones(16), atol=1e-14)


def test_restriction_is_half_transpose():
    params = MethodParams(0.9, 2.0, 0.37)
    ops = build_two_level(DiscretizationConfig(4, 2.0, DIR), params)
    # 2D: P^T / 4 is the Kronecker square of the 1D restriction, exactly
    ops2 = build_two_level(DiscretizationConfig(4, 2.0, DIR, 2), params)
    assert np.array_equal(ops2.P.T / 4, np.kron(ops.P.T / 2, ops.P.T / 2))


def test_restriction_preserves_constants():
    R = build_two_level(DiscretizationConfig(2, 2.0, DIR), MethodParams(0.9, 2.0, 0.6)).P.T / 2
    np.testing.assert_allclose(R @ np.ones(4), np.ones(2), atol=1e-14)
    np.testing.assert_allclose(R.sum(axis=1), 1.0)


def test_coarse_operator_periodic_kernel():
    A0 = build_two_level(DiscretizationConfig(4, 2.0, PER), MethodParams(0.9, 2.0, 0.5)).A0
    np.testing.assert_allclose(A0 @ np.ones(4), 0.0, atol=1e-11)


def test_coarse_operator_symmetric():
    A0 = build_two_level(DiscretizationConfig(8, 1.4, DIR), MethodParams(0.9, 1.4, 0.27)).A0
    assert np.abs(A0 - A0.T).max() <= 1e-12 * np.abs(A0).max()


def test_coarse_operator_eigenvalues_match_symbols():
    # dense coarse spectrum equals the union of the spectra of the Galerkin
    # products P^T A P / 2 of the system symbols and the prolongation block
    J, delta0, c = 8, 2.0, 0.5
    A0 = build_two_level(DiscretizationConfig(J, delta0, PER), MethodParams(0.9, delta0, c)).A0
    dense = np.linalg.eigvals(A0)
    P = _prolongation_block(c)
    blocks = P.T @ lfa.symbol_system(np.arange(J // 2), J, delta0) @ P / 2
    assert lfa.multiset_deviation(dense, np.linalg.eigvals(blocks).ravel()) < 1e-9


def test_apply_preconditioner_zero():
    cfg = DiscretizationConfig(8, 2.0, DIR)
    params = MethodParams(0.8, 2.0, 0.4)
    ops = build_two_level(cfg, params)
    np.testing.assert_array_equal(apply_preconditioner(ops, np.zeros(16)), np.zeros(16))
    np.testing.assert_array_equal(preconditioner_matrix(ops) @ np.zeros(16), np.zeros(16))


@pytest.mark.parametrize("bc", [DIR, PER])
def test_apply_preconditioner_matches_dense_formula(bc):
    cfg = DiscretizationConfig(8, 1.9, bc)
    params = MethodParams(0.77, 1.9, 0.33)
    ops = build_two_level(cfg, params)
    Minv = preconditioner_matrix(ops)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(16)
    y = apply_preconditioner(ops, g)
    np.testing.assert_allclose(y, Minv @ g, atol=1e-12 * np.abs(Minv @ g).max())


def test_preconditioned_spectrum_real_positive_clustered(clustering_triple):
    cfg = DiscretizationConfig(32, clustering_triple.penalty, DIR)
    ops = build_two_level(cfg, clustering_triple)
    MA = preconditioner_matrix(ops) @ ops.A
    eigs = np.linalg.eigvals(MA)
    assert np.abs(eigs.imag).max() < 1e-8
    assert eigs.real.min() > 0
    # 1 +/- 0.19732 dominate
    near = np.abs(np.abs(eigs.real - 1.0) - 0.19732) < 1e-3
    assert near.sum() >= 29


def test_error_operator_alpha_zero_is_coarse_correction():
    cfg = DiscretizationConfig(8, 2.0, DIR)
    params = MethodParams(0.0, 2.0, 0.4)
    ops = build_two_level(cfg, params)
    E = error_matrix(ops)
    expected = np.eye(16) - ops.P @ ops.coarse_solve(np.eye(8)) @ (ops.P.T / 2) @ ops.A
    np.testing.assert_allclose(E, expected, atol=1e-13 * np.abs(expected).max())


def test_coarse_correction_annihilates_coarse_space():
    # (I - P A0^{-1} R A) P = 0: inherited-operator projection property
    cfg = DiscretizationConfig(8, 1.6, DIR)
    params = MethodParams(0.9, 1.6, 0.7)
    ops = build_two_level(cfg, params)
    C = np.eye(16) - ops.P @ ops.coarse_solve(np.eye(8)) @ (ops.P.T / 2) @ ops.A
    assert np.abs(C @ ops.P).max() < 1e-12


@pytest.mark.parametrize("bc", [DIR, PER])
def test_error_spectrum_is_one_minus_preconditioned(bc):
    cfg = DiscretizationConfig(8, 2.2, bc)
    params = MethodParams(0.85, 2.2, 0.45)
    ops = build_two_level(cfg, params)
    eigs_E = np.sort_complex(np.linalg.eigvals(error_matrix(ops)))
    eigs_MA = np.linalg.eigvals(preconditioner_matrix(ops) @ ops.A)
    assert lfa.multiset_deviation(eigs_E, 1.0 - eigs_MA) < 1e-10


def test_classical_dirichlet_radius(classical_params):
    cfg = DiscretizationConfig(32, 2.0, DIR)
    ops = build_two_level(cfg, classical_params)
    eigs = np.linalg.eigvals(error_matrix(ops))
    assert np.abs(eigs.imag).max() < 1e-10
    assert np.abs(eigs).max() < 1.0
    assert abs(np.abs(eigs).max() - 1.0 / 3.0) < 1e-3


def test_periodic_clustering_radius_and_equioscillation(clustering_triple):
    cfg = DiscretizationConfig(32, clustering_triple.penalty, PER)
    ops = build_two_level(cfg, clustering_triple)
    E = deflate_constant(error_matrix(ops))
    eigs = np.linalg.eigvals(E)
    assert abs(np.abs(eigs).max() - 0.19732) < 1e-4
    plus = np.abs(eigs.real - 0.19732) < 1e-4
    minus = np.abs(eigs.real + 0.19732) < 1e-4
    assert plus.sum() >= 15 and minus.sum() >= 15


def test_error_operator_free_function_matches_bundle():
    params = MethodParams(0.6, 2.0, 0.3)
    for bc in (PER, DIR):
        ops = build_two_level(DiscretizationConfig(8, 2.0, bc), params)
        np.testing.assert_allclose(error_matrix(ops), propagate_error(ops, np.eye(16)), atol=1e-13)


# structured set-up against the dense products


ALPHA = st.floats(0.0, 1.0)
PENALTY = st.floats(1.01, 10.0)
DISCONTINUITY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def relative_error(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def assert_matches_dense(ops, dense):
    assert np.array_equal(ops.A, dense.A)
    assert np.array_equal(ops.P, dense.P)
    assert relative_error(ops.A0, dense.A0) < 1e-12
    assert relative_error(ops.coarse_solve(np.eye(len(ops.A0))), dense.A0inv) < 1e-12


@pytest.mark.parametrize("bc", [DIR, PER])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]), alpha=ALPHA, penalty=PENALTY, c=DISCONTINUITY)
def test_structured_setup_matches_dense_1d(bc, J, alpha, penalty, c):
    cfg, params = DiscretizationConfig(J, penalty, bc), MethodParams(alpha, penalty, c)
    ops, dense = build_two_level(cfg, params), dense_two_level(cfg, params)
    assert_matches_dense(ops, dense)
    assert relative_error(preconditioner_matrix(ops), dense.Minv) < 1e-12


@pytest.mark.parametrize("bc", [DIR, PER])
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([2, 4, 8, 16]), alpha=ALPHA, penalty=PENALTY, c=DISCONTINUITY)
def test_structured_setup_matches_dense_2d(bc, J, alpha, penalty, c):
    cfg, params = DiscretizationConfig(J, penalty, bc, 2), MethodParams(alpha, penalty, c)
    assert_matches_dense(build_two_level(cfg, params), dense_two_level(cfg, params))


def test_preconditioner_matrix_is_1d_only():
    ops = build_two_level(DiscretizationConfig(4, 2.0, DIR, 2), MethodParams(0.9, 2.0, 0.5))
    with pytest.raises(ConfigError, match="apply_preconditioner"):
        preconditioner_matrix(ops)


def test_dirichlet_coarse_inverse_pivots(monkeypatch):
    # the 1D Dirichlet set-up inverts only its J/2 pivot blocks of size 2x2;
    # a singular pivot surfaces as SingularCoarseError
    inv, shapes = np.linalg.inv, []

    def recording_inv(a, fail_at=None):
        shapes.append(np.shape(a))
        if len(shapes) == fail_at:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    cfg, params = DiscretizationConfig(8, 2.0, DIR), MethodParams(0.9, 2.0, 0.5)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    build_two_level(cfg, params)
    assert shapes == [(2, 2)] * 4
    shapes.clear()
    monkeypatch.setattr(np.linalg, "inv", lambda a: recording_inv(a, fail_at=3))
    with pytest.raises(SingularCoarseError):
        build_two_level(cfg, params)
    assert shapes == [(2, 2)] * 3


def test_dirichlet_coarse_solve_backward_error(clustering_triple):
    # the block LDL^T solve at the default size cap, for a matrix and a
    # vector: ||K X - Y|| / (||K|| ||X||) in the infinity norm
    cfg = DiscretizationConfig(2048, clustering_triple.penalty, DIR)
    ops = build_two_level(cfg, clustering_triple)
    K = ops.A0
    Y = np.random.default_rng(7).standard_normal((len(K), 3))
    for y in (Y, Y[:, 0]):
        X = ops.coarse_solve(y)
        assert X.shape == y.shape
        norm = lambda M: np.linalg.norm(M, np.inf)
        assert norm(K @ X - y) / (norm(K) * norm(X)) < 1e-13


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_dirichlet_setup_and_preconditioner_allocate_no_extra_dense_arrays(clustering_triple):
    # build_two_level holds A, P and A0 and nothing else of their size; the
    # dense M^{-1} needs one n x n and one m x n array at a time
    cfg = DiscretizationConfig(512, clustering_triple.penalty, DIR)
    ops, peak = traced_peak(build_two_level, cfg, clustering_triple)
    assert peak <= ops.A.nbytes + ops.P.nbytes + ops.A0.nbytes + 2**20
    Minv, peak = traced_peak(preconditioner_matrix, ops)
    assert peak <= Minv.nbytes + ops.P.T.nbytes + 2**20
