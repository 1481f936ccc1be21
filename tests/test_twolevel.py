import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgml.discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    SizeCapError,
    SystemOperator,
    assemble_1d,
    assemble_2d,
    dense_cap,
)
from dgml.twolevel import (
    _CHUNK,
    MethodParams,
    Prolongation,
    SingularCoarseError,
    _prolongation_block,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
    smoother_scale,
)
from dgml import lfa, twolevel
from helpers import (
    band_residual,
    coarse_band,
    coarse_operator,
    deflate_constant,
    dense_two_level,
    multiset_deviation,
    prolongation_loop,
    refined_inverse,
    refined_solve,
    sipg_1d_loop,
)

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def propagate_error(ops, e):
    """Matrix-free error propagation: smoothing, then coarse correction."""
    e = e - ops.params.alpha * smoother_scale(ops.config, ops.params) * (ops.A @ e)
    return e - ops.P @ (ops.coarse_solve(np.eye(ops.P.shape[1])) @ (np.asarray(ops.P).T / 2 @ (ops.A @ e)))


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
    assert preconditioner_matrix(build_two_level(cfg, params)).a_s == 0.9 / 16 / 2.0


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
    P = np.asarray(Prolongation(DiscretizationConfig(2, 2.0, DIR), 0.5))
    np.testing.assert_array_equal(P, [[1, 0], [0.5, 0.5], [0.5, 0.5], [0, 1]])


def test_prolongation_discontinuous_rows():
    c = 0.564604
    P = np.asarray(Prolongation(DiscretizationConfig(2, 2.0, DIR), c))
    np.testing.assert_allclose(P[1], [c, 1 - c])
    np.testing.assert_allclose(P[2], [1 - c, c])
    np.testing.assert_allclose(P.sum(axis=1), 1.0)


def test_prolongation_column_sums():
    P = np.asarray(Prolongation(DiscretizationConfig(4, 2.0, PER), 0.31))
    np.testing.assert_allclose(P.sum(axis=0), 2.0)
    assert P.shape == (8, 4)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.564604, 0.9])
def test_partition_of_unity(c):
    P = np.asarray(Prolongation(DiscretizationConfig(8, 2.0, DIR), c))
    np.testing.assert_allclose(P @ np.ones(8), np.ones(16), atol=1e-14)


def test_restriction_is_half_transpose():
    params = MethodParams(0.9, 2.0, 0.37)
    ops = build_two_level(DiscretizationConfig(4, 2.0, DIR), params)
    # 2D: P^T / 4 is the Kronecker square of the 1D restriction, exactly
    ops2 = build_two_level(DiscretizationConfig(4, 2.0, DIR, 2), params)
    P, P2 = np.asarray(ops.P), np.asarray(ops2.P)
    assert np.array_equal(P2.T / 4, np.kron(P.T / 2, P.T / 2))


def test_restriction_preserves_constants():
    R = np.asarray(build_two_level(DiscretizationConfig(2, 2.0, DIR), MethodParams(0.9, 2.0, 0.6)).P).T / 2
    np.testing.assert_allclose(R @ np.ones(4), np.ones(2), atol=1e-14)
    np.testing.assert_allclose(R.sum(axis=1), 1.0)


def test_coarse_operator_periodic_kernel():
    # the pseudo-inverse annihilates the constant kernel of A0
    ops = build_two_level(DiscretizationConfig(4, 2.0, PER), MethodParams(0.9, 2.0, 0.5))
    np.testing.assert_allclose(ops.coarse_solve(np.ones(4)), 0.0, atol=1e-11)


def test_coarse_operator_symmetric():
    # A0 is symmetric, so its inverse, as coarse_solve applies it, is too
    ops = build_two_level(DiscretizationConfig(8, 1.4, DIR), MethodParams(0.9, 1.4, 0.27))
    A0inv = ops.coarse_solve(np.eye(8))
    assert np.abs(A0inv - A0inv.T).max() <= 1e-12 * np.abs(A0inv).max()


def test_coarse_operator_eigenvalues_match_symbols():
    # dense coarse spectrum equals the union of the spectra of the Galerkin
    # products P^T A P / 2 of the system symbols and the prolongation block
    J, delta0, c = 8, 2.0, 0.5
    cfg, params = DiscretizationConfig(J, delta0, PER), MethodParams(0.9, delta0, c)
    dense = np.linalg.eigvals(coarse_operator(cfg, params))
    P = _prolongation_block(c)
    blocks = P.T @ lfa.symbol_system(np.arange(J // 2), J, delta0) @ P / 2
    assert multiset_deviation(dense, np.linalg.eigvals(blocks).ravel()) < 1e-9


def test_apply_preconditioner_zero():
    cfg = DiscretizationConfig(8, 2.0, DIR)
    params = MethodParams(0.8, 2.0, 0.4)
    ops = build_two_level(cfg, params)
    np.testing.assert_array_equal(preconditioner_matrix(ops) @ np.zeros(16), np.zeros(16))


@pytest.mark.parametrize("bc", [DIR, PER])
@pytest.mark.parametrize("J", [2, 4, 8])
def test_apply_preconditioner_matches_dense_formula(bc, J):
    # periodic J = 2 and 4 add the coarse wrap blocks onto filled blocks
    cfg = DiscretizationConfig(J, 1.9, bc)
    params = MethodParams(0.77, 1.9, 0.33)
    ops = build_two_level(cfg, params)
    Minv = dense_two_level(cfg, params).Minv
    rng = np.random.default_rng(1)
    G = rng.standard_normal((cfg.ndof, 2))
    for g in (G, G[:, 0]):  # a stack of columns and a vector
        y = preconditioner_matrix(ops) @ g
        assert y.shape == g.shape
        np.testing.assert_allclose(y, Minv @ g, atol=1e-12 * np.abs(Minv @ g).max())


@pytest.mark.parametrize("bc", [DIR, PER])
@pytest.mark.parametrize("J", [2, 4, 8, 16])
def test_apply_preconditioner_2d_matches_dense_formula(bc, J):
    # P = P1 (x) P1 and P^T act axis by axis; against the dense products
    # alpha*s*g + P A0inv (P^T/4)(g - alpha*s*A g), for a vector and a matrix
    cfg, params = DiscretizationConfig(J, 1.9, bc, 2), MethodParams(0.77, 1.9, 0.33)
    ops, dense = build_two_level(cfg, params), dense_two_level(cfg, params)
    a_s = params.alpha * smoother_scale(cfg, params)
    G = np.random.default_rng(J).standard_normal((cfg.ndof, 2))
    for g in (G, G[:, 0]):
        expected = a_s * g + dense.P @ (dense.A0inv @ (dense.P.T / 4 @ (g - a_s * dense.A @ g)))
        y = preconditioner_matrix(ops) @ g
        assert y.shape == g.shape
        assert relative_error(y, expected) < 1e-12


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
    expected = np.eye(16) - ops.P @ ops.coarse_solve(np.eye(8)) @ (np.asarray(ops.P).T / 2) @ ops.A
    np.testing.assert_allclose(E, expected, atol=1e-13 * np.abs(expected).max())


def test_coarse_correction_annihilates_coarse_space():
    # (I - P A0^{-1} R A) P = 0: inherited-operator projection property
    cfg = DiscretizationConfig(8, 1.6, DIR)
    params = MethodParams(0.9, 1.6, 0.7)
    ops = build_two_level(cfg, params)
    C = np.eye(16) - ops.P @ ops.coarse_solve(np.eye(8)) @ (np.asarray(ops.P).T / 2) @ ops.A
    assert np.abs(C @ ops.P).max() < 1e-12


@pytest.mark.parametrize("bc", [DIR, PER])
def test_error_spectrum_is_one_minus_preconditioned(bc):
    cfg = DiscretizationConfig(8, 2.2, bc)
    params = MethodParams(0.85, 2.2, 0.45)
    ops = build_two_level(cfg, params)
    eigs_E = np.sort_complex(np.linalg.eigvals(error_matrix(ops)))
    eigs_MA = np.linalg.eigvals(preconditioner_matrix(ops) @ ops.A)
    assert multiset_deviation(eigs_E, 1.0 - eigs_MA) < 1e-10


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
    # the block-reshaped R A P that the backward-error tests read
    assert relative_error(coarse_operator(ops.config, ops.params), dense.A0) < 1e-12
    assert relative_error(ops.coarse_solve(np.eye(ops.P.shape[1])), dense.A0inv) < 1e-12
    if ops.config.ndof <= 512:  # every 1D size; 2D J = 16 would add about 2 s
        # E = (I - P A0inv R A)(I - alpha s A), with the products reassociated
        S = np.eye(len(dense.A)) - ops.params.alpha * smoother_scale(ops.config, ops.params) * dense.A
        E = S - dense.P @ dense.A0inv @ (dense.P.T / 2**ops.config.dim @ dense.A @ S)
        assert relative_error(error_matrix(ops), E) < 1e-12


@pytest.mark.parametrize("bc", [DIR, PER])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]), alpha=ALPHA, penalty=PENALTY, c=DISCONTINUITY)
def test_structured_setup_matches_dense_1d(bc, J, alpha, penalty, c):
    cfg, params = DiscretizationConfig(J, penalty, bc), MethodParams(alpha, penalty, c)
    ops, dense = build_two_level(cfg, params), dense_two_level(cfg, params)
    assert_matches_dense(ops, dense)
    assert relative_error(preconditioner_matrix(ops), dense.Minv) < 1e-12


# measured points where a float64 oracle's own cond*eps error nears the
# 1e-12 gates; the periodic eigh pseudo-inverse is 1.3e-12, 2.8e-12 and
# 3.6e-12 from the refined truth there
HARD_POINTS = [(256, 0.244, 6.969, 0.535), (256, 0.0, 9.9, 0.5), (334, 0.0, 5.0, 0.5)]
PERIODIC_MISS = pytest.mark.xfail(strict=True, raises=AssertionError, reason="eigh pseudo-inverse off the truth")


@pytest.mark.parametrize(
    "bc, J, alpha, penalty, c",
    [(DIR, *point) for point in HARD_POINTS] + [pytest.param(PER, *point, marks=PERIODIC_MISS) for point in HARD_POINTS],
)
def test_structured_setup_matches_refined_oracle_at_hard_points(bc, J, alpha, penalty, c):
    cfg, params = DiscretizationConfig(J, penalty, bc), MethodParams(alpha, penalty, c)
    ops, dense = build_two_level(cfg, params), dense_two_level(cfg, params)
    assert_matches_dense(ops, dense)
    assert relative_error(preconditioner_matrix(ops), dense.Minv) < 1e-12


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    bc=st.sampled_from([DIR, PER]),
    J=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
    penalty=PENALTY,
    c=DISCONTINUITY,
)
@example(bc=PER, J=256, penalty=6.969, c=0.535)
@example(bc=DIR, J=256, penalty=9.9, c=0.5)
@example(bc=DIR, J=334, penalty=5.0, c=0.5)
def test_refined_oracle_is_far_below_the_gate(bc, J, penalty, c):
    # the oracle's own error, the next refinement step's size against the
    # inverse's largest entry, is at least 100x below the 1e-12 gates; a
    # long double that is plain float64 fails here
    cfg, params = DiscretizationConfig(J, penalty, bc), MethodParams(0.5, penalty, c)
    band, periodic = coarse_band(coarse_operator(cfg, params)), bc is PER
    X = refined_inverse(band, periodic)
    step = X @ band_residual(band, X, periodic).astype(float)
    assert np.abs(step).max() <= 1e-14 * np.abs(X).max()


@pytest.mark.parametrize("bc", [DIR, PER])
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([2, 4, 8, 16]), alpha=ALPHA, penalty=PENALTY, c=DISCONTINUITY)
def test_structured_setup_matches_dense_2d(bc, J, alpha, penalty, c):
    cfg, params = DiscretizationConfig(J, penalty, bc, 2), MethodParams(alpha, penalty, c)
    assert_matches_dense(build_two_level(cfg, params), dense_two_level(cfg, params))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data(), bc=st.sampled_from([DIR, PER]), penalty=PENALTY, c=DISCONTINUITY)
def test_structured_operators_match_loop_oracles(dim, data, bc, penalty, c):
    # A @ X and P @ Y, for a column stack and a vector, against the
    # entry-by-entry 1D matrices applied on each grid axis, at every J the
    # dense cap admits; the operators of build_two_level, built without its
    # coarse solve
    largest = dense_cap() // 2 if dim == 1 else int(np.sqrt(dense_cap())) // 2
    J = 2 * data.draw(st.integers(1, largest // 2), label="J / 2")
    cfg = DiscretizationConfig(J, penalty, bc, dim)
    A, P = SystemOperator(cfg), Prolongation(cfg, c)
    A1, P1 = sipg_1d_loop(J, penalty, bc), prolongation_loop(J, c)
    rng = np.random.default_rng(J)
    X, Y = rng.standard_normal((cfg.ndof, 3)), rng.standard_normal((P.shape[1], 3))
    if dim == 1:
        AX, PY = A1 @ X, P1 @ Y
    else:  # A = A1 (x) I + I (x) A1 and P = P1 (x) P1 on the (row, column) grid
        G, H = X.reshape(2 * J, 2 * J, 3), Y.reshape(J, J, 3)
        AX = (np.einsum("ai,ijk->ajk", A1, G) + np.einsum("bj,ijk->ibk", A1, G)).reshape(X.shape)
        PY = np.einsum("bj,ajk->abk", P1, np.einsum("ai,ijk->ajk", P1, H)).reshape(-1, 3)
    for op, Z, expected in ((A, X, AX), (P, Y, PY)):
        assert relative_error(op @ Z, expected) < 1e-12
        assert relative_error(op @ Z[:, 0], expected[:, 0]) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_operators_hold_no_dense_matrix_and_densify_under_the_cap(monkeypatch, dim):
    cfg = DiscretizationConfig(8, 2.0, DIR, dim)
    ops = build_two_level(cfg, MethodParams(0.9, 2.0, 0.5))
    assert [k for k, v in vars(ops).items() if isinstance(v, np.ndarray) and len(v) == cfg.ndof] == []
    assert ops.A.shape == (cfg.ndof, cfg.ndof) and ops.P.shape == (cfg.ndof, cfg.ndof // 2**dim)
    monkeypatch.setenv("DGML_DENSE_CAP", str(cfg.ndof - 1))
    for op in (ops.A, ops.P):
        with pytest.raises(SizeCapError):
            np.asarray(op)
    assert (ops.A @ np.ones(cfg.ndof)).shape == (cfg.ndof,)  # applying needs no dense matrix


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_operators_reject_operands_of_the_wrong_length(bc, dim):
    # A maps fine to fine and P coarse to fine: an operand with any other
    # row count is named, not cut or tiled to a wrong-sized result
    cfg = DiscretizationConfig(8, 2.0, bc, dim)
    ops = build_two_level(cfg, MethodParams(0.9, 2.0, 0.5))
    n, m = ops.P.shape
    for op, rows, wrong in ((ops.A, n, (n + 1, n - 1, m)), (ops.P, m, (n, m + 1, 2 * m))):
        for length in wrong:
            for shape in ((length,), (length, 3)):
                with pytest.raises(ValueError, match=rf"needs {rows} rows, got \w of shape \({length},"):
                    op @ np.ones(shape)
        assert (op @ np.ones((rows, 3))).shape == (n, 3)


def test_dirichlet_coarse_inverses_are_chunk_sized(monkeypatch):
    # the 1D Dirichlet set-up inverts nothing with more than 2 _CHUNK rows,
    # up to the size cap; a LinAlgError at any of its inv calls surfaces as
    # SingularCoarseError
    inv, shapes = np.linalg.inv, []

    def recording_inv(a, fail_at=None):
        shapes.append(np.shape(a))
        if len(shapes) == fail_at:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    params = MethodParams(0.9, 2.0, 0.5)
    for J in (8, 2 * _CHUNK + 2, 2048):
        cfg = DiscretizationConfig(J, 2.0, DIR)
        shapes.clear()
        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        build_two_level(cfg, params)
        calls = len(shapes)
        assert calls >= 1 and all(max(shape[-2:]) <= 2 * _CHUNK for shape in shapes)
        for fail_at in range(1, calls + 1):
            shapes.clear()
            monkeypatch.setattr(np.linalg, "inv", lambda a: recording_inv(a, fail_at=fail_at))
            with pytest.raises(SingularCoarseError):
                build_two_level(cfg, params)
            assert len(shapes) == fail_at


@pytest.mark.parametrize("chunk", [2, 3, 5])
def test_condensation_recursion_levels(monkeypatch, chunk):
    # small chunks give up to seven condensation levels well below the size
    # cap, and a level boundary at chunk**3: each solve against R A P by
    # backward error, for a matrix and a vector
    monkeypatch.setattr(twolevel, "_CHUNK", chunk)
    params = MethodParams(0.9, 1.01, 0.99)
    for cells in (chunk**3 - 1, chunk**3, chunk**3 + 1, 200):
        cfg = DiscretizationConfig(2 * cells, params.penalty, DIR)
        ops, K = build_two_level(cfg, params), coarse_operator(cfg, params)
        Y = np.random.default_rng(cells).standard_normal((len(K), 3))
        for y in (Y, Y[:, 0]):
            X = ops.coarse_solve(y)
            assert X.shape == y.shape
            assert infinity_norm(K @ X - y) / (infinity_norm(K) * infinity_norm(X)) < 1e-13
        # the same for M^{-1}'s coarse solve of R (I - alpha s A) g, whose
        # restriction is composed into every level's forward map
        A, P = sipg_1d_loop(2 * cells, params.penalty, DIR), prolongation_loop(2 * cells, params.discontinuity)
        G = np.random.default_rng(cells).standard_normal((cfg.ndof, 3))
        for g in (G, G[:, 0]):
            y, X = P.T / 2 @ (g - params.alpha * smoother_scale(cfg, params) * (A @ g)), ops.smoothed_coarse_solve(g)
            assert X.shape == y.shape
            assert infinity_norm(K @ X - y) / (infinity_norm(K) * infinity_norm(X)) < 1e-13


def infinity_norm(M):
    return np.linalg.norm(M, np.inf)


def test_dirichlet_coarse_solve_backward_error(clustering_triple):
    # the condensed solve at the default size cap, for a matrix and a
    # vector: ||K X - Y|| / (||K|| ||X||) in the infinity norm
    cfg = DiscretizationConfig(2048, clustering_triple.penalty, DIR)
    ops, K = build_two_level(cfg, clustering_triple), coarse_operator(cfg, clustering_triple)
    Y = np.random.default_rng(7).standard_normal((len(K), 3))
    for y in (Y, Y[:, 0]):
        X = ops.coarse_solve(y)
        assert X.shape == y.shape
        assert infinity_norm(K @ X - y) / (infinity_norm(K) * infinity_norm(X)) < 1e-13


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(cells=st.one_of(st.integers(1, 3), st.integers(4, 1024)), alpha=ALPHA, penalty=PENALTY, c=DISCONTINUITY)
@example(cells=1024, alpha=0.9, penalty=2.0, c=0.5)  # the size cap, J = 2048
# the condensation's boundaries: one dense inverse up to _CHUNK block rows,
# one level of chunks up to _CHUNK**2, two levels beyond
@example(cells=_CHUNK - 1, alpha=0.9, penalty=1.01, c=0.99)
@example(cells=_CHUNK, alpha=0.9, penalty=1.01, c=0.99)
@example(cells=_CHUNK + 1, alpha=0.9, penalty=1.01, c=0.99)
@example(cells=_CHUNK**2, alpha=0.9, penalty=1.01, c=0.99)
@example(cells=_CHUNK**2 + 1, alpha=0.9, penalty=1.01, c=0.99)
@example(cells=128, alpha=0.0, penalty=9.9, c=0.5)  # near the gate for float64 oracles
@example(cells=167, alpha=0.0, penalty=5.0, c=0.5)
def test_chunked_dirichlet_solves_match_oracles(cells, alpha, penalty, c):
    # the condensation runs on J/2 block rows, in chunks of _CHUNK rows; for
    # a matrix and a vector, the coarse solve against R A P by backward
    # error and M^{-1} against the dense products
    cfg, params = DiscretizationConfig(2 * cells, penalty, DIR), MethodParams(alpha, penalty, c)
    with pytest.MonkeyPatch.context() as patch:  # the examples past the size cap
        patch.setenv("DGML_DENSE_CAP", str(max(dense_cap(), cfg.ndof)))
        ops = build_two_level(cfg, params)
    K = coarse_operator(cfg, params)
    rng = np.random.default_rng(cells)
    Y, G = rng.standard_normal((len(K), 3)), rng.standard_normal((cfg.ndof, 3))
    for y in (Y, Y[:, 0]):
        X = ops.coarse_solve(y)
        assert X.shape == y.shape
        assert infinity_norm(K @ X - y) / (infinity_norm(K) * infinity_norm(X)) < 1e-13
    if cells <= 256:  # the dense products take seconds beyond J = 512
        Minv = dense_two_level(cfg, params).Minv
        for g in (G, G[:, 0]):
            assert relative_error(preconditioner_matrix(ops) @ g, Minv @ g) < 1e-12


def dense_formula(cfg, params, g):
    """alpha*s*g + P A0^{-1} (P^T/2)(g - alpha*s*A g) from the loop matrices
    and the refined coarse solve, one product at a time."""
    J, a_s = cfg.cells_per_dim, params.alpha * smoother_scale(cfg, params)
    A, P = sipg_1d_loop(J, cfg.penalty, cfg.bc), prolongation_loop(J, params.discontinuity)
    band = coarse_band(coarse_operator(cfg, params))
    return a_s * g + P @ refined_solve(band, P.T / 2 @ (g - a_s * (A @ g)), cfg.bc is PER)


@pytest.mark.parametrize(
    "cells",
    # the branches of the restriction-fused M^{-1}: one dense map up to _CHUNK
    # block rows; beyond, a level of chunks (the last one padded unless cells
    # is a multiple of _CHUNK) whose separators are one dense inverse up to
    # _CHUNK**2 block rows, one dense map formed through a level of their own
    # up to 2 _CHUNK**2, and that level beyond
    [3, _CHUNK - 1, _CHUNK, 3 * _CHUNK + 5, _CHUNK**2, _CHUNK**2 + 1, 2 * _CHUNK**2, 2 * _CHUNK**2 + 1],
)
def test_fused_dirichlet_apply_matches_dense_formula(cells):
    cfg, params = DiscretizationConfig(2 * cells, 1.7, DIR), MethodParams(0.7, 1.7, 0.3)
    with pytest.MonkeyPatch.context() as patch:  # sizes past the cap at a larger _CHUNK
        patch.setenv("DGML_DENSE_CAP", str(max(dense_cap(), cfg.ndof)))
        ops = build_two_level(cfg, params)
    G = np.random.default_rng(cells).standard_normal((cfg.ndof, 3))
    expected = dense_formula(cfg, params, G)
    for g, e in ((G, expected), (G[:, 0], expected[:, 0])):
        y = preconditioner_matrix(ops) @ g
        assert y.shape == g.shape
        assert relative_error(y, e) < 1e-12


def test_preconditioner_applies_without_densifying_and_densifies_under_the_cap(monkeypatch):
    cfg = DiscretizationConfig(8, 2.0, DIR)
    ops = build_two_level(cfg, MethodParams(0.9, 2.0, 0.5))
    Minv, g = preconditioner_matrix(ops), np.arange(16.0)
    assert Minv.shape == (16, 16)
    y = Minv @ g
    assert relative_error(np.asarray(Minv) @ g, y) < 1e-13
    monkeypatch.setenv("DGML_DENSE_CAP", "15")
    with pytest.raises(SizeCapError):
        np.asarray(Minv)
    np.testing.assert_array_equal(Minv @ g, y)


@pytest.mark.parametrize("bc", [DIR, PER])
def test_2d_coarse_solve_backward_error(bc, clustering_triple):
    # the fast-diagonalization solve at J=32, the 2D size cap, for a matrix
    # and a vector; periodic right-hand sides are projected off the constants
    cfg = DiscretizationConfig(32, clustering_triple.penalty, bc, 2)
    ops, A0 = build_two_level(cfg, clustering_triple), coarse_operator(cfg, clustering_triple)
    ones = np.ones(len(A0))
    Y = np.random.default_rng(7).standard_normal((len(A0), 3))
    if bc is PER:
        Y -= Y.mean(axis=0)
    for y in (Y, Y[:, 0]):
        X = ops.coarse_solve(y)
        assert X.shape == y.shape
        assert infinity_norm(A0 @ X - y) / (infinity_norm(A0) * infinity_norm(X)) < 1e-13
    if bc is PER:
        # the pseudo-inverse annihilates the kernel and maps into its
        # complement, to rounding: ||X|| / ||Y|| bounds ||A0^+|| from below
        X = ops.coarse_solve(Y)
        assert infinity_norm(ops.coarse_solve(ones)) <= 1e-12 * infinity_norm(X) / infinity_norm(Y)
        assert np.all(np.abs(ones @ X) <= 1e-12 * np.abs(X).sum(axis=0))


@pytest.mark.parametrize(
    "dim, bc, zeroed",  # zeroed eigenvalues of the pair (K, M): one more than the kernel
    [(2, DIR, 1), (2, PER, 2), (1, PER, 2)],
)
def test_fast_diagonal_coarse_solve_singular(monkeypatch, dim, bc, zeroed):
    eigh = np.linalg.eigh

    def eigh_with_zeros(a):
        w, V = eigh(a)
        if len(a) > 2:  # leave the 2x2 mass block alone
            w[:zeroed] = 0.0
        return w, V

    cfg, params = DiscretizationConfig(8, 2.0, bc, dim), MethodParams(0.9, 2.0, 0.5)
    build_two_level(cfg, params)
    monkeypatch.setattr(np.linalg, "eigh", eigh_with_zeros)
    with pytest.raises(SingularCoarseError):
        build_two_level(cfg, params)


def test_fast_diagonal_setups_invert_nothing_dense(monkeypatch):
    # 2D set-ups and 1D periodic ones call inv and pinv on nothing larger than 2x2
    shapes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", recording(np.linalg.inv))
    monkeypatch.setattr(np.linalg, "pinv", recording(np.linalg.pinv))
    params = MethodParams(0.9, 2.0, 0.5)
    for cfg in (
        DiscretizationConfig(16, 2.0, DIR, 2),
        DiscretizationConfig(16, 2.0, PER, 2),
        DiscretizationConfig(64, 2.0, PER),
    ):
        build_two_level(cfg, params)
    assert all(max(shape) <= 2 for shape in shapes)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_dirichlet_setup_and_preconditioner_allocate_no_extra_dense_arrays(clustering_triple):
    # build_two_level and preconditioner_matrix hold no array of the
    # fine-grid size, no coarse operator either; the dense M^{-1} and E are
    # filled by blocks of columns, so their work arrays stay small
    cfg = DiscretizationConfig(512, clustering_triple.penalty, DIR)
    ops, peak = traced_peak(build_two_level, cfg, clustering_triple)
    assert peak <= 2**20
    Minv, peak = traced_peak(preconditioner_matrix, ops)
    assert peak <= 2**20
    n, m = ops.P.shape
    dense, peak = traced_peak(np.asarray, Minv)
    assert peak <= dense.nbytes + 8 * n * m + 2**20
    E, peak = traced_peak(error_matrix, ops)
    assert peak <= 2 * E.nbytes + 2**21


def test_dirichlet_setup_memory_grows_linearly(monkeypatch, clustering_triple):
    # the condensation holds O(J) entries: 4x the cells, at most 4.5x the
    # set-up's traced peak
    monkeypatch.setenv("DGML_DENSE_CAP", str(2**16))
    peaks = [
        traced_peak(build_two_level, DiscretizationConfig(J, clustering_triple.penalty, DIR), clustering_triple)[1]
        for J in (4096, 16384)
    ]
    assert peaks[1] <= 4.5 * peaks[0]


def test_2d_dirichlet_setup_allocates_no_extra_dense_arrays(clustering_triple):
    # at the 2D size cap build_two_level holds no array of the fine-grid
    # size: no dense A or P, no coarse operator, no dense coarse inverse, no
    # Kronecker temporaries
    cfg = DiscretizationConfig(32, clustering_triple.penalty, DIR, 2)
    _, peak = traced_peak(build_two_level, cfg, clustering_triple)
    assert peak <= 2**20
