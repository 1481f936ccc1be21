import tracemalloc

import numpy as np
import pytest

from dgml.discretization import BoundaryCondition, DiscretizationConfig
from dgml.twolevel import (
    MethodParams,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
)
from dgml.solver import STAGNATION_FACTOR, STAGNATION_STEPS, gmres
from dgml import spectrum
from helpers import loop_gmres, stationary_solve

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def dense_operators(J, params, bc=DIR):
    cfg = DiscretizationConfig(J, params.penalty, bc, 1)
    ops = build_two_level(cfg, params)
    Minv = preconditioner_matrix(ops)
    return ops, (lambda v: ops.A @ v), (lambda v: Minv @ v)


# ---------------------------------------------------------------------------
# GMRES


def test_gmres_identity_converges_in_one_step():
    b = np.array([1.0, -2.0, 0.5])
    rep = gmres(lambda v: v, None, b, tol=1e-12)
    assert rep.iterations == 1
    assert rep.converged
    np.testing.assert_allclose(rep.solution, b, atol=1e-14)


def test_gmres_zero_rhs_rejected():
    with pytest.raises(ValueError):
        gmres(lambda v: v, None, np.zeros(4))


def test_gmres_preconditioner_annihilating_rhs():
    # M^{-1} b = 0 with b != 0 leaves no Krylov space: no step, x = 0
    b = np.array([1.0, 2.0])
    rep = gmres(lambda v: v, np.zeros_like, b)
    assert rep.iterations == 0
    assert not rep.converged
    assert rep.residual_history == [0.0]
    np.testing.assert_array_equal(rep.solution, np.zeros(2))
    assert rep.true_residual == np.linalg.norm(b)


def test_gmres_matches_direct_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    A = A @ A.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    rep = gmres(lambda v: A @ v, None, b, tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(rep.solution, np.linalg.solve(A, b), atol=1e-8)
    assert rep.true_residual < 1e-8 * np.linalg.norm(b)


def test_gmres_history_monotone_and_starts_at_initial_residual():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    b = rng.standard_normal(40)
    rep = gmres(lambda v: A @ v, None, b, tol=1e-10)
    hist = np.array(rep.residual_history)
    assert hist[0] == pytest.approx(np.linalg.norm(b))
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_gmres_max_iter_exceeded():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((50, 50)) + 50 * np.eye(50)
    b = rng.standard_normal(50)
    rep = gmres(lambda v: A @ v, None, b, tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_gmres_storage_grows_with_the_iterations():
    # the basis grows by one row per step, not as max_iter = n rows up front
    n = 10_000
    b = np.linspace(1.0, 2.0, n)
    tracemalloc.start()
    try:
        rep = gmres(lambda v: v, None, b, tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == 1 and rep.converged
    assert peak < 64 * n * 8


def test_gmres_past_several_storage_chunks():
    # 100 distinct eigenvalues need about 100 iterations: the basis and the
    # rotated Hessenberg columns grow to 100 entries, one per step
    d = np.linspace(1.0, 1e3, 100)
    b = np.random.default_rng(3).standard_normal(100)
    rep = gmres(lambda v: d * v, None, b, tol=1e-13)
    assert rep.converged and rep.iterations > 64
    np.testing.assert_allclose(rep.solution, b / d, rtol=1e-8)
    assert np.all(np.diff(rep.residual_history) <= 1e-12 * rep.residual_history[0])


def test_gmres_breakdown_on_singular_operator():
    # step 2's rotated column is exactly zero: it adds nothing to the Krylov
    # space, so the solve ends at step 1's iterate instead of claiming
    # convergence and factoring a singular triangle
    A = np.diag([1.0, 0.0])
    rep = gmres(lambda v: A @ v, None, np.array([1.0, 1.0]))
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.residual_history == pytest.approx([np.sqrt(2.0), 1.0])
    assert rep.true_residual == pytest.approx(1.0)
    np.testing.assert_allclose(A @ rep.solution, [1.0, 0.0], atol=1e-14)


def reference_cases(clustering_triple):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40)) + 5 * np.eye(40)  # nonnormal
    yield (lambda v: A @ v), None, rng.standard_normal(40), 1e-13
    singular = np.diag([1.0, 0.0])  # the zero rotated column
    yield (lambda v: singular @ v), None, np.array([1.0, 1.0]), 1e-8
    for bc in (DIR, PER):
        cfg = DiscretizationConfig(64, clustering_triple.penalty, bc)
        ops = build_two_level(cfg, clustering_triple)
        Minv = preconditioner_matrix(ops)
        b = rng.standard_normal(cfg.ndof)
        if bc is PER:  # a consistent load
            b -= b.mean()
        yield (lambda v, A=ops.A: A @ v), (lambda v, M=Minv: M @ v), b, 1e-12


def test_gmres_is_the_loop_reference(clustering_triple):
    # the Hessenberg column and rotations in Python floats, the in-place
    # MGS updates and the norms by math.sqrt round as the reference does
    for apply_A, apply_M, b, tol in reference_cases(clustering_triple):
        rep = gmres(apply_A, apply_M, b, tol=tol)
        iterations, history, solution = loop_gmres(apply_A, apply_M or (lambda v: v), b, tol)
        assert rep.iterations == iterations and rep.iterations > 0
        assert rep.residual_history == history
        np.testing.assert_array_equal(rep.solution, solution)


BAD_INPUTS = [
    ({"b": np.array([1.0, np.nan, 1.0])}, "b"),
    ({"b": np.array([1.0, np.inf, 1.0])}, "b"),
    ({"tol": np.nan}, "tol"),
    ({"tol": -1e-8}, "tol"),
    ({"tol": np.inf}, "tol"),
    ({"max_iter": -1}, "max_iter"),
    ({"b": np.ones((3, 1))}, "b"),  # a column, not a vector
]


def solve_diagonal(solve, bad):
    # a Jacobi-preconditioned diagonal system: exact after one step
    d = np.array([1.0, 2.0, 3.0])
    args = {"b": np.ones(3)} | bad
    return solve(lambda v: d * v, lambda v: v / d, args.pop("b"), **args)


@pytest.mark.parametrize("bad, name", BAD_INPUTS)
def test_gmres_rejects_bad_inputs(bad, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        solve_diagonal(gmres, bad)


def test_gmres_max_iter_zero_takes_no_step():
    rep = solve_diagonal(gmres, {"max_iter": 0})
    assert rep.iterations == 0 and not rep.converged
    assert rep.solution.shape == (3,) and not rep.solution.any()  # a vector, not the scalar 0.0
    assert rep.residual_history == [pytest.approx(np.sqrt(1 + 1 / 4 + 1 / 9))]  # |M^{-1} b| only
    assert rep.true_residual == pytest.approx(np.sqrt(3.0))


def test_gmres_preconditioned_agrees_with_direct(clustering_triple):
    ops, apply_A, apply_M = dense_operators(16, clustering_triple)
    b = np.ones(32)
    rep = gmres(apply_A, apply_M, b, tol=1e-12)
    direct = np.linalg.solve(ops.A, b)
    assert rep.converged
    np.testing.assert_allclose(rep.solution, direct, atol=1e-8 * np.abs(direct).max())


def test_gmres_iterations_bounded_by_cluster_count(clustering_triple, classical_params):
    for params in (clustering_triple, classical_params):
        for J in (16, 32):
            ops, apply_A, apply_M = dense_operators(J, params)
            eigs = np.linalg.eigvals(preconditioner_matrix(ops) @ ops.A)
            nclusters = len(spectrum.cluster_eigenvalues(eigs, 1e-6))
            rep = gmres(apply_A, apply_M, np.ones(2 * J), tol=1e-8)
            assert rep.converged
            assert rep.iterations <= nclusters


def test_gmres_mesh_independent_for_clustering_params(clustering_triple):
    counts = []
    for J in (16, 32, 64):
        _, apply_A, apply_M = dense_operators(J, clustering_triple)
        rep = gmres(apply_A, apply_M, np.ones(2 * J), tol=1e-8)
        counts.append(rep.iterations)
    assert len(set(counts)) == 1


@pytest.mark.parametrize("bc, most", [(DIR, 6), (PER, 4)])
@pytest.mark.parametrize("J", [64, 1024])
def test_gmres_finite_termination_at_the_clustering_triple(bc, most, J, clustering_triple, classical_params):
    # M^{-1}A at the clustering triple has three eigenvalues, plus three
    # boundary outliers in Dirichlet: full GMRES stops in that many steps for
    # any load, where the classical triple's spread spectrum takes more
    counts = {}
    for params in (clustering_triple, classical_params):
        _, apply_A, apply_M = dense_operators(J, params, bc)
        for seed in (0, 1, 2):
            b = np.random.default_rng(seed).standard_normal(2 * J)
            if bc is PER:  # a consistent load
                b -= b.mean()
            rep = gmres(apply_A, apply_M, b, tol=1e-12)
            assert rep.converged
            counts[params, seed] = rep.iterations
    for seed in (0, 1, 2):
        assert counts[clustering_triple, seed] <= most < counts[classical_params, seed]


def test_gmres_stops_on_stagnation_for_an_inconsistent_load(clustering_triple):
    # a periodic load with nonzero mean has no solution: the preconditioned
    # residual falls to its floor in a few steps and then creeps down for
    # all 256 steps unless the stagnation stop ends the solve
    _, apply_A, apply_M = dense_operators(128, clustering_triple, PER)
    b = np.random.default_rng(0).standard_normal(256) + 1.0
    rep = gmres(apply_A, apply_M, b, tol=1e-8)
    history = rep.residual_history
    assert not rep.converged and rep.iterations < 64
    assert history[-1] > STAGNATION_FACTOR * history[-1 - STAGNATION_STEPS]
    assert history[-1] > 1e-3 * history[0]


# ---------------------------------------------------------------------------
# stationary iteration


def test_stationary_exact_initial_guess():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    x = rng.standard_normal(12)
    x_before = x.copy()
    rep = stationary_solve(lambda v: A @ v, lambda v: np.linalg.solve(A, v), A @ x, x0=x)
    assert rep.iterations == 0
    assert rep.converged
    assert rep.solution is not x
    np.testing.assert_array_equal(x, x_before)


def test_stationary_agrees_with_gmres_and_direct(classical_params):
    ops, apply_A, apply_M = dense_operators(32, classical_params)
    b = np.ones(64)
    direct = np.linalg.solve(ops.A, b)
    rep_st = stationary_solve(apply_A, apply_M, b, tol=1e-10, max_iter=200)
    rep_gm = gmres(apply_A, apply_M, b, tol=1e-10)
    assert rep_st.converged and rep_gm.converged
    np.testing.assert_allclose(rep_st.solution, direct, atol=1e-8 * np.abs(direct).max())
    np.testing.assert_allclose(rep_gm.solution, direct, atol=1e-8 * np.abs(direct).max())


def test_stationary_contraction_periodic_clustering(clustering_triple):
    # measured asymptotic factor equals the flat symbol modulus
    ops, apply_A, apply_M = dense_operators(32, clustering_triple, bc=PER)
    project = lambda v: v - v.mean()
    rng = np.random.default_rng(4)
    u_exact = project(rng.standard_normal(64))
    b = ops.A @ u_exact
    rep = stationary_solve(apply_A, apply_M, b, tol=1e-12, max_iter=300, project=project)
    assert rep.converged
    assert abs(rep.contraction - 0.19732) < 0.005


def test_stationary_contraction_matches_dense_radius():
    # alpha-delta style parameters at continuous interpolation
    params = MethodParams(0.9, 1.5, 0.5)
    ops, apply_A, apply_M = dense_operators(32, params)
    rho = np.abs(np.linalg.eigvals(error_matrix(ops))).max()
    rng = np.random.default_rng(5)
    b = ops.A @ rng.standard_normal(64)
    rep = stationary_solve(apply_A, apply_M, b, tol=1e-12, max_iter=400)
    assert rep.converged
    assert abs(rep.contraction - rho) < 0.01


@pytest.mark.parametrize("bad, name", BAD_INPUTS)
def test_stationary_rejects_bad_inputs(bad, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        solve_diagonal(stationary_solve, bad)


def test_stationary_reports_divergence():
    A = np.diag([1.0, 2.0, 3.0])
    bad_M = lambda v: -2.0 * v  # amplifying "preconditioner"
    rep = stationary_solve(lambda v: A @ v, bad_M, np.ones(3), max_iter=100)
    assert not rep.converged
    assert rep.iterations < 100  # stopped by the growth guard
