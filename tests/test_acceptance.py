"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run with -s to see them live) and
asserts its stated tolerances.  The REFERENCE_* constants are the 6-decimal
roundings of the 10-digit clustering triple
(0.9081541345, 1.5169783001, 0.5646042761) and of the radius 0.19732.
"""

import time

import numpy as np
import pytest

from helpers import multiset_deviation, solve_clustering_system, stationary_solve

from dgml.discretization import BoundaryCondition, DiscretizationConfig
from dgml.twolevel import (
    MethodParams,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
)
from dgml.solver import gmres
from dgml import lfa, optimize, spectrum

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET

REFERENCE_C = 0.564604
REFERENCE_DELTA0 = 1.516978
REFERENCE_ALPHA = 0.908154
REFERENCE_RHO = 0.19732


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def clustering_solution():
    return optimize.clustering_parameters()


@pytest.fixture(scope="module")
def alpha_delta_params():
    alpha, d0, _ = optimize.optimize_1d_alpha_delta(0.5)
    return MethodParams(alpha, d0, 0.5)


def test_criterion_01_optimal_parameters(clustering_solution, clustering_triple):
    t0 = time.perf_counter()
    sol = optimize.clustering_parameters()
    elapsed = time.perf_counter() - t0
    alpha, d0, c = sol.params.as_tuple()
    q_res = [
        abs(np.polyval(optimize.DISCONTINUITY_QUARTIC, c)),
        abs(np.polyval(optimize.PENALTY_QUARTIC, d0)),
        abs(np.polyval(optimize.RELAXATION_QUARTIC, alpha)),
    ]
    ref_gap = max(
        abs(x - y) for x, y in zip(sol.params.as_tuple(), clustering_triple.as_tuple())
    )
    dev_c = abs(c - REFERENCE_C)
    dev_alpha = abs(alpha - REFERENCE_ALPHA)
    dev_d0 = abs(d0 - REFERENCE_DELTA0)
    ok = (
        elapsed < 1.0
        and max(q_res) < 1e-12
        and ref_gap < 1e-12
        and dev_c < 1e-6
        and dev_alpha < 1e-6
        and dev_d0 < 1e-6
    )
    report(
        1,
        ok,
        f"triple=({alpha:.7f}, {d0:.7f}, {c:.7f}), quartic residuals "
        f"{max(q_res):.2e}, companion-matrix agreement {ref_gap:.2e}, "
        f"runtime {elapsed:.2f}s; deviation from reference: alpha "
        f"{dev_alpha:.2e}, delta0 {dev_d0:.2e}, c {dev_c:.2e}",
    )
    assert elapsed < 1.0
    assert max(q_res) < 1e-12
    assert ref_gap < 1e-12
    assert dev_c < 1e-6
    assert dev_alpha < 1e-6
    assert dev_d0 < 1e-6


def test_criterion_02_nonlinear_system_consistency(clustering_solution):
    res = np.abs(clustering_solution.residuals)
    newton = solve_clustering_system(MethodParams(0.9, 1.5, 0.55))
    gap = np.max(
        np.abs(
            np.array(newton.params.as_tuple())
            - np.array(clustering_solution.params.as_tuple())
        )
    )
    ok = res.max() < 1e-9 and gap < 1e-8
    report(2, ok, f"system residuals {res.max():.2e}, newton agreement {gap:.2e}")
    assert res.max() < 1e-9
    assert gap < 1e-8


def test_criterion_03_perfect_clustering(clustering_solution):
    cosines = np.cos(np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False))
    pairs = lfa.eigenvalues_closed_form_at(cosines, clustering_solution.params)
    mods = np.abs(pairs)
    spread = mods.max() - mods.mean()
    spread = max(spread, mods.mean() - mods.min())
    ok = spread < 1e-8 and abs(mods.mean() - REFERENCE_RHO) < 1e-4
    report(3, ok, f"|lambda| spread {spread:.2e}, modulus {mods.mean():.6f}")
    assert spread < 1e-8
    assert abs(mods.mean() - REFERENCE_RHO) < 1e-4


def test_criterion_04_baseline_radius(alpha_delta_params):
    _, _, rho_ad = optimize.optimize_1d_alpha_delta(0.5)
    alpha_star, _ = optimize.optimize_1d_alpha(2.0, 0.5)
    ok = abs(rho_ad - 0.2) < 1e-3 and abs(alpha_star - 8.0 / 9.0) < 1e-3
    report(4, ok, f"two-parameter radius {rho_ad:.6f}, alpha* {alpha_star:.7f}")
    assert abs(rho_ad - 0.2) < 1e-3
    assert abs(alpha_star - 8.0 / 9.0) < 1e-3


def test_criterion_05_lfa_master_oracle(clustering_solution, alpha_delta_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    triples = [
        MethodParams(8.0 / 9.0, 2.0, 0.5),
        alpha_delta_params,
        clustering_solution.params,
    ]
    triples += [
        MethodParams(rng.uniform(0.05, 1.0), rng.uniform(1.05, 3.0), rng.uniform(0.05, 0.95))
        for _ in range(10)
    ]
    worst = 0.0
    for J in (4, 8, 16, 32):
        for params in triples:
            ops = build_two_level(DiscretizationConfig(J, params.penalty, PER), params)
            dense = np.linalg.eigvals(error_matrix(ops))
            sym = lfa.error_spectrum_symbols(J, params)
            worst = max(worst, multiset_deviation(dense, sym))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(5, ok, f"worst multiset deviation {worst:.2e} over 52 cases, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_06_closed_form_check():
    rng = np.random.default_rng(77)
    J = 32
    worst = 0.0
    for _ in range(50):
        params = MethodParams(
            rng.uniform(0.05, 1.0), rng.uniform(1.05, 3.0), rng.uniform(0.05, 0.95)
        )
        for k in range(1, J // 2):
            ev = np.linalg.eigvals(lfa.symbol_error(k, J, params))
            ev = ev[np.argsort(-np.abs(ev))][:2]
            cf = lfa.eigenvalues_closed_form_at(np.cos(4 * np.pi * k / J), params)
            worst = max(worst, multiset_deviation(ev, cf))
    ok = worst < 1e-9
    report(6, ok, f"worst |closed form - eigensolve| {worst:.2e}")
    assert worst < 1e-9


def test_criterion_07_gmres_finite_step(clustering_solution):
    t0 = time.perf_counter()
    counts = {}
    for name, params in (
        ("clustering", clustering_solution.params),
        ("classical", MethodParams(8.0 / 9.0, 2.0, 0.5)),
    ):
        counts[name] = []
        for J in (16, 32, 64, 128, 256):
            cfg = DiscretizationConfig(J, params.penalty, DIR)
            ops = build_two_level(cfg, params)
            Minv = preconditioner_matrix(ops)
            rep = gmres(lambda v: ops.A @ v, lambda v: Minv @ v, np.ones(2 * J), tol=1e-8)
            assert rep.converged
            counts[name].append(rep.iterations)
    elapsed = time.perf_counter() - t0
    cl = counts["clustering"]
    mesh_independent = len(set(cl)) == 1
    bounded = max(cl) <= 8
    strictly_more = all(a > b for a, b in zip(counts["classical"], cl))
    ok = mesh_independent and bounded and strictly_more and elapsed < 60.0
    report(
        7,
        ok,
        f"clustering {cl}, classical {counts['classical']}, {elapsed:.1f}s",
    )
    assert mesh_independent
    assert bounded
    assert strictly_more
    assert elapsed < 60.0


def test_criterion_08_stationary_contraction(clustering_solution):
    params = clustering_solution.params
    cfg = DiscretizationConfig(32, params.penalty, PER)
    ops = build_two_level(cfg, params)
    Minv = preconditioner_matrix(ops)
    project = lambda v: v - v.mean()
    rng = np.random.default_rng(8)
    b = ops.A @ project(rng.standard_normal(64))
    rep = stationary_solve(
        lambda v: ops.A @ v, lambda v: Minv @ v, b, tol=1e-12, max_iter=300, project=project
    )
    ok = rep.converged and abs(rep.contraction - REFERENCE_RHO) < 0.005
    report(8, ok, f"measured contraction {rep.contraction:.6f}")
    assert rep.converged
    assert abs(rep.contraction - REFERENCE_RHO) < 0.005


def test_criterion_09_2d_proximity(clustering_solution):
    params = clustering_solution.params
    cfg = DiscretizationConfig(32, params.penalty, DIR, 2)
    start_eigs = spectrum.two_level_error_eigenvalues(cfg, params)
    rho_start = float(np.max(np.abs(start_eigs)))
    nclusters = len(spectrum.cluster_eigenvalues(start_eigs, 1e-6))
    sol = optimize.optimize_2d(cfg, params, max_evals=50)
    improvement = (rho_start - sol.rho) / rho_start
    ok = rho_start < 1.0 and sol.rho <= rho_start + 1e-12 and improvement <= 0.5 and nclusters > 3
    report(
        9,
        ok,
        f"rho(1D triple)={rho_start:.4f}, rho(2D opt)={sol.rho:.4f}, "
        f"relative improvement {improvement:.3f}, clusters at 1e-6: {nclusters}",
    )
    assert rho_start < 1.0
    assert sol.rho <= rho_start + 1e-12  # the optimizer only improves
    assert improvement <= 0.5  # the 1D triple is close to the 2D optimum
    assert nclusters > 3  # the 1D clustering does not carry over


def test_criterion_10_positivity(clustering_solution):
    params = clustering_solution.params
    ops = build_two_level(DiscretizationConfig(32, params.penalty, DIR), params)
    eigs = np.linalg.eigvals(preconditioner_matrix(ops) @ ops.A)
    min_re = eigs.real.min()
    max_im = np.abs(eigs.imag).max()
    ok = min_re > 0 and max_im < 1e-8
    report(10, ok, f"min Re {min_re:.6f}, max |Im| {max_im:.2e}")
    assert min_re > 0
    assert max_im < 1e-8
