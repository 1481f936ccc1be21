import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import loop_nelder_mead, polyval_bracketed_root, reference_symbol_radius

from dgml.discretization import BoundaryCondition, DiscretizationConfig
from dgml.twolevel import MethodParams
from dgml import lfa, optimize, spectrum


# ---------------------------------------------------------------------------
# bracketed polynomial roots (numpy companion-matrix roots as the oracle)


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [
        (optimize.DISCONTINUITY_QUARTIC, 0.0, 1.0),
        (optimize.PENALTY_QUARTIC, 1.0, 10.0),
        (optimize.RELAXATION_QUARTIC, 0.0, 1.0),
        ((1.0, 0.0, -1.0), 0.0, 2.0),
        ((1.0, -1.8, 0.8), 0.9, 5.0),
        ((2.0, 1.0), -1.0, 1.0),
    ],
)
def test_roots_match_companion_oracle(coeffs, lo, hi):
    ref = [r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-10 and lo < r.real < hi]
    assert len(ref) == 1
    root = optimize.bracketed_root(coeffs, lo, hi)
    assert abs(root - ref[0]) < 1e-12
    assert abs(np.polyval(coeffs, root)) < 1e-12 * max(abs(c) for c in coeffs)


def test_roots_simple_cases():
    assert optimize.bracketed_root((1.0, 0.0, -1.0), 0.0, 2.0) == 1.0
    assert optimize.bracketed_root((2.0, 1.0), -1.0, 1.0) == -0.5


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [((1.0, 0.0, 1.0), -2.0, 2.0), ((1.0, 0.0, -1.0), 1.0, 2.0), ((1.0, -1.0), 1.0, 1.0)],
    ids=["no-real-root", "endpoint-root", "empty-bracket"],
)
def test_bracketed_root_requires_strict_sign_change(coeffs, lo, hi):
    with pytest.raises(ValueError):
        optimize.bracketed_root(coeffs, lo, hi)


def same_root(coeffs, lo, hi):
    """bracketed_root gives polyval_bracketed_root's bits, or both raise."""
    try:
        want = polyval_bracketed_root(coeffs, lo, hi)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            optimize.bracketed_root(coeffs, lo, hi)
        assert str(got.value) == str(exc)
        return False
    have = optimize.bracketed_root(coeffs, lo, hi)
    assert np.float64(have).tobytes() == np.float64(want).tobytes(), (coeffs, lo, hi, have, want)
    return True


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [
        (optimize.DISCONTINUITY_QUARTIC, 0.0, 1.0),
        (optimize.PENALTY_QUARTIC, 1.0, 10.0),
        (optimize.RELAXATION_QUARTIC, 0.0, 1.0),
        ((4, -8, 8, -8, 3), 0.0, 1.0),
        (np.array(optimize.PENALTY_QUARTIC), 1.0, 10.0),
        (np.array([183, -352, 214, -40, -1]), 0.0, 1.0),
        ((1.0, 0.0, -1.0), 0.0, 2.0),
        ((1.0, -1.8, 0.8), 0.9, 5.0),
        ((2.0, 1.0), -1.0, 1.0),
        ((1, 0, -2), 0, 2),
    ],
)
def test_bracketed_root_is_the_polyval_bisection(coeffs, lo, hi):
    assert same_root(coeffs, lo, hi)


def test_bracketed_root_is_the_polyval_bisection_on_seeded_polynomials():
    # cubics and quartics with real roots, bracketing the smallest one
    rng = np.random.default_rng(2209)
    for _ in range(300):
        roots = np.sort(rng.uniform(-3.0, 3.0, rng.choice([3, 4])))
        coeffs = np.poly(roots) * rng.uniform(-10.0, 10.0)
        lo, hi = roots[0] - rng.uniform(0.01, 1.0), 0.5 * (roots[0] + roots[1])
        for form in (coeffs, tuple(coeffs.tolist()), np.round(100 * coeffs).astype(int)):
            same_root(form, lo, hi)
        assert same_root(coeffs, lo, hi)


def test_1d_optimizers_follow_the_complex_path_radius(monkeypatch):
    # Nelder-Mead and golden section take the same steps, evaluation by
    # evaluation, on the complex-path radius as on symbol_radius
    def run(radius):
        calls = []

        def counted(params):
            calls.append(params.as_tuple())
            return radius(params)

        monkeypatch.setattr(lfa, "symbol_radius", counted)
        return optimize.optimize_1d_alpha_delta(0.5), optimize.optimize_1d_alpha(2.0, 0.5), calls

    fast = run(lfa.symbol_radius)
    reference = run(reference_symbol_radius)
    for have, want in zip(fast[:2], reference[:2]):
        assert [np.float64(v).tobytes() for v in have] == [np.float64(v).tobytes() for v in want]
    assert len(fast[2]) == len(reference[2]) > 0
    assert fast[2] == reference[2]


# ---------------------------------------------------------------------------
# clustering triple


def test_clustering_parameters_match_oracle(clustering_triple):
    sol = optimize.clustering_parameters()
    mine = np.array(sol.params.as_tuple())
    ref = np.array(clustering_triple.as_tuple())
    np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_clustering_parameters_residuals():
    sol = optimize.clustering_parameters()
    assert max(abs(r) for r in sol.residuals) < 1e-9
    alpha, d0, c = sol.params.as_tuple()
    assert abs(np.polyval(optimize.DISCONTINUITY_QUARTIC, c)) < 1e-12 * 8
    assert abs(np.polyval(optimize.PENALTY_QUARTIC, d0)) < 1e-12 * 32
    assert abs(np.polyval(optimize.RELAXATION_QUARTIC, alpha)) < 1e-12 * 352


def test_clustering_radius(clustering_triple):
    sol = optimize.clustering_parameters()
    assert abs(sol.rho - 0.19732) < 1e-4
    _, pairs = lfa.eigenvalues_over_theta(sol.params, 100)
    mods = np.abs(pairs)
    assert abs(mods.max() - 0.19732) < 1e-4


def test_system_residual_hand_values(classical_params):
    r1, _, _ = optimize.clustering_system_residuals(classical_params)
    assert abs(r1 - (-1.0 / 9.0)) < 1e-14
    # first equation cancels identically at (alpha, delta0) = (1, 1)
    for c in (0.1, 0.4, 0.9):
        assert abs(optimize.clustering_residuals(1.0, 1.0, c)[0]) < 1e-14


def test_residuals_degenerate_at_c_one():
    with pytest.raises(lfa.DegenerateParameterError):
        optimize.clustering_residuals(0.9, 1.5, 1.0)


def hand_typed_residuals(alpha, d0, c):
    """The three clustering conditions as published polynomials; the
    reference for the residuals derived from the closed-form symbol."""
    r1 = alpha + alpha * c * (d0 - 2) + (c - 1) * d0
    r2 = alpha * (
        3 * c**2 * d0 * (4 * d0 - 3) + c * (-12 * d0**2 + 9 * d0 + 1) + 4 * d0**2 - 2 * d0 - 1
    ) - d0 * (c**2 * (8 * d0**2 - 4 * d0 - 1) + c * (-8 * d0**2 + 4 * d0 + 2) + 2 * d0**2 - 1)
    den_l = (c - 1) ** 4 * d0**2
    den_r = 2 * d0**2 * (
        -2 * (2 * c**2 - 3 * c + 1) ** 2 * d0**2 + 4 * c * (c - 1) ** 3 * d0 + (c - 1) ** 4
    )
    lhs = 2 * alpha**2 * (c - 1) ** 2 * c * (c * ((d0 - 4) * d0 + 2) + 2 * (d0 - 1)) / den_l
    rhs = (
        4
        * alpha**2
        * (4 * (c - 1) * c * d0**2 - 3 * (c - 1) * c * d0 + c + d0 - 1)
        * (c * (3 * (c - 1) * d0 - 2 * c + 3) + d0 - 1)
        / den_r
    )
    return np.array([r1, r2, lhs - rhs])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.floats(0.0, 1.0),
    d0=st.floats(1.0, 10.0, exclude_min=True),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_derived_residuals_match_hand_typed_polynomials(alpha, d0, c):
    derived = optimize.clustering_residuals(alpha, d0, c)
    ref = hand_typed_residuals(alpha, d0, c)
    assert np.all(np.abs(derived - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_newton_reproduces_quartic_triple(clustering_triple):
    sol = optimize.solve_clustering_system(MethodParams(0.9, 1.5, 0.55))
    np.testing.assert_allclose(
        np.array(sol.params.as_tuple()),
        np.array(clustering_triple.as_tuple()),
        atol=1e-8,
    )
    assert max(abs(r) for r in sol.residuals) < 1e-10


def test_newton_fixed_point():
    start = optimize.clustering_parameters().params
    sol = optimize.solve_clustering_system(start)
    assert sol.iterations <= 2


def test_newton_far_start_reports_divergence():
    # recorded outcome of the basin probe: this start leaves the box
    with pytest.raises(optimize.NewtonDivergenceError) as err:
        optimize.solve_clustering_system(MethodParams(0.5, 2.5, 0.3))
    assert len(err.value.last_iterate) == 3


# ---------------------------------------------------------------------------
# derivative-free optimizers


def test_golden_section_quadratic():
    x, fx = optimize.golden_section(lambda t: (t - 0.3) ** 2, .0, 1.0)
    assert abs(x - 0.3) < 1e-7 and fx < 1e-13


def test_nelder_mead_quadratic_and_monotone_history():
    f = lambda v: (v[0] - 1.0) ** 2 + 2.0 * (v[1] + 0.5) ** 2
    res = optimize.nelder_mead(f, (0.0, 0.0), steps=(0.5, 0.5))
    np.testing.assert_allclose(res.x, [1.0, -0.5], atol=1e-4)
    hist = np.array(res.best_history)
    assert np.all(np.diff(hist) <= 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nelder_mead_is_the_loop_reference(n):
    # the same points evaluated in the same order and the same result, on a
    # smooth bowl, a rough one (many shrinks) and one with an infeasible side
    objectives = [
        lambda v: float(((v - 0.3) ** 2 * np.arange(1, n + 1)).sum()),
        lambda v: float(np.sin(37.0 * v).sum() + (v * v).sum()),
        lambda v: np.inf if v[0] < 0 else float(abs(v[0] - 0.5) + abs(v[-1])),
    ]
    rng = np.random.default_rng(2210 + n)
    for objective in objectives:
        for _ in range(5):
            x0, steps = rng.uniform(-1.0, 1.0, n), tuple(rng.uniform(0.01, 0.5, n))
            seen = {"fast": [], "loop": []}

            def recorded(name):
                return lambda x: seen[name].append(x.tobytes()) or objective(x)

            res = optimize.nelder_mead(recorded("fast"), x0, steps, max_evals=300)
            with np.errstate(invalid="ignore"):  # the loop takes inf - inf with every vertex infeasible
                x, fval, nfev, history = loop_nelder_mead(recorded("loop"), x0, steps, max_evals=300)
            assert seen["fast"] == seen["loop"] and len(seen["fast"]) == nfev
            assert res.x.tobytes() == x.tobytes() and res.fval == fval
            assert res.nfev == nfev and res.best_history == history


def test_optimize_alpha_classical():
    alpha, rho = optimize.optimize_1d_alpha(2.0, 0.5)
    assert abs(alpha - 8.0 / 9.0) < 1e-3
    assert abs(rho - 1.0 / 3.0) < 1e-3


def test_optimize_alpha_delta():
    alpha, d0, rho = optimize.optimize_1d_alpha_delta(0.5)
    assert abs(rho - 0.2) < 1e-3
    assert abs(alpha - 0.9) < 5e-3
    assert abs(d0 - 1.5) < 5e-3


def test_radius_ordering_of_presets(clustering_triple):
    _, rho_alpha = optimize.optimize_1d_alpha(2.0, 0.5)
    _, _, rho_ad = optimize.optimize_1d_alpha_delta(0.5)
    rho_cluster = optimize.clustering_parameters().rho
    assert rho_alpha >= rho_ad >= rho_cluster
    assert abs(rho_ad - 0.2) < 1e-3 and abs(rho_cluster - 0.19732) < 1e-4


def test_flat_spectrum_invariant(clustering_triple):
    _, pairs = lfa.eigenvalues_over_theta(clustering_triple, 100)
    mods = np.abs(pairs)
    assert mods.max() - mods.min() < 1e-8


# ---------------------------------------------------------------------------
# 2D optimization (small mesh keeps the dense eigensolves cheap)


def test_optimize_2d_descends_from_start(clustering_triple):
    cfg = DiscretizationConfig(8, clustering_triple.penalty, BoundaryCondition.DIRICHLET, 2)
    start_eigs = spectrum.two_level_error_eigenvalues(cfg, clustering_triple)
    rho_start = float(np.max(np.abs(start_eigs)))
    sol = optimize.optimize_2d(cfg, clustering_triple, max_evals=40)
    assert sol.rho <= rho_start + 1e-12
    assert rho_start < 1.0
    p = sol.params
    assert 0.0 < p.alpha <= 1.0 and p.penalty > 1.0 and 0.0 < p.discontinuity < 1.0


def test_optimize_2d_periodic_contracts(clustering_triple):
    # the periodic objective sees the spectrum without the constant mode
    cfg = DiscretizationConfig(4, clustering_triple.penalty, BoundaryCondition.PERIODIC, 2)
    sol = optimize.optimize_2d(cfg, clustering_triple, max_evals=20)
    assert sol.rho < 0.9


def test_optimize_2d_single_alpha_recovery():
    # 1-variable sanity: with (delta0, c) fixed at the continuous-classical
    # choice the best relaxation contracts on the small 2D mesh
    cfg = DiscretizationConfig(8, 2.0, BoundaryCondition.DIRICHLET, 2)

    def rho_of_alpha(alpha):
        eigs = spectrum.two_level_error_eigenvalues(cfg, MethodParams(alpha, 2.0, 0.5))
        return float(np.max(np.abs(eigs)))

    alpha, rho = optimize.golden_section(rho_of_alpha, 0.3, 1.0, tol=1e-4)
    assert rho < 1.0
    assert rho <= rho_of_alpha(0.95) + 1e-12
    assert rho <= rho_of_alpha(0.4) + 1e-12


def test_optimize_2d_counts_failed_evaluations(monkeypatch, clustering_triple):
    # a failed eigensolve scores +inf for the search and is counted
    real = spectrum.two_level_error_eigenvalues
    calls = {"made": 0, "failed": 0}

    def flaky(cfg, params):
        calls["made"] += 1
        if calls["made"] % 3 == 0:
            calls["failed"] += 1
            raise np.linalg.LinAlgError("injected eigensolver failure")
        return real(cfg, params)

    monkeypatch.setattr(spectrum, "two_level_error_eigenvalues", flaky)
    cfg = DiscretizationConfig(4, clustering_triple.penalty, BoundaryCondition.DIRICHLET, 2)
    sol = optimize.optimize_2d(cfg, clustering_triple, max_evals=20)
    assert calls["failed"] >= 5
    assert sol.failed_evals == calls["failed"]
    assert np.isfinite(sol.rho)
    monkeypatch.setattr(spectrum, "two_level_error_eigenvalues", real)
    assert optimize.optimize_2d(cfg, clustering_triple, max_evals=20).failed_evals == 0
