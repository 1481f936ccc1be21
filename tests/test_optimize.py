import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    NewtonDivergenceError,
    closed_form_pairs,
    exact_radius,
    loop_nelder_mead,
    polyval_bracketed_root,
    radicand_slack,
    rational_pair,
    reference_symbol_radius,
    search_1d_alpha,
    search_1d_alpha_delta,
    solve_clustering_system,
)

from dgml.discretization import BoundaryCondition, ConfigError, DiscretizationConfig
from dgml.twolevel import MethodParams
from dgml import cli, lfa, optimize, spectrum


# ---------------------------------------------------------------------------
# the clustering triple as correctly rounded quartic roots, and the float
# bisection helpers.polyval_bracketed_root that the triple is checked against
# (numpy companion-matrix roots as the oracle)

QUARTIC_ROOT = dict(zip(
    (optimize.RELAXATION_QUARTIC, optimize.PENALTY_QUARTIC, optimize.DISCONTINUITY_QUARTIC),
    optimize.CLUSTERING.as_tuple(),
))


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
    roots = [polyval_bracketed_root(coeffs, lo, hi)]
    if coeffs in QUARTIC_ROOT:
        roots.append(QUARTIC_ROOT[coeffs])
    for root in roots:
        assert abs(root - ref[0]) < 1e-12
        assert abs(np.polyval(coeffs, root)) < 1e-12 * max(abs(c) for c in coeffs)


def test_roots_simple_cases():
    assert polyval_bracketed_root((1.0, 0.0, -1.0), 0.0, 2.0) == 1.0
    assert polyval_bracketed_root((2.0, 1.0), -1.0, 1.0) == -0.5


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [((1.0, 0.0, 1.0), -2.0, 2.0), ((1.0, 0.0, -1.0), 1.0, 2.0), ((1.0, -1.0), 1.0, 1.0)],
    ids=["no-real-root", "endpoint-root", "empty-bracket"],
)
def test_bracketed_root_requires_strict_sign_change(coeffs, lo, hi):
    with pytest.raises(ValueError):
        polyval_bracketed_root(coeffs, lo, hi)


# ---------------------------------------------------------------------------
# clustering triple


def test_clustering_parameters_match_oracle(clustering_triple):
    sol = optimize.clustering_parameters()
    assert sol.params == optimize.CLUSTERING
    assert sol.residuals == tuple(map(float, optimize.clustering_residuals(*optimize.CLUSTERING.as_tuple())))
    assert sol.rho == lfa.symbol_radius(optimize.CLUSTERING)
    assert sol.params == clustering_triple


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
    cosines = np.cos(np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False))
    pairs = lfa.eigenvalues_closed_form_at(cosines, sol.params)
    mods = np.abs(pairs)
    assert abs(mods.max() - 0.19732) < 1e-4


def test_system_residual_hand_values(classical_params):
    r1, _, _ = optimize.clustering_residuals(*classical_params.as_tuple())
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
# c -> 1, where the radicand's denominator E^2 cancels if expanded on its own
# (its (2c^2 - 3c + 1)^2 is formed from O(1) terms)
@example(alpha=1.0, d0=2.0, c=0.9999999999999998)
@example(alpha=0.9, d0=1.5, c=1 - 1e-9)
def test_derived_residuals_match_hand_typed_polynomials(alpha, d0, c):
    # the reference in exact rational arithmetic, so that it shares no
    # rounding with the derived residuals
    derived = optimize.clustering_residuals(alpha, d0, c)
    ref = hand_typed_residuals(*map(Fraction, (alpha, d0, c)))
    assert all(abs(Fraction(d) - r) <= Fraction(1e-12) * max(abs(r), 1) for d, r in zip(derived, ref))


def test_third_residual_is_rounding_close_to_its_rational_value():
    # a seeded sweep of the box with its edges c -> 0, c -> 1 (down to
    # 1 - 2^-52) and delta0 -> 1+ (down to 1 + 2^-52).  The third residual is
    # 2*r2/den1^2 - 2*r1/(2*den0*den1); each term has a few roundings, so the
    # difference is within 1e-14 of the exact one relative to the terms' size
    # (1.1e-15 here).  Relative to max(|r|, 1) it is within 1e-14 where the
    # terms do not cancel, as at the two named points.  As c -> 1 both terms
    # grow like 1/(1-c)^2, and at delta0 = 1 + 1/sqrt(2), the root of
    # 2 delta0^2 - 4 delta0 + 1, those leading parts cancel
    rng = np.random.default_rng(3303)
    triples = [(rng.uniform(0.0, 1.0), 1.0 + 10.0 ** rng.uniform(-9.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(300)]
    for alpha, d0, c in triples[:20]:
        gap = 10.0 ** rng.uniform(-15.5, -2.0)
        triples += [(alpha, d0, gap), (alpha, d0, 1.0 - gap), (alpha, 1.0 + gap, c), (alpha, 1 + 2**-0.5, 1.0 - gap)]
    named = [(1.0, 2.0, 1.0 - 2.0**-52), (0.9, 1.5, 1.0 - 1e-9)]
    for alpha, d0, c in triples + named + [(0.9, 1.0 + 2.0**-52, 0.5)]:
        _, (e0, e1), (_, r1, r2) = lfa._coefficients(*map(Fraction, (alpha, d0, c)))
        terms = 2 * r2 / (e1 * e1), 2 * r1 / (2 * e0 * e1)
        exact = terms[0] - terms[1]
        assert exact == hand_typed_residuals(*map(Fraction, (alpha, d0, c)))[2]
        miss = abs(Fraction(optimize.clustering_residuals(alpha, d0, c)[2]) - exact)
        assert miss <= Fraction(1e-14) * max(abs(terms[0]) + abs(terms[1]), 1), (alpha, d0, c)
        if (alpha, d0, c) in named:
            assert miss <= Fraction(1e-14) * max(abs(exact), 1)


def test_newton_reproduces_quartic_triple(clustering_triple):
    sol = solve_clustering_system(MethodParams(0.9, 1.5, 0.55))
    np.testing.assert_allclose(
        np.array(sol.params.as_tuple()),
        np.array(clustering_triple.as_tuple()),
        atol=1e-8,
    )
    assert max(abs(r) for r in sol.residuals) < 1e-10


def test_newton_fixed_point():
    start = optimize.CLUSTERING
    sol = solve_clustering_system(start)
    assert sol.iterations <= 2


def test_newton_far_start_reports_divergence():
    # recorded outcome of the basin probe: this start leaves the box
    with pytest.raises(NewtonDivergenceError) as err:
        solve_clustering_system(MethodParams(0.5, 2.5, 0.3))
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


def within_ulps(values, exact, n=4):
    return all(abs(v - e) <= n * math.ulp(e) for v, e in zip(values, exact, strict=True))


# ---------------------------------------------------------------------------
# the exact 1D optimizers


def test_optimize_alpha_classical():
    # the exact optimum of the classical preset
    assert within_ulps(optimize.optimize_1d_alpha(2.0, 0.5), (8 / 9, 1 / 3))


def test_optimize_alpha_delta():
    # the exact optimum of the alpha-delta preset, with the exact radius of
    # the float triple it returns (0.2 + 4.98 ulp)
    alpha, d0, rho = optimize.optimize_1d_alpha_delta(0.5)
    exact, _ = exact_radius(MethodParams(alpha, d0, 0.5))
    assert within_ulps((alpha, d0, rho), (0.9, 1.5, float(exact)))


def test_1d_optimizers_match_or_beat_the_searches():
    # against the golden-section and Nelder-Mead searches they replace, run
    # on the complex-path radius, over the whole (delta0, c) and c ranges
    rng = np.random.default_rng(2911)
    for penalty, c in zip(rng.uniform(1.0, 10.0, 200), rng.uniform(0.0, 1.0, 200)):
        _, rho = optimize.optimize_1d_alpha(penalty, c)
        assert rho <= search_1d_alpha(penalty, c)[1] + 1e-12, (penalty, c)
    for c in rng.uniform(0.0, 1.0, 50):
        *_, rho = optimize.optimize_1d_alpha_delta(c)
        assert rho <= search_1d_alpha_delta(c)[2] + 1e-12, c


def test_optimize_alpha_with_a_pair_rounded_complex():
    # just above delta0 = 1 rounding makes the general closed form's pair at
    # cos(theta) = -1 complex (q = -1.4e-15); the extreme slopes are real
    penalty, c = 1.000000052101304, 0.4326658494441967
    pairs = lfa.eigenvalues_closed_form_at(np.array([1.0, -1.0]), MethodParams(1.0, penalty, c))
    assert pairs[1, 0].imag > 0
    _, rho = optimize.optimize_1d_alpha(penalty, c)
    assert rho <= search_1d_alpha(penalty, c)[1] + 1e-12


def test_1d_optimizers_evaluate_the_radius_once(monkeypatch):
    calls = []
    radius = lfa.symbol_radius
    monkeypatch.setattr(lfa, "symbol_radius", lambda params: calls.append(params) or radius(params))

    def searched(*args, **kwargs):
        raise AssertionError("a 1D optimizer ran a search")

    monkeypatch.setattr(optimize, "golden_section", searched)
    monkeypatch.setattr(optimize, "nelder_mead", searched)
    optimize.optimize_1d_alpha(2.0, 0.5)
    assert len(calls) == 1
    optimize.optimize_1d_alpha_delta(0.5)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the exact 1D baselines, certified in rational arithmetic


F = Fraction
# preset: exact (alpha, delta0, c), radius, pair at cos(theta) = 1, pair at cos(theta) = -1
BASELINES = {
    "classical": ((F(8, 9), F(2), F(1, 2)), F(1, 3), {F(1, 9), F(-5, 27)}, {F(1, 3), F(-1, 3)}),
    "alpha-delta": ((F(9, 10), F(3, 2), F(1, 2)), F(1, 5), {F(1, 10), F(-1, 5)}, {F(1, 5), F(-1, 5)}),
}


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_presets_are_the_exact_optima(name):
    exact, rho, at_one, at_minus_one = BASELINES[name]
    assert rational_pair(*exact, 1) == at_one and rational_pair(*exact, -1) == at_minus_one
    assert max(abs(lam) for lam in at_one | at_minus_one) == rho
    params = cli.preset_params(name)
    assert params.as_tuple() == tuple(map(float, exact))  # the presets round the exact triple
    radius = lfa.symbol_radius(params)
    assert abs(radius - rho) <= 4 * math.ulp(float(rho))
    # the maximum sits at the phase extremes, which a fine grid confirms up
    # to rounding: at alpha-delta the constant branch -1/5 rounds one ulp
    # higher at interior phases than at cos(theta) = +/-1
    fine = np.cos(np.linspace(0.0, 2.0 * np.pi, 4097))
    assert 0 <= np.abs(lfa.eigenvalues_closed_form_at(fine, params)).max() - radius <= radicand_slack(params)


@pytest.mark.parametrize(
    "name, phases",
    [
        # optimal in alpha at the fixed delta0 = 2, where the branches
        # |lambda(-1)| = 1 - 3*alpha/4 and (3*alpha - 2)/2 cross
        ("classical", [0.0, np.pi]),
        # three branches equioscillate at 1/5: any step raises one of them
        ("alpha-delta", np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)),
    ],
)
def test_baseline_presets_are_local_minima(name, phases):
    alpha, d0, c = cli.preset_params(name).as_tuple()
    radius = lfa.symbol_radius(MethodParams(alpha, d0, c))
    for phi in phases:
        step = MethodParams(alpha + 1e-4 * np.cos(phi), d0 + 1e-4 * np.sin(phi), c)
        assert lfa.symbol_radius(step) > radius


def test_certificate_allows_the_rounding_of_a_nearly_double_pair():
    # at this c the optimum's pair at cos(theta) = 1 is nearly double, and
    # rounding in the general closed form's cancelling radicand moves its
    # 256-point grid by its own rounding only: above its values at
    # cos(theta) = +/-1 within the slack.  The slopes keep the radius within
    # its rounding bound there, and at the nearly double pair found near
    # c = 0.315, where the general closed form reads 6,440 ulp low
    c = 0.3143196287038529
    *point, rho = optimize.optimize_1d_alpha_delta(c)
    params = MethodParams(*point, c)
    extremes = np.abs(closed_form_pairs(np.array([1.0, -1.0]), params)).max()
    assert 0 <= reference_symbol_radius(params) - extremes <= radicand_slack(params)
    for p in (params, MethodParams(0.9763361740541776, 1.6582923586726732, 0.3151621603520993)):
        exact, bound = exact_radius(p)
        assert abs(F(lfa.symbol_radius(p)) - exact) <= bound


def test_endpoint_terms_are_affine_in_alpha():
    # why the eigenvalues at cos(theta) = +/-1 are 1 + mu*alpha, in rational
    # arithmetic: at alpha = 0 the centre's numerator is its denominator, so
    # the centre is 1 + a*alpha, and every radicand coefficient carries alpha^2
    rng = np.random.default_rng(2912)
    for _ in range(20):
        d0, c, alpha = (F(int(n), 100) for n in rng.integers((101, 1, 1), (1000, 100, 100)))
        num0, den, r0 = lfa._coefficients(F(0), d0, c)
        assert num0 == den and r0 == (0, 0, 0)
        num1, _, r1 = lfa._coefficients(F(1), d0, c)
        num, _, r = lfa._coefficients(alpha, d0, c)
        assert num == tuple(n0 + alpha * (n1 - n0) for n0, n1 in zip(num0, num1))
        assert r == tuple(alpha**2 * v for v in r1)


def test_optimize_alpha_stops_at_the_bracket_end():
    # at (delta0, c) = (2, 3/10) the extreme slopes mu = lambda - 1 at alpha = 1
    # cross beyond alpha = 1, so alpha = 1 is optimal, with radius exactly 1/4
    pairs = rational_pair(1, 2, F(3, 10), 1) | rational_pair(1, 2, F(3, 10), -1)
    assert pairs == {0, F(-17, 99), F(1, 4), F(-13, 74)}
    assert -2 / (max(pairs) + min(pairs) - 2) > 1
    alpha, rho = optimize.optimize_1d_alpha(2.0, 0.3)
    assert alpha == 1.0 and rho == lfa.symbol_radius(MethodParams(1.0, 2.0, 0.3))
    assert abs(rho - 0.25) <= 8 * math.ulp(0.25)  # the float closed form is 5 ulp above 1/4 here


def test_optimize_alpha_delta_at_c_one_fifth():
    # at c = 1/5 the radicands at cos(theta) = +/-1 are rational squares, and
    # near delta0 = 1.7 the extreme slopes at alpha = 1 are -2/d (x = 1) and
    # -(2d - 1)/d^2 (x = -1).  The two moduli 2/d - 1 and (d - 1)^2/d^2 at
    # alpha = 1 equioscillate where 2d^2 - 4d + 1 = 0, at d = 1 + 1/sqrt(2),
    # where the lines' crossing 2d^2/(4d - 1) is alpha = 1 itself and the
    # radius is 3 - 2*sqrt(2)
    for d in (F(16, 10), F(17, 10), F(18, 10)):
        slopes = sorted(lam - 1 for x in (1, -1) for lam in rational_pair(1, d, F(1, 5), x))
        assert slopes[0] == -2 / d and slopes[-1] == -(2 * d - 1) / d**2
    alpha, d0, rho = optimize.optimize_1d_alpha_delta(0.2)
    root = 1 + 1 / math.sqrt(2)
    assert alpha == 1.0 and abs(d0 - root) <= 4 * math.ulp(root)
    exact = 1 / (3 + 2 * math.sqrt(2))  # 3 - 2*sqrt(2) without its cancellation
    assert rho == lfa.symbol_radius(MethodParams(alpha, d0, 0.2))
    assert abs(rho - exact) <= 64 * math.ulp(exact)  # the float closed form is 21-33 ulp above it here


@pytest.mark.parametrize(
    "coeffs,index,bits,bisected",
    [
        (optimize.DISCONTINUITY_QUARTIC, 2, "0x1.2113cfca41cb1p-1", 0),
        (optimize.PENALTY_QUARTIC, 1, "0x1.8458b09bdf95ep+0", 1),
        (optimize.RELAXATION_QUARTIC, 0, "0x1.d0f9942686aa6p-1", -1),
    ],
    ids=["c", "delta0", "alpha"],
)
def test_clustering_triple_is_correctly_rounded(coeffs, index, bits, bisected):
    x = optimize.CLUSTERING.as_tuple()[index]
    assert x.hex() == bits
    # a float bisection on the sign of p, which rounding noise decides within
    # a few ulp of the root, lands `bisected` ulp off
    lo, hi = (1.0, 10.0) if index == 1 else (0.0, 1.0)
    assert polyval_bracketed_root(coeffs, lo, hi) == x + bisected * math.ulp(x)
    # the exact quartic changes sign between the midpoints to the
    # neighbouring floats, so no other float is nearer its root

    def p(v):
        y = Fraction(0)
        for a in coeffs:
            y = y * v + Fraction(a)
        return y

    below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    assert p(below) * p(above) < 0


def test_radius_ordering_of_presets(clustering_triple):
    _, rho_alpha = optimize.optimize_1d_alpha(2.0, 0.5)
    _, _, rho_ad = optimize.optimize_1d_alpha_delta(0.5)
    rho_cluster = optimize.clustering_parameters().rho
    assert rho_alpha >= rho_ad >= rho_cluster
    # 1/3, and the exact radius of the float triple alpha-delta returns
    exact, _ = exact_radius(MethodParams(*optimize.optimize_1d_alpha_delta(0.5)[:2], 0.5))
    assert within_ulps((rho_alpha, rho_ad), (1 / 3, float(exact))) and abs(rho_cluster - 0.19732) < 1e-4


def test_flat_spectrum_invariant(clustering_triple):
    cosines = np.cos(np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False))
    pairs = lfa.eigenvalues_closed_form_at(cosines, clustering_triple)
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


def test_optimize_2d_rejects_a_1d_config(clustering_triple):
    cfg = DiscretizationConfig(8, clustering_triple.penalty, BoundaryCondition.DIRICHLET, 1)
    with pytest.raises(ConfigError, match="dim=1"):
        optimize.optimize_2d(cfg, clustering_triple, max_evals=4)


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


def test_optimize_2d_scores_a_vertex_outside_the_box_inf(monkeypatch):
    # the first simplex puts alpha at 0.99 + 0.02: scored +inf without an
    # eigensolve, and not counted as failed
    real, calls = spectrum.two_level_error_eigenvalues, []
    monkeypatch.setattr(
        spectrum, "two_level_error_eigenvalues", lambda cfg, p: calls.append(p) or real(cfg, p)
    )
    cfg = DiscretizationConfig(4, 1.5, BoundaryCondition.DIRICHLET, 2)
    sol = optimize.optimize_2d(cfg, MethodParams(0.99, 1.5, 0.5), max_evals=12)
    assert sol.failed_evals == 0 and sol.iterations == 12
    assert len(calls) < sol.iterations and all(p.alpha <= 1.0 for p in calls)
    p = sol.params
    assert 0.0 < p.alpha <= 1.0 and p.penalty > 1.0 and 0.0 < p.discontinuity < 1.0
    assert np.isfinite(sol.rho)
