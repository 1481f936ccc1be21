import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgml.discretization import (
    BoundaryCondition,
    DiscretizationConfig,
    SizeCapError,
)
from dgml.twolevel import (
    MethodParams,
    build_two_level,
    deflate_constant,
    error_matrix,
    preconditioner_matrix,
)
from dgml import lfa, spectrum
from dgml.spectrum import Cluster

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def test_eigenvalues_diagonal():
    eigs = spectrum.eigenvalues_dense(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(sorted(eigs.real), [1, 2, 3], atol=1e-13)


def test_eigenvalues_requires_square():
    with pytest.raises(ValueError):
        spectrum.eigenvalues_dense(np.zeros((2, 3)))


def test_eigenvalues_cap(monkeypatch):
    monkeypatch.setenv("DGML_DENSE_CAP", "4")
    with pytest.raises(SizeCapError):
        spectrum.eigenvalues_dense(np.eye(5))


def test_error_block_eigenvalues_match_closed_form():
    params = MethodParams(0.85, 2.1, 0.4)
    k, J = 3, 16
    eigs = spectrum.eigenvalues_dense(lfa.symbol_error(k, J, params))
    cf = lfa.eigenvalues_closed_form(k, J, params)
    expected = np.array([0.0, 0.0, *cf])
    assert lfa.multiset_deviation(eigs, expected) < 1e-9


def test_dense_error_equals_symbol_union():
    params = MethodParams(0.66, 1.75, 0.58)
    ops = build_two_level(DiscretizationConfig(8, params.penalty, PER), params)
    dense = spectrum.eigenvalues_dense(error_matrix(ops))
    sym = lfa.error_spectrum_symbols(8, params)
    assert lfa.multiset_deviation(dense, sym) < 1e-8


# ---------------------------------------------------------------------------
# clustering


def test_cluster_counts_from_flat_symbol_sweep(clustering_triple):
    # J = 32: sixteen phases, each contributing the pair +/-rho and two
    # structural zeros
    pairs = lfa.eigenvalues_closed_form(np.arange(16), 32, clustering_triple)
    lams = np.concatenate([pairs.ravel(), np.zeros(32)])
    clusters = spectrum.cluster_eigenvalues(lams, 1e-6)
    assert [cl.count for cl in clusters] == [16, 32, 16]
    np.testing.assert_allclose(
        [cl.center.real for cl in clusters], [-0.19732, 0.0, 0.19732], atol=1e-4
    )


def test_cluster_singletons():
    vals = np.array([0.0, 1.0, 2.5, -3.0])
    clusters = spectrum.cluster_eigenvalues(vals, 1e-6)
    assert [cl.count for cl in clusters] == [1, 1, 1, 1]
    assert sum(cl.count for cl in clusters) == 4


def test_cluster_chain_linkage():
    # single linkage: a chain of points spaced below tol forms one cluster
    vals = np.array([0.0, 0.9e-6, 1.8e-6, 5.0])
    clusters = spectrum.cluster_eigenvalues(vals, 1e-6)
    assert [cl.count for cl in clusters] == [3, 1]
    assert clusters[0].radius < 1e-6


def test_cluster_links_pair_straddling_zero():
    # |x - y| <= tol in floating point although fl(x + tol) < y: the
    # candidate search must not lose the link to rounding
    x, y, tol = -1.0218818679563145e-08, 2.34627738200158e-09, 1.2565096061564725e-08
    assert abs(y - x) <= tol and x + tol < y
    assert [cl.count for cl in spectrum.cluster_eigenvalues(np.array([x, y]), tol)] == [2]


def test_cluster_order_independence():
    rng = np.random.default_rng(0)
    vals = np.concatenate([rng.normal(0, 1e-8, 5), rng.normal(1, 1e-8, 7)])
    a = spectrum.cluster_eigenvalues(vals, 1e-6)
    b = spectrum.cluster_eigenvalues(vals[::-1], 1e-6)
    assert [(c.count, c.center) for c in a] == [(c.count, c.center) for c in b]


def test_cluster_tol_validation():
    with pytest.raises(ValueError):
        spectrum.cluster_eigenvalues(np.array([1.0]), 0.0)


def _reference_clusters(eigs, tol):
    """Union-find over the full pairwise distance matrix: the quadratic
    loop formulation that cluster_eigenvalues vectorizes."""
    eigs = np.asarray(eigs, dtype=complex)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    n = eigs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in np.argwhere(np.abs(eigs[:, None] - eigs[None, :]) <= tol):
        if i < j:
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        vals = eigs[members]
        center = vals.mean()
        clusters.append(Cluster(complex(center), len(members), float(np.max(np.abs(vals - center)))))
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return clusters


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    log_scale=st.floats(-7.5, -4.5),
    grid=st.booleans(),
)
def test_cluster_matches_reference(seed, n, log_scale, grid):
    # points spread over a few tol widths, with complex pairs and, on a
    # lattice, exact ties and exact tol-distance links
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n) * 10**log_scale + 1j * rng.choice([0.0, 1.0], n) * rng.normal(size=n) * 1e-6
    if grid:
        vals = np.round(vals / 5e-7) * 5e-7
    assert spectrum.cluster_eigenvalues(vals, 1e-6) == _reference_clusters(vals, 1e-6)


def test_cluster_matches_reference_on_2d_spectrum(clustering_triple):
    cfg = DiscretizationConfig(16, clustering_triple.penalty, DIR, 2)
    eigs = spectrum.two_level_error_eigenvalues(cfg, clustering_triple)
    assert spectrum.cluster_eigenvalues(eigs, 1e-6) == _reference_clusters(eigs, 1e-6)


def test_dirichlet_clustering_spectrum(clustering_triple):
    # interior clusters at +/-0.19732 and 0, plus a handful of extra
    # boundary-induced eigenvalues whose location depends on the boundary
    # closure (they stay inside the spectral radius for this one)
    ops = build_two_level(DiscretizationConfig(32, clustering_triple.penalty, DIR), clustering_triple)
    report = spectrum.analyze(error_matrix(ops), tol=1e-6)
    assert sum(cl.count for cl in report.clusters) == 64
    big = {round(cl.center.real, 5): cl.count for cl in report.clusters if cl.count >= 14}
    assert big[-0.19732] >= 14 and big[0.19732] >= 14 and big[0.0] == 32
    extras = [cl for cl in report.clusters if cl.count < 14]
    assert 1 <= len(extras) <= 6
    assert abs(report.spectral_radius - 0.19732) < 1e-4


def test_refinement_preserves_cluster_centers(clustering_triple):
    centers = {}
    counts = {}
    for J in (16, 32):
        ops = build_two_level(
            DiscretizationConfig(J, clustering_triple.penalty, PER), clustering_triple
        )
        E = deflate_constant(error_matrix(ops))
        report = spectrum.analyze(E, tol=1e-6)
        main = sorted(
            (cl for cl in report.clusters if cl.count >= J // 4),
            key=lambda cl: cl.center.real,
        )
        centers[J] = [cl.center.real for cl in main]
        counts[J] = [cl.count for cl in main]
    np.testing.assert_allclose(centers[16], centers[32], atol=1e-8)
    # interior clusters double when the mesh is refined
    assert counts[32][0] == 2 * counts[16][0]  # the -rho cluster
    assert counts[32][1] == 2 * counts[16][1]  # the zero cluster


def test_preconditioned_positivity(clustering_triple):
    ops = build_two_level(DiscretizationConfig(32, clustering_triple.penalty, DIR), clustering_triple)
    eigs = spectrum.eigenvalues_dense(preconditioner_matrix(ops) @ ops.A)
    assert eigs.real.min() > 0
    assert np.abs(eigs.imag).max() < 1e-8


def test_analyze_accepts_eigenvalue_vector():
    report = spectrum.analyze(np.array([1.0, 1.0, 2.0]), tol=1e-6)
    assert report.spectral_radius == 2.0
    assert [cl.count for cl in report.clusters] == [2, 1]


# ---------------------------------------------------------------------------
# structured Dirichlet path (mirror blocks + fast diagonalization)


def _dense_error_eigenvalues(cfg, params):
    return spectrum.eigenvalues_dense(error_matrix(build_two_level(cfg, params)))


def _check_structured(cfg, params):
    eigs = spectrum.two_level_error_eigenvalues(cfg, params)
    coarse = cfg.cells_per_dim ** cfg.dim
    assert eigs.dtype == complex and eigs.size == cfg.ndof
    assert np.all(eigs.imag == 0) and np.all(eigs[-coarse:] == 0)
    assert np.all(np.diff(eigs[:-coarse].real) >= 0)
    assert lfa.multiset_deviation(eigs, _dense_error_eigenvalues(cfg, params)) <= 1e-10


ORACLE_SIZES = [(1, J) for J in (2, 4, 8, 16, 32, 64, 128)] + [(2, J) for J in (2, 4, 8, 16)]


@pytest.mark.parametrize("dim,J", ORACLE_SIZES)
@pytest.mark.parametrize("preset", ["classical", "clustering"])
def test_structured_path_matches_dense_oracle(dim, J, preset, classical_params, clustering_triple):
    params = classical_params if preset == "classical" else clustering_triple
    _check_structured(DiscretizationConfig(J, params.penalty, DIR, dim), params)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    size=st.sampled_from([(1, J) for J in (2, 4, 8, 16, 32, 64, 128)] + [(2, 2), (2, 4), (2, 8)]),
    alpha=st.floats(0.0, 1.0),
    penalty=st.floats(1.05, 4.0),
    c=st.floats(0.05, 0.95),
)
def test_structured_path_matches_dense_random_triples(size, alpha, penalty, c):
    dim, J = size
    _check_structured(DiscretizationConfig(J, penalty, DIR, dim), MethodParams(alpha, penalty, c))


def test_structured_path_assembles_no_full_operator(monkeypatch, clustering_triple):
    def forbidden(*args, **kwargs):
        raise AssertionError("Dirichlet path assembled the full two-level operators")

    monkeypatch.setattr(spectrum, "build_two_level", forbidden)
    cfg = DiscretizationConfig(8, clustering_triple.penalty, DIR, 2)
    assert spectrum.two_level_error_eigenvalues(cfg, clustering_triple).size == 256


@pytest.mark.parametrize("bc", [DIR, PER])
@pytest.mark.parametrize("dim,J", [(1, 16), (2, 4)])
def test_error_eigenvalues_respect_dense_cap(monkeypatch, bc, dim, J):
    monkeypatch.setenv("DGML_DENSE_CAP", "16")
    with pytest.raises(SizeCapError):
        spectrum.two_level_error_eigenvalues(
            DiscretizationConfig(J, 1.8, bc, dim), MethodParams(0.7, 1.8, 0.4)
        )


@pytest.mark.parametrize("dim,J", [(1, 16), (2, 4)])
def test_fast_path_matches_generic_eigensolve(dim, J):
    params = MethodParams(0.7, 1.8, 0.4)
    cfg = DiscretizationConfig(J, 1.8, DIR, dim)
    fast = spectrum.two_level_error_eigenvalues(cfg, params)
    ops = build_two_level(cfg, params)
    dense = spectrum.eigenvalues_dense(error_matrix(ops))
    assert lfa.multiset_deviation(fast, dense) < 1e-8


def test_fast_path_periodic_falls_back():
    params = MethodParams(0.7, 1.8, 0.4)
    cfg = DiscretizationConfig(8, 1.8, PER, 1)
    eigs = spectrum.two_level_error_eigenvalues(cfg, params)
    ops = build_two_level(cfg, params)
    dense = spectrum.eigenvalues_dense(deflate_constant(error_matrix(ops)))
    assert lfa.multiset_deviation(eigs, dense) < 1e-10
