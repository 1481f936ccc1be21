import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgml.discretization import (
    BoundaryCondition,
    DiscretizationConfig,
    SizeCapError,
)
from dgml.twolevel import (
    MethodParams,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
)
from dgml import lfa, spectrum
from dgml.spectrum import Cluster
from helpers import deflate_constant, multiset_deviation

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
    cf = lfa.eigenvalues_closed_form_at(np.cos(4 * np.pi * k / J), params)
    expected = np.array([0.0, 0.0, *cf])
    assert multiset_deviation(eigs, expected) < 1e-9


def test_dense_error_equals_symbol_union():
    params = MethodParams(0.66, 1.75, 0.58)
    ops = build_two_level(DiscretizationConfig(8, params.penalty, PER), params)
    dense = spectrum.eigenvalues_dense(error_matrix(ops))
    sym = lfa.error_spectrum_symbols(8, params)
    assert multiset_deviation(dense, sym) < 1e-8


# ---------------------------------------------------------------------------
# clustering


def test_cluster_counts_from_flat_symbol_sweep(clustering_triple):
    # J = 32: sixteen phases, each contributing the pair +/-rho and two
    # structural zeros
    pairs = lfa.eigenvalues_closed_form_at(np.cos(4 * np.pi * np.arange(16) / 32), clustering_triple)
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


def test_analyze_rejects_nan_tol():
    # NaN fails every comparison, so a "tol <= 0" guard would let it through
    # and put each eigenvalue in a cluster of its own
    with pytest.raises(ValueError, match="positive"):
        spectrum.analyze(np.array([0.1, 0.1 + 1e-9, 0.5]), tol=np.nan)


@pytest.mark.parametrize(
    "eigs,bad",
    [([np.nan, np.nan, 1.0], 2), ([complex(0.5, np.nan), 0.2], 1), ([np.inf, -0.3], 1)],
    ids=["nan", "nan-imag", "inf"],
)
def test_non_finite_eigenvalues_raise(eigs, bad):
    # NaN compares false with everything, so it would stand alone as a
    # cluster and turn the radius into nan
    for call in (lambda: spectrum.cluster_eigenvalues(eigs, 1e-6), lambda: spectrum.analyze(eigs)):
        with pytest.raises(ValueError, match=f"^{bad} of {len(eigs)} eigenvalues are not finite"):
            call()


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
    report = spectrum.analyze(spectrum.eigenvalues_dense(error_matrix(ops)), tol=1e-6)
    assert sum(cl.count for cl in report.clusters) == 64
    big = {round(cl.center.real, 5): cl.count for cl in report.clusters if cl.count >= 14}
    assert big[-0.19732] >= 14 and big[0.19732] >= 14 and big[0.0] == 32
    extras = [cl for cl in report.clusters if cl.count < 14]
    assert 1 <= len(extras) <= 6
    assert abs(report.spectral_radius - 0.19732) < 1e-4


def test_2d_dirichlet_largest_modes_sit_in_edge_cells(clustering_triple):
    # the four largest moduli (about 0.67004) each carry at least 90% of
    # their squared eigenvector mass in the edge cells (cell index 0 or J-1
    # on either axis), which hold 60 of the 256 cells; measured 93.5%
    J = 16
    ops = build_two_level(DiscretizationConfig(J, clustering_triple.penalty, DIR, 2), clustering_triple)
    eigs, vectors = np.linalg.eig(error_matrix(ops))
    top = np.argsort(-np.abs(eigs))[:4]
    np.testing.assert_allclose(np.abs(eigs[top]), 0.67004, atol=1e-4)
    edge_1d = np.isin(np.arange(2 * J) // 2, [0, J - 1])  # 2 dofs per cell, cell-major
    edge = (edge_1d[:, None] | edge_1d[None, :]).ravel()  # x-major 2D dofs
    mass = np.abs(vectors[:, top]) ** 2
    assert np.all(mass[edge].sum(axis=0) >= 0.9 * mass.sum(axis=0))


def test_refinement_preserves_cluster_centers(clustering_triple):
    centers = {}
    counts = {}
    for J in (16, 32):
        ops = build_two_level(
            DiscretizationConfig(J, clustering_triple.penalty, PER), clustering_triple
        )
        E = deflate_constant(error_matrix(ops))
        report = spectrum.analyze(spectrum.eigenvalues_dense(E), tol=1e-6)
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
    with pytest.raises(ValueError):
        spectrum.analyze(np.eye(3))


def test_empty_spectrum():
    assert spectrum.cluster_eigenvalues([], 1e-6) == []
    report = spectrum.analyze([])
    assert report.spectral_radius == 0.0
    assert report.clusters == []


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
    assert multiset_deviation(eigs, _dense_error_eigenvalues(cfg, params)) <= 1e-10


ORACLE_SIZES = [(1, J) for J in (2, 4, 8, 16, 32, 64, 128)] + [(2, J) for J in (2, 4, 8, 16)]


@pytest.mark.parametrize("dim,J", ORACLE_SIZES)
@pytest.mark.parametrize("preset", ["classical", "clustering"])
def test_structured_path_matches_dense_oracle(dim, J, preset, classical_params, clustering_triple):
    params = classical_params if preset == "classical" else clustering_triple
    _check_structured(DiscretizationConfig(J, params.penalty, DIR, dim), params)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    size=st.sampled_from([(1, J) for J in (2, 4, 8, 16, 32, 64, 128)] + [(2, 2), (2, 4), (2, 8), (2, 16)]),
    alpha=st.floats(0.0, 1.0),
    penalty=st.floats(1.05, 4.0),
    c=st.floats(0.05, 0.95),
)
# the derandomized draws need not reach 2D J=16, so one seeded draw
# (np.random.default_rng(16), rounded) always runs there
@example(size=(2, 16), alpha=0.567, penalty=2.321, c=0.135)
def test_structured_path_matches_dense_random_triples(size, alpha, penalty, c):
    dim, J = size
    _check_structured(DiscretizationConfig(J, penalty, DIR, dim), MethodParams(alpha, penalty, c))


def test_structured_path_matches_dense_trace_moments_at_the_cap(clustering_triple):
    # at 2D J=32 (ndof 4096, the default cap) a dense eigensolve of E is the
    # slowest oracle; its first two trace moments need only E itself
    cfg = DiscretizationConfig(32, clustering_triple.penalty, DIR, 2)
    eigs = spectrum.two_level_error_eigenvalues(cfg, clustering_triple).real
    E = error_matrix(build_two_level(cfg, clustering_triple))
    np.testing.assert_allclose(eigs.sum(), np.trace(E), rtol=1e-10)
    np.testing.assert_allclose((eigs**2).sum(), np.einsum("ij,ji->", E, E), rtol=1e-10)


def test_2d_dirichlet_spectrum_memory_at_the_cap(clustering_triple):
    # at 2D J=32 the Gram tensor of one Kronecker block alone takes 8 MiB
    cfg = DiscretizationConfig(32, clustering_triple.penalty, DIR, 2)
    tracemalloc.start()
    try:
        spectrum.two_level_error_eigenvalues(cfg, clustering_triple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_error_spectrum_assembles_no_full_operator(clustering_triple):
    # at 2D J = 16 one n x n float64 array takes 8 MiB; the structured
    # Dirichlet path and the periodic symbols stay well below it
    for bc in (DIR, PER):
        cfg = DiscretizationConfig(16, clustering_triple.penalty, bc, 2)
        tracemalloc.start()
        try:
            eigs = spectrum.two_level_error_eigenvalues(cfg, clustering_triple)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eigs.size == cfg.ndof
        assert peak < cfg.ndof**2 * 8, f"{bc.value}: peak {peak} bytes"


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
    assert multiset_deviation(fast, dense) < 1e-8


# ---------------------------------------------------------------------------
# periodic path (Fourier symbols)


def _deflated_dense_error_eigenvalues(cfg, params):
    return spectrum.eigenvalues_dense(deflate_constant(error_matrix(build_two_level(cfg, params))))


PERIODIC_SIZES = [(1, J) for J in (2, 4, 8, 16, 32, 64)] + [(2, J) for J in (2, 4, 8, 16)]


@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.floats(0.0, 1.0),
    penalty=st.floats(1.01, 10.0),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_periodic_path_matches_deflated_dense_oracle(alpha, penalty, c):
    # delta0 stays 1e-2 above 1, where the dense oracle itself is accurate
    params = MethodParams(alpha, penalty, c)
    for dim, J in PERIODIC_SIZES:
        cfg = DiscretizationConfig(J, penalty, PER, dim)
        eigs = spectrum.two_level_error_eigenvalues(cfg, params)
        assert eigs.dtype == complex and eigs.size == cfg.ndof
        dev = multiset_deviation(eigs, _deflated_dense_error_eigenvalues(cfg, params))
        assert dev < 1e-10, f"dim={dim} J={J}: deviation {dev:.2e}"


@pytest.mark.parametrize("dim,J", [(1, 4), (1, 32), (2, 4), (2, 8)])
def test_periodic_pure_coarse_correction_spectrum(dim, J):
    # alpha = 0 leaves the coarse correction I - P A0^+ R A, a projector
    # with J^dim - 1 zero eigenvalues (the coarse space less the constant);
    # with the constant mode deflated the spectrum is J^dim zeros and ones
    # otherwise, also at delta0 -> 1+ and c -> 0+, where the dense periodic
    # eigensolve loses zeros
    params = MethodParams(0.0, np.nextafter(1.0, 2.0), 5e-324)
    eigs = spectrum.two_level_error_eigenvalues(DiscretizationConfig(J, params.penalty, PER, dim), params)
    zeros = np.abs(eigs) < 1e-12
    assert zeros.sum() == J**dim
    assert np.all(np.abs(eigs[~zeros] - 1.0) < 1e-12)


@pytest.mark.parametrize("J", [4, 8, 16, 32])
def test_periodic_2d_radius_is_mesh_independent(J, clustering_triple):
    cfg = DiscretizationConfig(J, clustering_triple.penalty, PER, 2)
    radius = np.abs(spectrum.two_level_error_eigenvalues(cfg, clustering_triple)).max()
    assert abs(radius - 0.598660) < 1e-6
