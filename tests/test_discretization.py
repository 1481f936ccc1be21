import numpy as np
import pytest

from dgml.discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    SizeCapError,
    assemble_1d,
    assemble_2d,
    dense_cap,
    source_vector,
)
from helpers import sipg_1d_loop

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def test_periodic_row_sums_vanish():
    A = assemble_1d(DiscretizationConfig(4, 2.0, PER))
    np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12 * 16)


def test_periodic_interior_row_values():
    J, delta0 = 4, 2.0
    A = assemble_1d(DiscretizationConfig(J, delta0, PER))
    h2inv = J * J
    for i in range(2 * J):
        partner = i - 1 if i % 2 == 0 else i + 1
        row = A[i]
        assert row[i] == delta0 * h2inv
        assert row[partner % (2 * J)] == (1 - delta0) * h2inv
        assert row[(i - 2) % (2 * J)] == -0.5 * h2inv
        assert row[(i + 2) % (2 * J)] == -0.5 * h2inv
        assert np.count_nonzero(row) == 4


@pytest.mark.parametrize("bc", [PER, DIR])
@pytest.mark.parametrize("J", [2, 4, 6, 8, 64, 1024])
def test_assemble_1d_matches_stencil_loop(bc, J):
    # n = 4 periodic folds the +-2 couplings onto one entry, which must add up
    for delta0 in (2.0, 1.37):
        A = assemble_1d(DiscretizationConfig(J, delta0, bc))
        assert np.array_equal(A, sipg_1d_loop(J, delta0, bc))


def test_dirichlet_boundary_blocks():
    J, delta0 = 8, 2.5
    A = assemble_1d(DiscretizationConfig(J, delta0, DIR)) / (J * J)
    n = 2 * J
    np.testing.assert_allclose(A[:2, :2], [[2 * delta0, 0.0], [0.0, delta0]])
    np.testing.assert_allclose(A[n - 2 :, n - 2 :], [[delta0, 0.0], [0.0, 2 * delta0]])
    assert A[0, 2] == -0.5
    assert A[1, 2] == 1 - delta0
    assert A[1, 3] == -0.5


@pytest.mark.parametrize("bc", [PER, DIR])
@pytest.mark.parametrize("J,delta0", [(4, 2.0), (8, 1.3), (16, 2.7)])
def test_symmetry(bc, J, delta0):
    A = assemble_1d(DiscretizationConfig(J, delta0, bc))
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()


def test_symmetry_2d():
    A = assemble_2d(DiscretizationConfig(4, 2.0, DIR, 2))
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()


@pytest.mark.parametrize("delta0", [2.0, 1.5169783001470802])
def test_dirichlet_positive_definite(delta0):
    A = assemble_1d(DiscretizationConfig(32, delta0, DIR))
    assert np.linalg.eigvalsh(A).min() > 0


def test_periodic_kernel():
    J = 8
    A = assemble_1d(DiscretizationConfig(J, 2.0, PER))
    assert np.abs(A @ np.ones(2 * J)).max() <= 1e-12 * J * J


def test_2d_kronecker_sum_entrywise():
    # independent entrywise check against the definition of the sum,
    # on a random sample of index tuples (the full loop is O(n^4))
    cfg = DiscretizationConfig(4, 1.8, PER, 2)
    A1 = assemble_1d(cfg.with_dim(1))
    A2 = assemble_2d(cfg)
    n = A1.shape[0]
    rng = np.random.default_rng(0)
    for _ in range(500):
        i1, j1, i2, j2 = rng.integers(0, n, 4)
        expected = A1[i1, i2] * (j1 == j2) + (i1 == i2) * A1[j1, j2]
        assert A2[i1 * n + j1, i2 * n + j2] == expected


def test_2d_eigenvalues_are_pairwise_sums():
    cfg = DiscretizationConfig(2, 2.0, PER, 2)
    e1 = np.sort(np.linalg.eigvalsh(assemble_1d(cfg.with_dim(1))))
    e2 = np.sort(np.linalg.eigvalsh(assemble_2d(cfg)))
    pairwise = np.sort((e1[:, None] + e1[None, :]).ravel())
    np.testing.assert_allclose(e2, pairwise, atol=1e-9)


def test_2d_dirichlet_positive_definite():
    A = assemble_2d(DiscretizationConfig(8, 2.0, DIR, 2))
    assert np.linalg.eigvalsh(A).min() > 0


def test_interior_entries_scale_with_h():
    a = assemble_1d(DiscretizationConfig(8, 2.0, PER))
    b = assemble_1d(DiscretizationConfig(16, 2.0, PER))
    i, j = 8, 9  # interior entries at matching stencil offsets
    assert b[i, j] == 4.0 * a[i, j]
    assert b[i, i] == 4.0 * a[i, i]


def test_config_validation():
    with pytest.raises(ConfigError):
        DiscretizationConfig(3, 2.0)
    with pytest.raises(ConfigError):
        DiscretizationConfig(0, 2.0)
    with pytest.raises(ConfigError):
        DiscretizationConfig(4, 1.0)
    with pytest.raises(ConfigError):
        DiscretizationConfig(4, 0.5)
    with pytest.raises(ConfigError, match="finite"):
        DiscretizationConfig(4, np.inf)
    with pytest.raises(ConfigError):
        DiscretizationConfig(4, 2.0, DIR, 3)
    with pytest.raises(ConfigError):
        assemble_1d(DiscretizationConfig(4, 2.0, DIR, 2))
    with pytest.raises(ConfigError):
        assemble_2d(DiscretizationConfig(4, 2.0, DIR, 1))


def test_dense_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        assemble_2d(DiscretizationConfig(34, 2.0, DIR, 2))
    monkeypatch.setenv("DGML_DENSE_CAP", "100000")
    assert dense_cap() == 100000
    A = assemble_2d(DiscretizationConfig(34, 2.0, DIR, 2))
    assert A.shape == ((2 * 34) ** 2, (2 * 34) ** 2)
    monkeypatch.setenv("DGML_DENSE_CAP", "16")
    with pytest.raises(SizeCapError):
        assemble_2d(DiscretizationConfig(4, 2.0, DIR, 2))
    assert assemble_1d(DiscretizationConfig(8, 2.0, PER)).shape == (16, 16)
    for bc in (DIR, PER):
        with pytest.raises(SizeCapError):
            assemble_1d(DiscretizationConfig(10, 2.0, bc))


def test_source_vector_is_ones():
    np.testing.assert_array_equal(source_vector(DiscretizationConfig(4, 2.0, DIR)), np.ones(8))
    np.testing.assert_array_equal(
        source_vector(DiscretizationConfig(2, 2.0, DIR, 2)), np.ones(16)
    )


@pytest.mark.parametrize("dim,J", [(1, 2), (1, 16), (2, 4)])
def test_periodic_source_vector_is_consistent(dim, J):
    # the periodic operator annihilates constants, so a solvable load has
    # zero mean; it must not vanish
    cfg = DiscretizationConfig(J, 2.0, PER, dim)
    b = source_vector(cfg)
    assert b.shape == (cfg.ndof,)
    assert abs(b.sum()) < 1e-12 * b.size
    assert np.ptp(b) > 1.0
    A = assemble_1d(cfg) if dim == 1 else assemble_2d(cfg)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


def test_constant_source_solution_peak():
    # the interior stencil applied to smooth samples approximates -u''/2,
    # so the all-ones load solves -u'' = 2 whose peak is 1/4
    peaks = {}
    for J in (32, 64):
        A = assemble_1d(DiscretizationConfig(J, 2.0, DIR))
        u = np.linalg.solve(A, source_vector(DiscretizationConfig(J, 2.0, DIR)))
        peaks[J] = np.abs(u).max()
    assert abs(peaks[32] - 0.25) < 3e-3
    assert abs(peaks[64] - 0.25) < 1.5e-3
