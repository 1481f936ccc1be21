"""Two-level preconditioning with discontinuous interpolation for SIPG
discretizations of the Poisson equation: assembly, Fourier analysis of the
error operator, clustering-parameter optimization, and solver experiments."""

__version__ = "0.1.0"

from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    SizeCapError,
    assemble,
    assemble_1d,
    assemble_2d,
    dense_cap,
    source_vector,
)
from .twolevel import (
    MethodParams,
    SingularCoarseError,
    TwoLevelOperators,
    apply_preconditioner,
    build_two_level,
    error_matrix,
    preconditioner_matrix,
    prolongation_matrix,
    smoother_scale,
)
from .lfa import (
    DegenerateParameterError,
    eigenvalues_closed_form,
    eigenvalues_closed_form_at,
    eigenvalues_over_theta,
    error_spectrum_symbols,
    multiset_deviation,
    symbol_error,
    symbol_system,
    symbol_radius,
)
from .optimize import (
    ClusteringSolution,
    NewtonDivergenceError,
    clustering_parameters,
    clustering_residuals,
    clustering_system_residuals,
    optimize_1d_alpha,
    optimize_1d_alpha_delta,
    optimize_2d,
    solve_clustering_system,
)
from .solver import SolveReport, gmres, stationary_solve
from .spectrum import (
    Cluster,
    EigensolveError,
    SpectrumReport,
    analyze,
    cluster_eigenvalues,
    eigenvalues_dense,
    two_level_error_eigenvalues,
)
