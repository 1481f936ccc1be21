"""Two-level preconditioning with discontinuous interpolation for SIPG
discretizations of the Poisson equation: assembly, Fourier analysis of the
error operator, clustering-parameter optimization, and solver experiments.

Names are imported from their modules (discretization, twolevel, lfa,
optimize, solver, spectrum, cli); the package root holds only the version."""

__version__ = "0.1.0"
