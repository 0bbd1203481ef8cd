"""kernel_forge: positive-definite kernels, singular measures, and the
factorizations that tie them to Gaussian processes.

The package is organized around one structural fact: a kernel K on a set X
is positive definite exactly when it factors as K(x, y) = <k_x, k_y>
through feature functions k_x living in some L², and every such
factorization disintegrates the kernel's reproducing space.  Modules:

- `kernels`: kernel families, sample sets, Gram and cross-Gram matrices.
- `factorize`: Cholesky (closed-form and generic), inverse Grams and Gram
  solves, and two independent eigenvalue routes (shifted alternating
  Cholesky, round-robin Jacobi); all of them take a complex Hermitian
  matrix as it is, n x n.
- `rkhs`: projections, Dirac-mass membership tests along chains (one
  Cholesky factor per chain), induced graphs, minimal-norm interpolation.
- `measures`: the scale-4 Cantor measure, its cells, CDF (`cdf`, one
  vectorized call), Fourier spectrum, and quadrature.
- `gpsim`: deterministic Gaussian simulation, factorization/duality
  checks, quadratic variation.
- `sampling`: Parseval/frame diagnostics, reconstruction, and sawtooth
  witnesses against density of translates.
- `fileio` / `cli`: stable file formats and the `kernel-forge` command.
"""

from .errors import (
    CellMisalignmentError,
    ChainError,
    DomainMismatchError,
    DuplicatePointError,
    KernelForgeError,
    NotIncreasingError,
    NotPositiveDefiniteError,
    OutOfDomainError,
    SingularMatrixError,
)
from .factorize import (
    CholeskyFactor,
    SpectralResult,
    alt_cholesky_eigs,
    brownian_cholesky_closed_form,
    cholesky,
    inverse_gram,
    jacobi_eigs,
)
from .gpsim import (
    DualityReport,
    FactorizationPair,
    PathEnsemble,
    QuadraticVariationReport,
    RngSeedPolicy,
    duality_check,
    empirical_covariance,
    ito_synthesize,
    pair_ex1,
    pair_ex2,
    pair_ex3,
    quadratic_variation,
)
from .kernels import (
    FAMILIES,
    GramMatrix,
    IntervalSet,
    KernelSpec,
    SampleSet,
    as_sample_set,
    brownian_line,
    brownian_min,
    cantor_product,
    cross_gram,
    gram,
    kernel_diagonal,
    overlap,
    shannon,
    szego,
    validate_psd,
)
from .measures import (
    MeasureModel,
    PartitionCells,
    SpectrumSet,
    cantor4,
    cdf,
    cells,
    fourier_gram,
    generating_function,
    integrate,
    lambda4,
    lebesgue,
    measure_of_intervals,
    mu4_fourier,
)
from .rkhs import (
    DeltaMembershipReport,
    InducedGraph,
    PiecewiseLinearSpline,
    delta_membership,
    induced_graph,
    laplacian_apply,
    min_norm_interpolant,
    project,
)
from .sampling import (
    FrameReport,
    SawtoothWitness,
    frame_bounds,
    frame_reconstruct,
    parseval_check,
    sawtooth_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CellMisalignmentError",
    "ChainError",
    "CholeskyFactor",
    "DeltaMembershipReport",
    "DomainMismatchError",
    "DualityReport",
    "DuplicatePointError",
    "FAMILIES",
    "FactorizationPair",
    "FrameReport",
    "GramMatrix",
    "InducedGraph",
    "IntervalSet",
    "KernelForgeError",
    "KernelSpec",
    "MeasureModel",
    "NotIncreasingError",
    "NotPositiveDefiniteError",
    "OutOfDomainError",
    "PartitionCells",
    "PathEnsemble",
    "PiecewiseLinearSpline",
    "QuadraticVariationReport",
    "RngSeedPolicy",
    "SampleSet",
    "SawtoothWitness",
    "SingularMatrixError",
    "SpectralResult",
    "SpectrumSet",
    "alt_cholesky_eigs",
    "as_sample_set",
    "brownian_cholesky_closed_form",
    "brownian_line",
    "brownian_min",
    "cantor4",
    "cantor_product",
    "cdf",
    "cells",
    "cholesky",
    "cross_gram",
    "delta_membership",
    "duality_check",
    "empirical_covariance",
    "fourier_gram",
    "frame_bounds",
    "frame_reconstruct",
    "generating_function",
    "gram",
    "induced_graph",
    "integrate",
    "inverse_gram",
    "ito_synthesize",
    "jacobi_eigs",
    "kernel_diagonal",
    "lambda4",
    "laplacian_apply",
    "lebesgue",
    "measure_of_intervals",
    "min_norm_interpolant",
    "mu4_fourier",
    "overlap",
    "pair_ex1",
    "pair_ex2",
    "pair_ex3",
    "parseval_check",
    "project",
    "quadratic_variation",
    "sawtooth_witness",
    "shannon",
    "szego",
    "validate_psd",
    "__version__",
]
