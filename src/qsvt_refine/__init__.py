"""Mixed-precision hybrid linear solver.

A simulated QSVT-based low-accuracy inner solve (block-encoding +
Chebyshev inverse polynomial + signal-processing phases) wrapped in
classical high-precision iterative refinement, with a benchmark CLI for
the convergence and cost experiments.
"""

from .blockenc import BlockEncoding, dilation_encoding
from .invpoly import (
    BoundedSeries,
    ChebyshevSeries,
    bound_series,
    cheb_eval,
    degree_params,
    inverse_cheb_series,
)
from .numerics import (
    random_with_condition,
    svd,
    two_norm,
)
from .qsp_phases import find_phases, verify_phases
from .qsvt_core import apply_inverse_state, build_u_phi, inverse_block
from .refine import (
    CostReport,
    NoisyOracleBackend,
    QsvtBackend,
    RefinementTrace,
    SolverBackend,
    SpectralOracleBackend,
    contraction_check,
    denormalize,
    iterative_refine,
    noisy_oracle_backend,
    qsvt_backend,
    solve_once,
    spectral_oracle_backend,
)

__version__ = "0.1.0"
