"""Mixed-precision hybrid linear solver.

A simulated QSVT-based low-accuracy inner solve (block-encoding +
Chebyshev inverse polynomial + signal-processing phases) wrapped in
classical high-precision iterative refinement, with a benchmark CLI for
the convergence and cost experiments.
"""

from .blockenc import (
    BlockEncoding,
    Circuit,
    Gate,
    compile_circuit,
    dilation_encoding,
    fable_encoding,
)
from .invpoly import (
    ChebyshevSeries,
    InverseApproxSpec,
    approx_error_report,
    clenshaw_eval,
    degree_params,
    enforce_qsvt_bounds,
    inverse_cheb_series,
    make_inverse_spec,
)
from .numerics import (
    StateVector,
    Svd,
    condition_number,
    random_with_condition,
    spectral_norm,
    svd,
    two_norm,
)
from .qsp_phases import PhaseVector, find_phases, signal_unitary, verify_phases
from .qsvt_core import QsvtOperator, apply_inverse_state, build_u_phi, extract_block, spectral_oracle
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
