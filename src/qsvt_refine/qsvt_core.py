"""The alternating phase modulation sequence, applied by one sweep.

``_sweep`` applies the sequence

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

right to left to a block of columns: each block-encoding call is a
matrix product and each projector phase an elementwise multiply by
precomputed factors e^{+-i psi}, as Pt and Pi are both the ancilla-zero
projector of the encodings built here. The phase table holds one
sequence shared by every column or one sequence per column.
``build_u_phi`` sweeps the identity columns; ``apply_inverse_state``
sweeps the state |0>|b> and forms no 2N x 2N operator.

The phases come in the wx-re00 signal convention. On each singular
subspace the product reduces to a phase/reflection sequence, which
matches the signal product after shifting psi_1 = phi_1 - pi/4,
psi_j = phi_j - pi/2 (j >= 2) and multiplying by the global phase
i^d e^{-i pi/4}; the sweep folds both in, so the extracted block
literally carries the signal polynomial on the singular values.

For real targets the single sequence realizes P(x) plus an order-one
imaginary completion (|M00(1)| = 1 is structural), so the state-level
inverse application averages the sequences for phases +Phi and -Phi,
which cancels the completion exactly; both ride through one sweep as
the two columns of one block. The residual imaginary norm is asserted
below 1e-6 to make any convention drift loud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding
from .invpoly import ChebyshevSeries, cheb_eval
from .numerics import StateVector, check_unitary, svd
from .qsp_phases import CONVENTION_TAG, PhaseVector

__all__ = [
    "QsvtOperator",
    "PostSelectionError",
    "build_u_phi",
    "extract_block",
    "spectral_oracle",
    "apply_inverse_state",
]

_IMAG_JUNK_TOL = 1e-6


class PostSelectionError(RuntimeError):
    """The ancilla-zero component of the output state vanished."""


@dataclass(frozen=True)
class QsvtOperator:
    """Assembled sequence operator plus its provenance."""

    u_phi: np.ndarray
    encoding: BlockEncoding
    phases: PhaseVector
    parity: str

    @property
    def be_calls(self) -> int:
        """Block-encoding invocations in the sequence (= degree)."""
        return self.phases.degree


def _check_sequence(encoding: BlockEncoding, phases: PhaseVector) -> None:
    """Checks every sequence needs before it is swept (the encoding's
    unitarity was checked when it was built and cannot have changed)."""
    if phases.convention_tag != CONVENTION_TAG:
        raise ValueError(
            f"phase convention {phases.convention_tag!r} does not match "
            f"{CONVENTION_TAG!r}"
        )
    if phases.degree < 1:
        raise ValueError("need at least one phase")


def _sweep(encoding: BlockEncoding, phases: np.ndarray,
           columns: np.ndarray) -> np.ndarray:
    """The sequence applied to the dim x m block ``columns``.

    ``phases`` is a (d,) table shared by every column or a (d, m) table
    with one sequence per column. The rightmost call is U, the calls
    alternate U, U^H leftwards and each is followed by its projector
    phase: e^{i psi} on the ancilla-zero rows, e^{-i psi} on the rest.
    """
    u = encoding.unitary
    uh = u.conj().T
    n = encoding.block_dim
    d = phases.shape[0]
    psi = np.array(phases, dtype=float)
    psi[0] -= np.pi / 4.0
    psi[1:] -= np.pi / 2.0
    gamma = (1j) ** d * np.exp(-1j * np.pi / 4.0)
    # factors[k] is dim x 1 (shared) or dim x m: it broadcasts against the
    # columns, so the identity sweep holds no d copies of the block
    psi = psi.reshape(d, 1, -1)
    factors = np.concatenate(
        [np.repeat(np.exp(1j * psi), n, axis=1), np.repeat(np.exp(-1j * psi), n, axis=1)],
        axis=1,
    )

    out = np.array(columns, dtype=complex)
    for k in range(d - 1, -1, -1):
        out = (u if (d - 1 - k) % 2 == 0 else uh) @ out
        out *= factors[k]
    return gamma * out


def build_u_phi(encoding: BlockEncoding, phases: PhaseVector) -> QsvtOperator:
    """Assemble the alternating phase modulation sequence operator."""
    _check_sequence(encoding, phases)
    u_phi = _sweep(encoding, phases.phases, np.eye(encoding.unitary.shape[0]))
    check_unitary(u_phi, 1e-10)
    return QsvtOperator(
        u_phi=u_phi,
        encoding=encoding,
        phases=phases,
        parity="odd" if phases.degree % 2 else "even",
    )


def extract_block(op: QsvtOperator) -> np.ndarray:
    """Data block (ancilla-zero rows and columns) of the sequence.

    For a real odd target on a real matrix, the real part of this block
    equals the spectral oracle; the imaginary part is the polynomial
    completion and is dealt with at the state level (see module notes).
    """
    n = op.encoding.block_dim
    return op.u_phi[:n, :n]


def spectral_oracle(a, series: ChebyshevSeries) -> np.ndarray:
    """Ground-truth singular value transform: W P(Sigma) V^H for odd
    series, V P(Sigma) V^H for even. No circuits involved."""
    if series.parity == "none":
        raise ValueError("spectral_oracle requires a definite-parity series")
    fac = svd(a)
    vals = cheb_eval(series, fac.singular_values)
    if series.parity == "odd":
        return (fac.u * vals) @ fac.v.conj().T
    return (fac.v * vals) @ fac.v.conj().T


def apply_inverse_state(encoding: BlockEncoding, phases: PhaseVector,
                        series: ChebyshevSeries,
                        b_state: StateVector) -> tuple[StateVector, float]:
    """Apply the inverse-polynomial QSVT to a normalized state.

    ``encoding`` must encode A^H (callers pass the adjoint); the sequence
    is applied to |0>_a (x) |b>, the ancilla-zero component is kept, and
    the sequences for +Phi and -Phi, swept together as two columns, are
    averaged so the output is the real polynomial's action. Returns the
    renormalized data register and the squared norm of the kept
    component (post-selection success probability).
    """
    b_state.require_normalized()
    if series.parity != "odd":
        raise ValueError("inverse application expects an odd series")
    if phases.degree != series.degree:
        raise ValueError(
            f"phase count {phases.degree} does not match series degree {series.degree}"
        )
    n = encoding.block_dim
    if b_state.dim != n:
        raise ValueError(f"state dimension {b_state.dim} does not match block {n}")

    _check_sequence(encoding, phases)
    dim = encoding.unitary.shape[0]
    full = np.zeros((dim, 2), dtype=complex)
    full[:n] = b_state.amplitudes[:, None]
    swept = _sweep(encoding, np.stack([phases.phases, -phases.phases], axis=1), full)
    defect = float(np.max(np.abs(np.linalg.norm(swept, axis=0) ** 2 - 1.0)))
    if defect > 1e-10 * dim:
        raise ValueError(f"swept state is not normalized: |norm^2 - 1| = {defect:.3e}")
    raw = 0.5 * (swept[:n, 0] + swept[:n, 1])

    weight = float(np.linalg.norm(raw))
    if weight**2 < 1e-14:
        raise PostSelectionError(
            f"post-selection failure: success probability {weight**2:.3e}"
        )
    junk = float(np.linalg.norm(raw.imag)) / weight
    if junk > _IMAG_JUNK_TOL:
        raise ValueError(
            f"imaginary component {junk:.3e} of the averaged state exceeds "
            f"{_IMAG_JUNK_TOL}; phase/operator conventions disagree"
        )
    out = raw.real / np.linalg.norm(raw.real)
    return StateVector(out.astype(complex)), weight**2
