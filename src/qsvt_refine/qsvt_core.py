"""Alternating phase modulation sequences and their spectral ground truth.

``build_u_phi`` assembles the full-space operator

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

from phases found in the wx-re00 signal convention. Pt and Pi are both
the ancilla-zero projector of the encodings built here, so one
projector phase operator serves both. On each singular
subspace the product above reduces to a phase/reflection sequence, which
matches the signal product after shifting psi_1 = phi_1 - pi/4,
psi_j = phi_j - pi/2 (j >= 2) and multiplying by the global phase
i^d e^{-i pi/4}; both corrections are folded in here so the extracted
block literally carries the signal polynomial on the singular values.

For real targets the single sequence realizes P(x) plus an order-one
imaginary completion (|M00(1)| = 1 is structural), so the state-level
inverse application averages the sequences for phases +Phi and -Phi,
which cancels the completion exactly; the residual imaginary norm is
asserted below 1e-6 to make any convention drift loud.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockenc import BlockEncoding, projector_phase_operator
from .invpoly import ChebyshevSeries, clenshaw_eval
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
    polynomial: Optional[ChebyshevSeries] = None

    @property
    def be_calls(self) -> int:
        """Block-encoding invocations in the sequence (= degree)."""
        return self.phases.degree


def build_u_phi(encoding: BlockEncoding, phases: PhaseVector,
                polynomial: Optional[ChebyshevSeries] = None) -> QsvtOperator:
    """Assemble the alternating phase modulation sequence operator."""
    if phases.convention_tag != CONVENTION_TAG:
        raise ValueError(
            f"phase convention {phases.convention_tag!r} does not match "
            f"{CONVENTION_TAG!r}"
        )
    d = phases.degree
    if d < 1:
        raise ValueError("need at least one phase")
    u = encoding.unitary
    check_unitary(u, 1e-11)

    psi = phases.phases.copy()
    psi[0] -= np.pi / 4.0
    psi[1:] -= np.pi / 2.0
    gamma = (1j) ** d * np.exp(-1j * np.pi / 4.0)

    def phase(phi):
        return projector_phase_operator(phi, encoding)

    factors: list[np.ndarray] = []
    if d % 2 == 1:
        factors += [phase(psi[0]), u]
        for j in range(1, (d - 1) // 2 + 1):
            factors += [phase(psi[2 * j - 1]), u.conj().T, phase(psi[2 * j]), u]
    else:
        for j in range(1, d // 2 + 1):
            factors += [phase(psi[2 * j - 2]), u.conj().T, phase(psi[2 * j - 1]), u]

    u_phi = factors[0]
    for f in factors[1:]:
        u_phi = u_phi @ f
    u_phi = gamma * u_phi
    check_unitary(u_phi, 1e-10)
    return QsvtOperator(
        u_phi=u_phi,
        encoding=encoding,
        phases=phases,
        parity="odd" if d % 2 else "even",
        polynomial=polynomial,
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
    vals = clenshaw_eval(series, fac.singular_values)
    if series.parity == "odd":
        return (fac.u * vals) @ fac.v.conj().T
    return (fac.v * vals) @ fac.v.conj().T


def apply_inverse_state(encoding: BlockEncoding, phases: PhaseVector,
                        series: ChebyshevSeries,
                        b_state: StateVector) -> tuple[StateVector, float]:
    """Apply the inverse-polynomial QSVT to a normalized state.

    ``encoding`` must encode A^H (callers pass the adjoint); the sequence
    is applied to |0>_a (x) |b>, the ancilla-zero component is kept, and
    the sequences for +Phi and -Phi are averaged so the output is the
    real polynomial's action. Returns the renormalized data register and
    the squared norm of the kept component (post-selection success
    probability).
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

    dim = encoding.unitary.shape[0]
    full = np.zeros(dim, dtype=complex)
    full[:n] = b_state.amplitudes
    kept_plus = (build_u_phi(encoding, phases, series).u_phi @ full)[:n]
    kept_minus = (build_u_phi(encoding, phases.negated(), series).u_phi @ full)[:n]
    raw = 0.5 * (kept_plus + kept_minus)

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
