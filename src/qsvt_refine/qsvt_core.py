"""The alternating phase modulation sequence, applied by one sweep.

``_sweep`` applies the sequence

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

right to left to a block of columns: each block-encoding call is a
matrix product and each projector phase an elementwise multiply by
factors e^{+-i psi}, as Pt and Pi are both the ancilla-zero projector of
the encodings built here. The factors depend only on the phase table and
the encoding's two dimensions, so ``_factor_table`` builds them once per
table (memoized on its bytes) and every later sweep reuses them
read-only. When U is real (the encoding of a real matrix), each call is
a real product with the float view of the complex block, whose rows hold
the real and imaginary parts side by side, so nothing is copied.
``build_u_phi`` sweeps the identity columns; ``apply_inverse_state``
sweeps the state |0>|b> and forms no 2N x 2N operator.

The phases come in the wx-re00 signal convention. On each singular
subspace the product reduces to a phase/reflection sequence, which
matches the signal product after shifting psi_1 = phi_1 - pi/4,
psi_j = phi_j - pi/2 (j >= 2) and multiplying by the global phase
gamma = i^d e^{-i pi/4}; the sweep folds both in, so the extracted block
literally carries the signal polynomial on the singular values.

For real targets the single sequence realizes P(x) plus an order-one
imaginary completion (|M00(1)| = 1 is structural). The real-part
construction (Gilyen, Su, Low & Wiebe, arXiv:1806.01838) averages the
sequences for +Phi and -Phi, which cancels it. When U and b are real,
the -Phi sweep's kept block is the complex conjugate of the +Phi one:
negating Phi maps psi_j to -psi_j - pi (j >= 2), a conjugated factor
times -1, and psi_1 to -psi_1 - pi/2, a conjugated factor times -i on
the ancilla-zero rows, and with gamma conjugated as well the constants
multiply to gamma^2 (-1)^(d-1) (-i) = 1. The average is therefore the
real part of one sweep, which is what ``apply_inverse_state`` keeps; it
rejects a complex encoding or b at the boundary.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .blockenc import BlockEncoding
from .invpoly import ChebyshevSeries, cheb_eval
from .numerics import check_unitary, svd
from .qsp_phases import CONVENTION_TAG, PhaseVector

__all__ = [
    "PostSelectionError",
    "build_u_phi",
    "spectral_oracle",
    "apply_inverse_state",
]


class PostSelectionError(RuntimeError):
    """The ancilla-zero component of the output state vanished."""


def _check_sequence(phases: PhaseVector) -> None:
    """Checks every sequence needs before it is swept (the encoding's
    unitarity was checked when it was built and cannot have changed)."""
    if phases.convention_tag != CONVENTION_TAG:
        raise ValueError(
            f"phase convention {phases.convention_tag!r} does not match "
            f"{CONVENTION_TAG!r}"
        )
    if phases.degree < 1:
        raise ValueError("need at least one phase")


@functools.lru_cache(maxsize=16)
def _factor_table(data: bytes, block_dim: int, dim: int) -> tuple[tuple[np.ndarray, ...], complex]:
    """The per-step factors of the (d,) float64 phase table whose bytes
    are ``data``, as read-only dim x 1 views in the order the sweep
    applies them, and the global phase gamma. Keyed on content, not
    identity, so equal tables from any caller share one entry.

    A table takes d x dim x 16 B: 245 KB for an inner solve at N=32,
    d=239; at most 1 MB at the degree cap (500) and the CLI's qubit guard
    (dim 128), so 16 MB for all 16 entries.
    """
    psi = np.frombuffer(data).reshape(-1, 1, 1).copy()
    d = psi.shape[0]
    psi[0] -= np.pi / 4.0
    psi[1:] -= np.pi / 2.0
    gamma = (1j) ** d * np.exp(-1j * np.pi / 4.0)
    # each step's factors broadcast against the columns, so the identity
    # sweep holds no d copies of the block
    table = np.empty((d, dim, 1), dtype=complex)
    table[:, :block_dim], table[:, block_dim:] = np.exp(1j * psi), np.exp(-1j * psi)
    table.flags.writeable = False
    return tuple(table[::-1]), gamma


def _sweep(encoding: BlockEncoding, phases: np.ndarray,
           columns: np.ndarray) -> np.ndarray:
    """The sequence of the (d,) table ``phases`` applied to every column
    of the dim x m block ``columns``.

    The rightmost call is U, the calls alternate U, U^H leftwards and
    each is followed by its projector phase: e^{i psi} on the
    ancilla-zero rows, e^{-i psi} on the rest. Each step is one product
    into a preallocated buffer and one multiply by the step's memoized
    factors.
    """
    u = encoding.unitary
    psi = np.ascontiguousarray(phases, dtype=float)
    factors, gamma = _factor_table(psi.tobytes(), encoding.block_dim, u.shape[0])
    out = np.array(columns, dtype=complex, order="C")
    tmp = np.empty_like(out)
    src, dst = (out, tmp) if np.iscomplexobj(u) else (out.view(float), tmp.view(float))
    for mat, factor in zip(itertools.cycle((u, u.conj().T)), factors):
        mat.dot(src, out=dst)
        np.multiply(tmp, factor, out=out)
    return gamma * out


def build_u_phi(encoding: BlockEncoding, phases: PhaseVector) -> np.ndarray:
    """The full sequence operator U_Phi, checked unitary; its data block
    (ancilla-zero rows and columns) is ``u_phi[:n, :n]``.

    For a real odd target on a real matrix, the real part of that block
    equals the spectral oracle; the imaginary part is the polynomial
    completion and is dealt with at the state level (see module notes).
    """
    _check_sequence(phases)
    u_phi = _sweep(encoding, phases.phases, np.eye(encoding.unitary.shape[0]))
    check_unitary(u_phi, 1e-10)
    return u_phi


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
                        b: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the inverse-polynomial QSVT to the real unit vector ``b`` of
    shape ``(block_dim,)``; a complex ``b`` or encoding is rejected.

    ``encoding`` must encode A^H (callers pass the adjoint) and the phase
    count must be odd; the +Phi sequence is applied to |0>_a (x) |b> and
    the real part of the ancilla-zero component is kept, which is the
    average of the +Phi and -Phi sequences, i.e. the real polynomial's
    action (see module notes). Returns that action renormalized, a real
    unit vector, and its squared norm (the success probability).
    """
    b = np.asarray(b)
    n, u = encoding.block_dim, encoding.unitary
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match block ({n},)")
    if np.any(np.imag(b)):
        raise ValueError("qsvt_full is real-only: the right-hand side is complex")
    if np.iscomplexobj(u) and np.any(u.imag):
        raise ValueError("qsvt_full is real-only: the encoding is complex")
    if abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: ||b|| = {float(np.linalg.norm(b))!r}")
    _check_sequence(phases)
    if phases.degree % 2 == 0:
        raise ValueError(f"inverse application expects an odd phase count, got {phases.degree}")

    full = np.zeros((u.shape[0], 1), dtype=complex)
    full[:n, 0] = b
    swept = _sweep(encoding, phases.phases, full)[:, 0]
    defect = abs(float(np.linalg.norm(swept)) ** 2 - 1.0)
    if defect > 1e-10 * u.shape[0]:
        raise ValueError(f"swept state is not normalized: |norm^2 - 1| = {defect:.3e}")
    raw = swept[:n].real

    weight = float(np.linalg.norm(raw))
    if weight**2 < 1e-14:
        raise PostSelectionError(f"post-selection failure: success probability {weight**2:.3e}")
    return raw / weight, weight**2
