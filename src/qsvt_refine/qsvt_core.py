"""The alternating phase modulation sequence, applied by one sweep.

``_sweep`` applies the sequence

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

right to left to a block of columns, walking the calls in (U, U^H)
pairs with one last U when d is odd. Each block-encoding call is a
matrix product into the other of two buffers; when U is real (the
encoding of a real matrix), a real product with the float view of the
complex block, so nothing is copied. Pt and Pi are both the ancilla-zero
projector of the encodings built here, so a projector phase, e^{i psi}
on the ancilla-zero rows and e^{-i psi} on the rest, is e^{-i psi} times
e^{2 i psi} on the ancilla-zero rows: a step scales those rows, and the
e^{-i psi} of all steps fold into the global phase through their sum
(``math.fsum``, reduced mod 2 pi). ``build_u_phi`` sweeps the identity
columns; ``inverse_block`` sweeps the N ancilla-zero columns once per
backend.

The phases are a (d,) float table in the wx-re00 signal convention of
``qsp_phases``, the package's one convention. On each singular
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
real part of one sweep, and for a real b that of |0>|b> is B b, with B
the real part of the kept block of the N swept columns |0>|e_j>:
``inverse_block`` returns B and rejects a complex encoding,
``apply_inverse_state`` applies it and rejects a complex b. The one
sweep per backend saves simulator time only; a device applies the
sequence to every state, so the cost model still charges ``degree``
block-encoding calls for every inner solve.
"""

from __future__ import annotations

import math

import numpy as np

from .blockenc import BlockEncoding
from .numerics import check_unitary, two_norm

__all__ = [
    "PostSelectionError",
    "build_u_phi",
    "inverse_block",
    "apply_inverse_state",
]


class PostSelectionError(RuntimeError):
    """The ancilla-zero component of the output state vanished."""


def _sweep(encoding: BlockEncoding, phases: np.ndarray,
           columns: np.ndarray) -> np.ndarray:
    """The sequence of the (d,) table ``phases`` applied to every column
    of the dim x m block ``columns``.

    The rightmost call is U and the calls alternate U, U^H leftwards, so
    the loop walks them in (U, U^H) pairs, with one last U step when d is
    odd. Each step is one product into the other buffer and one multiply
    of its ancilla-zero rows by e^{2 i psi}; the e^{-i psi} of every step
    are folded into gamma. An empty table is rejected (the encoding's
    unitarity was checked when it was built and cannot have changed).
    """
    u, n = encoding.unitary, encoding.block_dim
    phi = np.asarray(phases, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError(f"need a nonempty 1-D phase table, got shape {phi.shape}")
    d = phi.shape[0]
    # with the shifts psi_1 = phi_1 - pi/4, psi_j = phi_j - pi/2, the row
    # factor e^{2 i psi_j} is -e^{2 i phi_j}, times i more for j = 1, and
    # i^d e^{-i pi/4} e^{-i sum psi} is -i (-1)^d e^{-i sum phi}
    row_factors = -np.exp(2j * phi)
    row_factors[0] *= 1j
    gamma = -1j * (-1) ** d * np.exp(-1j * math.remainder(math.fsum(phi), 2.0 * math.pi))
    bufs = (np.array(columns, dtype=complex, order="C"),
            np.empty(np.shape(columns), dtype=complex))
    first, second = bufs if np.iscomplexobj(u) else (buf.view(float) for buf in bufs)
    first_head, second_head = (buf[:n] for buf in bufs)
    u_h = u.conj().T
    pairs = iter(row_factors[::-1].tolist())
    for u_factor, u_h_factor in zip(pairs, pairs):  # a U step, then a U^H step
        u.dot(first, out=second)
        np.multiply(second_head, u_factor, out=second_head)
        u_h.dot(second, out=first)
        np.multiply(first_head, u_h_factor, out=first_head)
    if d % 2:  # zip dropped the last factor, row_factors[0], a U step's
        u.dot(first, out=second)
        np.multiply(second_head, row_factors[0], out=second_head)
    return gamma * bufs[d % 2]


# No solver path builds the full operator; kept while perfbench's tracer wraps
# it, and the tests check the sequence through it.
def build_u_phi(encoding: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """The full sequence operator U_Phi of the phase table ``phases``,
    checked unitary; its data block (ancilla-zero rows and columns) is
    ``u_phi[:n, :n]``.

    For a real odd target on a real matrix A = W Sigma V^H, the real part
    of that block is the singular value transform W P(Sigma) V^H (V P(Sigma)
    V^H for an even one); the imaginary part is the polynomial completion,
    which ``inverse_block`` drops (see module notes).
    """
    u_phi = _sweep(encoding, phases, np.eye(encoding.unitary.shape[0]))
    check_unitary(u_phi, 1e-10)
    return u_phi


def inverse_block(encoding: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """The read-only real N x N block that ``apply_inverse_state`` applies:
    the real part of the kept block of the +Phi sequence, which is the
    average of the +Phi and -Phi sequences (see module notes).

    ``encoding`` must be real and encode A^H (callers pass the adjoint),
    and the phase count must be odd. The N ancilla-zero columns are swept
    once and checked orthonormal to 1e-10 * dim, which bounds the
    normalization defect of the swept state of every unit b.
    """
    u, n = encoding.unitary, encoding.block_dim
    if np.iscomplexobj(u) and np.any(u.imag):
        raise ValueError("qsvt_full is real-only: the encoding is complex")
    if np.size(phases) % 2 == 0:
        raise ValueError(f"inverse application expects an odd phase count, got {np.size(phases)}")
    swept = _sweep(encoding, phases, np.eye(u.shape[0], n))
    check_unitary(swept, 1e-10)
    block = np.ascontiguousarray(swept[:n].real)
    block.flags.writeable = False
    return block


def apply_inverse_state(block: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the inverse-polynomial QSVT, as the real N x N ``block`` of
    ``inverse_block``, to the real unit vector ``b`` of shape ``(N,)``; a
    complex ``b`` is read as its real part, and rejected if its imaginary
    part is nonzero.

    Returns the kept component renormalized, a real unit vector, and its
    squared norm (the success probability).
    """
    b = np.asarray(b)
    n = block.shape[1]
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match block ({n},)")
    if np.iscomplexobj(b) and np.any(b.imag):
        raise ValueError("qsvt_full is real-only: the right-hand side is complex")
    norm = two_norm(b)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: ||b|| = {norm!r}")
    raw = block.dot(b.real)

    weight = two_norm(raw)
    if weight**2 < 1e-14:
        raise PostSelectionError(f"post-selection failure: success probability {weight**2:.3e}")
    return raw / weight, weight**2
