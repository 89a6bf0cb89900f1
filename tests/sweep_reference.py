"""The dense sweep of the alternating phase modulation sequence: the
reference the library's singular-pair application (``qsvt_core``) is
checked against.

``sweep`` applies the sequence

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

of a block-encoding right to left to a block of columns, walking the
calls in (U, U^H) pairs with one last U when d is odd. Each call is a
matrix product into the other of two buffers; when U is real (the
encoding of a real matrix), a real product with the float view of the
complex block, so nothing is copied. Pt and Pi are both the ancilla-zero
projector of the encodings here, so a projector phase, e^{i psi} on the
ancilla-zero rows and e^{-i psi} on the rest, is e^{-i psi} times
e^{2 i psi} on the ancilla-zero rows: a step scales those rows, and the
e^{-i psi} of all steps fold into the global phase through their sum
(``math.fsum``, reduced mod 2 pi). With the shifts psi_1 = phi_1 - pi/4,
psi_j = phi_j - pi/2 (j >= 2) and the global phase i^d e^{-i pi/4}, the
extracted block carries the wx-re00 signal polynomial of the table phi
on the singular values.

``build_u_phi`` sweeps the identity columns into the full operator
U_Phi; ``swept_block`` sweeps the N ancilla-zero columns and returns the
real part of their kept block, which ``qsvt_core.inverse_block`` forms
from the SVD. ``stepwise_sweep`` is ``sweep`` as it was before it walked
the calls in pairs: one step per loop pass, picking the call and the
buffers by the step's parity, the same arithmetic in the same order, so
the two must give the same bits.
"""

import math

import numpy as np

from qsvt_refine.numerics import check_unitary


def _row_factors(phases):
    # with the shifts above, the row factor e^{2 i psi_j} is -e^{2 i phi_j},
    # times i more for j = 1, and i^d e^{-i pi/4} e^{-i sum psi} is
    # -i (-1)^d e^{-i sum phi}
    phi = np.asarray(phases, dtype=float)
    d = phi.shape[0]
    row_factors = -np.exp(2j * phi)
    row_factors[0] *= 1j
    gamma = -1j * (-1) ** d * np.exp(-1j * math.remainder(math.fsum(phi), 2.0 * math.pi))
    return row_factors, gamma


def sweep(encoding, phases, columns):
    """The sequence of the (d,) table ``phases`` applied to every column
    of the dim x m block ``columns``; an empty table is rejected."""
    u, n = encoding.unitary, encoding.block_dim
    phi = np.asarray(phases, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError(f"need a nonempty 1-D phase table, got shape {phi.shape}")
    d = phi.shape[0]
    row_factors, gamma = _row_factors(phi)
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


def build_u_phi(encoding, phases):
    """The full sequence operator U_Phi, checked unitary; its data block
    (ancilla-zero rows and columns) is ``u_phi[:n, :n]``.

    For a real odd target on a real matrix A = W Sigma V^H, the real part
    of that block is the singular value transform W P(Sigma) V^H (V P(Sigma)
    V^H for an even one); the imaginary part is the polynomial completion.
    """
    u_phi = sweep(encoding, phases, np.eye(encoding.unitary.shape[0]))
    check_unitary(u_phi, 1e-10)
    return u_phi


def swept_block(encoding, phases):
    """The real N x N part of the kept block of the N ancilla-zero columns
    swept once, those columns checked orthonormal to 1e-10 * dim: for the
    dilation of A^H / sigma_max, what ``inverse_block(svd(A),
    sequence_evaluator(phases))`` forms from the singular pairs. The encoding must be real and the phase
    count odd."""
    u, n = encoding.unitary, encoding.block_dim
    if np.iscomplexobj(u) and np.any(u.imag):
        raise ValueError("qsvt_full is real-only: the encoding is complex")
    if np.size(phases) % 2 == 0:
        raise ValueError(f"inverse application expects an odd phase count, got {np.size(phases)}")
    swept = sweep(encoding, phases, np.eye(u.shape[0], n))
    check_unitary(swept, 1e-10)
    return np.ascontiguousarray(swept[:n].real)


def stepwise_sweep(encoding, phases, columns):
    u, n = encoding.unitary, encoding.block_dim
    d = np.shape(phases)[0]
    row_factors, gamma = _row_factors(phases)
    bufs = (np.array(columns, dtype=complex, order="C"),
            np.empty(np.shape(columns), dtype=complex))
    views = bufs if np.iscomplexobj(u) else tuple(buf.view(float) for buf in bufs)
    heads = tuple(buf[:n] for buf in bufs)
    calls = (u, u.conj().T)
    for k, factor in enumerate(row_factors[::-1].tolist()):
        src, dst = k % 2, 1 - k % 2
        calls[src].dot(views[src], out=views[dst])
        np.multiply(heads[dst], factor, out=heads[dst])
    return gamma * bufs[d % 2]
