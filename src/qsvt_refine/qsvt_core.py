"""The alternating phase modulation sequence, applied on singular pairs.

The circuit applies the sequence

    odd d:  e^{i psi_1 (2 Pt - I)} U  prod_j [ e^{i psi_2j (2 Pi - I)} U^H
                                               e^{i psi_2j+1 (2 Pt - I)} U ]
    even d: prod_j [ e^{i psi_2j-1 (2 Pi - I)} U^H  e^{i psi_2j (2 Pt - I)} U ]

of d calls to a block-encoding U of a matrix M, with Pt and Pi its
ancilla-zero projector. For the exact dilation of M = W S V^H (the one
``blockenc`` builds), U maps |0>|v_k> and |1>|w_k> to |0>|w_k> and
|1>|v_k> by the 2x2 reflection [[x, sqrt(1-x^2)], [sqrt(1-x^2), -x]] at
the singular value x = s_k, and a projector phase is diagonal in both
pairs of bases. So the sequence is N independent 2x2 products, one per
singular pair (Gilyen, Su, Low & Wiebe, arXiv:1806.01838). With the
shifts psi_1 = phi_1 - pi/4, psi_j = phi_j - pi/2 (j >= 2) and the global
phase i^d e^{-i pi/4}, each is the wx-re00 signal product M(x) of
``qsp_phases`` for the phase table phi, so the kept block of the N
ancilla-zero columns is W p(S) V^H, with p(x) = M(x)[0,0], and each
swept column k has squared norm |p(s_k)|^2 + |q(s_k)|^2, q = M(x)[0,1].
``qsp_phases.signal_row`` gives both at the N singular values at once,
and a backend forms no 2N x 2N operator. In the same bases the whole
sequence is, pair by pair, the 2x2 M(x) diag(1, -i); ``build_u_phi``
assembles the full U_Phi from it. The tests compare both against the
dense sweep of the encoding (``tests/sweep_reference.py``).

For real targets the single sequence realizes P(x) plus an order-one
imaginary completion (|M00(1)| = 1 is structural). The real-part
construction (Gilyen, Su, Low & Wiebe, arXiv:1806.01838) averages the
sequences for +Phi and -Phi, which cancels it. When U and b are real,
the -Phi sequence's kept block is the complex conjugate of the +Phi one:
negating Phi maps psi_j to -psi_j - pi (j >= 2), a conjugated factor
times -1, and psi_1 to -psi_1 - pi/2, a conjugated factor times -i on
the ancilla-zero rows, and with the global phase conjugated as well the
constants multiply to 1. The average is therefore the real part of one
sequence, and for a real b that of |0>|b> is B b, with
B = W Re p(S) V^H: ``inverse_block`` returns B and rejects complex
factors, ``apply_inverse_state`` applies it and rejects a complex b.
Forming B once per backend saves simulator time only; a device applies
the sequence to every state, so the cost model still charges ``degree``
block-encoding calls for every inner solve.
"""

from __future__ import annotations

import numpy as np

from .numerics import check_unitary, two_norm
from .qsp_phases import signal_row

__all__ = [
    "PostSelectionError",
    "build_u_phi",
    "inverse_block",
    "apply_inverse_state",
]


class PostSelectionError(RuntimeError):
    """The ancilla-zero component of the output state vanished."""


def _pair_rows(u, vh, xs, phases) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) of ``signal_row`` at the singular values ``xs``, with u and vh
    checked orthonormal to 1e-10 * N and every pair's product unitary,
    | |p|^2 + |q|^2 - 1 | <= 1e-10 * 2N: together these bound the unitarity
    defect of the sequence as the dense check of the swept columns did."""
    check_unitary(u, 1e-10)
    check_unitary(vh, 1e-10)
    p, q = signal_row(phases, xs)
    defect = float(np.max(np.abs(p.real**2 + p.imag**2 + q.real**2 + q.imag**2 - 1.0)))
    if defect > 1e-10 * 2 * len(xs):
        raise ValueError(f"swept columns are not orthonormal: max | |p|^2 + |q|^2 - 1 | "
                         f"= {defect:.3e}")
    return p, q


def build_u_phi(factors, phases: np.ndarray) -> np.ndarray:
    """The full 2N x 2N sequence operator U_Phi of the (d,) table ``phases``
    on the dilation of M = W S V^H, ``factors = (w, s, vh)``, ||M|| <= 1;
    its data block is ``u_phi[:n, :n]``, W p(S) V^H.

    For odd d, U_Phi maps (|0>|v_k>, |1>|w_k>) to (|0>|w_k>, |1>|v_k>),
    for even d to themselves, by M(s_k) diag(1, -i) (module notes). No
    solver path calls it: it is the whole operator the tests check, and
    a layer perfbench's tracer names.
    """
    w, s, vh = factors
    v = vh.conj().T
    p, q = _pair_rows(w, vh, s, phases)
    outs = (w, v) if np.size(phases) % 2 else (v, w)
    pairs = ((p, -1j * q), (-np.conj(q), -1j * np.conj(p)))
    return np.block([[(out * g) @ inp.conj().T for g, inp in zip(row, (v, w))]
                     for out, row in zip(outs, pairs)])


def inverse_block(factors, phases: np.ndarray) -> np.ndarray:
    """The read-only real N x N block that ``apply_inverse_state`` applies,
    for the SVD ``factors = (u, s, vh)`` of a real A = U S V^H.

    It is the real part of the kept block of the +Phi sequence on the
    dilation of A^H / sigma_max = V (S / sigma_max) U^H, the average of
    the +Phi and -Phi sequences (see module notes): V Re p(S / sigma_max)
    U^H, the real part of ``build_u_phi((vh^T, s / s[0], u^T),
    phases)[:n, :n]``. The phase count must be odd and the factors real;
    they and the pair products get ``build_u_phi``'s checks.
    """
    u, s, vh = factors
    if np.size(phases) % 2 == 0:
        raise ValueError(f"inverse application expects an odd phase count, got {np.size(phases)}")
    if any(np.iscomplexobj(f) and np.any(f.imag) for f in (u, vh)):
        raise ValueError("qsvt_full is real-only: the factors are complex")
    u, vh = np.real(u), np.real(vh)
    p, _ = _pair_rows(u, vh, s / s[0], phases)
    block = (vh.T * p.real) @ u.T
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
