"""Block-encodings of arbitrary matrices.

A ``BlockEncoding`` is a unitary whose top-left (all ancillas |0>) block
equals ``A / alpha``; the QSVT sequence applies to any such encoding. The
package builds one: the exact one-ancilla unitary dilation, alpha = 1,
from the matrix's own SVD (``dilation_encoding``). A real matrix gets a
real (float64) dilation. The ``qsvt_full`` backend forms no dilation: its
sequence acts on each singular pair of this one as a 2x2 product
(``qsvt_core``), and the dense sweep of the encoding that it reproduces
is a test reference.

Qubit convention: qubit 0 is the most significant tensor factor, ancilla
qubits come first, so basis index = ancilla_bits * 2^n + data_bits and
the encoded block is literally the top-left submatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, check_unitary, require_power_of_two, svd

__all__ = [
    "BlockEncoding",
    "dilation_encoding",
]


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary U with contract ``block(U) = A / alpha``.

    The block is taken on the ancilla-zero subspace on both sides; with
    the ancillas as the most significant qubits that subspace is the
    leading 2^n basis states. ``unitary`` is checked once, at
    construction, and stored, in the dtype it was given, as a read-only
    view of a private copy.
    """

    unitary: np.ndarray
    data_qubits: int
    ancilla_qubits: int
    alpha: float

    def __post_init__(self):
        u = as_matrix(self.unitary)
        dim = 2 ** (self.data_qubits + self.ancilla_qubits)
        if u.shape != (dim, dim):
            raise ValueError(f"unitary shape {u.shape} inconsistent with qubit counts")
        if not self.alpha >= 1.0 - 1e-12:
            raise ValueError("alpha must be >= 1")
        # a read-only view of a private copy: numpy refuses to make a view of
        # a locked base writeable again, so the array checked here is the one
        # every later use sees and no consumer has to check it again
        owner = u.copy()
        check_unitary(owner, 1e-11)
        owner.flags.writeable = False
        object.__setattr__(self, "unitary", owner.view())

    @property
    def block_dim(self) -> int:
        return 2**self.data_qubits

    def block(self) -> np.ndarray:
        """Top-left data block, equal to the encoded matrix over alpha."""
        n = self.block_dim
        return self.unitary[:n, :n]


def dilation_encoding(a) -> BlockEncoding:
    """Exact one-ancilla dilation of a square matrix with norm <= 1. A real
    matrix gets a real (float64) dilation, a complex one a complex
    dilation; alpha = 1. Callers holding a matrix with norm > 1 pre-scale it.

    U = [[A, sqrt(I - A A^H)], [sqrt(I - A^H A), -A^H]], with the matrix
    square roots taken through the SVD of A and 1 - sigma^2 clamped at
    zero when it dips within 1e-14 below; the four blocks are written into
    one 2N x 2N array.
    """
    a = as_matrix(a).astype(complex if np.iscomplexobj(a) else float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("dilation_encoding requires a square matrix")
    n_qubits = require_power_of_two(a.shape[0], "matrix dimension")
    u, s, vh = svd(a)
    if s[0] > 1.0 + 1e-9:
        raise ValueError(f"pre-scale required: spectral norm {s[0]} exceeds 1")
    gap = 1.0 - s**2
    if np.any(gap < -1e-14):
        raise ValueError("singular values exceed 1 beyond the clamping guard")
    root = np.sqrt(np.maximum(gap, 0.0))
    n = a.shape[0]
    unitary = np.empty((2 * n, 2 * n), dtype=a.dtype)
    unitary[:n, :n] = a
    unitary[:n, n:] = (u * root) @ u.conj().T
    unitary[n:, :n] = (vh.conj().T * root) @ vh
    unitary[n:, n:] = -a.conj().T
    return BlockEncoding(unitary=unitary, data_qubits=n_qubits, ancilla_qubits=1, alpha=1.0)
