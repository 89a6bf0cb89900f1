"""The library's block sweep as it was before it walked the calls in
(U, U^H) pairs.

``stepwise_sweep`` takes one step per loop pass, picking the call and the
buffers by the step's parity. It is the same arithmetic in the same
order, so ``qsvt_core._sweep`` must give the same bits.
"""

import math

import numpy as np


def stepwise_sweep(encoding, phases, columns):
    u, n = encoding.unitary, encoding.block_dim
    phi = np.asarray(phases, dtype=float)
    d = phi.shape[0]
    row_factors = -np.exp(2j * phi)
    row_factors[0] *= 1j
    gamma = -1j * (-1) ** d * np.exp(-1j * math.remainder(math.fsum(phi), 2.0 * math.pi))
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
