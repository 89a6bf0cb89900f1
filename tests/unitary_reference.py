"""The library's unitarity check as it was before its finiteness scan moved
behind the Frobenius fast-accept.

``check_unitary`` here runs ``as_matrix`` (shape and finiteness) first,
then forms U^H U - I against ``np.eye`` and takes its Frobenius norm with
``np.linalg.norm``. The library's check must give the same verdict, the
same exception type and the same message on every input.
"""

import numpy as np

from qsvt_refine.numerics import as_matrix


def check_unitary(u, tol_factor):
    """Raise if ``u`` is not unitary, or for a tall ``u`` if its columns
    are not orthonormal, to ``tol_factor * rows``."""
    u = as_matrix(u)
    rows, cols = u.shape
    if rows < cols:
        raise ValueError(f"unitary must be square or tall, got {u.shape}")
    gram_defect = u.conj().T @ u - np.eye(cols)
    if np.linalg.norm(gram_defect) <= tol_factor * rows:
        return
    defect = np.linalg.norm(gram_defect, 2)
    if defect > tol_factor * rows:
        kind = "is not unitary" if rows == cols else "columns are not orthonormal"
        raise ValueError(f"matrix {kind}: ||U^H U - I|| = {defect:.3e}")
