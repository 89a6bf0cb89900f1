"""Dense linear algebra shared by every layer.

Matrices and state vectors are plain numpy arrays, real or complex. This
module holds the one SVD the package uses (LAPACK through
``numpy.linalg.svd``, returned as numpy's own economy ``(u, s, vh)``),
the norms and condition numbers built on it and the seeded random test
matrices with a prescribed spectrum.
Everything here is a pure function over its inputs; arrays are never
mutated in place.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "svd",
    "singular_value_ratio",
    "two_norm",
    "random_with_condition",
    "as_matrix",
    "check_unitary",
    "require_power_of_two",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D ndarray without copying when possible."""
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def require_power_of_two(n: int, what: str) -> int:
    """The qubit count log2(n); raise unless ``n`` is a power of two."""
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def check_unitary(u: np.ndarray, tol_factor: float) -> None:
    """Raise if ``u`` is not unitary, or for a tall ``u`` if its columns
    are not orthonormal, to ``tol_factor * rows``.

    The defect is the spectral norm of U^H U - I. Its Frobenius norm
    bounds it from above and costs no SVD, so a matrix whose Frobenius
    defect is within the tolerance passes at once; any other gets the
    spectral norm.
    """
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


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy singular value decomposition ``(u, s, vh)`` with
    ``a = (u * s) @ vh`` (LAPACK ``gesdd`` via numpy).

    For an m x n input ``u`` is m x k and ``vh`` is k x n with
    k = min(m, n); ``u`` and ``vh.conj().T`` have orthonormal columns and
    ``s`` is nonincreasing. Real input gives real factors.

    Raises
    ------
    numpy.linalg.LinAlgError
        If LAPACK fails to converge.
    """
    return np.linalg.svd(as_matrix(a), full_matrices=False)


def two_norm(vec) -> float:
    """Euclidean norm of a vector, bit for bit ``np.linalg.norm``: a float64
    vector takes numpy's own steps without its dispatch (a ravel in memory
    order, which copies a strided view as numpy does, then dot and sqrt)."""
    v = np.asarray(vec)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.dtype != np.float64:
        return float(np.linalg.norm(v))
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def singular_value_ratio(singular_values) -> float:
    """sigma_max / sigma_min of nonincreasing singular values.

    Raises
    ------
    ValueError
        If the matrix is numerically singular
        (sigma_min <= 1e-14 * sigma_max).
    """
    smax, smin = float(singular_values[0]), float(singular_values[-1])
    if smin <= 1e-14 * smax:
        raise ValueError("matrix numerically singular")
    return smax / smin


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random real orthogonal matrix: QR of a standard normal draw.

    The R diagonal signs are fixed to make the factor unique per draw.
    """
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_with_condition(n: int, kappa: float, seed: int) -> np.ndarray:
    """Seeded random real matrix with prescribed condition number.

    Built as ``W @ diag(sigma) @ V.T`` with singular values log-spaced
    from 1 down to 1/kappa (so the spectral norm is 1 and the matrix is
    ready for block-encoding) and W, V random orthogonal. Deterministic
    per seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")
    rng = np.random.default_rng(seed)
    sigma = np.geomspace(1.0, 1.0 / kappa, n)
    w = _random_orthogonal(n, rng)
    v = _random_orthogonal(n, rng)
    return (w * sigma) @ v.T
