"""Phase factors for quantum signal processing.

A phase table is a plain float array phi_1..phi_d in the package's one
convention, ``wx-re00``: the 2x2 signal sequence is

    M(x) = prod_{j=1..d} [ e^{i phi_j Z} W(x) ],
    W(x) = [[x, i sqrt(1-x^2)], [i sqrt(1-x^2), x]],

with the real part of M(x)[0, 0] carrying the target polynomial. The
sequence of qsvt_core reduces to exactly this product on each singular
pair of its encoding, so a table found here drives it as it is, and
``signal_row``, the first row of M(x) at an array of points, is what
qsvt_core evaluates at the singular values and ``verify_phases`` on its
check grid.

``find_phases`` runs the fixed-point iteration on the symmetric phases
(Dong, Lin, Ni & Wang, "Infinite quantum signal processing",
arXiv:2209.10162; start of Dong, Meng, Whaley & Lin, arXiv:2002.11649):
one ``signal_row`` pass and one closed-form step a step, with no Jacobian
and no linear solve.
"""

from __future__ import annotations

import numpy as np

from .invpoly import QSVT_PEAK, BoundedSeries

__all__ = [
    "MAX_DEGREE",
    "PhaseFindingError",
    "signal_row",
    "find_phases",
    "verify_phases",
]

MAX_DEGREE = 500  # largest target degree find_phases accepts
_MAX_STEPS = 200  # fixed-point steps find_phases takes at most
_NODE_TOL = 1e-10  # node residual find_phases must reach
_VERIFY_POINTS = 10_000  # equispaced points of [-1, 1] verify_phases checks


class PhaseFindingError(RuntimeError):
    """The fixed-point iteration failed to reach the requested node residual."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"phase finding stalled at node residual {residual:.3e} "
            f"(requested {tol:.1e}); consider shrinking the polynomial norm"
        )


def signal_row(phases: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row (p, q) of M(x) for the phase table ``phases`` at an
    array of points ``xs`` in [-1, 1]: p = M(x)[0,0], q = M(x)[0,1].

    Each factor e^{i phi Z} W(x) is the SU(2) element [[a, b], [-b*, a*]]
    with a = e^{i phi} x, b = i e^{i phi} s, s = sqrt(1-x^2), and so is a
    product of two, with first row (a1 a2 - b1 b2*, a1 b2 + b1 a2*). The
    factors (f, g) of each neighbouring pair multiply to the first row
    (e^{i(f+g)} x^2 - e^{i(f-g)} s^2, (e^{i(f+g)} + e^{i(f-g)}) i x s),
    and a last unpaired factor joins as it is; then the rows are
    multiplied pairwise, neighbours in order, a round's odd one out
    carried to the next: ceil(log2 d) rounds of whole-array products in
    all, with no loop over d.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise ValueError("need a nonempty phase table")
    xs = np.asarray(xs, dtype=float)
    s2 = np.maximum(0.0, 1.0 - xs * xs)
    ixs = 1j * xs * np.sqrt(s2)
    f, g = phases[:-1:2, None], phases[1::2, None]
    plus, minus = np.exp(1j * (f + g)), np.exp(1j * (f - g))
    a, b = plus * (xs * xs) - minus * s2, (plus + minus) * ixs
    if phases.size % 2:
        e = np.exp(1j * phases[-1])
        a, b = np.vstack((a, e * xs)), np.vstack((b, 1j * e * np.sqrt(s2)))
    while len(a) > 1:
        pa, pb, qa, qb = a[:-1:2], b[:-1:2], a[1::2], b[1::2]
        ra, rb = pa * qa - pb * np.conj(qb), pa * qb + pb * np.conj(qa)
        a, b = (ra, rb) if len(a) % 2 == 0 else (np.vstack((ra, a[-1])), np.vstack((rb, b[-1])))
    return a[0], b[0]


def find_phases(target: BoundedSeries) -> np.ndarray:
    """The phase table, a (d,) float array, realizing ``target.series`` in
    the wx-re00 convention.

    ``target`` is the series' bound check (``check_bound``): its checked
    peak times its rescale factor must not exceed ``QSVT_PEAK`` (0.9),
    where the iteration converges, and its evaluator gives the node
    targets, so no second grid is built here.

    The fixed-point iteration on the symmetric phases (Dong, Lin, Ni &
    Wang, arXiv:2209.10162). The unknowns are the m = ceil((d+1)/2)
    reduced phases r, unfolded as phi_1 = 2 r_0 and phi_{j+1} =
    r_{min(j, d-j)} for j = 1..d-1: the symmetric sequence (r_0, r_1, ...,
    r_1, r_0) of d+1 phases with its trailing e^{i r_0 Z} moved to the
    front, which leaves M(x)[0,0] unchanged. Re M(x)[0,0] is matched to the
    target at the m positive Chebyshev nodes x_k = cos((2k-1) pi / (4m)).
    Each step is r <- r - J0^{-1} err, with J0 = -T R D the folded
    Jacobian at the start r = (pi/4, 0, ..., 0) of Dong, Meng, Whaley & Lin
    (arXiv:2002.11649): T = T_{2i+par}(x_k), R reverses the reduced phases
    and D = diag(2, ..., 2, 2 or 1) counts them (the middle one of an even
    d appears once). On these nodes T^T T is diagonal, so J0^{-1} err =
    -(1/m) R T^T err for either parity: a product and a sum, with no BLAS
    or LAPACK call, so the phases do not depend on the BLAS thread count.
    It steps while the max node residual falls (at most ``_MAX_STEPS`` =
    200 times; the inverse series at kappa 4-10 take 57-70) and keeps the
    best iterate.

    Raises
    ------
    PhaseFindingError
        If the node residual never reaches ``_NODE_TOL`` (carries the residual).
    """
    if target.series.parity == "none":
        raise ValueError("find_phases requires a definite-parity target")
    d = target.series.degree
    if d < 1:
        raise ValueError("target degree must be >= 1")
    if d > MAX_DEGREE:
        raise ValueError(
            f"degree {d} exceeds the find_phases cap ({MAX_DEGREE}); "
            "use the spectral-oracle backend for larger runs"
        )
    peak = target.peak * target.rescale
    if peak > QSVT_PEAK * (1.0 + 1e-9):
        raise ValueError(f"max|P| = {peak} above {QSVT_PEAK}; rescale (bound_series) first")

    m = (d + 2) // 2
    angles = (2 * np.arange(1, m + 1) - 1) * np.pi / (4 * m)
    xs = np.cos(angles)
    want = target.evaluate(xs)
    j = np.arange(d)  # phases = w * r[idx]
    idx, w = np.minimum(j, d - j), np.where(j == 0, 2.0, 1.0)
    cheb_r = np.cos(np.outer(angles, 2 * np.arange(m)[::-1] + d % 2))  # T R

    r = np.zeros(m)
    r[0] = np.pi / 4.0
    best, resid = r, np.inf
    for _ in range(_MAX_STEPS):
        err = signal_row(w * r[idx], xs)[0].real - want
        size = float(np.max(np.abs(err)))
        if not size < resid:
            break
        best, resid = r, size
        r = r + (cheb_r * err[:, None]).sum(axis=0) / m

    if resid > _NODE_TOL:
        raise PhaseFindingError(resid, _NODE_TOL)
    return w * best[idx]


def verify_phases(phases: np.ndarray, target: BoundedSeries) -> float:
    """Max of |Re M(x)[0,0] - P(x)| over ``_VERIFY_POINTS`` points spanning [-1, 1],
    with P(x) from ``target.evaluate``, the grid ``find_phases`` matched."""
    xs = np.linspace(-1.0, 1.0, _VERIFY_POINTS)
    return float(np.max(np.abs(signal_row(phases, xs)[0].real - target.evaluate(xs))))
