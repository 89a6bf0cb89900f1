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

``find_phases`` runs Newton's method on the symmetric phases (Dong, Lin,
Ni & Wang, arXiv:2307.12468; start of Dong, Meng, Whaley & Lin,
arXiv:2002.11649), one square linear solve a step.
"""

from __future__ import annotations

import numpy as np

from .invpoly import BoundedSeries

__all__ = [
    "MAX_DEGREE",
    "PhaseFindingError",
    "signal_row",
    "realized_values",
    "find_phases",
    "verify_phases",
]

MAX_DEGREE = 500  # largest target degree find_phases accepts
_MAX_STEPS = 50  # Newton steps find_phases takes at most
_INTERIOR_MARGIN = 1e-8  # targets must satisfy max|P| <= 1 - this
_NODE_TOL = 1e-10  # node residual find_phases must reach
_VERIFY_POINTS = 10_000  # equispaced points of [-1, 1] verify_phases checks


class PhaseFindingError(RuntimeError):
    """The Newton iteration failed to reach the requested node residual."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"phase finding stalled at node residual {residual:.3e} "
            f"(requested {tol:.1e}); consider shrinking the polynomial norm"
        )


class _SignalRows:
    """M(x)[0,0] on fixed nodes ``xs`` for d phases (a call), and
    d(M00)/d(phi_j) at the phases of the last call (``gradient``).

    Tracks only the first row (f_0, f_1) of the running prefix product and
    the first column (b_0, b_1) of the suffix products; the gradient of the
    (0,0) entry is i * (f_{j-1,0} b_{j,0} - f_{j-1,1} b_{j,1}). A call
    runs the forward pass and keeps its arrays; ``gradient`` runs the
    backward pass from them, so an iterate whose gradient is never used
    costs the forward pass alone.

    The arrays are allocated once and every pass writes them in place, six
    ufunc calls a recurrence step and no temporaries: phase finding calls
    this once per Newton step, and arrays allocated afresh on each call
    are page-faulted in again each time, a cost that grows with the
    host's load. Complex products round differently with their operands
    swapped, so the operand order of each product is part of the result.
    The returned arrays are overwritten by the next pass; the gradient's
    arrays are allocated by the first ``gradient`` call.
    """

    def __init__(self, xs: np.ndarray, d: int):
        nx = xs.size
        self.xs = xs
        self.s = np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
        self.a00, self.a01, self.a10, self.a11 = (
            np.empty((d, nx), dtype=complex) for _ in range(4))
        self.f0, self.f1 = (np.empty((d + 1, nx), dtype=complex) for _ in range(2))
        self.t0, self.t1 = np.empty(nx, dtype=complex), np.empty(nx, dtype=complex)
        self.b0 = self.b1 = self.grad = self.tmp = None

    def __call__(self, phases: np.ndarray) -> np.ndarray:
        mul, add = np.multiply, np.add
        a00, a01, a10, a11 = self.a00, self.a01, self.a10, self.a11
        f0, f1, t0, t1 = self.f0, self.f1, self.t0, self.t1
        e = np.exp(1j * phases)
        np.outer(e, self.xs, out=a00)
        mul(1j, np.outer(e, self.s, out=a01), out=a01)
        mul(1j, np.outer(np.conj(e), self.s, out=a10), out=a10)
        np.outer(np.conj(e), self.xs, out=a11)

        f0[0], f1[0] = 1.0, 0.0
        for p0, p1, n0, n1, c00, c01, c10, c11 in zip(f0, f1, f0[1:], f1[1:], a00, a01, a10, a11):
            add(mul(p0, c00, t0), mul(p1, c10, t1), n0)
            add(mul(p0, c01, t0), mul(p1, c11, t1), n1)
        return f0[-1]

    def gradient(self) -> np.ndarray:
        mul, add = np.multiply, np.add
        a00, a01, a10, a11 = self.a00, self.a01, self.a10, self.a11
        f0, f1, t0, t1 = self.f0, self.f1, self.t0, self.t1
        if self.grad is None:
            self.b0, self.b1 = np.empty_like(f0), np.empty_like(f0)
            self.grad, self.tmp = np.empty_like(a00), np.empty_like(a00)
        b0, b1 = self.b0, self.b1
        b0[-1], b1[-1] = 1.0, 0.0
        for q0, q1, n0, n1, c00, c01, c10, c11 in zip(b0[:0:-1], b1[:0:-1], b0[-2::-1], b1[-2::-1],
                                                       a00[::-1], a01[::-1], a10[::-1], a11[::-1]):
            add(mul(c00, q0, t0), mul(c01, q1, t1), n0)
            add(mul(c10, q0, t0), mul(c11, q1, t1), n1)
        grad = mul(f0[:-1], b0[:-1], out=self.grad)
        np.subtract(grad, mul(f1[:-1], b1[:-1], out=self.tmp), out=grad)
        return mul(1j, grad, out=grad)


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


def realized_values(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Re M(x)[0,0] of the phase table ``phases`` on an array of points."""
    return signal_row(phases, xs)[0].real


def find_phases(target: BoundedSeries) -> np.ndarray:
    """The phase table, a (d,) float array, realizing ``target.series`` in
    the wx-re00 convention.

    ``target`` is the series' bound check (``check_bound``): its checked
    peak times its rescale factor must stay 1e-8 below 1, and its
    evaluator gives the node targets, so no second grid is built here.

    Newton's method on the symmetric phases (Dong, Lin, Ni & Wang,
    arXiv:2307.12468). The unknowns are the m = ceil((d+1)/2) reduced
    phases r, unfolded as phi_1 = 2 r_0 and phi_{j+1} = r_{min(j, d-j)}
    for j = 1..d-1: the symmetric sequence (r_0, r_1, ..., r_1, r_0) of
    d+1 phases with its trailing e^{i r_0 Z} moved to the front, which
    leaves M(x)[0,0] unchanged. Re M(x)[0,0] is matched to the target at
    the m positive Chebyshev nodes cos((2k-1) pi / (4m)), so the folded
    Jacobian is square and each step is one linear solve. The iteration
    starts from r = (pi/4, 0, ..., 0), the symmetric start of Dong, Meng,
    Whaley & Lin (arXiv:2002.11649), steps while the max node residual
    falls (at most ``_MAX_STEPS`` times) and keeps the best iterate.

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
    if peak > 1.0 - _INTERIOR_MARGIN:
        raise ValueError(f"max|P| = {peak} too close to 1; rescale (bound_series) first")

    m = (d + 2) // 2
    xs = np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (4 * m))
    want = target.evaluate(xs)
    rows = _SignalRows(xs, d)
    j = np.arange(d)  # phases = w * r[idx]
    idx, w = np.minimum(j, d - j), np.where(j == 0, 2.0, 1.0)

    r = np.zeros(m)
    r[0] = np.pi / 4.0
    best, resid = r, np.inf
    for _ in range(_MAX_STEPS):
        err = rows(w * r[idx]).real - want
        size = float(np.max(np.abs(err)))
        if not size < resid:
            break
        best, resid = r, size
        jac_t = np.zeros((m, m))  # row k sums the gradient rows of the phases tied to r_k
        np.add.at(jac_t, idx, w[:, None] * rows.gradient().real)
        r = r - np.linalg.solve(jac_t.T, err)

    if resid > _NODE_TOL:
        raise PhaseFindingError(resid, _NODE_TOL)
    return w * best[idx]


def verify_phases(phases: np.ndarray, target: BoundedSeries) -> float:
    """Max of |Re M(x)[0,0] - P(x)| over ``_VERIFY_POINTS`` points spanning [-1, 1],
    with P(x) from ``target.evaluate``, the grid ``find_phases`` matched."""
    xs = np.linspace(-1.0, 1.0, _VERIFY_POINTS)
    return float(np.max(np.abs(realized_values(phases, xs) - target.evaluate(xs))))
