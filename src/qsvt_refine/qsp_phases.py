"""Phase factors for quantum signal processing.

Convention (tag ``wx-re00``): the 2x2 signal sequence is

    M(x) = prod_{j=1..d} [ e^{i phi_j Z} W(x) ],
    W(x) = [[x, i sqrt(1-x^2)], [i sqrt(1-x^2), x]],

with the real part of M(x)[0, 0] carrying the target polynomial. The
full-space operators of qsvt_core reduce to exactly this product on each
singular-value subspace, so one tag guards both layers against silent
convention drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize

from .invpoly import ChebyshevSeries, cheb_eval, max_abs_on_interval

__all__ = [
    "CONVENTION_TAG",
    "PhaseVector",
    "PhaseFindingError",
    "signal_unitary",
    "realized_values",
    "find_phases",
    "verify_phases",
]

CONVENTION_TAG = "wx-re00"

MAX_DEGREE = 500  # largest target degree find_phases accepts
_MAX_EVALS = 100_000
_INTERIOR_MARGIN = 1e-8  # targets must satisfy max|P| <= 1 - this


class PhaseFindingError(RuntimeError):
    """Optimizer failed to reach the requested node residual."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"phase optimization stalled at node residual {residual:.3e} "
            f"(requested {tol:.1e}); consider shrinking the polynomial norm"
        )


@dataclass(frozen=True)
class PhaseVector:
    """QSVT phase factors phi_1..phi_d plus the convention they assume."""

    phases: np.ndarray
    convention_tag: str = CONVENTION_TAG

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))

    @property
    def degree(self) -> int:
        return self.phases.size

    def to_json(self) -> str:
        return json.dumps(
            {"convention_tag": self.convention_tag, "phases": self.phases.tolist()}
        )

    @classmethod
    def from_json(cls, payload: str) -> "PhaseVector":
        raw = json.loads(payload)
        return cls(np.asarray(raw["phases"], dtype=float), raw["convention_tag"])


def signal_unitary(x: float, phases: PhaseVector) -> np.ndarray:
    """The 2x2 signal product at point ``x`` (|x| <= 1).

    An empty phase vector gives the identity (the constant polynomial 1).
    """
    if abs(x) > 1.0 + 1e-12:
        raise ValueError("signal_unitary requires |x| <= 1")
    s = np.sqrt(max(0.0, 1.0 - x * x))
    w = np.array([[x, 1j * s], [1j * s, x]])
    m = np.eye(2, dtype=complex)
    for phi in phases.phases:
        e = np.exp(1j * phi)
        m = m @ np.array([[e, 0.0], [0.0, np.conj(e)]]) @ w
    return m


class _SignalRows:
    """M(x)[0,0] on fixed nodes ``xs`` for d phases, optionally with
    d(M00)/d(phi_j).

    Tracks only the first row (f_0, f_1) of the running prefix product and
    the first column (b_0, b_1) of the suffix products; the gradient of the
    (0,0) entry is i * (f_{j-1,0} b_{j,0} - f_{j-1,1} b_{j,1}).

    The arrays are allocated once and every call writes them in place, six
    ufunc calls a recurrence step and no temporaries: phase finding calls
    this a hundred times or more, and arrays allocated afresh on each call
    are page-faulted in again each time, a cost that grows with the
    host's load. Complex products round differently with their operands
    swapped, so the operand order of each product is part of the result.
    The returned arrays are overwritten by the next call; the gradient's
    arrays are allocated by the first call that asks for it.
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

    def __call__(self, phases: np.ndarray, need_grad: bool):
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
        m00 = f0[-1]
        if not need_grad:
            return m00, None

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
        return m00, mul(1j, grad, out=grad)


def realized_values(phases: PhaseVector, xs: np.ndarray) -> np.ndarray:
    """Re M(x)[0,0] on an array of points."""
    xs = np.asarray(xs, dtype=float)
    m00, _ = _SignalRows(xs, phases.degree)(phases.phases, False)
    return m00.real.copy()


def _chebyshev_nodes(d: int) -> np.ndarray:
    k = np.arange(d + 1)
    return np.cos((2 * k + 1) * np.pi / (4 * d))


def find_phases(target: ChebyshevSeries, tol: float = 1e-10,
                max_evals: int = _MAX_EVALS) -> PhaseVector:
    """Solve for phases realizing ``target`` in the wx-re00 convention.

    Quasi-Newton (L-BFGS-B) minimization of the squared mismatch between
    Re M(x)[0,0] and the target at the d+1 Chebyshev nodes
    cos((2k+1) pi / (4d)), with analytic gradients, started from the
    zero-polynomial configuration (pi/2, 0, ..., 0). A short
    Levenberg-Marquardt polish runs if the quasi-Newton stage stops just
    above ``tol``.

    Raises
    ------
    PhaseFindingError
        If the node residual never reaches ``tol`` (carries the residual).
    """
    if target.parity == "none":
        raise ValueError("find_phases requires a definite-parity target")
    d = target.degree
    if d < 1:
        raise ValueError("target degree must be >= 1")
    if d > MAX_DEGREE:
        raise ValueError(
            f"degree {d} exceeds the find_phases cap ({MAX_DEGREE}); "
            "use the spectral-oracle backend for larger runs"
        )
    peak = max_abs_on_interval(target)
    if peak > 1.0 - _INTERIOR_MARGIN:
        raise ValueError(
            f"max|P| = {peak} too close to 1; rescale (enforce_qsvt_bounds) first"
        )

    xs = _chebyshev_nodes(d)
    want = cheb_eval(target, xs)
    rows = _SignalRows(xs, d)

    def value_and_grad(phis):
        m00, grad = rows(phis, True)
        resid = m00.real - want
        return float(resid @ resid), 2.0 * (grad.real @ resid)

    start = np.zeros(d)
    start[0] = np.pi / 2.0
    result = minimize(
        value_and_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_evals, "maxfun": max_evals, "ftol": 1e-30, "gtol": 1e-18},
    )
    phis = result.x
    resid = np.max(np.abs(rows(phis, False)[0].real - want))

    if resid > tol:
        def residuals(p):
            m00, _ = rows(p, False)
            return m00.real - want

        def jacobian(p):
            _, grad = rows(p, True)
            return grad.real.T.copy()

        polish = least_squares(
            residuals, phis, jac=jacobian, method="lm",
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
            max_nfev=min(max_evals, 200 * (d + 1)),
        )
        cand = np.max(np.abs(residuals(polish.x)))
        if cand < resid:
            phis, resid = polish.x, float(cand)

    if resid > tol:
        raise PhaseFindingError(float(resid), tol)
    return PhaseVector(phis)


def verify_phases(phases: PhaseVector, target: ChebyshevSeries, grid: int = 10_000) -> float:
    """Max of |Re M(x)[0,0] - P(x)| over a ``grid``-point span of [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs(realized_values(phases, xs) - cheb_eval(target, xs))))
