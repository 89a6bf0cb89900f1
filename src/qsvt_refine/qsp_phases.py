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

from .invpoly import ChebyshevSeries, clenshaw_eval, max_abs_on_interval

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

    def negated(self) -> "PhaseVector":
        return PhaseVector(-self.phases, self.convention_tag)

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


def _signal_row_suffix(phases: np.ndarray, xs: np.ndarray, need_grad: bool):
    """Vectorized M(x)[0,0] over ``xs``, optionally with d(M00)/d(phi_j).

    Tracks only the first row of the running prefix product and the first
    column of the suffix products; the gradient of the (0,0) entry is
    i * (f_{j-1,0} b_{j,0} - f_{j-1,1} b_{j,1}).
    """
    d = phases.size
    nx = xs.size
    s = np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
    e = np.exp(1j * phases)
    a00 = np.outer(e, xs)
    a01 = 1j * np.outer(e, s)
    a10 = 1j * np.outer(np.conj(e), s)
    a11 = np.outer(np.conj(e), xs)

    f = np.zeros((d + 1, nx, 2), dtype=complex)
    f[0, :, 0] = 1.0
    for j in range(d):
        f[j + 1, :, 0] = f[j, :, 0] * a00[j] + f[j, :, 1] * a10[j]
        f[j + 1, :, 1] = f[j, :, 0] * a01[j] + f[j, :, 1] * a11[j]
    m00 = f[d, :, 0]
    if not need_grad:
        return m00, None

    b = np.zeros((d + 1, nx, 2), dtype=complex)
    b[d, :, 0] = 1.0
    for j in range(d - 1, -1, -1):
        b[j, :, 0] = a00[j] * b[j + 1, :, 0] + a01[j] * b[j + 1, :, 1]
        b[j, :, 1] = a10[j] * b[j + 1, :, 0] + a11[j] * b[j + 1, :, 1]
    grad = 1j * (f[:d, :, 0] * b[:d, :, 0] - f[:d, :, 1] * b[:d, :, 1])
    return m00, grad


def realized_values(phases: PhaseVector, xs: np.ndarray) -> np.ndarray:
    """Re M(x)[0,0] on an array of points."""
    m00, _ = _signal_row_suffix(phases.phases, np.asarray(xs, dtype=float), False)
    return m00.real


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
    want = clenshaw_eval(target, xs)

    def value_and_grad(phis):
        m00, grad = _signal_row_suffix(phis, xs, True)
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
    resid = np.max(np.abs(_signal_row_suffix(phis, xs, False)[0].real - want))

    if resid > tol:
        def residuals(p):
            m00, _ = _signal_row_suffix(p, xs, False)
            return m00.real - want

        def jacobian(p):
            _, grad = _signal_row_suffix(p, xs, True)
            return grad.real.T

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
    return float(np.max(np.abs(realized_values(phases, xs) - clenshaw_eval(target, xs))))
