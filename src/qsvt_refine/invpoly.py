"""Odd Chebyshev approximation of the inverse function.

Builds the polynomial that tracks ``scale / x`` on [-1, -1/kappa] u
[1/kappa, 1] from the binomial partial-sum expansion of
``(1 - (1 - x^2)^b) / x``, with the degree parameters b(eps, kappa) and
D(eps, kappa), plus the machinery needed to make the series admissible
for singular value transformation (global magnitude <= 1 on [-1, 1]).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.fft import dct
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

__all__ = [
    "ChebyshevSeries",
    "InverseApproxSpec",
    "degree_params",
    "make_inverse_spec",
    "inverse_cheb_series",
    "clenshaw_eval",
    "enforce_qsvt_bounds",
    "approx_error_report",
    "max_abs_on_interval",
]

_BOUND_MARGIN = 1e-6  # headroom applied when rescaling to |P| <= 1
_REFINE_XTOL = 1e-9   # locates the grid maximum to ~1e-8 in |P|


@dataclass(frozen=True)
class ChebyshevSeries:
    """Definite-parity polynomial in the Chebyshev basis.

    ``coefficients[k]`` multiplies T_k; the trailing coefficient is
    nonzero so ``degree == len(coefficients) - 1``. The optional kappa /
    eps / scale metadata records how an inverse-approximation series was
    built (``P(x) ~ scale / x``) and travels through serialization.
    """

    coefficients: np.ndarray
    parity: str  # "even" | "odd" | "none"
    kappa: Optional[float] = None
    eps: Optional[float] = None
    scale: Optional[float] = None

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.ndim != 1 or coefs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if coefs.size > 1 and coefs[-1] == 0.0:
            raise ValueError("trailing coefficient must be nonzero (trim first)")
        if self.parity == "odd" and np.any(coefs[0::2] != 0.0):
            raise ValueError("odd series has a nonzero even-index coefficient")
        if self.parity == "even" and np.any(coefs[1::2] != 0.0):
            raise ValueError("even series has a nonzero odd-index coefficient")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "parity": self.parity,
                "coefficients": self.coefficients.tolist(),
                "kappa": self.kappa,
                "eps": self.eps,
                "scale": self.scale,
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "ChebyshevSeries":
        raw = json.loads(payload)
        return cls(
            coefficients=np.asarray(raw["coefficients"], dtype=float),
            parity=raw["parity"],
            kappa=raw.get("kappa"),
            eps=raw.get("eps"),
            scale=raw.get("scale"),
        )


def _trimmed(coefs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coefs)[0]
    if nz.size == 0:
        return coefs[:1]
    return coefs[: nz[-1] + 1]


@dataclass(frozen=True)
class InverseApproxSpec:
    """Parameters of one inverse-function approximation instance."""

    kappa: float
    eps: float
    b: int
    cap_degree_D: int
    scale: float

    def __post_init__(self):
        b, cap = degree_params(self.kappa, self.eps)
        if (b, cap) != (self.b, self.cap_degree_D):
            raise ValueError(
                f"(b, D) = {(self.b, self.cap_degree_D)} disagree with the "
                f"formulas, expected {(b, cap)}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must lie in (0, 1]")


def degree_params(kappa: float, eps: float) -> tuple[int, int]:
    """Degree parameters b = ceil(kappa^2 ln(kappa/eps)) and
    D = ceil(sqrt(b ln(4b/eps))), with natural logarithms."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps >= 1.0 or eps >= kappa:
        raise ValueError(
            f"eps = {eps} too large for kappa = {kappa}: need eps < min(1, kappa)"
        )
    b = math.ceil(kappa**2 * math.log(kappa / eps))
    cap = math.ceil(math.sqrt(b * math.log(4 * b / eps)))
    return b, cap


def make_inverse_spec(kappa: float, eps: float, scale: Optional[float] = None) -> InverseApproxSpec:
    """Build an InverseApproxSpec; scale defaults to the 1/(2 kappa)
    normalization that makes the series a candidate for QSVT."""
    b, cap = degree_params(kappa, eps)
    if scale is None:
        scale = 1.0 / (2.0 * kappa)
    return InverseApproxSpec(kappa=kappa, eps=eps, b=b, cap_degree_D=cap, scale=scale)


def inverse_cheb_series(spec: InverseApproxSpec) -> ChebyshevSeries:
    """Odd Chebyshev series approximating ``spec.scale / x``.

    The coefficient of T_{2j+1} is
    ``4 (-1)^j [2^{-2b} sum_{i=j+1}^{b} C(2b, b+i)] * scale``; the
    binomial partial sums are evaluated in the log domain (log-gamma)
    and accumulated in extended precision, so b up to ~10^6 is fine.
    Coefficients with j >= b vanish identically and are trimmed.
    """
    b, cap, scale = spec.b, spec.cap_degree_D, spec.scale
    jmax = min(cap, b - 1)
    i = np.arange(1, b + 1, dtype=float)
    log_terms = gammaln(2 * b + 1) - gammaln(b + i + 1) - gammaln(b - i + 1) - 2 * b * math.log(2.0)
    terms = np.exp(log_terms)
    if not np.all(np.isfinite(terms)):
        raise OverflowError("binomial accumulation overflowed; log-domain path failed")
    # partial_sums[j] = sum_{i=j+1}^{b} terms[i-1], accumulated from the tail
    tail = np.cumsum(terms[::-1].astype(np.longdouble))[::-1]
    coefs = np.zeros(2 * jmax + 2)
    sign = 1.0
    for j in range(jmax + 1):
        coefs[2 * j + 1] = 4.0 * sign * float(tail[j]) * scale
        sign = -sign
    return ChebyshevSeries(
        coefficients=_trimmed(coefs),
        parity="odd",
        kappa=spec.kappa,
        eps=spec.eps,
        scale=scale,
    )


def clenshaw_eval(series: ChebyshevSeries, x):
    """Evaluate the series at ``x`` (scalar or array, |x| <= 1) by the
    backward Clenshaw recurrence.

    The coefficients are Python floats, so a scalar runs the recurrence
    on Python floats (rounding exactly as 0-d float64 arrays do, at a
    fraction of the per-step cost) and returns one."""
    xs = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise ValueError("clenshaw_eval requires |x| <= 1")
    c = series.coefficients.tolist()
    b1 = b2 = 0.0
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * xs * b1 - b2, b1
    return c[0] + xs * b1 - b2


def _values_on_cheb_grid(coefs: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Series values at x_j = cos(pi j / M), j = 0..M, via a DCT-I."""
    m = max(npts, coefs.size, 2)
    padded = np.zeros(m + 1)
    padded[: coefs.size] = coefs
    padded[1:] *= 0.5
    xs = np.cos(np.pi * np.arange(m + 1) / m)
    return xs, dct(padded, type=1)


def max_abs_on_interval(series: ChebyshevSeries) -> float:
    """Max of |P| over [-1, 1]: Chebyshev-spaced grid of 4*degree points
    plus golden-section refinement around the grid maximizer."""
    xs, vals = _values_on_cheb_grid(series.coefficients, 4 * max(series.degree, 1))
    vals = np.abs(vals)
    k = int(np.argmax(vals))
    lo = xs[min(k + 1, xs.size - 1)]  # xs is decreasing in j
    hi = xs[max(k - 1, 0)]
    if lo >= hi:
        return float(vals[k])
    res = minimize_scalar(
        lambda t: -abs(clenshaw_eval(series, t)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": _REFINE_XTOL},
    )
    return float(max(vals[k], -res.fun))


def enforce_qsvt_bounds(series: ChebyshevSeries) -> tuple[ChebyshevSeries, float]:
    """Rescale so |P(x)| <= 1 on [-1, 1], with a 1e-6 safety margin.

    Returns the (possibly) rescaled series and the applied scale factor,
    which the solver undoes classically at readout. Idempotent: a second
    application reports a scale of exactly 1.
    """
    peak = max_abs_on_interval(series)
    target = peak * (1.0 + _BOUND_MARGIN)
    if target <= 1.0 + 1e-9:
        return series, 1.0
    applied = 1.0 / target
    rescaled = replace(
        series,
        coefficients=series.coefficients * applied,
        scale=None if series.scale is None else series.scale * applied,
    )
    return rescaled, applied


def approx_error_report(series: ChebyshevSeries, kappa: float, eps: float,
                        grid: int = 10_000) -> tuple[float, float]:
    """Measure the series against its target on dense uniform grids.

    Returns ``(max_err_on_domain, max_abs_on_gap)``: the maximum of
    |P(x) - scale/x| over [1/kappa, 1] and the maximum of |P| over the
    excluded interval [0, 1/kappa]. Used by tests and the CLI report.
    """
    scale = 1.0 if series.scale is None else series.scale
    xs = np.linspace(1.0 / kappa, 1.0, grid)
    err = float(np.max(np.abs(clenshaw_eval(series, xs) - scale / xs)))
    gap = np.linspace(0.0, 1.0 / kappa, grid)
    gap_max = float(np.max(np.abs(clenshaw_eval(series, gap))))
    return err, gap_max
