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
from scipy.fft import dct, next_fast_len
from scipy.optimize import minimize_scalar
from scipy.special import betainc

__all__ = [
    "ChebyshevSeries",
    "InverseApproxSpec",
    "degree_params",
    "make_inverse_spec",
    "inverse_cheb_series",
    "cheb_eval",
    "enforce_qsvt_bounds",
    "approx_error_report",
    "max_abs_on_interval",
]

_BOUND_MARGIN = 1e-6  # headroom applied when rescaling to |P| <= 1
_REFINE_XTOL = 1e-9   # locates the grid maximum to ~1e-8 in |P|
_CHUNK_ELEMS = 1 << 19  # points x nodes per evaluation block (4 MiB of float64)


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
    ``4 (-1)^j [2^{-2b} sum_{i=j+1}^{b} C(2b, b+i)] * scale``. The
    bracket is the tail P(X >= b+j+1) of X ~ Bin(2b, 1/2), that is
    I_{1/2}(b+j+1, b-j): one ``betainc`` call over the D+1 values of j,
    no array of length b. Coefficients with j >= b vanish and are trimmed.
    """
    b, cap, scale = spec.b, spec.cap_degree_D, spec.scale
    j = np.arange(min(cap, b - 1) + 1)
    tail = betainc(b + j + 1.0, b - j + 0.0, 0.5)
    if not np.all(np.isfinite(tail)):
        raise OverflowError("binomial tail is not finite")
    coefs = np.zeros(2 * j.size)
    coefs[1::2] = np.where(j % 2 == 0, 4.0, -4.0) * tail * scale
    return ChebyshevSeries(
        coefficients=_trimmed(coefs),
        parity="odd",
        kappa=spec.kappa,
        eps=spec.eps,
        scale=scale,
    )


def _values_on_cheb_grid(coefs: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Series values at x_j = cos(pi j / M), j = 0..M, via a DCT-I; M is
    the first FFT-friendly size of at least ``npts`` and the coefficients."""
    m = next_fast_len(max(npts, coefs.size, 2), real=True)
    padded = np.zeros(m + 1)
    padded[: coefs.size] = coefs
    padded[1:] *= 0.5
    xs = np.cos(np.pi * np.arange(m + 1) / m)
    return xs, dct(padded, type=1)


def _interpolant(vals: np.ndarray):
    """Evaluator of the polynomial through ``vals[j]`` at x_j = cos(pi j / M):
    the second-kind barycentric formula (Berrut & Trefethen 2004), O(M)
    work per point. x - x_j is taken from the endpoint on x's side, as
    1 - x_j = 2 sin^2(pi j / 2M) keeps the nodes near +-1, where the slope
    reaches degree^2 * max|P|, exact to relative rounding. Each point is
    its own row reduction, so its value does not depend on its block."""
    m = vals.size - 1
    weights = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    from_one = 2.0 * np.sin(np.pi * np.arange(m + 1) / (2 * m)) ** 2
    step = max(1, _CHUNK_ELEMS // (m + 1))

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        for side, shift, nodes in ((x >= 0.0, 1.0, -from_one), (x < 0.0, -1.0, from_one[::-1])):
            idx = np.flatnonzero(side)
            for start in range(0, idx.size, step):
                pts = idx[start:start + step]
                block = np.subtract.outer(x[pts] - shift, nodes)
                rows, cols = np.nonzero(block == 0.0)
                block[rows, cols] = 1.0  # exact node hits are overwritten below
                np.divide(weights, block, out=block)
                den = block.sum(axis=1)
                block *= vals
                out[pts] = block.sum(axis=1) / den
                out[pts[rows]] = vals[cols]
        return out

    return evaluate


def cheb_eval(series: ChebyshevSeries, x):
    """Evaluate the series at ``x`` (scalar or array, |x| <= 1) from its
    values at M+1 >= degree+1 Chebyshev-Lobatto points (one DCT-I). A
    scalar returns a Python float equal to its entry in an array call."""
    xs = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise ValueError("cheb_eval requires |x| <= 1")
    _, vals = _values_on_cheb_grid(series.coefficients, series.degree)
    out = _interpolant(vals)(np.ravel(xs))
    return float(out[0]) if isinstance(xs, float) else out.reshape(np.shape(xs))


# Former name, still the one perfbench's tracer wraps (the same function).
clenshaw_eval = cheb_eval


def max_abs_on_interval(series: ChebyshevSeries) -> float:
    """Max of |P| over [-1, 1]: Chebyshev-spaced grid of 4M >= 4*degree
    points plus golden-section refinement around the grid maximizer,
    interpolating from every fourth grid value (the M-point grid)."""
    m = next_fast_len(max(series.degree, 1), real=True)
    xs, vals = _values_on_cheb_grid(series.coefficients, 4 * m)
    interpolant = _interpolant(vals[::4].copy())
    vals = np.abs(vals)
    k = int(np.argmax(vals))
    lo = xs[min(k + 1, xs.size - 1)]  # xs is decreasing in j
    hi = xs[max(k - 1, 0)]
    if lo >= hi:
        return float(vals[k])
    res = minimize_scalar(
        lambda t: -abs(interpolant(np.array([t]))[0]),
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
    err = float(np.max(np.abs(cheb_eval(series, xs) - scale / xs)))
    gap = np.linspace(0.0, 1.0 / kappa, grid)
    gap_max = float(np.max(np.abs(cheb_eval(series, gap))))
    return err, gap_max
