"""Odd Chebyshev approximation of the inverse function.

Builds the polynomial that tracks ``scale / x`` on [-1, -1/kappa] u
[1/kappa, 1] from the binomial partial-sum expansion of
``(1 - (1 - x^2)^b) / x``, with the degree parameters b(eps, kappa) and
D(eps, kappa), plus the machinery needed to make the series admissible
for singular value transformation (global magnitude <= 1 on [-1, 1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.fft import dct, next_fast_len
from scipy.optimize import minimize_scalar
from scipy.special import betainc

__all__ = [
    "ChebyshevSeries",
    "BoundedSeries",
    "degree_params",
    "inverse_cheb_series",
    "cheb_eval",
    "enforce_qsvt_bounds",
    "bound_series",
    "max_abs_on_interval",
]

_BOUND_MARGIN = 1e-6  # headroom applied when rescaling to |P| <= 1
_REFINE_XTOL = 1e-9   # locates the grid maximum to ~1e-8 in |P|
_CHUNK_ELEMS = 1 << 19  # points x nodes per evaluation block (4 MiB of float64)


@dataclass(frozen=True)
class ChebyshevSeries:
    """Definite-parity polynomial in the Chebyshev basis.

    ``coefficients[k]`` multiplies T_k; the trailing coefficient is
    nonzero so ``degree == len(coefficients) - 1``. An inverse
    approximation records its ``scale`` (``P(x) ~ scale / x``).
    """

    coefficients: np.ndarray
    parity: str  # "even" | "odd" | "none"
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


def _trimmed(coefs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coefs)[0]
    if nz.size == 0:
        return coefs[:1]
    return coefs[: nz[-1] + 1]


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


def inverse_cheb_series(kappa: float, eps: float,
                        scale: Optional[float] = None) -> ChebyshevSeries:
    """Odd Chebyshev series approximating ``scale / x`` on [1/kappa, 1] to
    accuracy eps, with (b, D) from ``degree_params``; scale defaults to
    the 1/(2 kappa) normalization that makes it a candidate for QSVT.

    The coefficient of T_{2j+1} is
    ``4 (-1)^j [2^{-2b} sum_{i=j+1}^{b} C(2b, b+i)] * scale``. The
    bracket is the tail P(X >= b+j+1) of X ~ Bin(2b, 1/2), that is
    I_{1/2}(b+j+1, b-j). ``betainc`` gives it at the two ends j = 0 and
    j = jmax; between them tail_j - tail_jmax is the sum of the terms
    C(2b, b+i) 4^{-b}, i = j+1..jmax, which are the central term times the
    ratios r_i = prod_{l<=i} (b-l+1)/(b+l). So with S_j = sum_{i=j}^{jmax}
    r_i, tail_j = tail_jmax + (tail_0 - tail_jmax) S_{j+1} / S_1: O(D)
    flops, every sum of positive terms, no array of length b.
    Coefficients with j >= b vanish and are trimmed.
    """
    b, cap = degree_params(kappa, eps)
    if scale is None:
        scale = 1.0 / (2.0 * kappa)
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    j = np.arange(min(cap, b - 1) + 1)
    first, last = betainc(b + 1.0 + j[[0, -1]], b - j[[0, -1]] + 0.0, 0.5)
    ratios = np.cumprod((b - j[1:] + 1.0) / (b + j[1:]))
    above = np.cumsum(np.append(ratios, 0.0)[::-1])[::-1]  # S_{j+1}, zero at jmax
    tail = last + (first - last) * (above / (above[0] or 1.0))
    if not np.all(np.isfinite(tail)):
        raise OverflowError("binomial tail is not finite")
    coefs = np.zeros(2 * j.size)
    coefs[1::2] = np.where(j % 2 == 0, 4.0, -4.0) * tail * scale
    return ChebyshevSeries(coefficients=_trimmed(coefs), parity="odd", scale=scale)


def _values_on_cheb_grid(coefs: np.ndarray, npts: int) -> np.ndarray:
    """Series values at x_j = cos(pi j / M), j = 0..M; M is the first
    FFT-friendly size of at least ``npts`` and the coefficients (the
    values' length less one). The nodes themselves are not formed. An odd
    series on an even M takes a DCT-II of length M/2 over its odd
    coefficients, sum_i c_{2i+1} cos((2i+1) pi j / M) at j < M/2, and
    parity gives P(x_{M/2}) = 0 and P(x_{M-j}) = -P(x_j) exactly; any
    other series takes a DCT-I of length M+1."""
    m = next_fast_len(max(npts, coefs.size, 2), real=True)
    if m % 2 == 0 and not np.any(coefs[0::2]):
        head = dct(0.5 * coefs[1::2], type=2, n=m // 2)
        return np.concatenate([head, [0.0], -head[::-1]])
    padded = np.zeros(m + 1)
    padded[: coefs.size] = coefs
    padded[1:] *= 0.5
    return dct(padded, type=1)


def _interpolant(vals: np.ndarray):
    """Evaluator of the polynomial through ``vals[j]`` at x_j = cos(pi j / M):
    the second-kind barycentric formula (Berrut & Trefethen 2004), O(M)
    work per point. x - x_j is taken from the endpoint on x's side, as
    1 - x_j = 2 sin^2(pi j / 2M) keeps the nodes near +-1, where the slope
    reaches degree^2 * max|P|, exact to relative rounding. Each point is
    its own row reduction, so its value does not depend on its block. The
    callable's ``values`` attribute is ``vals`` itself, read at each call."""
    m = vals.size - 1
    weights = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    from_one = 2.0 * np.sin(np.pi * np.arange(m + 1) / (2 * m)) ** 2
    # x_j = shift - nodes[j], nodes increasing: an exact node hit, where
    # x - x_j = (x - shift) + nodes[j] is zero, is found by a sorted search
    sides = ((1.0, from_one), (-1.0, -from_one[::-1]))
    step = max(1, _CHUNK_ELEMS // (m + 1))

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        for side, (shift, nodes) in zip((x >= 0.0, x < 0.0), sides):
            idx = np.flatnonzero(side)
            for start in range(0, idx.size, step):
                pts = idx[start:start + step]
                target = shift - x[pts]
                block = np.add.outer(-target, nodes)
                near = np.minimum(np.searchsorted(nodes, target), m)
                rows = np.flatnonzero(nodes[near] == target)
                cols = near[rows]
                block[rows, cols] = 1.0  # exact node hits are overwritten below
                np.divide(weights, block, out=block)
                den = block.sum(axis=1)
                block *= vals
                out[pts] = block.sum(axis=1) / den
                out[pts[rows]] = vals[cols]
        return out

    evaluate.values = vals
    return evaluate


def cheb_eval(series: ChebyshevSeries, x):
    """Evaluate the series at ``x`` (scalar or array, |x| <= 1) from its
    values at M+1 >= degree+1 Chebyshev-Lobatto points (one transform).
    A scalar returns a Python float equal to its entry in an array call."""
    xs = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-12):
        raise ValueError("cheb_eval requires finite x with |x| <= 1")
    out = _interpolant(_values_on_cheb_grid(series.coefficients, series.degree))(np.ravel(xs))
    return float(out[0]) if isinstance(xs, float) else out.reshape(np.shape(xs))


# Former name, still the one perfbench's tracer wraps (the same function).
clenshaw_eval = cheb_eval


def max_abs_on_interval(series: ChebyshevSeries) -> float:
    """Max of |P| over [-1, 1], as ``bound_series`` checks it."""
    return bound_series(series).peak


@dataclass(frozen=True, eq=False)
class BoundedSeries:
    """A series rescaled so |P| <= 1 on [-1, 1], with what its bound check
    found: the applied factor ``rescale``, the checked max|P| of the series
    before rescaling (``peak``) and ``evaluate``, the rescaled series'
    interpolant on the check's M grid (1-D arrays of x in [-1, 1], no
    checks; its ``values`` are the check's times ``rescale``)."""

    series: ChebyshevSeries
    rescale: float
    peak: float
    evaluate: Callable


def bound_series(series: ChebyshevSeries) -> BoundedSeries:
    """Rescale so |P(x)| <= 1 on [-1, 1], with a 1e-6 safety margin (the
    factor is exactly 1 when the peak times 1 + 1e-6 is at most 1 + 1e-9).

    The peak comes from a Chebyshev-spaced grid of 4M >= 4*degree points
    plus golden-section refinement, interpolating from every fourth grid
    value (the M-point grid), around each grid local maximum within
    pi^2/128 of the grid's top (Bernstein's inequality bounds how far the
    node nearest the true peak can lie below it; a definite-parity |P| is
    even, so the maximizer's mirror image is skipped)."""
    m = next_fast_len(max(series.degree, 1), real=True)
    vals = _values_on_cheb_grid(series.coefficients, 4 * m)
    interpolant = _interpolant(vals[::4].copy())
    vals = np.abs(vals)
    k, last = int(np.argmax(vals)), vals.size - 1

    def refined(k: int) -> float:
        # bracket nodes x_{k+1} < x_{k-1}, x_j = cos(pi j / (4M)) decreasing in j
        lo, hi = np.cos(np.pi * np.array([min(k + 1, last), max(k - 1, 0)]) / last)
        if lo >= hi:
            return float(vals[k])
        res = minimize_scalar(
            lambda t: -abs(interpolant(np.array([t]))[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": _REFINE_XTOL},
        )
        return float(max(vals[k], -res.fun))

    skip = {k, last - k} if series.parity != "none" else {k}
    rivals = [int(j) for j in np.flatnonzero(vals >= (1.0 - np.pi ** 2 / 128) * vals[k])
              if j not in skip and vals[j] >= max(vals[max(j - 1, 0)], vals[min(j + 1, last)])]
    peak = max([refined(k)] + [refined(j) for j in rivals])
    target = peak * (1.0 + _BOUND_MARGIN)
    if target <= 1.0 + 1e-9:
        return BoundedSeries(series, 1.0, peak, interpolant)
    applied = 1.0 / target
    interpolant.values *= applied  # the grid now holds the rescaled series
    rescaled = replace(
        series,
        coefficients=series.coefficients * applied,
        scale=None if series.scale is None else series.scale * applied,
    )
    return BoundedSeries(rescaled, applied, peak, interpolant)


def enforce_qsvt_bounds(series: ChebyshevSeries) -> tuple[ChebyshevSeries, float]:
    """``bound_series`` as the (possibly) rescaled series and the applied
    factor, which the solver undoes classically at readout. Idempotent: a
    second application reports a factor of exactly 1."""
    bounded = bound_series(series)
    return bounded.series, bounded.rescale
