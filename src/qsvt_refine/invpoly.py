"""Odd Chebyshev approximation of the inverse function.

Builds the polynomial that tracks ``1 / (2 kappa x)`` on [-1, -1/kappa] u
[1/kappa, 1] from the binomial partial-sum expansion of
``(1 - (1 - x^2)^b) / x``, with the degree parameters b(eps, kappa) and
D(eps, kappa), plus the machinery needed to make the series admissible
for singular value transformation (global magnitude <= 1 on [-1, 1]; the
bound check certifies a peak from one oversampled grid scan and scales
the series to at most ``QSVT_PEAK`` = 0.9, where phase finding converges).
A series carries its own M-grid evaluator, made from one transform when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ChebyshevSeries",
    "BoundedSeries",
    "degree_params",
    "inverse_cheb_series",
    "cheb_eval",
    "enforce_qsvt_bounds",
    "grid_interpolant",
    "bound_series",
    "max_abs_on_interval",
    "QSVT_PEAK",
]

QSVT_PEAK = 0.9  # the max|P| bound_series scales a series down to
_OVERSAMPLE = 16  # the bound check's scan grid has this many times the series' M points
_CHUNK_ELEMS = 1 << 19  # points x nodes per evaluation block (4 MiB of float64)
_EXACT_CENTRAL = 64  # C(2b, b) / 4^b from exact integers below this b


@dataclass(frozen=True, eq=False)
class ChebyshevSeries:
    """Polynomial in the Chebyshev basis.

    ``coefficients[k]`` multiplies T_k; every coefficient is finite and
    the trailing one nonzero, so ``degree == len(coefficients) - 1``. An inverse
    approximation records its ``scale`` (``P(x) ~ scale / x``), passed by
    keyword only, so a stray second positional argument is refused rather
    than taken as a scale. ``parity`` is read off the coefficients, which
    the series keeps as its own read-only copy. Series compare by identity.

    ``evaluate`` is the series' interpolant on its degree's M grid x_j =
    cos(pi j / M) (1-D arrays of x in [-1, 1], no checks), whose read-only
    ``values`` come from one transform when the series is built: an odd
    series reads exactly 0 at the node x = 0. The grid's sine table gives
    its nodes and, at every second entry, the odd series' DCT-II twiddles.
    """

    coefficients: np.ndarray
    scale: Optional[float] = field(default=None, kw_only=True)
    evaluate: Callable = field(init=False, repr=False)

    def __post_init__(self):
        coefs = np.array(self.coefficients, dtype=float)
        if coefs.ndim != 1 or coefs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        if coefs.size > 1 and coefs[-1] == 0.0:
            raise ValueError("trailing coefficient must be nonzero (trim first)")
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)
        m = _grid_size(self.degree)
        sines = _quarter_sines(m)
        vals = _values_on_cheb_grid(coefs, m, sines[::2])
        vals.flags.writeable = False
        object.__setattr__(self, "evaluate", _interpolant(vals, _node_offsets(m, sines)))

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def parity(self) -> str:
        """``"odd"`` when the degree is odd and every even-index coefficient
        is zero, ``"even"`` when every odd-index one is (the zero series
        included), ``"none"`` otherwise."""
        if self.degree % 2 and not np.any(self.coefficients[0::2]):
            return "odd"
        return "none" if np.any(self.coefficients[1::2]) else "even"


def _trimmed(coefs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coefs)[0]
    if nz.size == 0:
        return coefs[:1]
    return coefs[: nz[-1] + 1]


def degree_params(kappa: float, eps: float) -> tuple[int, int]:
    """Degree parameters b = ceil(kappa^2 ln(kappa/eps)) and
    D = ceil(sqrt(b ln(4b/eps))), with natural logarithms."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps >= 1.0 or eps >= kappa:
        raise ValueError(
            f"eps = {eps} too large for kappa = {kappa}: need eps < min(1, kappa)"
        )
    b = math.ceil(kappa**2 * math.log(kappa / eps))
    cap = math.ceil(math.sqrt(b * math.log(4 * b / eps)))
    return b, cap


def inverse_cheb_series(kappa: float, eps: float) -> ChebyshevSeries:
    """Odd Chebyshev series approximating ``scale / x`` on [1/kappa, 1] to
    accuracy eps * scale, with (b, D) from ``degree_params``; the recorded
    scale is the 1/(2 kappa) normalization that makes it a QSVT candidate.

    The coefficient of T_{2j+1} is
    ``4 (-1)^j [2^{-2b} sum_{i=j+1}^{b} C(2b, b+i)] * scale``. The
    bracket is the tail P(X >= b+j+1) of X ~ Bin(2b, 1/2): the central
    term C(2b, b) 4^{-b} (``_central_binomial``) times S_{j+1}, where
    S_j = sum_{i>=j} r_i over the ratios r_i = prod_{l<=i} (b-l+1)/(b+l).
    The ratios run past jmax = min(D, b-1) until the rest of the sum is
    below the last ulp of S_{jmax+1}: beyond jmax each step shrinks them by
    at least q = (b-jmax)/(b+jmax+1), about exp(-2 jmax / b), so n more
    steps leave at most q^n / (1-q) of r_{jmax+1}. O(D + b/D) flops, every
    sum of positive terms, no array of length b. Coefficients with j >= b
    vanish and are trimmed.
    """
    b, cap = degree_params(kappa, eps)
    scale = 1.0 / (2.0 * kappa)
    jmax = min(cap, b - 1)
    q = (b - jmax) / (b + jmax + 1.0)
    past = math.ceil(math.log(2.0 ** -53 * (1.0 - q)) / math.log(q))
    i = np.arange(1.0, min(b, jmax + 1 + past) + 1)
    ratios = np.cumprod((b - i + 1.0) / (b + i))  # r_1, r_2, ...
    above = np.cumsum(ratios[::-1])[::-1][: jmax + 1]  # S_{j+1}, j = 0..jmax
    tail = _central_binomial(b) * above
    if not np.all(np.isfinite(tail)):
        raise OverflowError("binomial tail is not finite")
    signs = np.full(jmax + 1, 4.0)
    signs[1::2] = -4.0
    coefs = np.zeros(2 * signs.size)
    coefs[1::2] = signs * tail * scale
    return ChebyshevSeries(_trimmed(coefs), scale=scale)


def _central_binomial(b: int) -> float:
    """C(2b, b) / 4^b: the correctly rounded quotient of exact integers
    below b = 64, and above that exp(-1/(8b) + 1/(192 b^3) - 1/(640 b^5) +
    17/(14336 b^7)) / sqrt(pi b), the Stirling series of its logarithm,
    whose first omitted term is below 1e-19 at b = 64."""
    if b < _EXACT_CENTRAL:
        return math.comb(2 * b, b) / 4**b
    s = 1.0 / b
    s2 = s * s
    series = s * (-1.0 / 8 + s2 * (1.0 / 192 + s2 * (-1.0 / 640 + s2 * (17.0 / 14336))))
    return math.exp(series) / math.sqrt(math.pi * b)


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the real-FFT-friendly size, which the
    tests check against a reference ``next_fast_len(n, real=True)``."""
    best = 1 << max(n - 1, 0).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _quarter_sines(n: int) -> np.ndarray:
    """sin(pi j / 2n), j = 0..n: a quarter turn in n steps. Entry n - j
    is cos(pi j / 2n)."""
    return np.sin(np.pi * np.arange(n + 1) / (2 * n))


def _values_on_cheb_grid(coefs: np.ndarray, m: int,
                         sines: Optional[np.ndarray] = None) -> np.ndarray:
    """Series values at x_j = cos(pi j / M), j = 0..M; M is ``m``, an
    FFT-friendly size (the caller picks it) of at least 2 and the
    coefficients' count. The nodes themselves are not formed. An odd
    series on an even M takes a DCT-II of length n = M/2 over its odd
    coefficients, sum_i c_{2i+1} cos((2i+1) pi j / M) at j < M/2, and
    parity gives P(x_{M/2}) = 0 and P(x_{M-j}) = -P(x_j) exactly; any
    other series takes a DCT-I of length M+1, the real part of the real
    FFT of its even extension. The DCT-II is Makhoul's: one real FFT of
    the coefficients in the order c_1, c_5, c_9, ..., c_7, c_3, whose
    entry k turned by e^{-i pi k / M} has the value at j = k as its real
    part and the one at j = n - k as minus its imaginary part. Its
    twiddles come from ``sines`` = ``_quarter_sines(n)``, computed here
    unless the caller passes them: the M grid's own table, read at every
    second entry, is that table bit for bit."""
    if m % 2 == 0 and not np.any(coefs[0::2]):
        n = m // 2
        odd = np.zeros(n)
        odd[: coefs.size // 2] = coefs[1::2]
        spectrum = np.fft.rfft(np.concatenate([odd[0::2], odd[1::2][::-1]]))
        if sines is None:
            sines = _quarter_sines(n)
        k = spectrum.size  # n // 2 + 1
        turned = spectrum * (sines[n:n - k:-1] - 1j * sines[:k])
        head = np.empty(n)
        head[:k] = turned.real
        head[k:] = -turned.imag[(n - 1) // 2:0:-1]
        return np.concatenate([head, [0.0], -head[::-1]])
    extended = np.zeros(2 * m)
    extended[: coefs.size] = coefs
    extended[1:] *= 0.5
    extended[m + 1:] = extended[m - 1:0:-1]
    return np.fft.rfft(extended).real


def _interpolant(vals: np.ndarray, from_one: Optional[np.ndarray] = None):
    """Evaluator of the polynomial through ``vals[j]`` at x_j = cos(pi j / M),
    for a 1-D array of points: the second-kind barycentric formula (Berrut &
    Trefethen 2004), O(M) work per point. x - x_j is taken from the endpoint
    on x's side, as the offsets ``from_one`` = 1 - x_j (``_node_offsets(M)``
    unless the caller passes them) keep the nodes near +-1, where the slope
    reaches degree^2 * max|P|, exact to relative rounding; the nodes are
    symmetric, x_{M-j} = -x_j. On an even M the middle node is x_{M/2} = 0
    exactly. Each point is its own row reduction, so its value does not
    depend on its block, and a one-point array rounds as that point does
    among others. ``values`` is ``vals``, read at each call."""
    m = vals.size - 1
    weights = np.ones(m + 1)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    if from_one is None:
        from_one = _node_offsets(m)
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


def _node_offsets(m: int, sines: Optional[np.ndarray] = None) -> np.ndarray:
    """1 - x_j = 2 sin^2(pi j / 2M), j = 0..M, from ``_quarter_sines(M)``,
    with 1 at j = M/2 on an even M, where 2 sin^2(pi / 4) rounds to
    1 - 2^-52 and would move the node x = 0."""
    if sines is None:
        sines = _quarter_sines(m)
    from_one = 2.0 * sines ** 2
    if m % 2 == 0:
        from_one[m // 2] = 1.0
    return from_one


def cheb_eval(series: ChebyshevSeries, x):
    """Evaluate the series at ``x`` (scalar or array, |x| <= 1) with its
    ``evaluate``. A scalar returns the Python float of a one-point array
    call."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-12):
        raise ValueError("cheb_eval requires finite x with |x| <= 1")
    values = series.evaluate(xs.ravel())
    return float(values[0]) if np.isscalar(x) else values.reshape(xs.shape)


# Former name, still the one perfbench's tracer wraps (the same function).
clenshaw_eval = cheb_eval


# A view of ``bound_series`` no library code calls; kept while perfbench's tracer wraps it.
def max_abs_on_interval(series: ChebyshevSeries) -> float:
    """The certified bound on max|P| over [-1, 1] that ``bound_series``
    checks: never below the max, at most sec(pi / 32) above it."""
    return bound_series(series).peak


@dataclass(frozen=True, eq=False)
class BoundedSeries:
    """A series rescaled so |P| <= ``QSVT_PEAK`` on [-1, 1], with what its bound check
    found: the applied factor ``rescale`` and the certified bound on max|P|
    of the series before rescaling (``peak``, never below the max and at
    most sec(pi / 32) above it). A rescaled ``series`` carries the
    evaluator of its own, rescaled coefficients."""

    series: ChebyshevSeries
    rescale: float
    peak: float


def _grid_size(degree: int) -> int:
    """The M of a degree's M grid: even and above the degree, so x = 0 is a node."""
    return 2 * _next_fast_len(degree // 2 + 1)


def grid_interpolant(f: Callable, degree: int) -> Callable:
    """An evaluator like a series' ``evaluate``, for the polynomial of degree
    at most ``degree`` that ``f`` computes on a 1-D array: f read once, at
    the M + 1 nodes of that degree's M grid, exact to rounding as M > degree. The
    nodes are the doubles x_j = 1 - 2 sin^2(pi j / 2M), j <= M/2, and
    x_{M-j} = -x_j, and the offsets 1 - x_j are taken from them, so each
    value sits at its node. ``values`` is read-only."""
    m = _grid_size(degree)
    half = 1.0 - _node_offsets(m)[: m // 2 + 1]
    nodes = np.concatenate([half, -half[-2::-1]])
    vals = np.asarray(f(nodes), dtype=float)
    vals.flags.writeable = False
    return _interpolant(vals, 1.0 - nodes)


def bound_series(series: ChebyshevSeries) -> BoundedSeries:
    """Rescale so |P(x)| <= ``QSVT_PEAK`` on [-1, 1] by the factor
    min(1, QSVT_PEAK / peak) (exactly 1 when the peak is at most
    QSVT_PEAK * (1 + 1e-9), so a second application keeps the series),
    with ``peak`` the certified bound on max|P|. A rescaled series is a new
    one, whose evaluator is one more M-grid transform; ``series`` is kept.

    The peak is the Ehlich-Zeller certificate (Math. Z. 86, 1964): P of
    degree d < K has max|P| <= max_j |P(x_j)| / cos(pi d / 2K) over the
    K + 1 points x_j = cos(pi j / K). The check transforms its own grid of
    K = ``_OVERSAMPLE`` M points, so d < M gives a peak never below the max
    of |P| on [-1, 1] and at most sec(pi / 32), 0.48%, above it. A
    definite-parity |P| is even, so only the grid's x >= 0 half, j = 0..K/2,
    is scanned."""
    k = _OVERSAMPLE * (series.evaluate.values.size - 1)
    vals = _values_on_cheb_grid(series.coefficients, k)
    scan = vals[:k // 2 + 1] if series.parity != "none" else vals  # x_j >= 0 at j <= K/2
    peak = float(np.max(np.abs(scan))) / math.cos(math.pi * series.degree / (2 * k))
    if peak <= QSVT_PEAK * (1.0 + 1e-9):
        return BoundedSeries(series, 1.0, peak)
    applied = QSVT_PEAK / peak
    rescaled = replace(
        series,
        coefficients=series.coefficients * applied,
        scale=None if series.scale is None else series.scale * applied,
    )
    return BoundedSeries(rescaled, applied, peak)


# A view of ``bound_series`` no library code calls; kept while perfbench's tracer wraps it.
def enforce_qsvt_bounds(series: ChebyshevSeries) -> tuple[ChebyshevSeries, float]:
    """``bound_series`` as the (possibly) rescaled series and the applied
    factor, which the solver undoes classically at readout. Idempotent: a
    second application reports a factor of exactly 1."""
    bounded = bound_series(series)
    return bounded.series, bounded.rescale
