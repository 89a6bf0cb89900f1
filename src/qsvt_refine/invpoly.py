"""Odd Chebyshev approximation of the inverse function.

Builds the polynomial that tracks ``1 / (2 kappa x)`` on [-1, -1/kappa] u
[1/kappa, 1] from the binomial partial-sum expansion of
``(1 - (1 - x^2)^b) / x``, with the degree parameters b(eps, kappa) and
D(eps, kappa), plus the machinery needed to make the series admissible
for singular value transformation (global magnitude <= 1 on [-1, 1]; the
bound check scales it to ``QSVT_PEAK`` = 0.9, where phase finding
converges).
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
    "SeriesRecord",
    "series_record",
    "check_bound",
    "bound_series",
    "max_abs_on_interval",
    "QSVT_PEAK",
]

QSVT_PEAK = 0.9  # the max|P| check_bound scales a series down to
_REFINE_XTOL = 1e-9   # locates the grid maximum to ~1e-8 in |P|
_CHUNK_ELEMS = 1 << 19  # points x nodes per evaluation block (4 MiB of float64)
_EXACT_CENTRAL = 64  # C(2b, b) / 4^b from exact integers below this b
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)  # relative part of the peak search's tolerance


@dataclass(frozen=True)
class ChebyshevSeries:
    """Polynomial in the Chebyshev basis.

    ``coefficients[k]`` multiplies T_k; every coefficient is finite and
    the trailing one nonzero, so ``degree == len(coefficients) - 1``. An inverse
    approximation records its ``scale`` (``P(x) ~ scale / x``), passed by
    keyword only, so a stray second positional argument is refused rather
    than taken as a scale. ``parity`` is read off the coefficients.
    """

    coefficients: np.ndarray
    scale: Optional[float] = field(default=None, kw_only=True)

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.ndim != 1 or coefs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        if coefs.size > 1 and coefs[-1] == 0.0:
            raise ValueError("trailing coefficient must be nonzero (trim first)")
        object.__setattr__(self, "coefficients", coefs)

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
    j = np.arange(jmax + 1)
    coefs = np.zeros(2 * j.size)
    coefs[1::2] = np.where(j % 2 == 0, 4.0, -4.0) * tail * scale
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


def _interpolant(vals: np.ndarray, sines: Optional[np.ndarray] = None):
    """Evaluator of the polynomial through ``vals[j]`` at x_j = cos(pi j / M),
    for a 1-D array of points: the second-kind barycentric formula (Berrut &
    Trefethen 2004), O(M) work per point. x - x_j is taken from the endpoint
    on x's side, as 1 - x_j = 2 sin^2(pi j / 2M) keeps the nodes near +-1,
    where the slope reaches degree^2 * max|P|, exact to relative rounding;
    the sines are ``_quarter_sines(M)``, computed here unless the caller
    passes them. On an even M the middle node is x_{M/2} = 0 exactly. Each
    point is its own row reduction, so its value does not depend on its
    block, and a one-point array rounds as that point does among others.
    ``values`` is ``vals``, read at each call."""
    m = vals.size - 1
    weights = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    from_one = _node_offsets(m, sines)
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
    record's evaluator (``series_record``, one transform). A scalar returns
    the Python float of a one-point array call."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-12):
        raise ValueError("cheb_eval requires finite x with |x| <= 1")
    values = series_record(series).evaluate(xs.ravel())
    return float(values[0]) if np.isscalar(x) else values.reshape(xs.shape)


# Former name, still the one perfbench's tracer wraps (the same function).
clenshaw_eval = cheb_eval


# A view of ``bound_series`` no library code calls; kept while perfbench's tracer wraps it.
def max_abs_on_interval(series: ChebyshevSeries) -> float:
    """Max of |P| over [-1, 1], as ``bound_series`` checks it."""
    return bound_series(series).peak


@dataclass(frozen=True, eq=False)
class SeriesRecord:
    """A series with ``evaluate``, its interpolant on the M grid x_j =
    cos(pi j / M) (1-D arrays of x in [-1, 1], no checks), from one
    transform (``series_record``)."""

    series: ChebyshevSeries
    evaluate: Callable


@dataclass(frozen=True, eq=False)
class BoundedSeries:
    """A series rescaled so |P| <= ``QSVT_PEAK`` on [-1, 1], with what its bound check
    found: the applied factor ``rescale``, the checked max|P| of the series
    before rescaling (``peak``) and ``evaluate``, the rescaled series'
    interpolant on the record's M grid (1-D arrays of x in [-1, 1], no
    checks; its ``values`` are the record's times ``rescale``)."""

    series: ChebyshevSeries
    rescale: float
    peak: float
    evaluate: Callable


def series_record(series: ChebyshevSeries) -> SeriesRecord:
    """The series' values on the M grid, M = 2 * (the first FFT-friendly
    size of at least half its coefficient count), from one transform: M is
    even and at least the coefficient count, so x = 0 is a node, where an
    odd series reads exactly 0. The grid's sine table gives its nodes and,
    at every second entry, the odd series' DCT-II twiddles."""
    m = 2 * _next_fast_len(series.degree // 2 + 1)
    sines = _quarter_sines(m)
    vals = _values_on_cheb_grid(series.coefficients, m, sines[::2])
    return SeriesRecord(series, _interpolant(vals, sines))


def check_bound(record: SeriesRecord) -> BoundedSeries:
    """The bound check of ``bound_series`` on a record: its interpolant is
    read, never written, so the record stays the unscaled series'.

    The peak comes from a scan of |P| on the 2M grid x_j = cos(pi j / 2M),
    which the check transforms itself, plus a bounded Brent search
    (``_brent_min``) on the record's interpolant around each grid local
    maximum within pi^2/32 of the grid's top: P(cos theta) has degree
    d <= M, so the node nearest the maximizer lies within pi/(4M) of it in
    angle, and Bernstein's |P''| <= d^2 max|P| bounds that node's deficit by
    (1/2)(pi/4)^2 = pi^2/32 of the peak. A definite-parity |P| is even, so
    its top and rival lobes come from the grid's x >= 0 half, j = 0..M,
    alone."""
    series, interpolant = record.series, record.evaluate
    m = interpolant.values.size - 1
    last = 2 * m  # the 2M grid's last index
    vals = _values_on_cheb_grid(series.coefficients, last)
    scan = np.abs(vals[:m + 1] if series.parity != "none" else vals)  # x_j >= 0 at j <= M
    k = int(np.argmax(scan))

    def refined(k: int) -> float:
        # bracket nodes x_{k+1} < x_{k-1}, x_j = cos(pi j / (2M)) decreasing in j
        lo, hi = np.cos(np.pi * np.array([min(k + 1, last), max(k - 1, 0)]) / last)
        if lo >= hi:
            return float(scan[k])
        least = _brent_min(lambda t: -abs(interpolant(np.array([t]))[0]), lo, hi)
        return float(max(scan[k], -least))

    # a half grid ends at x_M = 0, whose right neighbour |P(x_{M+1})| mirrors
    # |P(x_{M-1})|, so clamping there leaves each comparison as it was
    end = scan.size - 1
    rivals = [int(j) for j in np.flatnonzero(scan >= (1.0 - np.pi ** 2 / 32) * scan[k])
              if j != k and scan[j] >= max(scan[max(j - 1, 0)], scan[min(j + 1, end)])]
    peak = max([refined(k)] + [refined(j) for j in rivals])
    if peak <= QSVT_PEAK * (1.0 + 1e-9):
        return BoundedSeries(series, 1.0, peak, interpolant)
    applied = QSVT_PEAK / peak
    rescaled = replace(
        series,
        coefficients=series.coefficients * applied,
        scale=None if series.scale is None else series.scale * applied,
    )
    return BoundedSeries(rescaled, applied, peak, _interpolant(interpolant.values * applied))


def bound_series(series: ChebyshevSeries) -> BoundedSeries:
    """Rescale so |P(x)| <= ``QSVT_PEAK`` on [-1, 1] by the factor
    min(1, QSVT_PEAK / peak) (exactly 1 when the peak is at most
    QSVT_PEAK * (1 + 1e-9), so a second application keeps the series):
    ``check_bound`` of ``series_record``, an M-grid transform for the
    evaluator, a 2M-grid one for the scan and one peak search."""
    return check_bound(series_record(series))


def _brent_min(f: Callable[[float], float], a: float, b: float) -> float:
    """Least value of f found on [a, b] by Brent's method (Brent 1973,
    ch. 5): a golden-section step, or a parabolic one through the three
    best points where it falls inside the bracket and shrinks faster,
    until the bracket's midpoint is within 2 tol - (b - a)/2 of the best
    point x, tol = sqrt(2.2e-16) |x| + _REFINE_XTOL / 3 (the steps, and so
    the points evaluated, of the tests' reference bounded ``minimize_scalar``)."""
    x = w = v = a + _GOLDEN * (b - a)  # best, second best, previous second best
    fx = fw = fv = f(x)
    step = prev = 0.0  # the last step and the one before it
    while True:
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + _REFINE_XTOL / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return fx
        golden = True
        if abs(prev) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, prev = prev, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                step = p / q
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if mid >= x else -tol
        if golden:
            prev = (a - x) if x >= mid else (b - x)
            step = _GOLDEN * prev
        u = x + (step if abs(step) >= tol else (tol if step >= 0.0 else -tol))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


# A view of ``bound_series`` no library code calls; kept while perfbench's tracer wraps it.
def enforce_qsvt_bounds(series: ChebyshevSeries) -> tuple[ChebyshevSeries, float]:
    """``bound_series`` as the (possibly) rescaled series and the applied
    factor, which the solver undoes classically at readout. Idempotent: a
    second application reports a factor of exactly 1."""
    bounded = bound_series(series)
    return bounded.series, bounded.rescale
