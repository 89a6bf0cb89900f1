"""Reference evaluators for Chebyshev series in the tests.

``clenshaw_eval`` is the backward Clenshaw recurrence: O(degree) steps,
each vectorized over the points. It shares no code with the library's
barycentric evaluator, so the two check each other.

``dct1_values`` is the library's grid transform as it was before odd
series took their half-length DCT-II and before it moved from scipy to
numpy: one scipy DCT-I of length M+1 for any series.

``approx_error_report`` measures a series against ``scale / x`` on dense
uniform grids, with the library's ``cheb_eval``.

``scan_interpolant`` is the library's barycentric evaluator as it was
when it found exact node hits by scanning the whole points x nodes block
for zeros; the library now searches the node table instead, and on the
same node table must give the same bits.

``where_inverse_coefficients`` is the library's inverse-series coefficient
construction as it was when its +-4 sign pattern came from
``np.where(j % 2 == 0, 4.0, -4.0)``; the library now fills it by strided
assignment, and must give the same bits.

``series_record`` and ``check_bound`` are the library's evaluator and
bound check as they were when a ``(series, evaluate)`` record paired a
series with its M-grid evaluator: the series now carries that evaluator
itself, and must give the same bits.

``random_odd_target`` builds a random odd phase-finding target: the
``bound_series`` record that ``find_phases`` and ``verify_phases`` take.

``svt_reference`` is the singular value transform of an odd series with
no circuit: numpy's SVD and the Clenshaw recurrence, the ground truth the
QSVT block is checked against.

``trimmed`` and ``parity`` are the library's coefficient trim and parity
read as they were before every series became odd by construction, so the
references that used them keep their results on odd series.
"""

import math

import numpy as np
from scipy.fft import dct, next_fast_len

from qsvt_refine.invpoly import (
    ChebyshevSeries,
    _central_binomial,
    _grid_size,
    _interpolant,
    _node_offsets,
    _quarter_sines,
    _values_on_cheb_grid,
    bound_series,
    cheb_eval,
    degree_params,
)


def trimmed(coefs):
    """``coefs`` up to its last nonzero entry (its first entry if all are zero)."""
    nz = np.nonzero(coefs)[0]
    if nz.size == 0:
        return coefs[:1]
    return coefs[: nz[-1] + 1]


def parity(coefs):
    """``"odd"`` when the degree is odd and every even-index coefficient is
    zero, ``"even"`` when every odd-index one is (the zero vector included),
    ``"none"`` otherwise."""
    if (coefs.size - 1) % 2 and not np.any(coefs[0::2]):
        return "odd"
    return "none" if np.any(coefs[1::2]) else "even"


def clenshaw_eval(series, x):
    """Evaluate ``series`` at ``x`` (scalar or array, |x| <= 1)."""
    xs = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise ValueError("clenshaw_eval requires |x| <= 1")
    c = series.coefficients.tolist()
    b1 = b2 = 0.0
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * xs * b1 - b2, b1
    return c[0] + xs * b1 - b2


def dct1_values(coefs, npts):
    """Series values at x_j = cos(pi j / M), j = 0..M, by one DCT-I, with
    M the first FFT-friendly size of at least ``npts`` and ``coefs.size``."""
    m = next_fast_len(max(npts, coefs.size, 2), real=True)
    padded = np.zeros(m + 1)
    padded[: coefs.size] = coefs
    padded[1:] *= 0.5
    return dct(padded, type=1)


def approx_error_report(series, kappa: float,
                        grid: int = 10_000) -> tuple[float, float]:
    """Measure the series against its target on dense uniform grids.

    Returns ``(max_err_on_domain, max_abs_on_gap)``: the maximum of
    |P(x) - scale/x| over [1/kappa, 1] and the maximum of |P| over the
    excluded interval [0, 1/kappa].
    """
    scale = 1.0 if series.scale is None else series.scale
    xs = np.linspace(1.0 / kappa, 1.0, grid)
    err = float(np.max(np.abs(cheb_eval(series, xs) - scale / xs)))
    gap = np.linspace(0.0, 1.0 / kappa, grid)
    gap_max = float(np.max(np.abs(cheb_eval(series, gap))))
    return err, gap_max


def scan_interpolant(vals, chunk_elems=1 << 19):
    """Barycentric evaluator through ``vals[j]`` at x_j = cos(pi j / M),
    finding exact node hits with a full ``block == 0.0`` scan; the node
    offsets from +-1 are the library's."""
    m = vals.size - 1
    weights = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    from_one = _node_offsets(m)
    step = max(1, chunk_elems // (m + 1))

    def evaluate(x):
        out = np.empty(x.size)
        for side, shift, nodes in ((x >= 0.0, 1.0, -from_one), (x < 0.0, -1.0, from_one[::-1])):
            idx = np.flatnonzero(side)
            for start in range(0, idx.size, step):
                pts = idx[start:start + step]
                block = np.subtract.outer(x[pts] - shift, nodes)
                rows, cols = np.nonzero(block == 0.0)
                block[rows, cols] = 1.0
                np.divide(weights, block, out=block)
                den = block.sum(axis=1)
                block *= vals
                out[pts] = block.sum(axis=1) / den
                out[pts[rows]] = vals[cols]
        return out

    return evaluate


def where_inverse_coefficients(kappa, eps):
    """The coefficients of ``inverse_cheb_series(kappa, eps)``, its signs
    taken from ``np.where`` over an integer index."""
    b, cap = degree_params(kappa, eps)
    scale = 1.0 / (2.0 * kappa)
    jmax = min(cap, b - 1)
    q = (b - jmax) / (b + jmax + 1.0)
    past = math.ceil(math.log(2.0 ** -53 * (1.0 - q)) / math.log(q))
    i = np.arange(1.0, min(b, jmax + 1 + past) + 1)
    ratios = np.cumprod((b - i + 1.0) / (b + i))
    above = np.cumsum(ratios[::-1])[::-1][: jmax + 1]
    tail = _central_binomial(b) * above
    j = np.arange(jmax + 1)
    coefs = np.zeros(2 * j.size)
    coefs[1::2] = np.where(j % 2 == 0, 4.0, -4.0) * tail * scale
    return trimmed(coefs)


def series_record(series):
    """``(series, evaluate)``: the barycentric evaluator on the series'
    values at its degree's M grid, from one transform whose DCT-II twiddles
    are every second entry of the grid's sine table."""
    m = _grid_size(series.degree)
    sines = _quarter_sines(m)
    vals = _values_on_cheb_grid(series.coefficients, m, sines[::2])
    return series, _interpolant(vals, _node_offsets(m, sines))


def check_bound(record):
    """``(series, rescale, peak, evaluate)`` of a record: the Ehlich-Zeller
    peak over a grid of K = 16 M points (its x >= 0 half for a
    definite-parity series), the factor min(1, 0.9 / peak) with a 1 + 1e-9
    slack, the rescaled series, and an evaluator on the record's grid
    values times that factor."""
    series, evaluate = record
    values = evaluate.values
    k = 16 * (values.size - 1)
    vals = _values_on_cheb_grid(series.coefficients, k)
    scan = vals[:k // 2 + 1] if parity(series.coefficients) != "none" else vals
    peak = float(np.max(np.abs(scan))) / math.cos(math.pi * series.degree / (2 * k))
    if peak <= 0.9 * (1.0 + 1e-9):
        return series, 1.0, peak, evaluate
    applied = 0.9 / peak
    scale = None if series.scale is None else series.scale * applied
    rescaled = ChebyshevSeries(series.coefficients * applied, scale=scale)
    return rescaled, applied, peak, _interpolant(values * applied)


def random_odd_target(rng, degree, peak):
    """``bound_series`` target of an odd series of ``degree`` with standard
    normal coefficients, scaled so that its checked max|P| is ``peak``."""
    coefs = np.zeros(degree + 1)
    coefs[1::2] = rng.standard_normal((degree + 1) // 2)
    unscaled = bound_series(ChebyshevSeries(coefs))
    return bound_series(ChebyshevSeries(coefs * (peak / unscaled.peak)))


def svt_reference(a, series):
    """W P(Sigma) V^H of a = W Sigma V^H for the odd ``series``."""
    w, sigma, vh = np.linalg.svd(a)
    return (w * clenshaw_eval(series, sigma)) @ vh
