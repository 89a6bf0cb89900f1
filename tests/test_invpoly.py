import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from cheb_reference import (
    approx_error_report,
    check_bound,
    clenshaw_eval,
    dct1_values,
    scan_interpolant,
    series_record,
    where_inverse_coefficients,
)
from cheb_reference import parity as reference_parity
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from qsvt_refine import invpoly
from qsvt_refine.invpoly import (
    QSVT_PEAK,
    ChebyshevSeries,
    bound_series,
    cheb_eval,
    degree_params,
    enforce_qsvt_bounds,
    inverse_cheb_series,
    max_abs_on_interval,
)


def brute_inverse_coefficient(b: int, j: int) -> float:
    # direct rational-arithmetic oracle for 4 (-1)^j 2^{-2b} sum C(2b, b+i)
    total = sum(math.comb(2 * b, b + i) for i in range(j + 1, b + 1))
    return 4.0 * (-1) ** j * total / 4**b


def odd_degrees(top):
    # the odd degrees 1, 3, ..., top
    return st.integers(0, (top - 1) // 2).map(lambda k: 2 * k + 1)


def random_series(seed, degree):
    # the odd series of the odd ``degree`` with standard normal odd-index
    # coefficients and a trailing 1
    coefs = np.random.default_rng(seed).standard_normal(degree + 1)
    coefs[0::2] = 0.0
    coefs[-1] = 1.0
    return ChebyshevSeries(coefs)


def test_degree_params_frozen_values():
    assert degree_params(2.0, 0.1) == (12, 9)
    assert degree_params(10.0, 0.01) == (691, 94)


def test_degree_params_error_paths():
    with pytest.raises(ValueError):
        degree_params(1.0 + 1e-9, 1.0 + 5e-10)  # eps -> kappa from below
    with pytest.raises(ValueError):
        degree_params(0.9, 0.1)
    with pytest.raises(ValueError):
        degree_params(2.0, 0.0)
    # NaN fails every comparison and inf reached math.ceil; a factory given
    # kappa=inf reported eps' = eps_l / kappa = 0 instead
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
            degree_params(kappa, 1e-3)


def test_inverse_series_matches_exact_binomials():
    b, cap = degree_params(2.0, 0.1)
    series = inverse_cheb_series(2.0, 0.1)
    assert series.scale == 1.0 / (2.0 * 2.0)
    for j in range(min(cap, b - 1) + 1):
        exact = brute_inverse_coefficient(b, j)
        assert series.coefficients[2 * j + 1] / series.scale == pytest.approx(exact, rel=1e-12)


def test_inverse_series_parity_and_antisymmetry():
    series = inverse_cheb_series(3.0, 0.05)
    assert reference_parity(series.coefficients) == "odd"
    assert np.all(series.coefficients[0::2] == 0.0)
    xs = np.random.default_rng(4).uniform(-1.0, 1.0, 100)
    np.testing.assert_allclose(
        cheb_eval(series, -xs), -cheb_eval(series, xs), atol=1e-14
    )


def test_inverse_series_tracks_target_function():
    eps = 0.1
    b, _ = degree_params(2.0, eps)
    series = inverse_cheb_series(2.0, eps)
    xs = np.linspace(0.5, 1.0, 10_000)
    f = (1.0 - (1.0 - xs**2) ** b) / xs
    assert np.max(np.abs(cheb_eval(series, xs) / series.scale - f)) <= 2.0 * eps


def test_inverse_series_coefficient_decay():
    for kappa, eps in [(2.0, 0.1), (5.0, 0.05), (10.0, 0.1)]:
        series = inverse_cheb_series(kappa, eps)
        mags = np.abs(series.coefficients[1::2])
        tail = mags[2:]
        assert np.all(np.diff(tail) <= 1e-15), (kappa, eps)


def test_inverse_series_cap_beyond_b():
    # D >= b regime: coefficients with j >= b vanish, so the built degree
    # is 2 min(D, b-1) + 1
    b, cap = degree_params(1.0, 0.5)
    assert cap >= b
    series = inverse_cheb_series(1.0, 0.5)
    assert series.degree == 2 * (b - 1) + 1


def mpmath_binomial_tails(b: int, js) -> dict:
    # 2^{-2b} sum_{i=j+1}^{b} C(2b, b+i) to 40 digits for every j in js, in
    # one pass: the tail at max(js) from its first term (loggamma) up by the
    # term ratio (b-i)/(b+i+1), then down to min(js) adding one term per
    # step; mpmath's own betainc does not converge at b ~ 10^6
    top = max(js)
    with mpmath.workdps(40):
        first = mpmath.exp(mpmath.loggamma(2 * b + 1) - mpmath.loggamma(b + top + 2)
                           - mpmath.loggamma(b - top) - 2 * b * mpmath.log(2))
        term, total, i = first, mpmath.mpf(0), top + 1
        while i <= b and term > total * mpmath.mpf("1e-45"):
            total += term
            term *= mpmath.mpf(b - i) / (b + i + 1)
            i += 1
        tails, term = {}, first
        for j in range(top, min(js) - 1, -1):
            tails[j] = +total
            term *= mpmath.mpf(b + j + 1) / (b - j)  # C(2b, b+j) 4^-b
            total += term
        return {j: tails[j] for j in js}


@pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 10.0, 100.0, 300.0])
def test_inverse_series_matches_mpmath_tail(kappa):
    # eight j across [0, jmax] and eight in the top decile, next to the
    # j = jmax end the ratio sums run past; b = 5, 12 and 82 take the
    # central term from exact integers and from its Stirling series on
    # either side of the switch at b = 64
    b, cap = degree_params(kappa, 0.4 / kappa**2)
    series = inverse_cheb_series(kappa, 0.4 / kappa**2)
    coefs = series.coefficients / series.scale
    jmax = min(cap, b - 1)
    js = np.unique(np.round(np.concatenate([np.linspace(0, jmax, 8),
                                            np.linspace(0.9 * jmax, jmax, 8)])))
    wants = mpmath_binomial_tails(b, [int(j) for j in js])
    assert len(wants) >= min(8, jmax + 1) and max(wants) == jmax
    for j, want in wants.items():
        got = (-1) ** j * coefs[2 * j + 1] / 4.0
        assert abs(got - want) <= 1e-14 * want, (kappa, j, float(got / want - 1))


@pytest.mark.parametrize("b", [1, 2, 5, 12, 63, 64, 65, 82, 200, 783])
def test_central_binomial_matches_exact_integers(b):
    # the Stirling branch from b = 64 on, the exact quotient below it
    want = mpmath.mpf(math.comb(2 * b, b)) / mpmath.mpf(4) ** b
    assert abs(invpoly._central_binomial(b) / want - 1) <= 4e-16


def traced_peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inverse_series_builds_in_small_memory():
    # kappa = 300: b = 1.6e6 binomial terms, but only the D + 1 tails are held
    peak = traced_peak_bytes(inverse_cheb_series, 300.0, 0.4 / 300.0**2)
    assert peak < 8 * 2**20, peak


def test_series_compare_by_identity_and_hash():
    # compared by value, equal coefficient arrays made == raise ValueError
    # and hash() TypeError
    s, t = ChebyshevSeries(np.array([0.0, 0.5])), ChebyshevSeries(np.array([0.0, 0.5]))
    assert s == s and s != t
    assert len({s, t, s}) == 2


def test_clenshaw_examples():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        t3 = ChebyshevSeries(np.array([0.0, 0.0, 0.0, 1.0]))
        assert evaluate(t3, 0.5) == pytest.approx(-1.0)
        t1 = ChebyshevSeries(np.array([0.0, 1.0]))
        assert evaluate(t1, 0.123) == pytest.approx(0.123)
        with pytest.raises(ValueError):
            evaluate(t1, 1.5)


def test_clenshaw_against_trigonometric_oracle():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        rng = np.random.default_rng(8)
        coefs = rng.standard_normal(10)
        coefs[0::2] = 0.0
        series = ChebyshevSeries(coefs)
        x = 0.3
        direct = sum(c * math.cos(k * math.acos(x)) for k, c in enumerate(coefs))
        assert evaluate(series, x) == pytest.approx(direct, abs=1e-13)

        coefs = rng.standard_normal(502)
        coefs[0::2] = 0.0
        coefs[-1] = coefs[-1] or 1.0
        series = ChebyshevSeries(coefs)
        xs = rng.uniform(-1.0, 1.0, 1000)
        theta = np.arccos(xs)
        direct = sum(c * np.cos(k * theta) for k, c in enumerate(coefs))
        np.testing.assert_allclose(evaluate(series, xs), direct, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(degree=odd_degrees(401), seed=st.integers(0, 2**16),
       points=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_clenshaw_scalar_and_array_agree_exactly(degree, seed, points):
    # a scalar is evaluated as its own one-point block and rounds exactly
    # as the same points evaluated together as an array
    series = random_series(seed, degree)
    along_array = cheb_eval(series, np.array(points))
    for x, want in zip(points, along_array):
        for scalar in (x, np.float64(x)):
            got = cheb_eval(series, scalar)
            assert type(got) is float and got == want
    with pytest.raises(ValueError, match="requires"):
        cheb_eval(series, 1.0 + 1e-9)


def test_cheb_eval_rejects_nan_and_infinite_points():
    # NaN fails both side masks, so it would return uninitialized memory
    series = inverse_cheb_series(10.0, 1e-3)
    for x in (float("nan"), np.float64("nan"), np.array([0.5, np.nan, -0.5]), np.inf,
              np.array([[-np.inf]])):
        with pytest.raises(ValueError, match="requires finite"):
            cheb_eval(series, x)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 700), seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, 2**16), max_size=12),
       points=st.lists(st.floats(-1.0, 1.0), max_size=8))
def test_node_search_matches_the_full_scan_bit_for_bit(m, seed, picks, points):
    # exact nodes on either side, as offsets from +-1 and as cosines, then
    # +-1, +-0.0 and interior points; a missed hit would divide by zero
    vals = np.random.default_rng(seed).standard_normal(m + 1)
    from_one = invpoly._node_offsets(m)
    nodes = np.concatenate([1.0 - from_one, from_one - 1.0, np.cos(np.pi * np.arange(m + 1) / m)])
    xs = np.concatenate([[1.0, -1.0, 0.0, -0.0], nodes[np.asarray(picks, dtype=int) % nodes.size],
                         points])
    got = invpoly._interpolant(vals)(xs)
    want = scan_interpolant(vals)(xs)
    assert np.all(got == want)


@settings(max_examples=40, deadline=None)
@given(degree=odd_degrees(401), seed=st.integers(0, 2**16),
       points=st.lists(st.floats(-1.0, 1.0), max_size=16))
def test_grid_interpolant_reads_its_function_once_on_the_degrees_grid(degree, seed, points):
    # f is read once, at the M + 1 nodes of the M grid a series of the
    # degree evaluates on, as symmetric doubles; the evaluator returns those
    # values exactly at the nodes and the polynomial to rounding elsewhere,
    # here against the series' own evaluator, of norm sum |c_k|
    series = random_series(seed, degree)
    coefs = series.coefficients
    calls = []
    evaluate = invpoly.grid_interpolant(lambda xs: calls.append(xs) or cheb_eval(series, xs),
                                        degree)
    (nodes,) = calls
    m = series.evaluate.values.size - 1
    assert nodes.size == m + 1 and m > degree
    assert nodes[0] == 1.0 and nodes[m // 2] == 0.0 and np.array_equal(nodes, -nodes[::-1])
    np.testing.assert_allclose(nodes, np.cos(np.pi * np.arange(m + 1) / m), rtol=0, atol=1e-15)
    assert np.array_equal(evaluate(nodes), evaluate.values)
    with pytest.raises(ValueError, match="read-only"):
        evaluate.values[0] = 0.0
    xs = np.array(points + [1.0 - 1e-9, -1.0 + 1e-9])
    np.testing.assert_allclose(evaluate(xs), cheb_eval(series, xs), rtol=0,
                               atol=2e-13 * np.abs(coefs).sum())


def special_points(series, picks):
    # +-1, 0 and exact nodes of the grid the evaluator interpolates on
    size = series.evaluate.values.size
    nodes = np.cos(np.pi * np.arange(size) / (size - 1))
    return np.concatenate([[-1.0, 0.0, 1.0], nodes[np.asarray(picks, dtype=int) % nodes.size]])


def mpmath_cheb_eval(series, x):
    # sum c_k cos(k arccos x) to 40 digits
    with mpmath.workdps(40):
        theta = mpmath.acos(mpmath.mpf(float(x)))
        return float(mpmath.fsum(c * mpmath.cos(k * theta)
                                 for k, c in enumerate(series.coefficients.tolist()) if c))


@settings(max_examples=40, deadline=None)
@given(degree=odd_degrees(2001), seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, 2**16), max_size=4),
       points=st.lists(st.floats(-1.0, 1.0), max_size=16))
@example(degree=951, seed=0, picks=[], points=[0.9999999999999999])
def test_cheb_eval_matches_clenshaw_reference(degree, seed, picks, points):
    # Clenshaw's own error grows like degree^2 * eps next to +-1 (4.2e-10 at
    # degree 951, x = 1 - 2^-53, where cheb_eval is within 3.3e-15), so
    # points within 1e-6 of +-1 are compared with a 40-digit sum instead
    series = random_series(seed, degree)
    xs = np.concatenate([special_points(series, picks), points])
    want = clenshaw_eval(series, xs)
    near = np.abs(xs) > 1.0 - 1e-6
    want[near] = [mpmath_cheb_eval(series, x) for x in xs[near]]
    err = np.max(np.abs(cheb_eval(series, xs) - want))
    assert err <= 1e-12 * np.sum(np.abs(series.coefficients))


@settings(max_examples=80, deadline=None)
@given(terms=st.integers(1, 200), seed=st.integers(0, 2**16), bound_check_grid=st.booleans())
@example(terms=1, seed=0, bound_check_grid=True)
def test_odd_grid_values_match_the_dct1(terms, seed, bound_check_grid):
    # the half-length DCT-II on the series' even M grid, or on a 2M one,
    # against the reference DCT-I on the same grid (an even FFT-friendly
    # size, which the reference keeps); parity makes P(0) = 0 and the grid
    # antisymmetric exactly, not to rounding
    coefs = np.zeros(2 * terms)
    coefs[1::2] = np.random.default_rng(seed).standard_normal(terms)
    m = (4 if bound_check_grid else 2) * next_fast_len(terms, real=True)
    got = invpoly._values_on_cheb_grid(coefs, m)
    want = dct1_values(coefs, m)
    assert got.size == want.size == m + 1
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.sum(np.abs(coefs))
    assert got[m // 2] == 0.0
    assert np.array_equal(got, -got[::-1])


def test_next_fast_len_matches_scipy():
    # every grid size M stays what the scipy-based transform chose
    got = [invpoly._next_fast_len(n) for n in range(1, 2**16 + 1)]
    assert got == [next_fast_len(n, real=True) for n in range(1, 2**16 + 1)]


@settings(max_examples=60, deadline=None)
@given(degree=odd_degrees(20_001), seed=st.integers(0, 2**16))
@example(degree=13, seed=0)
def test_record_grid_is_even_and_holds_every_coefficient(degree, seed):
    # M = 2 * next_fast_len(degree // 2 + 1): even, so x = 0 is a node, and
    # at least the coefficient count; the odd series' DCT-II twiddles, read
    # off the M grid's own sine table, give the transform's values exactly
    series = random_series(seed, degree)
    values = series.evaluate.values
    m = values.size - 1
    assert m % 2 == 0 and m >= series.coefficients.size
    assert m == 2 * next_fast_len(degree // 2 + 1, real=True)
    assert np.array_equal(values, invpoly._values_on_cheb_grid(series.coefficients, m))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 3999), seed=st.integers(0, 2**16))
@example(degree=13, seed=0)
def test_odd_series_reads_exactly_zero_at_zero(degree, seed):
    # degree 13 once took an odd grid of 15 points, with no node at 0
    series = random_series(seed, degree | 1)
    zeros = np.array([0.0, -0.0])
    assert np.array_equal(series.evaluate(zeros), [0.0, 0.0])
    assert np.array_equal(cheb_eval(series, zeros), [0.0, 0.0])
    assert cheb_eval(series, 0.0) == 0.0 and cheb_eval(series, -0.0) == 0.0


@pytest.mark.parametrize("kappa, eps", [(10.0, 1e-3), (300.0, 0.4 / 300**2), (2.0, 0.05)])
def test_odd_series_is_exactly_zero_at_zero_on_an_even_grid(kappa, eps):
    # x = 0 is the node x_{M/2}, where parity gives exactly 0; its offset
    # from 1 taken as 2 sin^2(pi/4) rounds to 1 - 2^-52, a node off 0 that
    # reads -1e-14 at kappa 10 and -4.4e-13 at kappa 300
    series = inverse_cheb_series(kappa, eps)
    evaluate = bound_series(series).series.evaluate
    assert evaluate.values.size % 2 == 1
    assert np.array_equal(evaluate(np.array([0.0, -0.0, 0.5]))[:2], [0.0, 0.0])
    assert evaluate(np.array([-0.0]))[0] == 0.0
    assert cheb_eval(series, 0.0) == 0.0


def test_cheb_eval_matches_clenshaw_reference_above_degree_10k():
    series = random_series(3, 12_001)
    xs = np.concatenate([special_points(series, [1, 2, 6000, 12_000]),
                         np.random.default_rng(3).uniform(-1.0, 1.0, 200)])
    err = np.max(np.abs(cheb_eval(series, xs) - clenshaw_eval(series, xs)))
    assert err <= 1e-12 * np.sum(np.abs(series.coefficients))


def test_cheb_eval_working_memory_is_bounded():
    # 10^4 points on a degree-13485 series: evaluated in blocks, never as
    # one 10^4 x 4d array (4 GiB)
    series = random_series(5, 13_485)
    peak = traced_peak_bytes(cheb_eval, series, np.linspace(-1.0, 1.0, 10_000))
    assert peak < 64 * 2**20, peak


def critical_point_peak(series):
    # max of |P| at +-1 and the real roots of P' in [-1, 1]
    c = series.coefficients
    roots = np.polynomial.chebyshev.chebroots(np.polynomial.chebyshev.chebder(c)) if c.size > 2 else []
    xs = [r.real for r in np.atleast_1d(roots) if abs(r.imag) < 1e-9 and abs(r.real) <= 1.0]
    return float(np.max(np.abs(np.polynomial.chebyshev.chebval(np.array([-1.0, 1.0] + xs), c))))


def certificate_slack(degree):
    # sec(pi d / 2K) of the Ehlich-Zeller bound on the check's grid of
    # K = 16 M points, M = 2 * next_fast_len(d // 2 + 1) the series' grid
    scan = 16 * 2 * next_fast_len(degree // 2 + 1, real=True)
    return 1.0 / math.cos(math.pi * degree / (2 * scan))


def assert_certifies(series, true_max, spread=1.0):
    # the certificate's contract: true max <= peak <= true max * sec(pi d / 2K),
    # with the true max known to within a factor ``spread`` above ``true_max``
    peak = max_abs_on_interval(series)
    assert true_max * (1.0 - 1e-9) <= peak
    assert peak <= true_max * spread * certificate_slack(series.degree) * (1.0 + 1e-9)
    assert certificate_slack(series.degree) <= 1.0 / math.cos(math.pi / 32)


def test_max_abs_finds_a_peak_away_from_the_grid_maximizer():
    # |P| peaks at 1.0107 near x = +-0.83, between the series' grid nodes;
    # that grid's largest value (0.9990 at x = 0.31) sits next to a lower
    # local maximum, and the certificate still covers the peak
    series = ChebyshevSeries(np.array([0.0, -0.257, 0.0, -0.264, 0.0, 0.865]))
    assert_certifies(series, 1.0107002835399)


@settings(max_examples=60, deadline=None)
@given(degree=odd_degrees(61), seed=st.integers(0, 2**16))
def test_max_abs_matches_critical_points(degree, seed):
    series = random_series(seed, degree)
    assert_certifies(series, critical_point_peak(series))


@settings(max_examples=60, deadline=None)
@given(degree=odd_degrees(199), seed=st.integers(0, 2**16))
@example(degree=199, seed=0)
def test_checked_peak_never_undershoots_a_dense_sample(degree, seed):
    # the certified peak is never below the true max and at most
    # sec(pi d / 2K) above it: the true max from the critical points up to
    # degree 60, and beyond that bracketed by a Chebyshev sample 64 times
    # denser than the degree, whose own Ehlich-Zeller slack is sec(pi/128)
    series = random_series(seed, degree)
    if degree <= 60:
        assert_certifies(series, critical_point_peak(series))
        return
    dense = np.cos(np.pi * np.arange(64 * degree + 1) / (64 * degree))
    top = float(np.max(np.abs(clenshaw_eval(series, dense))))
    assert_certifies(series, top, spread=1.0 / math.cos(math.pi / 128))


@pytest.mark.parametrize("series", [inverse_cheb_series(10.0, 1e-3),
                                    inverse_cheb_series(268.0, 0.4 / 268.0**2)],
                         ids=["odd", "large"])
def test_bound_check_transforms_one_grid_of_2m_points(series, monkeypatch):
    # a series makes one transform, on the M grid its interpolant, and so
    # a memoized evaluator, reads; the bound check makes one more, its own
    # 16M-point scan (the test is named for the 2M scan that preceded it),
    # and never evaluates the series' interpolant; a rescaled series is a
    # new one, with its own M-grid transform (both keys are rescaled)
    calls = []

    def counted(coefs, npts, *rest, _real=invpoly._values_on_cheb_grid):
        calls.append(npts)
        return _real(coefs, npts, *rest)

    monkeypatch.setattr(invpoly, "_values_on_cheb_grid", counted)
    series = ChebyshevSeries(series.coefficients, scale=series.scale)
    m = 2 * next_fast_len(series.degree // 2 + 1, real=True)
    assert calls == [m]
    assert series.evaluate.values.size == m + 1
    read = []

    def watched(x, _real=series.evaluate):
        read.append(x)
        return _real(x)

    watched.values = series.evaluate.values
    object.__setattr__(series, "evaluate", watched)
    bounded = bound_series(series)
    assert bounded.rescale < 1.0
    assert calls == [m, 16 * m, m] and read == []
    assert bounded.series.evaluate.values.size == m + 1


@pytest.mark.parametrize("eps_l", [1e-2, 1e-3, 1e-4])
def test_certified_rescale_keeps_the_exact_peaks_success_probability(eps_l):
    # p goes with the square of the rescale factor. Against the exact-peak
    # factor 0.9 / max|P| the certified one loses at most cos(pi d / 2K),
    # so p keeps at least cos^2(pi / 32) > 0.990 of it; with the true max
    # bracketed by ``top``, a 64d-point Chebyshev sample, within sec(pi/128)
    series = inverse_cheb_series(10.0, eps_l / 10.0)
    d = series.degree
    dense = np.cos(np.pi * np.arange(64 * d + 1) / (64 * d))
    top = float(np.max(np.abs(clenshaw_eval(series, dense))))
    factor = bound_series(series).rescale
    assert factor < 1.0
    low = QSVT_PEAK * math.cos(math.pi / 128) / (certificate_slack(d) * top)
    assert low <= factor <= QSVT_PEAK / top
    assert certificate_slack(d) ** -2 > 0.990


def test_enforce_bounds_trivial_cases():
    bounded = ChebyshevSeries(np.array([0.0, 0.5]))
    same, scale = enforce_qsvt_bounds(bounded)
    assert scale == 1.0 and same is bounded

    # max|2 T1| = 2 sits at the node x = 1, so the certified peak is
    # 2 sec(pi d / 2K) with d = 1, K = 16 M = 32, and the scale QSVT_PEAK / peak
    two_t1 = ChebyshevSeries(np.array([0.0, 2.0]))
    scaled, scale = enforce_qsvt_bounds(two_t1)
    assert scale == pytest.approx(0.45 * math.cos(math.pi / 64), rel=1e-12)
    assert max_abs_on_interval(scaled) <= QSVT_PEAK * (1.0 + 1e-9)


def test_enforce_bounds_inverse_series_and_idempotency():
    series = inverse_cheb_series(4.0, 0.05)
    bounded, applied = enforce_qsvt_bounds(series)
    assert max_abs_on_interval(bounded) <= 1.0
    assert 0.0 < applied <= 1.0
    again, second = enforce_qsvt_bounds(bounded)
    assert second == 1.0
    assert again is bounded


@settings(max_examples=100, deadline=None)
@given(degree=odd_degrees(199), seed=st.integers(0, 2**16))
def test_bound_series_bounds_its_peak_and_is_idempotent(degree, seed):
    checked = bound_series(random_series(seed, degree))
    assert checked.peak * checked.rescale <= QSVT_PEAK * (1.0 + 1e-9)
    # the factor is 1 exactly when the peak is within a relative 1e-9 of QSVT_PEAK
    assert (checked.rescale == 1.0) == (checked.peak <= QSVT_PEAK * (1.0 + 1e-9))
    again = bound_series(checked.series)
    assert again.rescale == 1.0 and again.series is checked.series


@pytest.mark.parametrize("kappa, eps", [(10.0, 1e-3), (10.0, 1e-2), (300.0, 0.4 / 300**2)])
def test_bound_series_keeps_what_its_check_found(kappa, eps):
    series = inverse_cheb_series(kappa, eps)
    checked = bound_series(series)
    bounded, applied = enforce_qsvt_bounds(series)
    assert checked.rescale == applied
    assert np.array_equal(checked.series.coefficients, bounded.coefficients)
    assert checked.series.scale == bounded.scale
    assert checked.peak * checked.rescale <= 1.0
    assert checked.peak * checked.rescale == pytest.approx(max_abs_on_interval(checked.series),
                                                           rel=1e-9)
    # the bounded series' evaluator interpolates it
    xs = np.concatenate([[-1.0, 1.0 / kappa, 1.0],
                         np.random.default_rng(0).uniform(-1.0, 1.0, 64)])
    err = np.max(np.abs(checked.series.evaluate(xs) - clenshaw_eval(checked.series, xs)))
    assert err <= 1e-13 * np.sum(np.abs(checked.series.coefficients))


@settings(max_examples=40, deadline=None)
@given(degree=odd_degrees(19_999), seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, 40_000), max_size=4),
       points=st.lists(st.floats(-1.0, 1.0), max_size=8))
@example(degree=19_999, seed=0, picks=[], points=[])
def test_series_evaluator_is_the_reference_records_bit_for_bit(degree, seed, picks, points):
    # the evaluator a series builds for itself is the one a record paired
    # with it: the same grid values and the same value at every point
    series = random_series(seed, degree)
    _, evaluate = series_record(series)
    assert np.array_equal(series.evaluate.values, evaluate.values)
    xs = np.concatenate([special_points(series, picks), points])
    assert np.array_equal(series.evaluate(xs), evaluate(xs))


@settings(max_examples=40, deadline=None)
@given(degree=odd_degrees(19_999), seed=st.integers(0, 2**16), norm=st.floats(0.05, 3.0),
       points=st.lists(st.floats(-1.0, 1.0), max_size=8))
@example(degree=19_999, seed=0, norm=3.0, points=[])
@example(degree=1, seed=0, norm=0.5, points=[])
@example(degree=1, seed=0, norm=0.9, points=[])  # certified 0.9011: rescaled
def test_bound_series_is_the_reference_check_bit_for_bit(degree, seed, norm, points):
    # the peak and the factor are the reference check's bits, from the same
    # 16M-grid scan; sum |c_k| = ``norm`` bounds the max, and the certified
    # peak exceeds that by at most sec(pi d / 2K), K = 16 M, so a norm below
    # QSVT_PEAK cos(pi d / 2K) leaves the series as it is (a norm of 0.9 at
    # d = 1 need not). A rescaled series' evaluator comes
    # from its own transform, not from the grid values times the factor:
    # the two differ by the transform's rounding, at most 4 u log2(2M)
    # sum |f c_k| on the grid (u = 2^-53; the FFT's error on values of
    # magnitude at most sum |f c_k|), and at a point by at most the
    # Lebesgue constant 1 + (2 / pi) ln(M + 1) of the M grid times that
    coefs = random_series(seed, degree).coefficients
    series = ChebyshevSeries(coefs * (norm / np.sum(np.abs(coefs))))
    bounded = bound_series(series)
    reference, rescale, peak, evaluate = check_bound(series_record(series))
    assert bounded.peak == peak and bounded.rescale == rescale
    assert np.array_equal(bounded.series.coefficients, reference.coefficients)
    if rescale == 1.0:
        assert bounded.series is series
        assert np.array_equal(bounded.series.evaluate.values, evaluate.values)
        return
    m = series.evaluate.values.size - 1
    assert norm > QSVT_PEAK * math.cos(math.pi * series.degree / (32 * m))
    grid = 4 * 2.0**-53 * math.log2(2 * m) * np.sum(np.abs(bounded.series.coefficients))
    assert np.max(np.abs(bounded.series.evaluate.values - evaluate.values)) <= grid
    xs = np.concatenate([special_points(series, []), points])
    lebesgue = 1.0 + 2.0 / math.pi * math.log(m + 1)
    assert np.max(np.abs(bounded.series.evaluate(xs) - evaluate(xs))) <= lebesgue * grid


def test_error_report():
    kappa, eps = 2.0, 0.1
    series = inverse_cheb_series(kappa, eps)
    bounded, _ = enforce_qsvt_bounds(series)
    err, gap = approx_error_report(bounded, kappa)
    assert math.isfinite(err) and math.isfinite(gap)
    assert err <= 2.0 * eps * bounded.scale
    assert gap <= 1.0


def test_series_validation():
    with pytest.raises(ValueError, match="trailing"):
        ChebyshevSeries(np.array([1.0, 0.0]))
    # the parity argument is gone and the scale is keyword-only, so a call
    # that still passes a parity fails instead of setting the scale
    with pytest.raises(TypeError):
        ChebyshevSeries(np.array([0.0, 1.0]), "odd")
    # an inf coefficient was bound-checked to rescale 0.0 (a series silently
    # scaled to zero), a NaN one to rescale NaN
    for coefs in ([0.0, math.inf], [0.0, math.nan], [math.nan], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ChebyshevSeries(np.array(coefs))


@pytest.mark.parametrize("coefs, parity", [
    ([0.0], "even"), ([2.0], "even"), ([1.0, 0.0, -1.0], "even"), ([0.0, 1.0], "odd"),
    ([0.0, 0.0, 0.0, -1.0], "odd"), ([1.0, 1.0], "none"), ([0.0, 1.0, 1.0], "none"),
    ([1.0, 0.0, 0.0, 1.0], "none"),
])
def test_parity_is_read_off_the_coefficients(coefs, parity):
    # the constructor reads the parity off the coefficients and builds an
    # odd series only; the reference's parity read agrees with the cases
    coefs = np.array(coefs)
    assert reference_parity(coefs) == parity
    if parity == "odd":
        assert ChebyshevSeries(coefs).degree % 2 == 1
        return
    with pytest.raises(ValueError, match="not an odd series"):
        ChebyshevSeries(coefs)


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(1.0, 300.0, exclude_min=True), eps_l=st.floats(1e-4, 0.9))
@example(kappa=10.0, eps_l=1e-2)
@example(kappa=300.0, eps_l=0.4 / 300.0)
def test_inverse_series_signs_are_the_where_constructions_bits(kappa, eps_l):
    got = inverse_cheb_series(kappa, eps_l / kappa).coefficients
    assert got.tobytes() == where_inverse_coefficients(kappa, eps_l / kappa).tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 20_000))
@example(m=1)
@example(m=2)
def test_interpolant_weights_are_the_where_constructions_bits(m):
    # the barycentric weights (-1)^j, halved at both ends, read from the
    # evaluator's closure
    evaluate = invpoly._interpolant(np.zeros(m + 1))
    cells = dict(zip(evaluate.__code__.co_freevars,
                     (cell.cell_contents for cell in evaluate.__closure__)))
    want = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    want[[0, -1]] *= 0.5
    assert cells["weights"].tobytes() == want.tobytes()
