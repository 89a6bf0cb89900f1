import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from cheb_reference import approx_error_report, clenshaw_eval, dct1_values, scan_interpolant
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.optimize import minimize_scalar

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
    assert series.parity == "odd"
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


def test_clenshaw_examples():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        t3 = ChebyshevSeries(np.array([0.0, 0.0, 0.0, 1.0]))
        assert evaluate(t3, 0.5) == pytest.approx(-1.0)
        t0 = ChebyshevSeries(np.array([1.0]))
        assert evaluate(t0, 0.123) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            evaluate(t0, 1.5)


def test_clenshaw_against_trigonometric_oracle():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        rng = np.random.default_rng(8)
        coefs = rng.standard_normal(10)
        series = ChebyshevSeries(coefs)
        x = 0.3
        direct = sum(c * math.cos(k * math.acos(x)) for k, c in enumerate(coefs))
        assert evaluate(series, x) == pytest.approx(direct, abs=1e-13)

        coefs = rng.standard_normal(501)
        coefs[-1] = coefs[-1] or 1.0
        series = ChebyshevSeries(coefs)
        xs = rng.uniform(-1.0, 1.0, 1000)
        theta = np.arccos(xs)
        direct = sum(c * np.cos(k * theta) for k, c in enumerate(coefs))
        np.testing.assert_allclose(evaluate(series, xs), direct, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 400), seed=st.integers(0, 2**16),
       points=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_clenshaw_scalar_and_array_agree_exactly(degree, seed, points):
    # a scalar is evaluated as its own one-point block and rounds exactly
    # as the same points evaluated together as an array
    coefs = np.random.default_rng(seed).standard_normal(degree + 1)
    coefs[-1] = 1.0
    series = ChebyshevSeries(coefs)
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


def random_series(seed, degree, parity):
    coefs = np.random.default_rng(seed).standard_normal(degree + 1)
    if parity == "odd":
        coefs[0::2] = 0.0
    elif parity == "even":
        coefs[1::2] = 0.0
    coefs[-1] = 1.0
    series = ChebyshevSeries(coefs)
    assert parity == "none" or series.parity == parity
    return series


def grid_values(coefs, npts):
    # the transform on the grid dct1_values takes: M the first FFT-friendly
    # size of at least npts and coefs.size, which the caller searches for
    return invpoly._values_on_cheb_grid(coefs, next_fast_len(max(npts, coefs.size, 2), real=True))


def special_points(series, picks):
    # +-1, 0 and exact nodes of the grid the evaluator interpolates on
    size = invpoly.series_record(series).evaluate.values.size
    nodes = np.cos(np.pi * np.arange(size) / (size - 1))
    return np.concatenate([[-1.0, 0.0, 1.0], nodes[np.asarray(picks, dtype=int) % nodes.size]])


def mpmath_cheb_eval(series, x):
    # sum c_k cos(k arccos x) to 40 digits
    with mpmath.workdps(40):
        theta = mpmath.acos(mpmath.mpf(float(x)))
        return float(mpmath.fsum(c * mpmath.cos(k * theta)
                                 for k, c in enumerate(series.coefficients.tolist()) if c))


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 2000), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, 2**16), max_size=4),
       points=st.lists(st.floats(-1.0, 1.0), max_size=16))
@example(degree=950, parity="odd", seed=0, picks=[], points=[0.9999999999999999])
def test_cheb_eval_matches_clenshaw_reference(degree, parity, seed, picks, points):
    # Clenshaw's own error grows like degree^2 * eps next to +-1 (4.2e-10 at
    # degree 951, x = 1 - 2^-53, where cheb_eval is within 3.3e-15), so
    # points within 1e-6 of +-1 are compared with a 40-digit sum instead
    if parity == "odd":
        degree += 1 - degree % 2
    elif parity == "even":
        degree -= degree % 2
    series = random_series(seed, degree, parity)
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
    # an odd series on an even grid takes the half-length DCT-II; parity
    # makes P(0) = 0 and the grid antisymmetric exactly, not to rounding
    coefs = np.zeros(2 * terms)
    coefs[1::2] = np.random.default_rng(seed).standard_normal(terms)
    degree = coefs.size - 1
    npts = 4 * next_fast_len(degree // 2 + 1, real=True) if bound_check_grid else degree
    got = grid_values(coefs, npts)
    want = dct1_values(coefs, npts)
    assert got.size == want.size
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.sum(np.abs(coefs))
    m = got.size - 1
    if m % 2 == 0:
        assert got[m // 2] == 0.0
        assert np.array_equal(got, -got[::-1])


def test_next_fast_len_matches_scipy():
    # every grid size M stays what the scipy-based transform chose
    got = [invpoly._next_fast_len(n) for n in range(1, 2**16 + 1)]
    assert got == [next_fast_len(n, real=True) for n in range(1, 2**16 + 1)]


ODD_SIZES = [m for m in range(1, 2000, 2) if next_fast_len(m, real=True) == m]


@settings(max_examples=80, deadline=None)
@given(degree=st.integers(0, 600), seed=st.integers(0, 2**16),
       parity=st.sampled_from(["odd", "even", "none"]), odd_grid=st.booleans(),
       pick=st.integers(0, 2**16))
@example(degree=1, seed=0, parity="odd", odd_grid=True, pick=0)
def test_dct1_path_matches_the_scipy_reference(degree, seed, parity, odd_grid, pick):
    # the real FFT of the even extension: any series on an odd grid, and
    # even and no-parity series on any grid
    if parity == "odd":
        degree += 1 - degree % 2
        odd_grid = True
    elif parity == "even":
        degree -= degree % 2
    coefs = random_series(seed, degree, parity).coefficients
    sizes = [m for m in ODD_SIZES if m >= max(coefs.size, 2)] if odd_grid else range(1, 3000)
    npts = sizes[pick % len(sizes)]
    got = grid_values(coefs, npts)
    want = dct1_values(coefs, npts)
    assert got.size == want.size and (got.size % 2 == 0 or not odd_grid)
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 20_000), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16))
@example(degree=0, parity="even", seed=0)
@example(degree=13, parity="odd", seed=0)
def test_record_grid_is_even_and_holds_every_coefficient(degree, parity, seed):
    # M = 2 * next_fast_len(degree // 2 + 1): even, so x = 0 is a node, and
    # at least the coefficient count; the odd series' DCT-II twiddles, read
    # off the M grid's own sine table, give the transform's values exactly
    if parity == "odd":
        degree += 1 - degree % 2
    elif parity == "even":
        degree -= degree % 2
    series = random_series(seed, degree, parity)
    values = invpoly.series_record(series).evaluate.values
    m = values.size - 1
    assert m % 2 == 0 and m >= series.coefficients.size
    assert m == 2 * next_fast_len(degree // 2 + 1, real=True)
    assert np.array_equal(values, invpoly._values_on_cheb_grid(series.coefficients, m))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 3999), seed=st.integers(0, 2**16))
@example(degree=13, seed=0)
def test_odd_series_reads_exactly_zero_at_zero(degree, seed):
    # degree 13 once took an odd grid of 15 points, with no node at 0
    series = random_series(seed, degree + 1 - degree % 2, "odd")
    zeros = np.array([0.0, -0.0])
    assert np.array_equal(invpoly.series_record(series).evaluate(zeros), [0.0, 0.0])
    assert np.array_equal(cheb_eval(series, zeros), [0.0, 0.0])
    assert cheb_eval(series, 0.0) == 0.0 and cheb_eval(series, -0.0) == 0.0


@pytest.mark.parametrize("kappa, eps", [(10.0, 1e-3), (300.0, 0.4 / 300**2), (2.0, 0.05)])
def test_odd_series_is_exactly_zero_at_zero_on_an_even_grid(kappa, eps):
    # x = 0 is the node x_{M/2}, where parity gives exactly 0; its offset
    # from 1 taken as 2 sin^2(pi/4) rounds to 1 - 2^-52, a node off 0 that
    # reads -1e-14 at kappa 10 and -4.4e-13 at kappa 300
    series = inverse_cheb_series(kappa, eps)
    record = bound_series(series)
    assert record.evaluate.values.size % 2 == 1
    assert np.array_equal(record.evaluate(np.array([0.0, -0.0, 0.5]))[:2], [0.0, 0.0])
    assert record.evaluate(np.array([-0.0]))[0] == 0.0
    assert cheb_eval(series, 0.0) == 0.0


def test_cheb_eval_matches_clenshaw_reference_above_degree_10k():
    series = random_series(3, 12_001, "none")
    xs = np.concatenate([special_points(series, [1, 2, 6000, 12_000]),
                         np.random.default_rng(3).uniform(-1.0, 1.0, 200)])
    err = np.max(np.abs(cheb_eval(series, xs) - clenshaw_eval(series, xs)))
    assert err <= 1e-12 * np.sum(np.abs(series.coefficients))


def test_cheb_eval_working_memory_is_bounded():
    # 10^4 points on a degree-13485 series: evaluated in blocks, never as
    # one 10^4 x 4d array (4 GiB)
    series = random_series(5, 13_485, "odd")
    peak = traced_peak_bytes(cheb_eval, series, np.linspace(-1.0, 1.0, 10_000))
    assert peak < 64 * 2**20, peak


def critical_point_peak(series):
    # max of |P| at +-1 and the real roots of P' in [-1, 1]
    c = series.coefficients
    roots = np.polynomial.chebyshev.chebroots(np.polynomial.chebyshev.chebder(c)) if c.size > 2 else []
    xs = [r.real for r in np.atleast_1d(roots) if abs(r.imag) < 1e-9 and abs(r.real) <= 1.0]
    return float(np.max(np.abs(np.polynomial.chebyshev.chebval(np.array([-1.0, 1.0] + xs), c))))


def test_max_abs_finds_a_peak_away_from_the_grid_maximizer():
    # |P| peaks at 1.0107 near x = +-0.83, between grid nodes; the grid's
    # largest value (0.9990 at x = 0.31) sits next to a lower local maximum
    series = ChebyshevSeries(np.array([0.0, -0.257, 0.0, -0.264, 0.0, 0.865]))
    assert max_abs_on_interval(series) == pytest.approx(1.0107002835399, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 60), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16))
def test_max_abs_matches_critical_points(degree, parity, seed):
    if parity == "odd":
        degree += 1 - degree % 2
    elif parity == "even":
        degree += degree % 2
    series = random_series(seed, degree, parity)
    assert max_abs_on_interval(series) == pytest.approx(critical_point_peak(series), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 200), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16))
@example(degree=198, parity="even", seed=21108)
@example(degree=26, parity="none", seed=24657)
def test_checked_peak_never_undershoots_a_dense_sample(degree, parity, seed):
    # the candidate band and Brent's brackets must reach the global
    # maximizer: no point of a Chebyshev sample 64 times denser than the
    # degree may top the checked peak by more than the search's tolerance.
    # The examples read 0.6% low with a band of pi^2/128 on the 2M grid and
    # 4% low with brackets three nodes wide on either side
    if parity == "odd":
        degree -= 1 - degree % 2
    elif parity == "even":
        degree += degree % 2
    series = random_series(seed, degree, parity)
    dense = np.cos(np.pi * np.arange(64 * degree + 1) / (64 * degree))
    top = float(np.max(np.abs(clenshaw_eval(series, dense))))
    assert bound_series(series).peak >= top * (1.0 - 1e-9)


@pytest.mark.parametrize("parity, degree", [("odd", 199), ("even", 200)])
def test_bound_check_of_a_definite_parity_series_searches_x_at_least_0(parity, degree,
                                                                        monkeypatch):
    # |P| is even, so each lobe in x < 0 mirrors one in x >= 0: no Brent
    # bracket lies in x < 0, and the rival lobes are still searched
    brackets = []

    def counted(f, lo, hi, _real=invpoly._brent_min):
        brackets.append((lo, hi))
        return _real(f, lo, hi)

    monkeypatch.setattr(invpoly, "_brent_min", counted)
    for seed in range(20):
        bound_series(random_series(seed, degree, parity))
    assert len(brackets) > 20
    assert all(hi > 0.0 for _, hi in brackets)


@pytest.mark.parametrize("series", [inverse_cheb_series(10.0, 1e-3),
                                    inverse_cheb_series(268.0, 0.4 / 268.0**2),
                                    random_series(1, 240, "none")], ids=["odd", "large", "none"])
def test_bound_check_transforms_one_grid_of_2m_points(series, monkeypatch):
    # the record makes one transform, on the M grid its interpolant, and so
    # a memoized evaluator, reads; the bound check makes one more, its own
    # 2M-point scan, and reads the record's interpolant between its nodes
    calls = []

    def counted(coefs, npts, *rest, _real=invpoly._values_on_cheb_grid):
        calls.append(npts)
        return _real(coefs, npts, *rest)

    monkeypatch.setattr(invpoly, "_values_on_cheb_grid", counted)
    record = invpoly.series_record(series)
    m = 2 * next_fast_len(series.degree // 2 + 1, real=True)
    assert calls == [m]
    assert record.evaluate.values.size == m + 1
    bounded = invpoly.check_bound(record)
    assert calls == [m, 2 * m]
    assert bounded.evaluate.values.size == m + 1


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 40), seed=st.integers(0, 2**16), lo=st.floats(-1.0, 0.9),
       width=st.floats(1e-6, 1.0))
@example(degree=5, seed=0, lo=0.2, width=0.5)
def test_brent_search_takes_scipys_bounded_steps(degree, seed, lo, width):
    # the same points in the same order as scipy's bounded minimize_scalar
    # at the same tolerance, so the same least value and evaluation count
    series = random_series(seed, degree, "none")
    hi = min(lo + width, 1.0)
    seen = {"here": [], "scipy": []}

    def objective(where):
        return lambda t: seen[where].append(float(t)) or -abs(clenshaw_eval(series, float(t)))

    got = invpoly._brent_min(objective("here"), lo, hi)
    want = minimize_scalar(objective("scipy"), bounds=(lo, hi), method="bounded",
                           options={"xatol": invpoly._REFINE_XTOL})
    assert seen["here"] == seen["scipy"]
    assert got == want.fun


def test_enforce_bounds_trivial_cases():
    bounded = ChebyshevSeries(np.array([0.0, 0.5]))
    same, scale = enforce_qsvt_bounds(bounded)
    assert scale == 1.0 and same is bounded

    two_t1 = ChebyshevSeries(np.array([0.0, 2.0]))
    scaled, scale = enforce_qsvt_bounds(two_t1)
    assert scale == pytest.approx(0.45, rel=1e-5)  # QSVT_PEAK / 2
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
@given(degree=st.integers(1, 200), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16))
def test_bound_series_bounds_its_peak_and_is_idempotent(degree, parity, seed):
    if parity == "odd":
        degree -= 1 - degree % 2
    elif parity == "even":
        degree += degree % 2
    record = bound_series(random_series(seed, degree, parity))
    assert record.peak * record.rescale <= QSVT_PEAK * (1.0 + 1e-9)
    # the factor is 1 exactly when the peak is within a relative 1e-9 of QSVT_PEAK
    assert (record.rescale == 1.0) == (record.peak <= QSVT_PEAK * (1.0 + 1e-9))
    again = bound_series(record.series)
    assert again.rescale == 1.0 and again.series is record.series


@pytest.mark.parametrize("kappa, eps", [(10.0, 1e-3), (10.0, 1e-2), (300.0, 0.4 / 300**2)])
def test_bound_series_keeps_what_its_check_found(kappa, eps):
    series = inverse_cheb_series(kappa, eps)
    record = bound_series(series)
    bounded, applied = enforce_qsvt_bounds(series)
    assert record.rescale == applied
    assert np.array_equal(record.series.coefficients, bounded.coefficients)
    assert record.series.scale == bounded.scale
    assert record.peak * record.rescale <= 1.0
    assert record.peak * record.rescale == pytest.approx(max_abs_on_interval(record.series),
                                                         rel=1e-9)
    # the evaluator interpolates the bounded series from the check's grid
    xs = np.concatenate([[-1.0, 1.0 / kappa, 1.0],
                         np.random.default_rng(0).uniform(-1.0, 1.0, 64)])
    err = np.max(np.abs(record.evaluate(xs) - clenshaw_eval(record.series, xs)))
    assert err <= 1e-13 * np.sum(np.abs(record.series.coefficients))


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
    series = ChebyshevSeries(np.array(coefs))
    assert series.parity == parity
    with pytest.raises(AttributeError):
        series.parity = "odd"
