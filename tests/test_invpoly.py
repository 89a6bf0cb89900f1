import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from cheb_reference import clenshaw_eval
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvt_refine import invpoly
from qsvt_refine.invpoly import (
    ChebyshevSeries,
    approx_error_report,
    cheb_eval,
    degree_params,
    enforce_qsvt_bounds,
    inverse_cheb_series,
    make_inverse_spec,
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


def test_inverse_series_matches_exact_binomials():
    spec = make_inverse_spec(2.0, 0.1, scale=1.0)
    series = inverse_cheb_series(spec)
    for j in range(min(spec.cap_degree_D, spec.b - 1) + 1):
        exact = brute_inverse_coefficient(spec.b, j)
        assert series.coefficients[2 * j + 1] == pytest.approx(exact, rel=1e-12)


def test_inverse_series_parity_and_antisymmetry():
    series = inverse_cheb_series(make_inverse_spec(3.0, 0.05))
    assert series.parity == "odd"
    assert np.all(series.coefficients[0::2] == 0.0)
    xs = np.random.default_rng(4).uniform(-1.0, 1.0, 100)
    np.testing.assert_allclose(
        cheb_eval(series, -xs), -cheb_eval(series, xs), atol=1e-14
    )


def test_inverse_series_tracks_target_function():
    spec = make_inverse_spec(2.0, 0.1, scale=1.0)
    series = inverse_cheb_series(spec)
    xs = np.linspace(0.5, 1.0, 10_000)
    f = (1.0 - (1.0 - xs**2) ** spec.b) / xs
    assert np.max(np.abs(cheb_eval(series, xs) - f)) <= 2.0 * spec.eps


def test_inverse_series_coefficient_decay():
    for kappa, eps in [(2.0, 0.1), (5.0, 0.05), (10.0, 0.1)]:
        series = inverse_cheb_series(make_inverse_spec(kappa, eps))
        mags = np.abs(series.coefficients[1::2])
        tail = mags[2:]
        assert np.all(np.diff(tail) <= 1e-15), (kappa, eps)


def test_inverse_series_cap_beyond_b():
    # D >= b regime: coefficients with j >= b vanish, so the built degree
    # is 2 min(D, b-1) + 1
    spec = make_inverse_spec(1.0, 0.5)
    assert spec.cap_degree_D >= spec.b
    series = inverse_cheb_series(spec)
    assert series.degree == 2 * (spec.b - 1) + 1


def mpmath_binomial_tail(b: int, j: int) -> mpmath.mpf:
    # 2^{-2b} sum_{i=j+1}^{b} C(2b, b+i) to 40 digits: the first term by
    # loggamma, the rest by the term ratio (b-i)/(b+i+1); mpmath's own
    # betainc does not converge at b ~ 10^6
    with mpmath.workdps(40):
        term = mpmath.exp(mpmath.loggamma(2 * b + 1) - mpmath.loggamma(b + j + 2)
                          - mpmath.loggamma(b - j) - 2 * b * mpmath.log(2))
        total = mpmath.mpf(0)
        i = j + 1
        while i <= b and term > total * mpmath.mpf("1e-45"):
            total += term
            term *= mpmath.mpf(b - i) / (b + i + 1)
            i += 1
        return total


@pytest.mark.parametrize("kappa", [10.0, 100.0, 300.0])
def test_inverse_series_matches_mpmath_tail(kappa):
    spec = make_inverse_spec(kappa, 0.4 / kappa**2, scale=1.0)
    coefs = inverse_cheb_series(spec).coefficients
    jmax = min(spec.cap_degree_D, spec.b - 1)
    for j in (0, jmax // 2, jmax):
        want = mpmath_binomial_tail(spec.b, j)
        got = (-1) ** j * coefs[2 * j + 1] / 4.0
        assert abs(got - want) <= 1e-12 * want, (kappa, j, float(got / want - 1))


def traced_peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inverse_series_builds_in_small_memory():
    # kappa = 300: b = 1.6e6 binomial terms, but only the D + 1 tails are held
    spec = make_inverse_spec(300.0, 0.4 / 300.0**2)
    peak = traced_peak_bytes(inverse_cheb_series, spec)
    assert peak < 8 * 2**20, peak


def test_clenshaw_examples():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        t3 = ChebyshevSeries(np.array([0.0, 0.0, 0.0, 1.0]), "odd")
        assert evaluate(t3, 0.5) == pytest.approx(-1.0)
        t0 = ChebyshevSeries(np.array([1.0]), "even")
        assert evaluate(t0, 0.123) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            evaluate(t0, 1.5)


def test_clenshaw_against_trigonometric_oracle():
    # the library evaluator and the Clenshaw reference alike
    for evaluate in (cheb_eval, clenshaw_eval):
        rng = np.random.default_rng(8)
        coefs = rng.standard_normal(10)
        series = ChebyshevSeries(coefs, "none")
        x = 0.3
        direct = sum(c * math.cos(k * math.acos(x)) for k, c in enumerate(coefs))
        assert evaluate(series, x) == pytest.approx(direct, abs=1e-13)

        coefs = rng.standard_normal(501)
        coefs[-1] = coefs[-1] or 1.0
        series = ChebyshevSeries(coefs, "none")
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
    series = ChebyshevSeries(coefs, "none")
    along_array = cheb_eval(series, np.array(points))
    for x, want in zip(points, along_array):
        for scalar in (x, np.float64(x)):
            got = cheb_eval(series, scalar)
            assert type(got) is float and got == want
    with pytest.raises(ValueError, match="requires"):
        cheb_eval(series, 1.0 + 1e-9)


def random_series(seed, degree, parity):
    coefs = np.random.default_rng(seed).standard_normal(degree + 1)
    if parity == "odd":
        coefs[0::2] = 0.0
    elif parity == "even":
        coefs[1::2] = 0.0
    coefs[-1] = 1.0
    return ChebyshevSeries(coefs, parity)


def special_points(series, picks):
    # +-1, 0 and exact nodes of the grid the evaluator interpolates on
    nodes, _ = invpoly._values_on_cheb_grid(series.coefficients, series.degree)
    return np.concatenate([[-1.0, 0.0, 1.0], nodes[np.asarray(picks, dtype=int) % nodes.size]])


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 2000), parity=st.sampled_from(["odd", "even", "none"]),
       seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, 2**16), max_size=4),
       points=st.lists(st.floats(-1.0, 1.0), max_size=16))
def test_cheb_eval_matches_clenshaw_reference(degree, parity, seed, picks, points):
    if parity == "odd":
        degree += 1 - degree % 2
    elif parity == "even":
        degree -= degree % 2
    series = random_series(seed, degree, parity)
    xs = np.concatenate([special_points(series, picks), points])
    err = np.max(np.abs(cheb_eval(series, xs) - clenshaw_eval(series, xs)))
    assert err <= 1e-12 * np.sum(np.abs(series.coefficients))


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


def test_enforce_bounds_trivial_cases():
    bounded = ChebyshevSeries(np.array([0.0, 0.5]), "odd")
    same, scale = enforce_qsvt_bounds(bounded)
    assert scale == 1.0 and same is bounded

    two_t1 = ChebyshevSeries(np.array([0.0, 2.0]), "odd")
    scaled, scale = enforce_qsvt_bounds(two_t1)
    assert scale == pytest.approx(0.5, rel=1e-5)
    assert max_abs_on_interval(scaled) <= 1.0


def test_enforce_bounds_inverse_series_and_idempotency():
    series = inverse_cheb_series(make_inverse_spec(4.0, 0.05))
    bounded, applied = enforce_qsvt_bounds(series)
    assert max_abs_on_interval(bounded) <= 1.0
    assert 0.0 < applied <= 1.0
    again, second = enforce_qsvt_bounds(bounded)
    assert second == 1.0
    assert again is bounded


def test_error_report():
    kappa, eps = 2.0, 0.1
    series = inverse_cheb_series(make_inverse_spec(kappa, eps))
    bounded, _ = enforce_qsvt_bounds(series)
    err, gap = approx_error_report(bounded, kappa, eps)
    assert math.isfinite(err) and math.isfinite(gap)
    assert err <= 2.0 * eps * bounded.scale
    assert gap <= 1.0


def test_series_validation_and_json_roundtrip():
    with pytest.raises(ValueError, match="even-index"):
        ChebyshevSeries(np.array([1.0, 1.0]), "odd")
    with pytest.raises(ValueError, match="trailing"):
        ChebyshevSeries(np.array([1.0, 0.0]), "even")
    series = inverse_cheb_series(make_inverse_spec(3.0, 0.1))
    back = ChebyshevSeries.from_json(series.to_json())
    np.testing.assert_array_equal(back.coefficients, series.coefficients)
    assert (back.parity, back.kappa, back.eps, back.scale) == (
        series.parity, series.kappa, series.eps, series.scale,
    )


def test_inverse_approx_spec_rejects_wrong_degrees():
    from qsvt_refine.invpoly import InverseApproxSpec

    with pytest.raises(ValueError, match="disagree"):
        InverseApproxSpec(kappa=2.0, eps=0.1, b=11, cap_degree_D=9, scale=0.25)
