import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cheb_reference import svt_reference
from magnitude_reference import brent_magnitude
import refine_reference

import qsvt_refine.refine as refine_mod
from qsvt_refine import blockenc, invpoly, numerics, qsvt_core
from qsvt_refine.numerics import random_with_condition, two_norm
from qsvt_refine.qsp_phases import PhaseFindingError
from qsvt_refine.qsvt_core import PostSelectionError
from qsvt_refine.refine import (
    CostReport,
    DivergenceError,
    QsvtBackend,
    SolverBackend,
    contraction_check,
    denormalize,
    direct_cost,
    iterative_refine,
    nominal_degree,
    noisy_oracle_backend,
    qsvt_backend,
    samples_for_accuracy,
    solve_once,
    spectral_oracle_backend,
    theorem_iteration_bound,
)


def unit_rhs(n, seed):
    rng = np.random.default_rng([seed, 0xB])
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def angle_between(u, v):
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(1.0, c))


def test_solve_once_identity_all_backends():
    a = np.eye(4)
    b = unit_rhs(4, 0)
    for backend in (
        spectral_oracle_backend(a, 0.1, kappa=1.0),
        noisy_oracle_backend(a, 0.0, kappa=1.0),
        qsvt_backend(a, 0.1, kappa=1.0),
    ):
        eta, readout = solve_once(backend, 3.7 * b)
        np.testing.assert_allclose(np.abs(np.vdot(eta, b)), 1.0, atol=1e-8)
        np.testing.assert_allclose(readout, eta)


def test_solve_once_rejects_zero_rhs():
    a = np.eye(2)
    backend = noisy_oracle_backend(a, 0.0, kappa=1.0)
    with pytest.raises(ValueError, match="nonzero"):
        solve_once(backend, np.zeros(2))


@pytest.mark.parametrize("factory", [spectral_oracle_backend, noisy_oracle_backend, qsvt_backend])
def test_solve_once_rejects_a_non_finite_or_misshapen_rhs(factory):
    # a NaN or inf rhs gave a NaN direction, and a size-8 rhs for a 4 x 4
    # backend failed in numpy's matmul or solve, in an error naming no field
    backend = factory(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    b = unit_rhs(4, 1)
    for bad in ([np.nan, 0.5, 0.5, 0.5], [np.inf, 0.0, 0.0, 0.0], np.ones(8), np.ones(3),
                b[:, None], 1.0):
        with pytest.raises(ValueError, match=r"rhs must be finite and of shape \(4,\)"):
            solve_once(backend, np.asarray(bad))
    eta, _ = solve_once(backend, b)
    assert eta.shape == (4,) and np.all(np.isfinite(eta))


@settings(max_examples=80, deadline=None)
@given(kappa=st.floats(1.0, 1000.0), eps=st.floats(1e-12, 0.99))
@example(kappa=1.0, eps=0.5)
@example(kappa=300.0, eps=0.4 / 300.0**2)
def test_the_built_series_degree_is_the_charged_degree(kappa, eps):
    # every backend and direct_cost charge nominal_degree, and the series
    # the polynomial backends build has that degree: every coefficient up
    # to 2 min(D, b - 1) + 1, none trimmed
    assert invpoly.inverse_cheb_series(kappa, eps).degree == nominal_degree(kappa, eps)


@settings(max_examples=20, deadline=None)
@given(kappa=st.floats(1.5, 4.0), rate=st.floats(0.1, 0.5), seed=st.integers(0, 2**16))
@example(kappa=1.0, rate=0.1, seed=0)
def test_each_backend_charges_the_degree_it_applies(kappa, rate, seed):
    # a backend derives its degree from (kappa, eps_l): the spectral operator
    # applies the key's series of that degree, the qsvt_full sequence has
    # that many phases, and the noisy oracle charges it too, or 1 at its
    # exact solve (eps_l = 0)
    eps_l = rate / kappa
    eps_prime = eps_l / kappa
    a = random_with_condition(4, kappa, seed)
    assert (spectral_oracle_backend(a, eps_l, kappa=kappa).degree
            == refine_mod._inverse_series(kappa, eps_prime).degree)
    assert (qsvt_backend(a, eps_l, kappa=kappa).degree
            == refine_mod._inverse_phases(kappa, eps_prime)[0].size)
    assert noisy_oracle_backend(a, eps_l, kappa=kappa).degree == nominal_degree(kappa, eps_prime)
    assert noisy_oracle_backend(a, 0.0, kappa=kappa).degree == 1


def test_noisy_backend_noise_scale_and_determinism():
    a = random_with_condition(8, 5.0, 1)
    b = unit_rhs(8, 1)
    exact = np.linalg.solve(a, b)
    exact /= np.linalg.norm(exact)
    eps_l = 1e-2
    eta1, _ = solve_once(noisy_oracle_backend(a, eps_l, kappa=5.0, seed=3), b)
    eta2, _ = solve_once(noisy_oracle_backend(a, eps_l, kappa=5.0, seed=3), b)
    np.testing.assert_array_equal(eta1, eta2)
    assert 0.0 < np.linalg.norm(eta1 - exact) <= 2.0 * eps_l


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 16), kappa=st.floats(1.0, 100.0), rate=st.floats(1e-6, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_noisy_oracle_direction_denormalizes_within_eps_l(n, kappa, rate, seed):
    # the backend contract: the magnitude recovery the loop applies puts the
    # noisy direction within eps_l of the exact solution, relative to it
    eps_l = rate / kappa
    a = random_with_condition(n, kappa, seed)
    b = unit_rhs(n, seed)
    d = noisy_oracle_backend(a, eps_l, kappa=kappa, seed=seed).direction(b)
    x = np.linalg.solve(a, b)
    assert np.linalg.norm(denormalize(a @ d, b) * d - x) <= eps_l * np.linalg.norm(x)


def test_qsvt_direction_accuracy():
    kappa, eps_l = 2.0, 0.1
    a = random_with_condition(4, kappa, 9)
    b = unit_rhs(4, 9)
    backend = qsvt_backend(a, eps_l, kappa=kappa)
    eta, _ = solve_once(backend, b)
    exact = np.linalg.solve(a, b)
    assert angle_between(eta, exact) <= eps_l


def test_shot_readout_perturbs_and_is_seeded():
    a = random_with_condition(4, 3.0, 2)
    b = unit_rhs(4, 2)
    shots = samples_for_accuracy(1e-2)  # 10_000
    backend = spectral_oracle_backend(a, 1e-2, kappa=3.0, seed=5, shot_readout=True)
    eta, readout = solve_once(backend, b)
    delta = np.linalg.norm(readout - eta)
    assert 0.0 < delta <= 2.0 / math.sqrt(shots)
    again, readout2 = solve_once(spectral_oracle_backend(a, 1e-2, kappa=3.0, seed=5,
                                                         shot_readout=True), b)
    np.testing.assert_array_equal(readout, readout2)


def test_denormalize_identity_and_orthogonal():
    a = np.eye(3)
    b = np.array([3.0, 0.0, 0.0])
    eta = np.array([1.0, 0.0, 0.0])
    assert denormalize(a @ eta, b) == pytest.approx(3.0)
    perp = np.array([0.0, 1.0, 0.0])
    assert denormalize(a @ perp, b) == pytest.approx(0.0, abs=1e-15)


def test_denormalize_cross_check_brent():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.choice([2, 4, 8]))
        a = random_with_condition(n, float(rng.uniform(1.0, 50.0)), trial)
        x = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        eta /= np.linalg.norm(eta)
        b = rng.standard_normal(n)
        closed = denormalize(a @ eta, b - a @ x)
        brent = brent_magnitude(a @ eta, b - a @ x)
        assert abs(closed - brent) <= 1e-10 * max(1.0, abs(closed)), f"trial {trial}"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       eta_scale=st.floats(-2.0, 2.0), residual_scale=st.floats(-11.0, 2.0))
def test_denormalize_brent_matches_closed_form(n, seed, eta_scale, residual_scale):
    # residuals shrink to eps_target during refinement while A eta stays O(1)
    rng = np.random.default_rng(seed)
    a_eta = rng.standard_normal(n) * 10.0**eta_scale
    residual = rng.standard_normal(n) * 10.0**residual_scale
    closed = denormalize(a_eta, residual)
    brent = brent_magnitude(a_eta, residual)
    assert abs(closed - brent) <= 1e-10 * max(1.0, abs(closed))


def test_denormalize_degenerate_direction():
    a = np.diag([1.0, 1e-20])
    with pytest.raises(ValueError, match="degenerate"):
        denormalize(a @ np.array([0.0, 1.0]), np.ones(2))


def test_refine_identity_converges_immediately():
    a = np.eye(4)
    b = unit_rhs(4, 4)
    backend = noisy_oracle_backend(a, 0.0, kappa=1.0)
    x, trace, _ = iterative_refine(a, b, backend, 1e-12)
    assert trace.iterations == 0 and trace.converged
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_refine_matches_theorem_bound():
    kappa, eps_l, eps = 10.0, 1e-3, 1e-11
    bound = theorem_iteration_bound(eps, eps_l, kappa)
    assert bound == 6
    a = random_with_condition(16, kappa, 0)
    b = unit_rhs(16, 0)
    backend = spectral_oracle_backend(a, eps_l, kappa=kappa)
    _x, trace, _cost = iterative_refine(a, b, backend, eps)
    assert trace.converged
    assert trace.iterations <= bound
    assert trace.theorem_bound == bound
    check = contraction_check(trace, kappa, eps_l)
    assert check.passed and check.worst_ratio <= 1.0


def test_refine_forward_error_sandwich():
    kappa = 10.0
    a = random_with_condition(16, kappa, 5)
    b = unit_rhs(16, 5)
    backend = spectral_oracle_backend(a, 1e-2, kappa=kappa)
    x, trace, _ = iterative_refine(a, b, backend, 1e-10)
    x_star = np.linalg.solve(a, b)
    rel = np.linalg.norm(x - x_star) / np.linalg.norm(x_star)
    assert rel <= kappa * trace.scaled_residuals[-1] + 1e-12


def test_refine_scale_invariance_of_omega():
    a = random_with_condition(8, 5.0, 7)
    b = unit_rhs(8, 7)
    backend = spectral_oracle_backend(a, 1e-2, kappa=5.0)
    _, trace1, _ = iterative_refine(a, b, backend, 1e-11)
    backend2 = spectral_oracle_backend(a, 1e-2, kappa=5.0)
    _, trace2, _ = iterative_refine(a, 17.0 * b, backend2, 1e-11)
    assert len(trace1.scaled_residuals) == len(trace2.scaled_residuals)
    np.testing.assert_allclose(
        trace1.scaled_residuals, trace2.scaled_residuals, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(1.5, 20.0), rate=st.floats(0.05, 0.5), seed=st.integers(0, 2**16),
       power=st.integers(-30, 30))
def test_omega_is_exactly_invariant_under_power_of_two_scaling_of_b(kappa, rate, seed, power):
    # scaling b by 2^k scales every residual, mu and iterate exactly
    eps_l = rate / kappa
    a = random_with_condition(8, kappa, seed)
    b = unit_rhs(8, seed)
    traces = [
        iterative_refine(a, scale * b, spectral_oracle_backend(a, eps_l, kappa=kappa), 1e-11)[1]
        for scale in (1.0, math.ldexp(1.0, power))
    ]
    assert traces[1].scaled_residuals == traces[0].scaled_residuals


def test_refine_mu_recovery_accuracy():
    # de-normalization must not degrade backend accuracy on the first solve
    for seed in range(10):
        kappa, eps_l = 8.0, 1e-3
        a = random_with_condition(8, kappa, seed)
        b = unit_rhs(8, seed)
        for backend in (
            spectral_oracle_backend(a, eps_l, kappa=kappa, seed=seed),
            noisy_oracle_backend(a, eps_l, kappa=kappa, seed=seed),
        ):
            eta, readout = solve_once(backend, b)
            mu = denormalize(a @ readout, b)
            x0 = mu * readout
            x_star = np.linalg.solve(a, b)
            rel = np.linalg.norm(x0 - x_star) / np.linalg.norm(x_star)
            assert rel <= eps_l * (1.0 + 1e-6), (type(backend).__name__, seed, rel)


def test_refine_divergence_detection(monkeypatch):
    # magnitude recovery makes omega non-increasing, so the detector fires
    # on stalls; force one with directions A-orthogonal to the residual
    a = random_with_condition(4, 4.0, 3)
    b = unit_rhs(4, 3)
    backend = noisy_oracle_backend(a, 1e-2, kappa=4.0, seed=1)

    def stalled_solve(_backend, rhs, _norm):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(rhs.size)
        w -= (w @ rhs) / (rhs @ rhs) * rhs  # w orthogonal to the residual
        eta = np.linalg.solve(a, w)
        eta /= np.linalg.norm(eta)  # then <A eta, rhs> = 0, so mu = 0
        return eta, eta

    monkeypatch.setattr(refine_mod, "_normalized_solve", stalled_solve)
    with pytest.raises(DivergenceError) as excinfo:
        iterative_refine(a, b, backend, 1e-13)
    trace = excinfo.value.trace
    assert not trace.converged
    assert len(trace.scaled_residuals) >= 3


@dataclasses.dataclass(frozen=True)
class ConstantBackend(SolverBackend):
    """A backend for 4 x 4 systems whose every direction is ``value`` in
    each entry; it records the right-hand sides it is given in ``solves``."""

    value: float
    solves: list
    size = 4

    def direction(self, rhs_hat):
        self.solves.append(rhs_hat)
        return np.full(rhs_hat.size, self.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times 0 in A eta
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_refine_rejects_a_non_finite_direction_by_name(value):
    # NaN compares false with every bound, so such a direction used to run
    # max_iter solves and return a NaN x
    backend = ConstantBackend(eps_l=0.1, kappa=2.0, rng=None, value=value, solves=[])
    with pytest.raises(ValueError, match="degenerate direction"):
        iterative_refine(random_with_condition(4, 2.0, 0), unit_rhs(4, 0), backend, 1e-12)
    assert len(backend.solves) == 1


def test_refine_counts_a_nan_residual_as_a_stall(monkeypatch):
    # three NaN omegas in a row after the first are three stalls
    a = random_with_condition(4, 2.0, 0)
    monkeypatch.setattr(refine_mod, "denormalize", lambda a_eta, residual: math.nan)
    with pytest.raises(DivergenceError) as excinfo:
        iterative_refine(a, unit_rhs(4, 0), spectral_oracle_backend(a, 0.1, kappa=2.0), 1e-12)
    omegas = excinfo.value.trace.scaled_residuals
    assert len(omegas) == 4 and all(math.isnan(omega) for omega in omegas)


def test_refine_stagnates_outside_contraction_regime():
    a = random_with_condition(8, 4.0, 3)
    b = unit_rhs(8, 3)
    backend = noisy_oracle_backend(a, 2.0, kappa=4.0, seed=1)  # eps_l*kappa > 1
    with pytest.warns(UserWarning, match="not guaranteed"):
        _, trace, _ = iterative_refine(a, b, backend, 1e-13, max_iter=15)
    assert trace.theorem_bound == 0  # no bound outside the contraction regime


def test_refine_rejects_tiny_eps_target():
    a = np.eye(2)
    backend = noisy_oracle_backend(a, 0.0, kappa=1.0)
    with pytest.raises(ValueError, match="1e-14"):
        iterative_refine(a, np.ones(2), backend, 1e-16)


@pytest.mark.parametrize("eps_target", [math.inf, math.nan, 1.0, 2.0])
def test_refine_rejects_eps_target_outside_unit_range(eps_target):
    a = np.eye(2)
    backend = noisy_oracle_backend(a, 0.0, kappa=1.0)
    with pytest.raises(ValueError, match="eps_target"):
        iterative_refine(a, np.ones(2), backend, eps_target)


@pytest.mark.parametrize("max_iter", [-1, 2.5, True, math.nan])
def test_refine_rejects_a_max_iter_that_is_not_an_integer_at_least_zero(max_iter):
    # -1 used to run one solve, and NaN removed the cap
    backend = ConstantBackend(eps_l=0.1, kappa=2.0, rng=None, value=0.5, solves=[])
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        iterative_refine(random_with_condition(4, 2.0, 0), unit_rhs(4, 0), backend, 1e-12,
                         max_iter=max_iter)
    assert backend.solves == []


@pytest.mark.parametrize("max_iter", [0, np.int64(1)])
def test_refine_caps_the_refinement_steps_at_max_iter(max_iter):
    # 0 stops after the first solve
    a = random_with_condition(4, 2.0, 0)
    _, trace, _ = iterative_refine(a, unit_rhs(4, 0), spectral_oracle_backend(a, 0.1, kappa=2.0), 1e-13,
                                   max_iter=max_iter)
    assert len(trace.scaled_residuals) == max_iter + 1 and not trace.converged


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refine_rejects_non_finite_b(bad):
    a = random_with_condition(4, 3.0, 0)
    backend = spectral_oracle_backend(a, 1e-2, kappa=3.0)
    b = unit_rhs(4, 0)
    b[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        iterative_refine(a, b, backend, 1e-10)


@pytest.mark.parametrize("factory", [spectral_oracle_backend, noisy_oracle_backend])
def test_refine_names_a_non_finite_or_one_dimensional_a(factory):
    a = random_with_condition(4, 3.0, 0)
    backend = factory(a, 1e-2, kappa=3.0)
    b = unit_rhs(4, 0)
    for bad in (math.nan, math.inf):
        a_bad = a.copy()
        a_bad[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            iterative_refine(a_bad, b, backend, 1e-10)
    with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(4,\)$"):
        iterative_refine(a[0], b, backend, 1e-10)


FACTORIES = [spectral_oracle_backend, noisy_oracle_backend, qsvt_backend]


@pytest.mark.parametrize("factory", FACTORIES)
def test_factories_name_a_non_finite_one_dimensional_or_non_square_a(factory):
    # each factory's one check of A names what is wrong with it; a
    # non-finite entry is named before the shape, as before
    a = random_with_condition(4, 3.0, 0)
    for bad in (math.nan, math.inf, -math.inf):
        a_bad = a.copy()
        a_bad[1, 2] = bad
        for matrix in (a_bad, a_bad[:, :3]):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                factory(matrix, 1e-2, kappa=3.0)
    with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(4,\)$"):
        factory(a[0], 1e-2, kappa=3.0)
    for matrix in (a[:, :3], a[:3], np.zeros((0, 0))):
        with pytest.raises(ValueError, match=r"^a backend needs a nonempty square matrix, "
                                             rf"got shape \({matrix.shape[0]}, "
                                             rf"{matrix.shape[1]}\)$"):
            factory(matrix, 1e-2, kappa=3.0)


@pytest.mark.parametrize("factory", FACTORIES)
def test_one_factory_call_checks_a_once(factory, monkeypatch):
    # A's one 2-D and finiteness scan is the as_matrix inside numerics.svd;
    # the factors LAPACK returns pass check_unitary without a second one.
    # Every module's own as_matrix name is counted too
    calls = []
    real = numerics.as_matrix

    def as_matrix(m):
        calls.append(np.shape(m))
        return real(m)

    for module in (numerics, blockenc, qsvt_core, refine_mod):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", as_matrix)
    for seed in (0, 1):
        calls.clear()
        factory(random_with_condition(8, 3.0, seed), 1e-2, kappa=3.0)
        assert calls == [(8, 8)]


def test_qsvt_accepts_a_real_valued_complex_a_and_rejects_any_imaginary_part():
    # a complex A with a zero imaginary part takes the real SVD, so a + 0j
    # builds the real block's bytes; a + 1e-300j raises
    for seed in range(3):
        a = random_with_condition(8, 3.0, seed)
        block = qsvt_backend(a, 1e-2, kappa=3.0).block
        block_c = qsvt_backend(a + 0j, 1e-2, kappa=3.0).block
        assert block_c.dtype == np.float64 and not block_c.flags.writeable
        assert block_c.tobytes() == block.tobytes()
        with pytest.raises(ValueError, match="^qsvt_full is real-only: the matrix has a "
                                             "nonzero imaginary part$"):
            qsvt_backend(a + 1e-300j, 1e-2, kappa=3.0)


def test_contraction_check_noisy_seed_sweep():
    kappa, eps_l = 6.0, 5e-3
    bound = theorem_iteration_bound(1e-10, eps_l, kappa)
    passes = 0
    for seed in range(20):
        a = random_with_condition(8, kappa, seed)
        b = unit_rhs(8, seed + 100)
        backend = noisy_oracle_backend(a, eps_l, kappa=kappa, seed=seed)
        _, trace, _ = iterative_refine(a, b, backend, 1e-10)
        assert trace.converged and trace.iterations <= bound
        if contraction_check(trace, kappa, eps_l).passed:
            passes += 1
    assert passes == 20  # rate reported by the bench; here the sweep is clean


def test_residual_curves_decrease_geometrically():
    # the convergence-figure shape: each eps_l gives a strictly decreasing,
    # geometrically contracting residual sequence
    kappa = 10.0
    a = random_with_condition(16, kappa, 1)
    b = unit_rhs(16, 1)
    for eps_l in (1e-2, 1e-3, 1e-4):
        backend = spectral_oracle_backend(a, eps_l, kappa=kappa)
        _, trace, _ = iterative_refine(a, b, backend, 1e-11)
        omegas = trace.scaled_residuals
        assert all(b < a for a, b in zip(omegas, omegas[1:]))
        ratios = [b / a for a, b in zip(omegas, omegas[1:])]
        assert all(r <= eps_l * kappa for r in ratios)


def test_contraction_check_short_trace():
    from qsvt_refine.refine import RefinementTrace

    trace = RefinementTrace(
        scaled_residuals=[1e-9], mu_values=[1.0], converged=True, theorem_bound=2,
    )
    assert trace.iterations == 0
    assert contraction_check(trace, 10.0, 1e-3).passed


@pytest.mark.parametrize("omegas", [[math.nan], [1e-3, math.nan], [math.nan, 1e-3],
                                    [0.0, math.nan]])
@pytest.mark.parametrize("eps_l", [1e-2, 0.0])  # rate 0.1, and rate 0 with every bound 0
def test_contraction_check_fails_a_nan_omega(omegas, eps_l):
    # max() skipped a NaN ratio, and the rate-0 branch a NaN omega: these passed
    from qsvt_refine.refine import RefinementTrace

    trace = RefinementTrace(omegas, [1.0] * len(omegas), False, 1)
    result = contraction_check(trace, 10.0, eps_l)
    assert not result.passed and result.worst_ratio == math.inf


def test_cost_identity_and_table_ratio():
    kappa, eps_l, eps = 10.0, 1e-3, 1e-11
    a = random_with_condition(16, kappa, 2)
    b = unit_rhs(16, 2)
    backend = spectral_oracle_backend(a, eps_l, kappa=kappa)
    _, trace, cost = iterative_refine(a, b, backend, eps)
    assert cost.total == cost.solves * cost.be_calls_per_solve * cost.samples_per_solve
    assert cost.solves == trace.iterations + 1
    assert cost.samples_per_solve == samples_for_accuracy(eps_l)
    direct = direct_cost(kappa, eps)
    assert direct.total == direct.be_calls_per_solve * direct.samples_per_solve
    # the Table ratio: (1 x d_eps x N_eps) / (solves x d_eps_l x N_eps_l)
    lhs = direct.total / cost.total
    rhs = (
        direct.be_calls_per_solve * direct.samples_per_solve
    ) / (cost.solves * cost.be_calls_per_solve * cost.samples_per_solve)
    assert lhs == pytest.approx(rhs)
    with pytest.raises(TypeError):  # the total is derived, never passed in
        CostReport(solves=2, be_calls_per_solve=3, samples_per_solve=4, total=25)


def test_direct_cost_formula():
    report = direct_cost(10.0, 1e-4)
    assert report.samples_per_solve == 10**8
    assert report.be_calls_per_solve == nominal_degree(10.0, 1e-5)


def test_backend_equivalence_qsvt_vs_spectral():
    # end-to-end convention wiring check
    kappa, eps_l = 10.0, 5e-2
    a = random_with_condition(16, kappa, 13)
    b = unit_rhs(16, 13)
    qsvt = qsvt_backend(a, eps_l, kappa=kappa)
    spectral = spectral_oracle_backend(a, eps_l, kappa=kappa)
    eta_q, _ = solve_once(qsvt, b)
    eta_s, _ = solve_once(spectral, b)
    assert angle_between(eta_q, eta_s) <= 1e-6


@settings(max_examples=6, deadline=None)
@given(kappa=st.floats(1.5, 3.0), rate=st.floats(0.1, 0.5), seed=st.integers(0, 99))
def test_backends_share_one_series_per_kappa_eps(kappa, rate, seed):
    # the series memo builds one series for the key: the spectral operator
    # and the QSVT phase finding both read it
    eps_l = rate / kappa
    refine_mod._inverse_series.cache_clear()
    refine_mod._inverse_phases.cache_clear()
    spectral = spectral_oracle_backend(random_with_condition(4, kappa, seed), eps_l, kappa=kappa)
    qsvt = qsvt_backend(random_with_condition(4, kappa, seed + 1), eps_l, kappa=kappa)
    info = refine_mod._inverse_series.cache_info()
    assert info.misses == 1 and info.currsize == 1
    series = refine_mod._inverse_series(kappa, eps_l / kappa)
    assert spectral.degree == qsvt.degree == series.degree


def test_shared_series_is_read_only():
    spectral_oracle_backend(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    with pytest.raises(ValueError, match="read-only"):
        refine_mod._inverse_series(2.0, 0.05).coefficients[1] = 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_noisy_oracle_keeps_a_read_only_copy_of_the_matrix(dtype):
    # peak |entry| 0.75: no power-of-two scaling, which kept a complex
    # caller's own array
    a = random_with_condition(8, 4.0, 0).astype(dtype)
    a *= 0.75 / np.abs(a).max()
    kept, b = a.copy(), unit_rhs(8, 0)
    backend = noisy_oracle_backend(a, 1e-2, kappa=4.0, seed=1)
    a[...] = np.eye(8)
    assert not backend.matrix.flags.writeable and not np.shares_memory(backend.matrix, a)
    expected = noisy_oracle_backend(kept, 1e-2, kappa=4.0, seed=1).direction(b)
    assert np.array_equal(backend.direction(b), expected)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), kappa=st.floats(1.5, 10.0), rate=st.floats(0.1, 0.9),
       seed=st.integers(0, 2**16))
def test_polynomial_backends_hold_one_operator(n, kappa, rate, seed):
    # both backends realize V P(S / sigma_max) U^H of A = U S V^H, P the
    # key's bounded series: the QSVT block matches the spectral operator,
    # and that operator the circuit-free transform of A^H / ||A||
    # the operator carries the key's unscaled series and the block the
    # bounded one, so the block is the operator times the key's rescale factor
    eps_l = rate / kappa
    a = random_with_condition(n, kappa, seed)
    operator = spectral_oracle_backend(a, eps_l, kappa=kappa).operator
    block = qsvt_backend(a, eps_l, kappa=kappa).block
    series = refine_mod._inverse_series(kappa, eps_l / kappa)
    rescale = invpoly.bound_series(series).rescale
    assert np.linalg.norm(block - rescale * operator, 2) <= 1e-11
    reference = svt_reference(a.conj().T / np.linalg.norm(a, 2), series)
    assert np.linalg.norm(operator - reference, 2) <= 1e-13
    with pytest.raises(ValueError, match="read-only"):
        operator[0, 0] = 0.0


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 16]), kappa=st.floats(1.5, 300.0), rate=st.floats(0.1, 0.9),
       seed=st.integers(0, 2**16))
def test_spectral_direction_does_not_see_the_rescale_factor(n, kappa, rate, seed):
    # a unit direction is unchanged when P is multiplied by a positive
    # constant, so the unscaled operator gives the bounded series' direction;
    # kappa up to 300 takes in keys whose factor is below 1
    eps_l = rate / kappa
    a = random_with_condition(n, kappa, seed)
    b = unit_rhs(n, seed)
    backend = spectral_oracle_backend(a, eps_l, kappa=kappa)
    rescale = invpoly.bound_series(refine_mod._inverse_series(kappa, eps_l / kappa)).rescale
    raw = (rescale * backend.operator) @ b
    assert np.max(np.abs(backend.direction(b) - raw / np.linalg.norm(raw))) <= 1e-14


def test_a_spectral_build_runs_no_peak_search(monkeypatch):
    # a fresh key whose series the bound check rescales: the spectral build
    # makes the series' one M-point transform and one fast-length search,
    # and no bound check; the check later adds its own 16M-point scan, and
    # the rescaled series its own M-point transform and search
    kappa = 100.0
    eps_prime = 0.4 / kappa / kappa
    refine_mod._inverse_series.cache_clear()
    searches = []
    monkeypatch.setattr(invpoly, "_next_fast_len", lambda n, _real=invpoly._next_fast_len:
                        searches.append(n) or _real(n))
    sizes = []

    def transform(coefs, m, *rest, _real=invpoly._values_on_cheb_grid):
        sizes.append(m)
        return _real(coefs, m, *rest)

    monkeypatch.setattr(invpoly, "_values_on_cheb_grid", transform)
    spectral_oracle_backend(random_with_condition(4, kappa, 0), 0.4 / kappa, kappa=kappa)
    series = refine_mod._inverse_series(kappa, eps_prime)
    m = series.evaluate.values.size - 1
    assert sizes == [m] and len(searches) == 1
    unscaled = series.evaluate.values.copy()
    bounded = invpoly.bound_series(series)
    assert bounded.rescale < 1.0
    assert sizes == [m, 16 * m, m] and len(searches) == 2
    # the rescaled series' grid values are the key's times the factor, to
    # the rounding of its own transform, and the key's series keeps its own
    assert np.array_equal(series.evaluate.values, unscaled)
    np.testing.assert_allclose(bounded.series.evaluate.values, unscaled * bounded.rescale,
                               rtol=0, atol=1e-14 * bounded.rescale * np.abs(unscaled).max())
    assert bounded.series.degree == series.degree


def test_qsvt_builds_run_one_bound_check_per_key(fresh_phase_memo, monkeypatch):
    # kappa 2, eps_l 1e-4 (degree 53) is rescaled by 0.949; the spectral
    # build runs no bound check, a key's first qsvt_full build runs one on
    # the memoized series, and its second build none
    kappa, eps_l = 2.0, 1e-4
    refine_mod._inverse_series.cache_clear()
    checks = []
    real = refine_mod.bound_series
    monkeypatch.setattr(refine_mod, "bound_series", lambda series: checks.append(series) or
                        real(series))
    targets = count_find_phases(monkeypatch)
    spectral_oracle_backend(random_with_condition(4, kappa, 0), eps_l, kappa=kappa)
    assert checks == []
    first = qsvt_backend(random_with_condition(4, kappa, 1), eps_l, kappa=kappa)
    series = refine_mod._inverse_series(kappa, eps_l / kappa)
    assert len(checks) == 1 and checks[0] is series
    second = qsvt_backend(random_with_condition(8, kappa, 2), eps_l, kappa=kappa)
    assert len(checks) == 1 and len(targets) == 1
    assert first.degree == second.degree == series.degree
    assert targets[0].rescale < 1.0
    assert refine_mod._inverse_series.cache_info().misses == 1


def test_polynomial_backends_share_one_grid_per_kappa_eps(fresh_phase_memo, monkeypatch):
    # a fresh key makes one M-point transform and one set of node tables,
    # whichever backends it serves; its first qsvt_full build adds the bound
    # check's 16M-point scan and the phase table's one interpolant (its
    # sequence read at the grid nodes, no transform), and its second build
    # nothing: find_phases reads the check's peak and the series' evaluator
    # (unscaled at this key)
    kappa, eps_l = 2.0, 0.1
    refine_mod._inverse_series.cache_clear()
    sizes, interpolants = [], []
    real_transform, real_interpolant = invpoly._values_on_cheb_grid, invpoly._interpolant
    monkeypatch.setattr(invpoly, "_values_on_cheb_grid", lambda coefs, m, *rest:
                        sizes.append(m) or real_transform(coefs, m, *rest))
    monkeypatch.setattr(invpoly, "_interpolant", lambda *args:
                        interpolants.append(args) or real_interpolant(*args))
    first = spectral_oracle_backend(random_with_condition(4, kappa, 0), eps_l, kappa=kappa)
    second = spectral_oracle_backend(random_with_condition(8, kappa, 1), eps_l, kappa=kappa)
    m = refine_mod._inverse_series(kappa, eps_l / kappa).evaluate.values.size - 1
    assert sizes == [m] and len(interpolants) == 1
    qsvt = qsvt_backend(random_with_condition(4, kappa, 2), eps_l, kappa=kappa)
    assert sizes == [m, 16 * m] and len(interpolants) == 2
    assert refine_mod._inverse_phases(kappa, eps_l / kappa)[1].values.size == m + 1
    again = qsvt_backend(random_with_condition(8, kappa, 3), eps_l, kappa=kappa)
    assert sizes == [m, 16 * m] and len(interpolants) == 2
    assert first.degree == second.degree == qsvt.degree == again.degree
    info = refine_mod._inverse_series.cache_info()
    assert info.misses == 1 and info.currsize == 1


@pytest.mark.parametrize("factory", [spectral_oracle_backend, noisy_oracle_backend,
                                     qsvt_backend])
def test_every_backend_build_takes_one_svd(factory, monkeypatch):
    # _factorize's SVD is the only one: qsvt_full applies its sequence to the
    # singular pairs of those factors, with no second SVD
    calls = []

    def counted(a, _real=numerics.svd):
        calls.append(np.shape(a))
        return _real(a)

    for module in (numerics, refine_mod, blockenc):
        monkeypatch.setattr(module, "svd", counted)
    factory(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    assert calls == [(4, 4)]


@pytest.mark.parametrize("factory", [spectral_oracle_backend, noisy_oracle_backend,
                                     qsvt_backend])
def test_refine_names_a_backend_built_for_another_size(factory):
    backend = factory(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    assert backend.size == 4
    with pytest.raises(ValueError, match="built for a 4 x 4 matrix, A is 8 x 8"):
        iterative_refine(random_with_condition(8, 2.0, 1), unit_rhs(8, 0), backend, 1e-10)


def test_shared_grid_values_are_read_only(fresh_phase_memo, monkeypatch):
    # the key's unscaled grid and the bounded target that phase finding
    # reads (kappa 2, eps_l 1e-4: a factor of 0.949, so its own values)
    targets = count_find_phases(monkeypatch)
    qsvt_backend(random_with_condition(4, 2.0, 0), 1e-4, kappa=2.0)
    series = refine_mod._inverse_series(2.0, 0.5e-4)
    (target,) = targets
    assert target.rescale < 1.0
    for values in (series.evaluate.values, series.coefficients, target.series.evaluate.values,
                   target.series.coefficients):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.evaluate = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        target.rescale = 1.0


def test_qsvt_rejects_complex_inputs_at_the_boundary():
    kappa, eps_l = 3.0, 0.1
    a = random_with_condition(8, kappa, 0)
    b = unit_rhs(8, 0) + 1j * unit_rhs(8, 1)
    a_complex = a * np.exp(1j * np.linspace(0.0, 1.0, 8))  # A times a unitary diagonal: same kappa
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        qsvt_backend(a_complex, eps_l, kappa=kappa)
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        iterative_refine(a, b, qsvt_backend(a, eps_l, kappa=kappa), 1e-11)
    # the oracle backends solve the same complex systems
    for factory in (spectral_oracle_backend, noisy_oracle_backend):
        for a_in, b_in in ((a, b), (a_complex, unit_rhs(8, 2))):
            x, trace, _ = iterative_refine(a_in, b_in, factory(a_in, eps_l, kappa=kappa), 1e-11)
            assert trace.converged, factory.__name__
            assert np.linalg.norm(b_in - a_in @ x) <= 1e-11 * np.linalg.norm(b_in)


def test_qsvt_rejects_a_dimension_that_is_not_a_power_of_two():
    # the sequence acts on a register of qubits; the oracle backends take any size
    a = random_with_condition(3, 2.0, 0)
    with pytest.raises(ValueError, match="matrix dimension must be a power of two, got 3"):
        qsvt_backend(a, 0.1, kappa=2.0)
    spectral_oracle_backend(a, 0.1, kappa=2.0)


def test_backend_missing_a_field_fails_at_construction():
    with pytest.raises(TypeError):
        QsvtBackend(eps_l=0.1, kappa=2.0, rng=np.random.default_rng(0))
    with pytest.raises(TypeError):
        SolverBackend(eps_l=0.1, kappa=2.0, rng=np.random.default_rng(0))


def plain_refine(a, b, backend, eps_target, max_iter=100):
    """The refinement loop written out with four products with A per step:
    the residual is recomputed for the solve, for the closed-form mu and
    for omega."""
    x = np.zeros_like(b)
    omegas, mus = [], []
    while True:
        _eta, readout = solve_once(backend, b - a @ x)
        a_eta = a @ readout
        mu = float(np.vdot(a_eta, b - a @ x).real / float(np.vdot(a_eta, a_eta).real))
        x = x + mu * readout
        mus.append(mu)
        omegas.append(two_norm(b - a @ x) / two_norm(b))
        if omegas[-1] <= eps_target or len(omegas) - 1 >= max_iter:
            return x, omegas, mus


@settings(max_examples=100, deadline=None)
@given(kappa=st.floats(1.5, 20.0), rate=st.floats(0.05, 0.5), seed=st.integers(0, 2**16),
       shot=st.booleans(), factory=st.sampled_from([spectral_oracle_backend, noisy_oracle_backend]))
def test_refine_equals_plain_loop(kappa, rate, seed, shot, factory):
    eps_l = rate / kappa
    a = random_with_condition(8, kappa, seed)
    b = unit_rhs(8, seed)

    def backend():
        return factory(a, eps_l, kappa=kappa, seed=seed, shot_readout=shot)

    x, trace, _ = iterative_refine(a, b, backend(), 1e-11)
    x_plain, omegas, mus = plain_refine(a, b, backend(), 1e-11)
    assert np.array_equal(x, x_plain)
    assert trace.scaled_residuals == omegas and trace.mu_values == mus


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 16), kappa=st.floats(1.0, 60.0), rate=st.floats(1e-3, 0.9),
       seed=st.integers(0, 2**16), log_eps=st.floats(-12.0, -4.0),
       factory=st.sampled_from([spectral_oracle_backend, noisy_oracle_backend]))
def test_refinement_meets_contraction_and_iteration_bounds(n, kappa, rate, seed, log_eps,
                                                           factory):
    # eps_l < 1/kappa: every run converges, omega_i stays under
    # (eps_l kappa)^(i+1) and the iteration count under the theorem bound
    eps_l, eps_target = rate / kappa, 10.0**log_eps
    a = random_with_condition(n, kappa, seed)
    bound = theorem_iteration_bound(eps_target, eps_l, kappa)
    backend = factory(a, eps_l, kappa=kappa, seed=seed)
    _, trace, _ = iterative_refine(a, unit_rhs(n, seed), backend, eps_target,
                                   max_iter=max(bound, 10) + 10)
    assert trace.converged
    assert contraction_check(trace, kappa, eps_l).passed
    assert trace.iterations <= trace.theorem_bound == bound


@settings(max_examples=5, deadline=None)
@given(kappa=st.floats(1.5, 4.0), rate=st.floats(0.1, 0.5), n=st.sampled_from([4, 8]),
       seed=st.integers(0, 99))
def test_qsvt_direction_matches_spectral(kappa, rate, n, seed):
    eps_l = rate / kappa
    a = random_with_condition(n, kappa, seed)
    b = unit_rhs(n, seed)
    eta_q = qsvt_backend(a, eps_l, kappa=kappa).direction(b)
    eta_s = spectral_oracle_backend(a, eps_l, kappa=kappa).direction(b)
    assert angle_between(eta_q, eta_s) <= 1e-6


@settings(max_examples=12, deadline=None)
@given(factory=st.sampled_from([spectral_oracle_backend, noisy_oracle_backend, qsvt_backend]),
       kappa=st.floats(1.5, 3.0), n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 99))
def test_factories_return_frozen_backends_with_unit_real_directions(factory, kappa, n, seed):
    backend = factory(random_with_condition(n, kappa, seed), 0.3 / kappa, kappa=kappa, seed=seed)
    assert isinstance(backend, SolverBackend) and type(backend) is not SolverBackend
    with pytest.raises(dataclasses.FrozenInstanceError):
        backend.eps_l = 0.0
    eta = backend.direction(unit_rhs(n, seed))
    assert eta.shape == (n,) and not np.iscomplexobj(eta)
    assert abs(np.linalg.norm(eta) - 1.0) <= 1e-12


@pytest.fixture
def fresh_phase_memo():
    refine_mod._inverse_phases.cache_clear()
    yield
    refine_mod._inverse_phases.cache_clear()


def record_block_evaluators(monkeypatch):
    """Wrap ``refine.inverse_block``; returns the list of evaluators it read."""
    read = []
    real = refine_mod.inverse_block

    def inverse_block(factors, evaluate):
        read.append(evaluate)
        return real(factors, evaluate)

    monkeypatch.setattr(refine_mod, "inverse_block", inverse_block)
    return read


def count_sweeps(monkeypatch):
    """Wrap ``qsvt_core.signal_row``; returns the list of point counts it swept."""
    sweeps = []
    real = qsvt_core.signal_row

    def signal_row(phases, xs):
        sweeps.append(np.size(xs))
        return real(phases, xs)

    monkeypatch.setattr(qsvt_core, "signal_row", signal_row)
    return sweeps


def count_find_phases(monkeypatch, fail_first=False):
    """Wrap ``refine.find_phases``; returns the list of targets it saw."""
    targets = []
    real = refine_mod.find_phases

    def find_phases(target, *args, **kwargs):
        targets.append(target)
        if fail_first and len(targets) == 1:
            raise PhaseFindingError(1e-3, 1e-10)
        return real(target, *args, **kwargs)

    monkeypatch.setattr(refine_mod, "find_phases", find_phases)
    return targets


def test_qsvt_backends_share_one_phase_vector_per_kappa_eps(fresh_phase_memo, monkeypatch):
    targets = count_find_phases(monkeypatch)
    read = record_block_evaluators(monkeypatch)
    kappa = 2.0
    qsvt_backend(random_with_condition(4, kappa, 0), 0.1, kappa=kappa)
    qsvt_backend(random_with_condition(8, kappa, 1), 0.1, kappa=kappa, seed=1)
    qsvt_backend(random_with_condition(4, kappa, 2), 0.2, kappa=kappa)
    qsvt_backend(random_with_condition(2, kappa, 3), 0.2, kappa=kappa)
    first, other = (refine_mod._inverse_phases(kappa, eps_l / kappa)[1] for eps_l in (0.1, 0.2))
    assert read[0] is read[1] is first
    assert read[2] is read[3] is other is not first
    assert len(targets) == 2 and refine_mod._inverse_phases.cache_info().currsize == 2
    # each key's bound check reads its memoized series; at a factor of 1 it
    # hands phase finding that series, and with it its evaluator
    for target, eps_l in zip(targets, (0.1, 0.2)):
        assert target.rescale == 1.0
        assert target.series is refine_mod._inverse_series(kappa, eps_l / kappa)


def test_shared_phases_are_read_only(fresh_phase_memo):
    qsvt_backend(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    phases, evaluate = refine_mod._inverse_phases(2.0, 0.05)
    for shared in (phases, evaluate.values):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_phase_finding_error_is_not_cached(fresh_phase_memo, monkeypatch):
    # the failed key sweeps no sequence; the retry finds the phases and
    # sweeps them once, and a memo hit does neither
    targets = count_find_phases(monkeypatch, fail_first=True)
    read = record_block_evaluators(monkeypatch)
    sweeps = count_sweeps(monkeypatch)
    a = random_with_condition(4, 2.0, 0)
    with pytest.raises(PhaseFindingError):
        qsvt_backend(a, 0.1, kappa=2.0)
    assert sweeps == []
    qsvt_backend(a, 0.1, kappa=2.0)
    _, evaluate = refine_mod._inverse_phases(2.0, 0.05)  # a memo hit: no third find_phases
    assert len(targets) == 2 and len(sweeps) == 1
    assert len(read) == 1 and read[0] is evaluate


def test_qsvt_backend_on_memoized_phases_runs_no_bound_check(fresh_phase_memo, monkeypatch):
    # its degree is the phase count, so a key whose series the series memo
    # evicted is not bound-checked again while its phases are memoized
    qsvt_backend(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    refine_mod._inverse_series.cache_clear()
    checks = []
    real = refine_mod.bound_series
    monkeypatch.setattr(refine_mod, "bound_series", lambda series: checks.append(series) or
                        real(series))
    backend = qsvt_backend(random_with_condition(4, 2.0, 1), 0.1, kappa=2.0)
    assert checks == []
    assert backend.degree == refine_mod._inverse_phases(2.0, 0.05)[0].size


FACTORIES = (spectral_oracle_backend, noisy_oracle_backend, qsvt_backend)


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("shot_readout", [0, 1, -3, 2.0, 1.5, "10", None, np.True_])
def test_factories_reject_a_shot_readout_that_is_not_a_bool(factory, shot_readout):
    # a truthy non-bool would have turned the readout on by accident
    with pytest.raises(ValueError, match="^shot_readout must be a bool, got "):
        factory(np.eye(2), 0.1, kappa=1.0, shot_readout=shot_readout)


@pytest.mark.parametrize("factory", FACTORIES)
def test_only_a_backend_that_draws_seeds_a_generator(factory):
    # exact readout draws nothing on the polynomial backends; the noisy
    # oracle draws its perturbation at either readout
    exact = factory(np.eye(2), 0.1, kappa=1.0).rng
    assert (exact is None) == (factory is not noisy_oracle_backend)
    assert isinstance(factory(np.eye(2), 0.1, kappa=1.0, shot_readout=True).rng,
                      np.random.Generator)


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("scale_a, scale_b", [(1e150, 1.0), (1e-150, 1.0), (1.0, 1e150),
                                              (1.0, 1e-150), (1e150, 1e-150), (1e-150, 1e150)])
def test_refinement_converges_far_from_unit_scale(factory, scale_a, scale_b):
    # A and b are scaled apart inside the loop, so no squared norm over- or
    # underflows; the unscaled system's own residual meets eps_target
    eps_target = 1e-12
    a = random_with_condition(8, 4.0, 0) * scale_a
    b = unit_rhs(8, 0) * scale_b
    x, trace, _ = iterative_refine(a, b, factory(a, 1e-2, kappa=4.0), eps_target)
    assert trace.converged and trace.iterations <= trace.theorem_bound
    true_residual = np.linalg.norm((b - a @ x) / scale_b) / np.linalg.norm(b / scale_b)
    assert true_residual <= eps_target


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(1.5, 20.0), seed=st.integers(0, 2**16), power=st.integers(-900, 900))
def test_refinement_is_exactly_invariant_under_power_of_two_scaling_of_a(kappa, seed, power):
    # A times 2^p runs the same loop: the same omegas, and x and every mu
    # divided by 2^p exactly
    a = random_with_condition(8, kappa, seed)
    b = unit_rhs(8, seed)
    backend = spectral_oracle_backend(a, 0.2 / kappa, kappa=kappa)
    x, trace, _ = iterative_refine(a, b, backend, 1e-11)
    x_p, trace_p, _ = iterative_refine(math.ldexp(1.0, power) * a, b, backend, 1e-11)
    assert trace_p.scaled_residuals == trace.scaled_residuals
    assert np.array_equal(np.ldexp(x_p, power), x)
    assert [math.ldexp(mu, power) for mu in trace_p.mu_values] == trace.mu_values


@pytest.mark.parametrize("factory", FACTORIES)
def test_factories_reject_a_singular_matrix_by_name(factory):
    # the spectral factory used to build from 0/0 (the zero matrix) or
    # refine through NaN iterations (rank 2), and the others failed later
    # under another name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.diag([1.0, 0.0]), np.zeros((4, 4)), np.diag([1.0, 0.5, 0.0, 0.0])):
            with pytest.raises(ValueError, match="matrix numerically singular"):
                factory(a, 1e-2, kappa=10.0)


def test_factories_measure_one_kappa_per_matrix():
    # every factory keys on the kappa it is passed, which the SVD's ratio
    # of a prescribed spectrum may exceed by rounding
    for seed in range(4):
        a = random_with_condition(8, 5.0, seed)
        kappas = {factory(a, 1e-2, kappa=5.0).kappa for factory in FACTORIES}
        assert kappas == {5.0}, kappas


def test_qsvt_solve_checks_unitarity_at_construction_only(fresh_phase_memo, monkeypatch):
    # structural guard: an inner solve runs no unitarity check (the factors
    # are checked when the backend is built, the pair products once per
    # (kappa, eps')), and a refined solve finds its phases at most once per key
    targets = count_find_phases(monkeypatch)
    depth, applied, checks_inside = [], [], []
    real_apply = refine_mod.apply_inverse_state

    def apply_inverse_state(*args, **kwargs):
        depth.append(None)
        applied.append(None)
        try:
            return real_apply(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(refine_mod, "apply_inverse_state", apply_inverse_state)
    for module in (numerics, blockenc, qsvt_core):
        def check_unitary(*args, _real=module.check_unitary, **kwargs):
            if depth:
                checks_inside.append(args[0].shape)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "check_unitary", check_unitary)
    kappa, eps_l = 3.0, 0.1
    for seed in (0, 1):
        a = random_with_condition(8, kappa, seed)
        _, trace, _ = iterative_refine(a, unit_rhs(8, seed),
                                       qsvt_backend(a, eps_l, kappa=kappa), 1e-11)
        assert trace.converged
    assert len(applied) >= 4
    assert checks_inside == []
    assert len(targets) == 1


def test_qsvt_builds_sweep_the_sequence_once_per_key(fresh_phase_memo, monkeypatch):
    # the key's phase memo sweeps the sequence once, at its M + 1 grid
    # nodes: two backends of one key built from different matrices make one
    # signal_row call between them, a second key one more, and no inner
    # solve of a refined solve on any of them makes one
    sweeps, applied = count_sweeps(monkeypatch), []
    real_apply = refine_mod.apply_inverse_state

    def apply_inverse_state(*args):
        applied.append(None)
        return real_apply(*args)

    monkeypatch.setattr(refine_mod, "apply_inverse_state", apply_inverse_state)
    kappa = 3.0
    mats = [random_with_condition(8, kappa, seed) for seed in (0, 1)]
    backends = [qsvt_backend(a, 0.1, kappa=kappa) for a in mats]
    m = refine_mod._inverse_phases(kappa, 0.1 / kappa)[1].values.size
    assert sweeps == [m]
    backends.append(qsvt_backend(mats[0], 0.05, kappa=kappa))
    assert len(sweeps) == 2
    for a, backend in zip(mats + mats[:1], backends):
        for seed in (0, 1):
            _, trace, _ = iterative_refine(a, unit_rhs(8, seed), backend, 1e-11)
            assert trace.converged
    assert len(applied) >= 12
    assert len(sweeps) == 2


@pytest.mark.parametrize("factory", FACTORIES)
def test_refine_calls_denormalize_through_its_module_binding(factory, monkeypatch):
    # perfbench's tracer times magnitude recovery by rebinding
    # `refine.denormalize`: the loop must look it up there once per inner
    # solve; the noisy oracle's direction checks its candidates with it too
    calls = []
    real_denormalize = refine_mod.denormalize

    def denormalize(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return real_denormalize(*args, **kwargs)

    monkeypatch.setattr(refine_mod, "denormalize", denormalize)
    kappa = 3.0
    a = random_with_condition(8, kappa, 0)
    backend = factory(a, 0.1 / kappa, kappa=kappa)
    solves = 0
    for seed in (0, 1):
        _, trace, cost = iterative_refine(a, unit_rhs(8, seed), backend, 1e-11)
        assert trace.converged
        solves += cost.solves
    assert solves >= 4
    assert calls.count("iterative_refine") == solves
    backend_calls = {"direction"} if factory is noisy_oracle_backend else set()
    assert set(calls) - {"iterative_refine"} == backend_calls


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -1.0, 0.5])
def test_factories_reject_a_kappa_that_is_not_finite_and_at_least_one(factory, kappa):
    # the noisy oracle used to build a backend, and report "converged", for
    # each of these
    with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
        factory(random_with_condition(8, 4.0, 0), 1e-2, kappa=kappa)


@pytest.mark.parametrize("factory", FACTORIES)
def test_factories_reject_a_kappa_below_the_matrix_ratio(factory):
    # [1/kappa, 1] must cover every singular value over sigma_max: the
    # spectral oracle used to build at kappa=10 on this kappa-100 matrix and
    # refine to "converged" in 97 iterations against a theorem bound of 8
    a = random_with_condition(16, 100.0, 0)
    built = refine_mod._inverse_series.cache_info().misses
    phases = refine_mod._inverse_phases.cache_info().misses
    with pytest.raises(ValueError, match=r"kappa = 10.0 is below the matrix's sigma_max"):
        factory(a, 4e-3, kappa=10.0)
    assert refine_mod._inverse_series.cache_info().misses == built
    assert refine_mod._inverse_phases.cache_info().misses == phases


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 16, 32, 64]), kappa=st.floats(1.0, 300.0),
       seed=st.integers(0, 2**32 - 1))
def test_factories_take_the_nominal_kappa_of_a_prescribed_spectrum(n, kappa, seed):
    # the measured ratio of random_with_condition sits within rounding of
    # its nominal kappa, so passing that kappa never trips the check
    backend = noisy_oracle_backend(random_with_condition(n, kappa, seed), 0.5 / kappa,
                                   kappa=kappa)
    assert backend.kappa == kappa


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 16, 64]), log_kappa=st.floats(0.5, 12.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, log_kappa=10.0, seed=0)  # ratio 1.3e-6 above kappa, past a fixed 1e-9 slack
def test_factories_take_the_nominal_kappa_up_to_1e12(n, log_kappa, seed):
    # the SVD gives sigma_min to about u sigma_max (u = 2^-53), so the
    # measured ratio of a prescribed spectrum exceeds its nominal kappa by
    # up to about 1.25 u kappa; the slack max(1e-9, 8 u ratio) takes the
    # nominal kappa and still rejects a kappa below the ratio by more than
    # the slack. The spectral factory is left out: its series at
    # kappa >= 1e8 is too large to build
    kappa = 10.0**log_kappa
    a = random_with_condition(n, kappa, seed)
    refine_mod._factorize(a, 0.4 / kappa, kappa, False)
    assert noisy_oracle_backend(a, 0.4 / kappa, kappa=kappa).kappa == kappa
    ratio = numerics.singular_value_ratio(numerics.svd(a)[1])
    below = ratio * (1.0 - 2.0 * max(1e-9, 8 * 2.0**-53 * ratio))
    with pytest.raises(ValueError, match="is below the matrix's sigma_max"):
        refine_mod._factorize(a, 0.4 / below, below, False)
    with pytest.raises(ValueError, match="is below the matrix's sigma_max"):
        noisy_oracle_backend(a, 0.4 / below, kappa=below)


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (0, 0)])
def test_factories_reject_a_matrix_that_is_not_square_or_is_empty_by_shape(factory, shape):
    # a 3 x 2 matrix used to build a spectral backend with (2,) directions
    # for (3,) right-hand sides, the noisy oracle failed at its first solve,
    # qsvt_backend found and memoized phases first, and 0 x 0 hit IndexError
    a = np.ones(shape)
    if shape[0]:
        a[:2, :2] = np.eye(2)
    built = refine_mod._inverse_series.cache_info().misses
    phases = refine_mod._inverse_phases.cache_info().misses
    with pytest.raises(ValueError, match=rf"square matrix, got shape \({shape[0]}, {shape[1]}\)"):
        factory(a, 1e-2, kappa=2.0)
    assert refine_mod._inverse_series.cache_info().misses == built
    assert refine_mod._inverse_phases.cache_info().misses == phases


@pytest.mark.parametrize("eps_l", [math.nan, math.inf, -math.inf, -1e-3])
def test_noisy_oracle_rejects_an_eps_l_that_is_not_finite_and_non_negative(eps_l):
    # NaN used to fail after the whole refinement, inf to report a total
    # cost of 0 and a negative eps_l to run the exact solve
    with pytest.raises(ValueError, match="eps_l must be finite and >= 0"):
        noisy_oracle_backend(random_with_condition(8, 4.0, 0), eps_l, kappa=4.0)


@pytest.mark.parametrize("eps", [7e-155, 1e-160, 1e-170, 1e-200])
def test_sampling_cost_names_an_eps_whose_inverse_square_is_not_a_finite_float(eps):
    # 1/eps^2 overflowed to inf (OverflowError from math.ceil) down to
    # 1e-162 and eps^2 underflowed to 0 (ZeroDivisionError) below
    with pytest.raises(ValueError, match=f"eps = {eps!r} is too small for the sampling cost"):
        samples_for_accuracy(eps)
    assert samples_for_accuracy(1e-154) == math.ceil(1.0 / 1e-154**2)
    # past 1.3e154 eps^2 itself overflowed (OverflowError); 1/eps^2 < 1 there
    assert samples_for_accuracy(1.0) == samples_for_accuracy(1e200) == 1


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("eps_l", [1e-160, 1e-200])
def test_factories_reject_an_eps_l_too_small_for_the_cost_model(factory, eps_l):
    # the oracles used to build a backend with which iterative_refine ran
    # the whole refined solve and then failed on the cost; the polynomial
    # backends used to build, bound-check and memoize the series first
    # (qsvt_full then met its find_phases cap), so no memoized series may be built
    before = refine_mod._inverse_series.cache_info()
    with pytest.raises(ValueError, match=f"eps = {eps_l!r} is too small for the sampling cost"):
        factory(random_with_condition(8, 4.0, 0), eps_l, kappa=4.0)
    assert refine_mod._inverse_series.cache_info() == before


@pytest.mark.parametrize("factory", FACTORIES)
def test_refine_names_both_shapes_before_any_solve(factory, monkeypatch):
    solves = []
    real_solve = refine_mod._normalized_solve

    def normalized_solve(*args):
        solves.append(None)
        return real_solve(*args)

    monkeypatch.setattr(refine_mod, "_normalized_solve", normalized_solve)
    a = random_with_condition(4, 3.0, 0)
    backend = factory(a, 1e-2, kappa=3.0)
    b = unit_rhs(4, 0)
    cases = [(a[:, :3], b, r"A \(4, 3\), b \(4,\)"), (a[:3], b, r"A \(3, 4\), b \(4,\)"),
             (a, b[:3], r"A \(4, 4\), b \(3,\)"), (a, b[:, None], r"A \(4, 4\), b \(4, 1\)"),
             (a, np.ones(5), r"A \(4, 4\), b \(5,\)")]
    for a_in, b_in, shapes in cases:
        with pytest.raises(ValueError, match=shapes):
            iterative_refine(a_in, b_in, backend, 1e-10)
    assert solves == []


@dataclasses.dataclass(frozen=True)
class StalledBackend(SolverBackend):
    """Directions A-orthogonal to the right-hand side: <A eta, rhs> = 0 to
    rounding, so mu is about 0 and omega stalls."""

    matrix: np.ndarray

    @property
    def size(self):
        return self.matrix.shape[1]

    def direction(self, rhs_hat):
        w = np.random.default_rng(0).standard_normal(rhs_hat.size)
        w -= (w @ rhs_hat) / (rhs_hat @ rhs_hat) * rhs_hat
        eta = np.linalg.solve(self.matrix, w)
        return eta / np.linalg.norm(eta)


def refine_outcome(refine, a, b, backend, eps_target, max_iter):
    """Everything ``refine`` returns, as bytes, or the exception it raises
    with its message and, for a divergence, its trace."""

    def trace_bytes(trace):
        return (np.array(trace.scaled_residuals, dtype=float).tobytes(),
                np.array(trace.mu_values, dtype=float).tobytes(),
                trace.converged, trace.theorem_bound)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in a diverging run
        try:
            x, trace, cost = refine(a, b, backend, eps_target, max_iter=max_iter)
        except DivergenceError as exc:
            return type(exc), str(exc), trace_bytes(exc.trace)
        except (ValueError, PostSelectionError) as exc:
            return type(exc), str(exc)
    return x.dtype, x.tobytes(), trace_bytes(trace), cost


REFINE_KEYS = [(2.0, 0.1), (2.0, 0.5), (4.0, 0.3)]  # (kappa, eps_l * kappa): few phase keys


@settings(max_examples=150, deadline=None)
@given(factory=st.sampled_from(FACTORIES), n=st.sampled_from([2, 4, 8, 16]),
       key=st.sampled_from(REFINE_KEYS), seed=st.integers(0, 2**16),
       shot_readout=st.booleans(), complex_b=st.booleans(),
       a_exp=st.sampled_from([-600, 0, 600]), b_exp=st.sampled_from([-600, 0, 600]),
       max_iter=st.sampled_from([0, 1, 100]), eps_target=st.sampled_from([1e-14, 1e-11, 1e-6]))
def test_refine_matches_the_reference_loop_bit_for_bit(factory, n, key, seed, shot_readout,
                                                        complex_b, a_exp, b_exp, max_iter,
                                                        eps_target):
    # the loop that takes each residual's norm once, and denormalize's dot,
    # return the reference's bytes of x, trace and cost, or its exception
    kappa, rate = key
    a = random_with_condition(n, kappa, seed) * 2.0**a_exp
    b = unit_rhs(n, seed) * 2.0**b_exp
    if complex_b:
        b = b + 1j * np.roll(b, 1)
    outcomes = [refine_outcome(refine, a, b, factory(a, rate / kappa, kappa=kappa, seed=seed,
                                                     shot_readout=shot_readout),
                               eps_target, max_iter)
                for refine in (iterative_refine, refine_reference.iterative_refine)]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", range(4))
def test_a_stalled_run_matches_the_reference_loop(seed):
    a = random_with_condition(4, 4.0, seed)
    b = unit_rhs(4, seed)
    backend = StalledBackend(eps_l=1e-2, kappa=4.0, rng=None, matrix=a)
    outcomes = [refine_outcome(refine, a, b, backend, 1e-13, 100)
                for refine in (iterative_refine, refine_reference.iterative_refine)]
    assert outcomes[0][0] is DivergenceError
    assert outcomes[0] == outcomes[1]


def test_a_three_solve_request_takes_ten_norms_and_no_vdot(monkeypatch):
    # one norm per residual: b's, then per solve the residual's and
    # apply_inverse_state's two (its input's check and its output's);
    # magnitude recovery of two real vectors takes dot, not np.vdot
    a = random_with_condition(32, 3.0, 0)
    backend = qsvt_backend(a, 0.1 / 3.0, kappa=3.0)
    b = np.random.default_rng(0).standard_normal(32)
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    norm = counted("two_norm", numerics.two_norm)
    for module in (numerics, blockenc, qsvt_core, refine_mod, invpoly):
        if hasattr(module, "two_norm"):
            monkeypatch.setattr(module, "two_norm", norm)
    monkeypatch.setattr(np, "vdot", counted("vdot", np.vdot))
    _, trace, cost = iterative_refine(a, b, backend, 1e-8)
    assert trace.converged and cost.solves == 3
    assert calls.count("two_norm") == 10
    assert calls.count("vdot") == 0


FLOATS64 = st.floats(-1e150, 1e150, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(FLOATS64, min_size=1, max_size=64), y=st.lists(FLOATS64, min_size=1,
                                                                  max_size=64))
def test_denormalize_is_the_vdot_forms_bits(x, y):
    # contiguous float64 pairs take dot; strided, reversed, broadcast,
    # one-entry, unequal-length, single-precision and complex pairs keep
    # np.vdot: each gives the vdot form's bits (a -0.0 inner product
    # included) or its error and message
    size = min(len(x), len(y))
    a_eta, residual = np.array(x[:size]), np.array(y[:size])
    single = a_eta.astype(np.float32)
    with np.errstate(over="ignore"):
        c64 = (a_eta + 1j * a_eta[::-1]).astype(np.complex64)  # 8-byte strides, conjugated
    pairs = [(a_eta, residual), (a_eta[::2], residual[::2]), (a_eta[::-1], residual),
             (a_eta[::-1], residual[::-1]), (a_eta, np.broadcast_to(residual[:1], size)),
             (a_eta[:1], -0.0 * a_eta[:1]), (a_eta[:2], np.array([-0.0, 0.0])[:size] * a_eta[:2]),
             (a_eta, np.append(residual, 1.0)), (single, residual),
             (single, residual.astype(np.float32)), (single[::2], single[1::2]),
             (a_eta + 1j * a_eta[::-1], residual), (a_eta, residual - 1j * residual[::-1]),
             (a_eta + 1j * a_eta[::-1], residual - 1j * residual[::-1]), (c64, c64[::-1].copy())]
    for pair in pairs:
        outcomes = []
        for denorm in (denormalize, refine_reference.denormalize):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    outcomes.append(np.float64(denorm(*pair)).tobytes())
                except ValueError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], [(p.dtype, p.strides, p.size) for p in pair]


@pytest.mark.parametrize("a_eta", [np.zeros(3), np.full(3, 1e-15), np.array([1.0, math.inf, 0.0]),
                                   np.array([math.nan, 1.0, 0.0]), np.full(3, 1e-15) + 0j])
def test_denormalize_names_a_degenerate_direction_as_the_vdot_form_does(a_eta):
    with pytest.raises(ValueError) as expected:
        refine_reference.denormalize(a_eta, np.ones(3))
    with pytest.raises(ValueError, match="^degenerate direction") as got:
        denormalize(a_eta, np.ones(3))
    assert str(got.value) == str(expected.value)
