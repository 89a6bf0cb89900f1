import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsvt_refine.refine as refine_mod
from qsvt_refine import blockenc, numerics, qsvt_core
from qsvt_refine.numerics import random_with_condition, two_norm
from qsvt_refine.qsp_phases import PhaseFindingError
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
        spectral_oracle_backend(a, 0.1),
        noisy_oracle_backend(a, 0.0),
        qsvt_backend(a, 0.1),
    ):
        eta, readout = solve_once(backend, 3.7 * b)
        np.testing.assert_allclose(np.abs(np.vdot(eta, b)), 1.0, atol=1e-8)
        np.testing.assert_allclose(readout, eta)


def test_solve_once_rejects_zero_rhs():
    a = np.eye(2)
    backend = noisy_oracle_backend(a, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        solve_once(backend, np.zeros(2))


def test_noisy_backend_noise_scale_and_determinism():
    a = random_with_condition(8, 5.0, 1)
    b = unit_rhs(8, 1)
    exact = np.linalg.solve(a, b)
    exact /= np.linalg.norm(exact)
    eps_l = 1e-2
    eta1, _ = solve_once(noisy_oracle_backend(a, eps_l, seed=3), b)
    eta2, _ = solve_once(noisy_oracle_backend(a, eps_l, seed=3), b)
    np.testing.assert_array_equal(eta1, eta2)
    assert 0.0 < np.linalg.norm(eta1 - exact) <= 2.0 * eps_l


def test_qsvt_direction_accuracy():
    kappa, eps_l = 2.0, 0.1
    a = random_with_condition(4, kappa, 9)
    b = unit_rhs(4, 9)
    backend = qsvt_backend(a, eps_l)
    eta, _ = solve_once(backend, b)
    exact = np.linalg.solve(a, b)
    assert angle_between(eta, exact) <= eps_l


def test_shot_readout_perturbs_and_is_seeded():
    a = random_with_condition(4, 3.0, 2)
    b = unit_rhs(4, 2)
    shots = 10_000
    backend = spectral_oracle_backend(a, 1e-2, seed=5, shots=shots)
    eta, readout = solve_once(backend, b)
    delta = np.linalg.norm(readout - eta)
    assert 0.0 < delta <= 2.0 / math.sqrt(shots)
    again, readout2 = solve_once(spectral_oracle_backend(a, 1e-2, seed=5, shots=shots), b)
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
        closed = denormalize(a @ eta, b - a @ x, method="closed_form")
        brent = denormalize(a @ eta, b - a @ x, method="brent")
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
    brent = denormalize(a_eta, residual, method="brent")
    assert abs(closed - brent) <= 1e-10 * max(1.0, abs(closed))


def test_denormalize_degenerate_direction():
    a = np.diag([1.0, 1e-20])
    with pytest.raises(ValueError, match="degenerate"):
        denormalize(a @ np.array([0.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match="method"):
        denormalize(np.array([1.0, 0.0]), np.ones(2), method="x")


def test_refine_identity_converges_immediately():
    a = np.eye(4)
    b = unit_rhs(4, 4)
    backend = noisy_oracle_backend(a, 0.0)
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
    backend = spectral_oracle_backend(a, 1e-2)
    _, trace1, _ = iterative_refine(a, b, backend, 1e-11)
    backend2 = spectral_oracle_backend(a, 1e-2)
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

    def stalled_solve(_backend, rhs):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(rhs.size)
        w -= (w @ rhs) / (rhs @ rhs) * rhs  # w orthogonal to the residual
        eta = np.linalg.solve(a, w)
        eta /= np.linalg.norm(eta)  # then <A eta, rhs> = 0, so mu = 0
        return eta, eta

    monkeypatch.setattr(refine_mod, "solve_once", stalled_solve)
    with pytest.raises(DivergenceError) as excinfo:
        iterative_refine(a, b, backend, 1e-13)
    trace = excinfo.value.trace
    assert not trace.converged
    assert len(trace.scaled_residuals) >= 3


def test_refine_stagnates_outside_contraction_regime():
    a = random_with_condition(8, 4.0, 3)
    b = unit_rhs(8, 3)
    backend = noisy_oracle_backend(a, 2.0, kappa=4.0, seed=1)  # eps_l*kappa > 1
    with pytest.warns(UserWarning, match="not guaranteed"):
        _, trace, _ = iterative_refine(a, b, backend, 1e-13, max_iter=15)
    assert not trace.contraction_hypothesis_ok


def test_refine_rejects_tiny_eps_target():
    a = np.eye(2)
    backend = noisy_oracle_backend(a, 0.0)
    with pytest.raises(ValueError, match="1e-14"):
        iterative_refine(a, np.ones(2), backend, 1e-16)


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


def test_trace_and_cost_json_serializable():
    import json

    a = random_with_condition(4, 3.0, 6)
    b = unit_rhs(4, 6)
    backend = spectral_oracle_backend(a, 1e-2)
    _, trace, cost = iterative_refine(a, b, backend, 1e-10)
    parsed = json.loads(json.dumps(trace.to_dict()))
    assert parsed["iterations"] == trace.iterations
    parsed = json.loads(json.dumps(cost.to_dict()))
    assert parsed["total"] == cost.total
    assert parsed["comparison_direct"]["solves"] == 1


def test_contraction_check_short_trace():
    from qsvt_refine.refine import RefinementTrace

    trace = RefinementTrace(
        scaled_residuals=[1e-9], mu_values=[1.0], iterations=0, converged=True,
        theorem_bound=2,
    )
    assert contraction_check(trace, 10.0, 1e-3).passed


def test_cost_identity_and_table_ratio():
    kappa, eps_l, eps = 10.0, 1e-3, 1e-11
    a = random_with_condition(16, kappa, 2)
    b = unit_rhs(16, 2)
    backend = spectral_oracle_backend(a, eps_l, kappa=kappa)
    _, trace, cost = iterative_refine(a, b, backend, eps)
    assert cost.total == cost.solves * cost.be_calls_per_solve * cost.samples_per_solve
    assert cost.solves == trace.iterations + 1
    assert cost.samples_per_solve == samples_for_accuracy(eps_l)
    direct = cost.comparison_direct
    assert direct.total == direct.be_calls_per_solve * direct.samples_per_solve
    # the Table ratio: (1 x d_eps x N_eps) / (solves x d_eps_l x N_eps_l)
    lhs = direct.total / cost.total
    rhs = (
        direct.be_calls_per_solve * direct.samples_per_solve
    ) / (cost.solves * cost.be_calls_per_solve * cost.samples_per_solve)
    assert lhs == pytest.approx(rhs)
    with pytest.raises(ValueError, match="product"):
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
    eps_l = rate / kappa
    spectral = spectral_oracle_backend(random_with_condition(4, kappa, seed), eps_l, kappa=kappa)
    qsvt = qsvt_backend(random_with_condition(4, kappa, seed + 1), eps_l, kappa=kappa)
    assert spectral.series is qsvt.series
    assert spectral.degree == qsvt.degree == spectral.series.degree


def test_shared_series_is_read_only():
    backend = spectral_oracle_backend(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    with pytest.raises(ValueError, match="read-only"):
        backend.series.coefficients[1] = 0.0


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


def test_backend_missing_a_field_fails_at_construction():
    with pytest.raises(TypeError):
        QsvtBackend(eps_l=0.1, kappa=2.0, degree=3, shots=None,
                    rng=np.random.default_rng(0), series=None, encoding=None)
    with pytest.raises(TypeError):
        SolverBackend(eps_l=0.1, kappa=2.0, degree=3, shots=None, rng=np.random.default_rng(0))


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
    shots = samples_for_accuracy(eps_l) if shot else None
    a = random_with_condition(8, kappa, seed)
    b = unit_rhs(8, seed)

    def backend():
        return factory(a, eps_l, kappa=kappa, seed=seed, shots=shots)

    x, trace, _ = iterative_refine(a, b, backend(), 1e-11)
    x_plain, omegas, mus = plain_refine(a, b, backend(), 1e-11)
    assert np.array_equal(x, x_plain)
    assert trace.scaled_residuals == omegas and trace.mu_values == mus


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
    kappa = 2.0
    first = qsvt_backend(random_with_condition(4, kappa, 0), 0.1, kappa=kappa)
    second = qsvt_backend(random_with_condition(8, kappa, 1), 0.1, kappa=kappa, seed=1)
    other = qsvt_backend(random_with_condition(4, kappa, 2), 0.2, kappa=kappa)
    third = qsvt_backend(random_with_condition(2, kappa, 3), 0.2, kappa=kappa)
    assert first.phases is second.phases
    assert other.phases is third.phases is not first.phases
    assert len(targets) == 2
    assert targets[0] is first.series and targets[1] is other.series


def test_shared_phases_are_read_only(fresh_phase_memo):
    backend = qsvt_backend(random_with_condition(4, 2.0, 0), 0.1, kappa=2.0)
    with pytest.raises(ValueError, match="read-only"):
        backend.phases.phases[0] = 0.0


def test_phase_finding_error_is_not_cached(fresh_phase_memo, monkeypatch):
    targets = count_find_phases(monkeypatch, fail_first=True)
    a = random_with_condition(4, 2.0, 0)
    with pytest.raises(PhaseFindingError):
        qsvt_backend(a, 0.1, kappa=2.0)
    backend = qsvt_backend(a, 0.1, kappa=2.0)
    assert len(targets) == 2
    assert refine_mod._inverse_phases(2.0, 0.05) is backend.phases


def test_measured_kappa_backends_share_one_phase_vector(fresh_phase_memo, monkeypatch):
    # sigma_max / sigma_min differs in its last bits between these matrices
    # (10.000000000000005, ...02, ...09); the memo key rounds it up to 12
    # significant digits, so one phase finding serves all three
    targets = count_find_phases(monkeypatch)
    mats = [random_with_condition(16, 10.0, seed) for seed in (0, 1, 2)]
    backends = [qsvt_backend(a, 1e-2) for a in mats]
    assert len(targets) == 1
    assert all(bk.phases is backends[0].phases for bk in backends)
    assert spectral_oracle_backend(mats[0], 1e-2).series is backends[0].series
    for a, bk in zip(mats, backends):
        sv = np.linalg.svd(a, compute_uv=False)
        assert bk.kappa >= sv[0] / sv[-1]


def test_qsvt_solve_checks_unitarity_at_construction_only(fresh_phase_memo, monkeypatch):
    # structural guard: an inner solve re-checks no 2N x 2N unitary, and a
    # refined solve finds its phases at most once per (kappa, eps')
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
