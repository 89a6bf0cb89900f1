"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion alongside the usual pytest report.
"""

import json
import math
import time

import numpy as np
import pytest

from qsvt_refine.bench_cli import ExperimentConfig, main, run_complexity
from cheb_reference import random_odd_target, svt_reference
from circuit_reference import fable_encoding
from magnitude_reference import brent_magnitude
from qsvt_refine.invpoly import cheb_eval, inverse_cheb_series
from qsvt_refine.numerics import random_with_condition, svd
from qsvt_refine.qsp_phases import find_phases
from qsvt_refine.qsvt_core import build_u_phi
from qsvt_refine.refine import (
    contraction_check,
    denormalize,
    iterative_refine,
    qsvt_backend,
    spectral_oracle_backend,
    theorem_iteration_bound,
)


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def unit_rhs(n, seed):
    rng = np.random.default_rng([seed, 0xB])
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def test_acceptance_1_qsvt_block_identity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(30):
        n = int(rng.choice([2, 4, 8]))
        degree = int(rng.choice([3, 7, 11, 15, 23, 31]))
        kappa = float(rng.uniform(1.5, 10.0))
        a = random_with_condition(n, kappa, 1000 + trial)
        target = random_odd_target(rng, degree, 0.8)
        phases = find_phases(target)
        u_phi = build_u_phi(svd(a), phases)
        gap = np.linalg.norm(u_phi[:n, :n].real - svt_reference(a, target.series), 2)
        worst = max(worst, gap)
        assert gap <= 1e-7, f"trial {trial}: {gap:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(1, f"30 random QSVT block identities within 1e-7 "
              f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_2_inverse_polynomial_accuracy():
    start = time.monotonic()
    worst_ratio = 0.0
    for kappa in (2.0, 5.0, 10.0):
        for eps in (0.1, 0.01):
            series = inverse_cheb_series(kappa, eps)
            xs = np.linspace(1.0 / kappa, 1.0, 10_000)
            err = np.max(np.abs(cheb_eval(series, xs) - series.scale / xs))
            bound = 2.0 * eps * series.scale
            worst_ratio = max(worst_ratio, err / bound)
            assert err <= bound, (kappa, eps, err, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"|P - scale/x| <= 2 eps scale on [1/kappa, 1] for all six "
              f"(kappa, eps) pairs (worst ratio {worst_ratio:.3f}, {elapsed:.1f}s)")


def test_acceptance_3_theorem_bound_reproduction():
    start = time.monotonic()
    kappa, eps = 10.0, 1e-11
    expected_bounds = {1e-2: 12, 1e-3: 6, 1e-4: 4}
    for eps_l, expected in expected_bounds.items():
        assert theorem_iteration_bound(eps, eps_l, kappa) == expected
        for seed in range(20):
            a = random_with_condition(16, kappa, seed)
            b = unit_rhs(16, seed)
            backend = spectral_oracle_backend(a, eps_l, kappa=kappa, seed=seed)
            _x, trace, _ = iterative_refine(a, b, backend, eps)
            assert trace.converged
            assert trace.iterations <= expected, (eps_l, seed, trace.iterations)
            check = contraction_check(trace, kappa, eps_l)
            assert check.passed, (eps_l, seed, check.worst_ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"60 spectral-oracle runs converge within bounds 12/6/4 with "
              f"contraction slack 10% ({elapsed:.1f}s)")


def test_acceptance_4_end_to_end_hybrid_solve():
    start = time.monotonic()
    kappa, eps_l, eps = 10.0, 5e-2, 1e-10
    a = random_with_condition(16, kappa, 0)
    b = unit_rhs(16, 0)
    backend = qsvt_backend(a, eps_l, kappa=kappa, seed=0)
    assert backend.degree == 203  # governed by degree_params(10, eps_l / 10)
    x, trace, cost = iterative_refine(a, b, backend, eps)
    assert trace.converged
    x_star = np.linalg.solve(a, b)
    forward = np.linalg.norm(x - x_star) / np.linalg.norm(x_star)
    assert forward <= kappa * trace.scaled_residuals[-1] + 1e-12
    check = contraction_check(trace, kappa, eps_l)
    assert check.passed, check.worst_ratio
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    report(4, f"N=16 hybrid qsvt_full solve: degree {backend.degree}, "
              f"{trace.iterations} iterations, omega {trace.scaled_residuals[-1]:.2e}, "
              f"forward error {forward:.2e} ({elapsed:.1f}s)")


def test_acceptance_5_large_kappa_convergence():
    start = time.monotonic()
    eps = 1e-8
    for kappa in (100.0, 200.0, 300.0):
        eps_l = 0.4 / kappa
        bound = theorem_iteration_bound(eps, eps_l, kappa)
        for seed in range(10):
            a = random_with_condition(16, kappa, seed)
            b = unit_rhs(16, seed)
            backend = spectral_oracle_backend(a, eps_l, kappa=kappa, seed=seed)
            _x, trace, _ = iterative_refine(a, b, backend, eps)
            assert trace.converged
            assert trace.iterations <= bound, (kappa, seed, trace.iterations, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"kappa in {{100, 200, 300}} x 10 seeds converge within the "
              f"theorem bound at eps_l = 0.4/kappa ({elapsed:.1f}s)")


def test_acceptance_6_complexity_crossover(tmp_path):
    start = time.monotonic()
    cfg = ExperimentConfig(
        experiment="complexity", n_qubits=4, kappa=[2.0], eps_l=[0.4],
        eps_target=1e-8, backend="spectral_oracle", seeds=[0],
        out=str(tmp_path / "complexity.csv"),
    )
    rows, failures = run_complexity(cfg)
    assert failures == []  # includes: equal totals at eps=eps_l, refined < direct
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(6, f"refined path beats the direct closed form for all eps <= 1e-3 "
              f"and matches it at eps = eps_l ({elapsed:.1f}s)")


def test_acceptance_7_fable_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        a = rng.uniform(-1.0, 1.0, (8, 8))
        enc, _, _ = fable_encoding(a, threshold=0.0)
        gap = np.linalg.norm(enc.block() - a / 8.0, 2)
        worst = max(worst, gap)
        assert gap <= 1e-10, f"trial {trial}: {gap:.3e}"
    a = rng.uniform(-1.0, 1.0, (8, 8))
    counts = [fable_encoding(a, threshold=t)[1].gate_count for t in (0.0, 1e-4, 1e-2, math.inf)]
    assert counts == sorted(counts, reverse=True)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(7, f"20 FABLE encodings exact at threshold 0 (worst {worst:.2e}); "
              f"gate counts monotone {counts} ({elapsed:.1f}s)")


def test_acceptance_8_denormalization_cross_check():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([2, 4, 8, 16]))
        a = random_with_condition(n, float(rng.uniform(1.0, 100.0)), trial)
        x = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        eta /= np.linalg.norm(eta)
        b = rng.standard_normal(n)
        closed = denormalize(a @ eta, b - a @ x)
        brent = brent_magnitude(a @ eta, b - a @ x)
        gap = abs(closed - brent) / max(1.0, abs(closed))
        worst = max(worst, gap)
        assert gap <= 1e-10, f"trial {trial}: {gap:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(8, f"closed-form and bracketed mu agree to 1e-10 on 100 instances "
              f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_9_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "det.csv"
    cfg_path.write_text(json.dumps({
        "experiment": "convergence", "n_qubits": 4, "kappa": [10.0],
        "eps_l": [1e-2, 1e-3], "eps_target": 1e-11,
        "backend": "spectral_oracle", "seeds": [0, 1, 2], "out": str(out),
    }))
    assert main(["--config", str(cfg_path)]) == 0
    first_csv = out.read_bytes()
    first_meta = out.with_suffix(".csv.meta.json").read_bytes()
    assert main(["--config", str(cfg_path)]) == 0
    assert out.read_bytes() == first_csv
    assert out.with_suffix(".csv.meta.json").read_bytes() == first_meta
    report(9, "identical config twice produces byte-identical CSV and metadata")
