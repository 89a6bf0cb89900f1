import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsvt_refine.qsvt_core as qsvt_core
import sweep_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsvt_refine.blockenc import dilation_encoding
from cheb_reference import random_odd_target, svt_reference
from circuit_reference import fable_encoding
from sweep_reference import build_u_phi, stepwise_sweep, sweep, swept_block
from qsvt_refine.invpoly import ChebyshevSeries, bound_series, inverse_cheb_series
from qsvt_refine.numerics import random_with_condition, svd
from qsvt_refine.qsp_phases import find_phases, signal_row
from qsvt_refine.qsvt_core import (PostSelectionError, apply_inverse_state, inverse_block,
                                   sequence_evaluator)

T1 = ChebyshevSeries(np.array([0.0, 1.0]))


def test_single_phase_zero_reproduces_matrix():
    a = random_with_condition(4, 4.0, 0)
    u_phi = build_u_phi(dilation_encoding(a), np.array([0.0]))
    np.testing.assert_allclose(u_phi[:4, :4], a, atol=1e-10)


def test_u_phi_is_unitary():
    rng = np.random.default_rng(1)
    a = random_with_condition(4, 3.0, 1)
    enc = dilation_encoding(a)
    for d in (1, 2, 3, 6, 9):
        u_phi = build_u_phi(enc, rng.uniform(-np.pi, np.pi, d))
        defect = np.linalg.norm(u_phi.conj().T @ u_phi - np.eye(8), 2)
        assert defect <= 1e-10


def test_an_empty_phase_table_is_rejected():
    a = random_with_condition(2, 2.0, 3)
    with pytest.raises(ValueError, match="nonempty"):
        build_u_phi(dilation_encoding(a), np.zeros(0))
    with pytest.raises(ValueError, match="odd phase count, got 0"):
        sequence_evaluator(np.zeros(0))


def test_block_norm_bounded():
    rng = np.random.default_rng(2)
    a = random_with_condition(4, 5.0, 2)
    u_phi = build_u_phi(dilation_encoding(a), rng.uniform(-1, 1, 5))
    assert np.linalg.norm(u_phi[:4, :4], 2) <= 1.0 + 1e-9


def test_svt_reference_t1_and_t3():
    # the circuit-free reference the QSVT blocks are checked against:
    # W T3(Sigma) V^H = 4 A A^T A - 3 A for a real A = W Sigma V^H
    a = random_with_condition(4, 6.0, 4)
    np.testing.assert_allclose(svt_reference(a, T1), a, atol=1e-11)
    t3 = ChebyshevSeries(np.array([0.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(svt_reference(a, t3), 4 * a @ a.T @ a - 3 * a, atol=1e-11)


def test_svt_reference_inverse_on_diagonal():
    kappa, eps = 5.0, 0.1
    series = inverse_cheb_series(kappa, eps)
    a = np.diag([0.2, 0.4])
    got = svt_reference(a, series)
    want = np.diag([series.scale / 0.2, series.scale / 0.4])
    assert np.max(np.abs(np.diag(got - want))) <= 2 * eps * series.scale
    assert np.max(np.abs(got - np.diag(np.diag(got)))) <= 1e-12


def test_qsvt_identity_property():
    # the wiring regression: circuit block vs SVD ground truth
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.choice([2, 4]))
        degree = int(rng.choice([3, 7, 11, 15]))
        a = random_with_condition(n, float(rng.uniform(1.5, 8.0)), 100 + trial)
        target = random_odd_target(rng, degree, 0.8)
        phases = find_phases(target)
        u_phi = build_u_phi(dilation_encoding(a), phases)
        diff = u_phi[:n, :n].real - svt_reference(a, target.series)
        assert np.linalg.norm(diff, 2) <= 1e-7, f"trial {trial}"


def test_even_case_block_structure():
    # d=2 with phases (0, 0) realizes T_2 exactly: block = V T2(S) V^H
    a = np.diag([0.3, 0.7])
    u_phi = build_u_phi(dilation_encoding(a), np.zeros(2))
    want = np.diag([2 * 0.3**2 - 1.0, 2 * 0.7**2 - 1.0])
    np.testing.assert_allclose(u_phi[:2, :2].real, want, atol=1e-10)

    # non-diagonal check against the closed form V T2(S) V^H = 2 A^T A - I
    a = random_with_condition(4, 3.0, 11)
    u_phi = build_u_phi(dilation_encoding(a), np.zeros(2))
    np.testing.assert_allclose(u_phi[:4, :4].real, 2 * a.T @ a - np.eye(4), atol=1e-10)


def test_extract_block_inverse_polynomial_on_diagonal():
    # dilation of diag(0.5, 1.0) with the bounded inverse series: the real
    # block must sit within 2 eps scale of scale * diag(2, 1)
    kappa, eps = 2.0, 0.1
    bounded = bound_series(inverse_cheb_series(kappa, eps))
    phases = find_phases(bounded)
    series = bounded.series
    a = np.diag([0.5, 1.0])
    u_phi = build_u_phi(dilation_encoding(a), phases)
    block = u_phi[:2, :2].real
    want = series.scale * np.diag([2.0, 1.0])
    assert np.max(np.abs(block - want)) <= 2.0 * eps * series.scale


def test_apply_inverse_identity_system():
    phases = find_phases(bound_series(inverse_cheb_series(1.0, 0.1)))
    rng = np.random.default_rng(0)
    b = rng.standard_normal(2)
    b = b / np.linalg.norm(b)
    out, prob = apply_inverse_state(inverse_block(svd(np.eye(2)), sequence_evaluator(phases)), b)
    overlap = abs(np.vdot(out, b))
    assert overlap == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < prob <= 1.0


def test_apply_inverse_preserves_eigenvector():
    a = np.diag([1.0, 0.5])
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.05)))
    block = inverse_block(svd(a), sequence_evaluator(phases))
    out, _ = apply_inverse_state(block, np.array([0.0, 1.0]))
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-9)


def test_apply_inverse_solves_to_polynomial_accuracy():
    kappa, eps = 4.0, 0.05
    a = random_with_condition(4, kappa, 21)
    phases = find_phases(bound_series(inverse_cheb_series(kappa, eps)))
    rng = np.random.default_rng(1)
    b = rng.standard_normal(4)
    b /= np.linalg.norm(b)
    out, prob = apply_inverse_state(inverse_block(svd(a), sequence_evaluator(phases)), b)
    # multiplying back by A must recover the rhs direction
    recovered = a @ out
    recovered /= np.linalg.norm(recovered)
    fidelity = abs(np.dot(recovered, b))
    assert fidelity >= 1.0 - 10.0 * eps
    assert 0.0 < prob <= 1.0


def test_apply_inverse_post_selection_failure():
    # phase pi/2 realizes the zero polynomial; the kept component vanishes
    phases = np.array([np.pi / 2])
    block = inverse_block(svd(0.5 * np.eye(2)), sequence_evaluator(phases))
    with pytest.raises(PostSelectionError):
        apply_inverse_state(block, np.array([1.0, 0.0]))


def test_apply_inverse_state_rejects_a_nan_or_infinite_state():
    # a NaN norm passed the unit-norm check, as abs(norm - 1.0) > 1e-12 is
    # False for it, and the state came back as a NaN vector with p = NaN
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.1)))
    block = inverse_block(svd(0.5 * np.eye(4)), sequence_evaluator(phases))
    for b in ([np.nan, 0.5, 0.5, 0.5], [np.inf, 0.0, 0.0, 0.0], [np.nan] * 4):
        with pytest.raises(ValueError, match="not normalized"):
            apply_inverse_state(block, np.array(b))


def test_apply_inverse_input_validation():
    factors = svd(0.5 * np.eye(2))
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.1)))
    block = inverse_block(factors, sequence_evaluator(phases))
    e0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        apply_inverse_state(block, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        apply_inverse_state(block, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    for wrong in (np.ones(1), np.ones(3) / np.sqrt(3.0), e0[:, None]):
        with pytest.raises(ValueError, match="shape"):
            apply_inverse_state(block, wrong)
    with pytest.raises(ValueError, match="odd"):
        sequence_evaluator(np.zeros(2))


@pytest.mark.parametrize("seed", range(4))
def test_apply_inverse_state_reads_a_real_valued_complex_b_as_its_real_part(seed):
    # the same bits, direction and probability alike, for b and b + 0j;
    # a nonzero imaginary part is still rejected
    a = random_with_condition(8, 2.0, seed)
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.05)))
    block = inverse_block(svd(a), sequence_evaluator(phases))
    b = np.random.default_rng(seed).standard_normal(8)
    b /= np.linalg.norm(b)
    x, prob = apply_inverse_state(block, b)
    x_c, prob_c = apply_inverse_state(block, b + 0j)
    assert x.tobytes() == x_c.tobytes() and prob == prob_c
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        apply_inverse_state(block, b + 1e-300j)


def test_ordering_regression_odd_and_even():
    # pins the left-to-right expansion of the alternating product: any
    # off-by-one in the factor order breaks agreement with the oracle
    rng = np.random.default_rng(5)
    a = random_with_condition(4, 2.5, 31)
    enc = dilation_encoding(a)
    u, s, vh = svd(a)
    for d in (3, 4):
        phases = rng.uniform(-0.8, 0.8, d)
        u_phi = build_u_phi(enc, phases)
        vals = signal_row(phases, s)[0].real
        if d % 2:
            want = (u * vals) @ vh
        else:
            want = (vh.conj().T * vals) @ vh
        np.testing.assert_allclose(u_phi[:4, :4].real, want, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), d=st.integers(0, 20).map(lambda k: 2 * k + 1),
       kappa=st.floats(1.0, 20.0), seed=st.integers(0, 2**16))
def test_apply_inverse_state_matches_svd_transform(n, d, kappa, seed):
    # the swept state equals the singular value transform of the realized
    # signal polynomial, for random phases and sizes: the block formed from
    # the singular pairs of m^T, and the dense sweep of the dilation of m
    rng = np.random.default_rng(seed)
    m = random_with_condition(n, kappa, seed)
    m /= np.linalg.norm(m, 2)
    phases = rng.uniform(-np.pi, np.pi, d)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    u, s, vh = svd(m)
    tb = (u * signal_row(phases, s)[0].real) @ vh @ b
    weight = float(np.linalg.norm(tb)) ** 2
    assume(weight >= 1e-6)
    for block in (inverse_block(svd(m.T), sequence_evaluator(phases)),
                  swept_block(dilation_encoding(m), phases)):
        out, prob = apply_inverse_state(block, b)
        np.testing.assert_allclose(out, tb / np.sqrt(weight), rtol=0, atol=1e-9)
        assert prob == pytest.approx(weight, rel=0, abs=1e-12)


def reference_sweep(encoding, phases, columns):
    # the sequence in complex arithmetic throughout: each call a complex
    # product with U or U^H, each projector phase e^{+-i psi} applied to the
    # ancilla-zero rows and the rest
    u = np.asarray(encoding.unitary, dtype=complex)
    n = encoding.block_dim
    d = phases.shape[0]
    psi = np.array(phases, dtype=float)
    psi[0] -= np.pi / 4.0
    psi[1:] -= np.pi / 2.0
    out = np.array(columns, dtype=complex)
    for k in range(d - 1, -1, -1):
        out = (u if (d - 1 - k) % 2 == 0 else u.conj().T) @ out
        out[:n] *= np.exp(1j * psi[k])
        out[n:] *= np.exp(-1j * psi[k])
    return (1j) ** d * np.exp(-1j * np.pi / 4.0) * out


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), d=st.integers(1, 41),
       kind=st.sampled_from(["dilation", "fable", "complex"]), seed=st.integers(0, 2**16))
def test_sweep_matches_complex_reference(n, d, kind, seed):
    # a real encoding (dilation or FABLE) is swept in real arithmetic on the
    # float view of the complex block, a complex one in complex arithmetic;
    # both agree with the all-complex loop
    rng = np.random.default_rng(seed)
    m = random_with_condition(n, 4.0, seed)
    if kind == "fable":
        assume(n <= 4)
        enc = fable_encoding(m / np.max(np.abs(m)))[0]
    elif kind == "complex":
        m = m + 1j * random_with_condition(n, 4.0, seed + 1)
        enc = dilation_encoding(m / np.linalg.norm(m, 2))
    else:
        enc = dilation_encoding(m / np.linalg.norm(m, 2))
    assert enc.unitary.dtype == (complex if kind == "complex" else float)
    dim = enc.unitary.shape[0]
    table = rng.uniform(-np.pi, np.pi, d)
    width = int(rng.integers(1, 4))
    columns = rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width))
    np.testing.assert_allclose(sweep(enc, table, columns),
                               reference_sweep(enc, table, columns), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_paired_sweep_changes_no_bit(d, n, kind):
    # the (U, U^H) pairs and the trailing U step of an odd d do the
    # one-step-at-a-time loop's arithmetic in its order, for the identity
    # columns of build_u_phi and the ancilla-zero ones of swept_block
    rng = np.random.default_rng([d, n])
    m = random_with_condition(n, 4.0, d)
    if kind == "complex":
        m = m + 1j * random_with_condition(n, 4.0, d + 1)
    enc = dilation_encoding(m / np.linalg.norm(m, 2))
    assert enc.unitary.dtype == (complex if kind == "complex" else float)
    table = rng.uniform(-np.pi, np.pi, d)
    for columns in (np.eye(2 * n), np.eye(2 * n, n)):
        assert np.array_equal(sweep(enc, table, columns), stepwise_sweep(enc, table, columns))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), d=st.integers(0, 20).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["dilation", "fable"]), seed=st.integers(0, 2**16))
def test_apply_inverse_state_is_the_plus_minus_phi_average(n, d, kind, seed):
    # the real-part construction by its definition: the +Phi and -Phi
    # sequences swept in complex arithmetic and averaged, and the real data
    # block of U_Phi applied to b; one product with the block (of the
    # singular pairs for the dilation, of the dense sweep for FABLE) must
    # give the same direction and success probability
    rng = np.random.default_rng(seed)
    m = random_with_condition(n, 4.0, seed)
    if kind == "fable":
        enc = fable_encoding(m / np.max(np.abs(m)))[0]
    else:
        enc = dilation_encoding(m / np.linalg.norm(m, 2))
    phases = rng.uniform(-np.pi, np.pi, d)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    column = np.zeros((enc.unitary.shape[0], 1), dtype=complex)
    column[:n, 0] = b
    average = 0.5 * (reference_sweep(enc, phases, column)
                     + reference_sweep(enc, -phases, column))[:n, 0]
    weight = float(np.linalg.norm(average))
    assume(weight >= 1e-2)
    block = (swept_block(enc, phases) if kind == "fable"
             else inverse_block(svd(m.T), sequence_evaluator(phases)))
    out, prob = apply_inverse_state(block, b)
    assert out.dtype == np.float64
    data_block_b = build_u_phi(enc, phases)[:n, :n].real @ b
    for want in (average, data_block_b):
        np.testing.assert_allclose(out, want / np.linalg.norm(want), rtol=0, atol=1e-13)
    assert prob == pytest.approx(weight**2, rel=0, abs=1e-12)

    # the real-only boundary: a complex b when the solve runs, complex
    # factors when the block is built
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        apply_inverse_state(block, b * np.exp(0.5j))
    z = m + 1j * random_with_condition(n, 4.0, seed + 1)
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        inverse_block(svd(z), sequence_evaluator(phases))
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        swept_block(dilation_encoding(z / np.linalg.norm(z, 2)), phases)
    # swept columns that are not orthonormal are caught: a pair product
    # scaled by 1 + 1e-6 by the table's one check on its grid nodes, before
    # any block is built, and a dense sweep scaled so when its block is
    real_row = qsvt_core.signal_row
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsvt_core, "signal_row",
                      lambda *args: tuple((1.0 + 1e-6) * v for v in real_row(*args)))
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            sequence_evaluator(phases)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep_reference, "sweep", lambda *args: (1.0 + 1e-6) * sweep(*args))
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            swept_block(enc, phases)


def test_apply_inverse_rejects_a_complex_encoding():
    a = random_with_condition(2, 2.0, 3)
    with pytest.raises(ValueError, match="real-only"):
        inverse_block(svd(a + 0.5j * a), sequence_evaluator(np.zeros(3)))


def test_inverse_block_is_read_only():
    a = random_with_condition(4, 2.0, 5)
    block = inverse_block(svd(a / 2.0), sequence_evaluator(np.linspace(-1.0, 1.0, 7)))
    assert block.shape == (4, 4) and block.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0.0


# memoized inverse phases at the benchmark's keys (kappa = 10, eps' = 1e-3
# and 1e-4, d = 239 and 287) and one more of another degree
MEMO_KEYS = [(10.0, 1e-3), (10.0, 1e-4), (4.0, 1e-3)]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 8, 16, 32]), kappa=st.floats(1.0, 1e3),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16),
       table=st.one_of(st.integers(0, 200).map(lambda k: 2 * k + 1),
                       st.sampled_from(MEMO_KEYS)))
def test_inverse_block_matches_the_dense_sweep(n, kappa, scale, seed, table):
    # the singular-pair block of A, read from the table's grid evaluator,
    # against the real kept block of the dense sweep of the dilation of
    # A^H / sigma_max, which takes its own SVD of that matrix: random phases
    # of odd count up to 401, or memoized phases with their memoized evaluator
    from qsvt_refine.refine import _inverse_phases

    a = scale * random_with_condition(n, kappa, seed)
    if isinstance(table, int):
        phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, table)
        evaluate = sequence_evaluator(phases)
    else:
        phases, evaluate = _inverse_phases(table[0], table[1])
    factors = svd(a)
    want = swept_block(dilation_encoding((a / factors[1][0]).T), phases)
    np.testing.assert_allclose(inverse_block(factors, evaluate), want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(table=st.one_of(st.integers(0, 200).map(lambda k: 2 * k + 1),
                       st.sampled_from([(10.0, 1e-3), (10.0, 1e-4), (4.0, 1e-2)])),
       points=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
       n=st.sampled_from([2, 16, 64]), kappa=st.floats(1.0, 1e3), seed=st.integers(0, 2**16))
def test_sequence_evaluator_matches_signal_row(table, points, n, kappa, seed):
    # the table's grid evaluator against the sequence itself, at random
    # points of [-1, 1] and at the singular values over sigma_max of a
    # matrix of condition number kappa: random phases of odd count up to
    # 401, or memoized phases with their memoized evaluator
    from qsvt_refine.refine import _inverse_phases

    if isinstance(table, int):
        phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, table)
        evaluate = sequence_evaluator(phases)
    else:
        phases, evaluate = _inverse_phases(*table)
    s = svd(random_with_condition(n, kappa, seed))[1]
    xs = np.concatenate([points, s / s[0]])
    np.testing.assert_allclose(evaluate(xs), signal_row(phases, xs)[0].real, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 8, 16, 32]), d=st.integers(1, 201),
       kind=st.sampled_from(["real", "complex"]), seed=st.integers(0, 2**16))
def test_library_build_u_phi_matches_the_dense_sweep(n, d, kind, seed):
    # the full operator from the singular pairs of a contraction M against
    # the dense sweep of its dilation, odd and even d, real and complex M
    rng = np.random.default_rng(seed)
    m = random_with_condition(n, float(rng.uniform(1.0, 100.0)), seed)
    if kind == "complex":
        m = m + 1j * random_with_condition(n, 3.0, seed + 1)
    m = m * (rng.uniform(0.1, 1.0) / np.linalg.norm(m, 2))
    phases = rng.uniform(-np.pi, np.pi, d)
    want = build_u_phi(dilation_encoding(m), phases)
    np.testing.assert_allclose(qsvt_core.build_u_phi(svd(m), phases), want, rtol=0, atol=1e-12)


def test_library_build_u_phi_holds_the_inverse_block():
    a = random_with_condition(8, 4.0, 6)
    u, s, vh = svd(3.0 * a)
    phases = np.random.default_rng(6).uniform(-np.pi, np.pi, 9)
    u_phi = qsvt_core.build_u_phi((vh.T, s / s[0], u.T), phases)
    np.testing.assert_allclose(u_phi[:8, :8].real,
                               inverse_block((u, s, vh), sequence_evaluator(phases)),
                               rtol=0, atol=1e-14)
    defect = np.linalg.norm(u_phi.conj().T @ u_phi - np.eye(16), 2)
    assert defect <= 1e-12


def test_library_build_u_phi_checks_its_factors_and_phases():
    a = random_with_condition(4, 2.0, 3)
    u, s, vh = svd(a)
    with pytest.raises(ValueError, match="nonempty"):
        qsvt_core.build_u_phi((u, s, vh), np.zeros(0))
    with pytest.raises(ValueError, match="not unitary"):
        qsvt_core.build_u_phi((u, s, 1.001 * vh), np.zeros(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        qsvt_core.build_u_phi((u, 1.001 * s, vh), np.zeros(3))


def test_inverse_block_with_repeated_singular_values_at_one():
    # sigma = 1, 1, 0.5, 0.5 between two exactly orthogonal Hadamard factors,
    # so every entry is exact and sigma_max is 1; the one phase 0 realizes
    # p(x) = x, so the block is A^T itself
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    a = h @ np.diag([1.0, 1.0, 0.5, 0.5]) @ h[::-1]
    phases = np.random.default_rng(0).uniform(-np.pi, np.pi, 41)
    np.testing.assert_allclose(inverse_block(svd(a), sequence_evaluator(phases)),
                               swept_block(dilation_encoding(a.T), phases), rtol=0, atol=1e-13)
    np.testing.assert_allclose(inverse_block(svd(a), sequence_evaluator(np.zeros(1))), a.T,
                               rtol=0, atol=1e-15)


def test_inverse_block_checks_its_factors_and_phases():
    a = random_with_condition(8, 4.0, 0)
    u, s, vh = svd(a)
    phases = np.random.default_rng(0).uniform(-np.pi, np.pi, 9)
    evaluate = sequence_evaluator(phases)
    inverse_block((u, s, vh), evaluate)
    for bad in ((u * (1.0 + 1e-6), s, vh), (u, s, vh * (1.0 + 1e-6))):
        with pytest.raises(ValueError, match="not unitary"):
            inverse_block(bad, evaluate)
    with pytest.raises(ValueError, match="odd phase count, got 8"):
        sequence_evaluator(phases[:-1])
    for bad in ((u * 1j, s, vh), (u, s, vh * np.exp(0.1j))):
        with pytest.raises(ValueError, match="qsvt_full is real-only: the factors are complex"):
            inverse_block(bad, evaluate)
    # a complex dtype with a zero imaginary part is a real factor
    assert np.array_equal(inverse_block((u + 0j, s, vh + 0j), evaluate),
                          inverse_block((u, s, vh), evaluate))


def test_inverse_block_does_not_depend_on_the_blas_thread_count():
    # the block of one fixed phase table, SVD included, gives the same
    # bytes under one and two OpenBLAS threads
    script = """
import hashlib
import numpy as np
from qsvt_refine.numerics import random_with_condition, svd
from qsvt_refine.qsvt_core import inverse_block, sequence_evaluator
evaluate = sequence_evaluator(np.random.default_rng(0).uniform(-np.pi, np.pi, 239))
for n in (16, 32, 64):
    block = inverse_block(svd(random_with_condition(n, 10.0, n)), evaluate)
    print(n, hashlib.sha1(block.tobytes()).hexdigest())
"""
    src = str(Path(qsvt_core.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]
    assert len(digests[0].split()) == 6
