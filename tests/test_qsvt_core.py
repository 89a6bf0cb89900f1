import numpy as np
import pytest

import qsvt_refine.qsvt_core as qsvt_core
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsvt_refine.blockenc import dilation_encoding
from cheb_reference import random_odd_target, svt_reference
from circuit_reference import fable_encoding
from sweep_reference import stepwise_sweep
from qsvt_refine.invpoly import ChebyshevSeries, bound_series, inverse_cheb_series
from qsvt_refine.numerics import random_with_condition, svd
from qsvt_refine.qsp_phases import find_phases, realized_values
from qsvt_refine.qsvt_core import (
    PostSelectionError,
    _sweep,
    apply_inverse_state,
    build_u_phi,
    inverse_block,
)

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
    enc = dilation_encoding(random_with_condition(2, 2.0, 3))
    with pytest.raises(ValueError, match="nonempty"):
        build_u_phi(enc, np.zeros(0))
    with pytest.raises(ValueError, match="odd phase count, got 0"):
        inverse_block(enc, np.zeros(0))


def test_block_norm_bounded():
    rng = np.random.default_rng(2)
    a = random_with_condition(4, 5.0, 2)
    u_phi = build_u_phi(dilation_encoding(a), rng.uniform(-1, 1, 5))
    assert np.linalg.norm(u_phi[:4, :4], 2) <= 1.0 + 1e-9


def test_svt_reference_t1_and_t0():
    # the circuit-free reference the QSVT blocks are checked against
    a = random_with_condition(4, 6.0, 4)
    np.testing.assert_allclose(svt_reference(a, T1), a, atol=1e-11)
    t0 = ChebyshevSeries(np.array([1.0]))
    np.testing.assert_allclose(svt_reference(a, t0), np.eye(4), atol=1e-11)
    with pytest.raises(ValueError, match="definite-parity"):
        svt_reference(a, ChebyshevSeries(np.array([0.5, 0.5])))


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

    # non-diagonal check against the oracle route
    t2 = ChebyshevSeries(np.array([0.0, 0.0, 1.0]))
    a = random_with_condition(4, 3.0, 11)
    u_phi = build_u_phi(dilation_encoding(a), np.zeros(2))
    np.testing.assert_allclose(
        u_phi[:4, :4].real, svt_reference(a, t2), atol=1e-10
    )


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
    enc = dilation_encoding(np.eye(2))
    rng = np.random.default_rng(0)
    b = rng.standard_normal(2)
    b = b / np.linalg.norm(b)
    out, prob = apply_inverse_state(inverse_block(enc, phases), b)
    overlap = abs(np.vdot(out, b))
    assert overlap == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < prob <= 1.0


def test_apply_inverse_preserves_eigenvector():
    a = np.diag([1.0, 0.5])
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.05)))
    enc = dilation_encoding(a.conj().T)
    out, _ = apply_inverse_state(inverse_block(enc, phases), np.array([0.0, 1.0]))
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-9)


def test_apply_inverse_solves_to_polynomial_accuracy():
    kappa, eps = 4.0, 0.05
    a = random_with_condition(4, kappa, 21)
    phases = find_phases(bound_series(inverse_cheb_series(kappa, eps)))
    enc = dilation_encoding(a.conj().T)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(4)
    b /= np.linalg.norm(b)
    out, prob = apply_inverse_state(inverse_block(enc, phases), b)
    # multiplying back by A must recover the rhs direction
    recovered = a @ out
    recovered /= np.linalg.norm(recovered)
    fidelity = abs(np.dot(recovered, b))
    assert fidelity >= 1.0 - 10.0 * eps
    assert 0.0 < prob <= 1.0


def test_apply_inverse_post_selection_failure():
    # phase pi/2 realizes the zero polynomial; the kept component vanishes
    enc = dilation_encoding(0.5 * np.eye(2))
    phases = np.array([np.pi / 2])
    with pytest.raises(PostSelectionError):
        apply_inverse_state(inverse_block(enc, phases), np.array([1.0, 0.0]))


def test_apply_inverse_input_validation():
    enc = dilation_encoding(0.5 * np.eye(2))
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.1)))
    block = inverse_block(enc, phases)
    e0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        apply_inverse_state(block, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        apply_inverse_state(block, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    for wrong in (np.ones(1), np.ones(3) / np.sqrt(3.0), e0[:, None]):
        with pytest.raises(ValueError, match="shape"):
            apply_inverse_state(block, wrong)
    with pytest.raises(ValueError, match="odd"):
        inverse_block(enc, np.zeros(2))


@pytest.mark.parametrize("seed", range(4))
def test_apply_inverse_state_reads_a_real_valued_complex_b_as_its_real_part(seed):
    # the same bits, direction and probability alike, for b and b + 0j;
    # a nonzero imaginary part is still rejected
    a = random_with_condition(8, 2.0, seed)
    phases = find_phases(bound_series(inverse_cheb_series(2.0, 0.05)))
    block = inverse_block(dilation_encoding(a.T), phases)
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
        vals = realized_values(phases, s)
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
    # signal polynomial, for random phases and sizes
    rng = np.random.default_rng(seed)
    m = random_with_condition(n, kappa, seed)
    m /= np.linalg.norm(m, 2)
    phases = rng.uniform(-np.pi, np.pi, d)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    u, s, vh = svd(m)
    tb = (u * realized_values(phases, s)) @ vh @ b
    weight = float(np.linalg.norm(tb)) ** 2
    assume(weight >= 1e-6)
    out, prob = apply_inverse_state(inverse_block(dilation_encoding(m), phases), b)
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
    np.testing.assert_allclose(_sweep(enc, table, columns),
                               reference_sweep(enc, table, columns), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_paired_sweep_changes_no_bit(d, n, kind):
    # the (U, U^H) pairs and the trailing U step of an odd d do the
    # one-step-at-a-time loop's arithmetic in its order, for the identity
    # columns of build_u_phi and the ancilla-zero ones of inverse_block
    rng = np.random.default_rng([d, n])
    m = random_with_condition(n, 4.0, d)
    if kind == "complex":
        m = m + 1j * random_with_condition(n, 4.0, d + 1)
    enc = dilation_encoding(m / np.linalg.norm(m, 2))
    assert enc.unitary.dtype == (complex if kind == "complex" else float)
    table = rng.uniform(-np.pi, np.pi, d)
    for columns in (np.eye(2 * n), np.eye(2 * n, n)):
        assert np.array_equal(_sweep(enc, table, columns), stepwise_sweep(enc, table, columns))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), d=st.integers(0, 20).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["dilation", "fable"]), seed=st.integers(0, 2**16))
def test_apply_inverse_state_is_the_plus_minus_phi_average(n, d, kind, seed):
    # the real-part construction by its definition: the +Phi and -Phi
    # sequences swept in complex arithmetic and averaged, and the real data
    # block of U_Phi applied to b; one product with the swept block must
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
    block = inverse_block(enc, phases)
    out, prob = apply_inverse_state(block, b)
    assert out.dtype == np.float64
    data_block_b = build_u_phi(enc, phases)[:n, :n].real @ b
    for want in (average, data_block_b):
        np.testing.assert_allclose(out, want / np.linalg.norm(want), rtol=0, atol=1e-13)
    assert prob == pytest.approx(weight**2, rel=0, abs=1e-12)

    # the real-only boundary: a complex b when the solve runs, a complex
    # encoding when the block is built
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        apply_inverse_state(block, b * np.exp(0.5j))
    z = m + 1j * random_with_condition(n, 4.0, seed + 1)
    with pytest.raises(ValueError, match="qsvt_full is real-only"):
        inverse_block(dilation_encoding(z / np.linalg.norm(z, 2)), phases)
    # swept columns that are not orthonormal are caught when the block is built
    real_sweep = qsvt_core._sweep
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsvt_core, "_sweep", lambda *args: (1.0 + 1e-6) * real_sweep(*args))
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            inverse_block(enc, phases)


def test_apply_inverse_rejects_a_complex_encoding():
    a = random_with_condition(2, 2.0, 3)
    enc = dilation_encoding((a + 0.5j * a) / np.linalg.norm(a + 0.5j * a, 2))
    with pytest.raises(ValueError, match="real-only"):
        inverse_block(enc, np.zeros(3))


def test_inverse_block_is_read_only():
    a = random_with_condition(4, 2.0, 5)
    block = inverse_block(dilation_encoding(a / 2.0), np.linspace(-1.0, 1.0, 7))
    assert block.shape == (4, 4) and block.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0.0
