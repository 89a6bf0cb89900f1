import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvt_refine.blockenc import BlockEncoding, dilation_encoding
from circuit_reference import Circuit, Gate, compile_circuit, fable_encoding
from qsvt_refine.numerics import random_with_condition


def test_dilation_scalar():
    enc = dilation_encoding(np.array([[0.5]]))
    expected = np.array([[0.5, math.sqrt(0.75)], [math.sqrt(0.75), -0.5]])
    np.testing.assert_allclose(enc.unitary, expected, atol=1e-12)
    assert enc.ancilla_qubits == 1 and enc.alpha == 1.0


def test_dilation_identity():
    enc = dilation_encoding(np.eye(2))
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    np.testing.assert_allclose(enc.unitary, expected, atol=1e-12)


def test_dilation_block_recovers_input():
    a = 0.9 * random_with_condition(4, 5.0, 2)
    enc = dilation_encoding(a)
    np.testing.assert_allclose(enc.block(), a, atol=1e-11)


def test_dilation_unitarity_sweep():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.choice([1, 2, 4]))
        a = random_with_condition(n, float(rng.uniform(1, 20)), trial) * rng.uniform(0.1, 1.0)
        u = dilation_encoding(a).unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(2 * n), 2) <= 1e-11


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 8]), kappa=st.floats(1.0, 50.0), seed=st.integers(0, 2**16))
def test_block_encoding_unitary_is_a_read_only_copy(n, kappa, seed):
    # the array checked at construction is the one every consumer sees
    a = random_with_condition(n, kappa, seed)
    encodings = [dilation_encoding(a / np.linalg.norm(a, 2))]
    if n > 1:
        encodings.append(fable_encoding(a / np.max(np.abs(a)))[0])
    for enc in encodings:
        with pytest.raises(ValueError, match="read-only"):
            enc.unitary[0, 0] = 0.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            enc.unitary.flags.writeable = True
        source = np.array(enc.unitary)
        rebuilt = BlockEncoding(source, enc.data_qubits, enc.ancilla_qubits, enc.alpha)
        source[0, 0] += 1.0
        assert np.array_equal(rebuilt.unitary, enc.unitary)


def test_dilation_dtype_follows_input():
    # a real matrix gets a float64 dilation, a complex one a complex dilation
    a = 0.9 * random_with_condition(4, 5.0, 3)
    assert dilation_encoding(a).unitary.dtype == np.float64
    assert dilation_encoding(np.eye(2, dtype=int)).unitary.dtype == np.float64
    assert dilation_encoding([[0.5]]).unitary.dtype == np.float64
    c = a + 0.3j * random_with_condition(4, 5.0, 4)
    enc = dilation_encoding(c / np.linalg.norm(c, 2))
    assert enc.unitary.dtype == np.complex128
    np.testing.assert_allclose(enc.block(), c / np.linalg.norm(c, 2), atol=1e-11)
    assert compile_circuit(fable_encoding(a)[1]).dtype == np.float64


def test_dilation_requires_prescaling():
    with pytest.raises(ValueError, match="pre-scale"):
        dilation_encoding(np.array([[2.0]]))


def test_fable_uncompressed_block():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    enc, _, _ = fable_encoding(a, threshold=0.0)
    assert enc.alpha == 4.0 and enc.ancilla_qubits == 3
    np.testing.assert_allclose(enc.block(), a / 4.0, atol=1e-10)


def test_fable_zero_matrix():
    enc, _, _ = fable_encoding(np.zeros((2, 2)), threshold=0.0)
    np.testing.assert_allclose(enc.block(), np.zeros((2, 2)), atol=1e-12)


def test_fable_matches_dilation_route():
    a = 0.8 * random_with_condition(4, 3.0, 5)
    fab, _, _ = fable_encoding(a, threshold=0.0)
    dil = dilation_encoding(a)
    ratio = fab.alpha / dil.alpha
    np.testing.assert_allclose(fab.block() * ratio, dil.block(), atol=1e-10)


def test_fable_compression_monotonicity():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    thresholds = [0.0, 1e-4, 1e-2, math.inf]
    counts, tolerances = [], []
    for t in thresholds:
        enc, circuit, tolerance = fable_encoding(a, threshold=t)
        counts.append(circuit.gate_count)
        tolerances.append(tolerance)
        assert np.linalg.norm(enc.block() - a / 4.0, 2) <= tolerance + 1e-10
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] < counts[0]
    assert tolerances == sorted(tolerances)


def test_fable_infinite_threshold_drops_rotation_layer():
    a = np.full((2, 2), 0.3)
    _, circuit, _ = fable_encoding(a, threshold=math.inf)
    assert not any(g.kind == "ry" for g in circuit.gates)


def test_fable_gate_order_is_pinned():
    # the gate sequence, CNOT flushes included, of one matrix per size at
    # four thresholds, hashed in order
    rng = np.random.default_rng(3)
    digest = hashlib.sha1()
    for n in (2, 4, 8):
        a = rng.uniform(-1.0, 1.0, (n, n))
        for threshold in (0.0, 1e-4, 1e-2, np.inf):
            gates = fable_encoding(a, threshold)[1].gates
            digest.update(repr([(g.kind, g.qubits, g.angle) for g in gates]).encode())
    assert digest.hexdigest() == "3390e09ebdd61b5b6c97f40a5a24aa911396b49d"


def test_fable_input_validation():
    with pytest.raises(ValueError, match="power of two"):
        fable_encoding(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        fable_encoding(np.full((2, 2), 1.5))
    with pytest.raises(ValueError, match="real"):
        fable_encoding(np.eye(2) * 1j)
    # NaN fails every comparison: `threshold < 0` let it through to drop nothing
    for threshold in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            fable_encoding(0.5 * np.eye(2), threshold=threshold)


def test_block_encoding_rejects_an_alpha_below_one_or_nan():
    # `alpha < 1` let a NaN alpha build
    for alpha in (0.5, math.nan):
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            BlockEncoding(np.eye(4), 1, 1, alpha)


def test_compile_empty_circuit():
    np.testing.assert_allclose(compile_circuit(Circuit(2, ())), np.eye(4))


def test_compile_single_hadamard():
    u = compile_circuit(Circuit(1, (Gate("h", (0,)),)))
    np.testing.assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_compile_cnot_involution():
    c = Circuit(2, (Gate("cnot", (0, 1)), Gate("cnot", (0, 1))))
    np.testing.assert_allclose(compile_circuit(c), np.eye(4), atol=1e-15)


def test_compile_gate_embedding_against_kron():
    # ry on the most significant of two qubits: U = Ry (x) I
    theta = 0.73
    u = compile_circuit(Circuit(2, (Gate("ry", (0,), theta),)))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    np.testing.assert_allclose(u, np.kron([[c, -s], [s, c]], np.eye(2)), atol=1e-14)
    # and on the least significant: I (x) Ry
    u = compile_circuit(Circuit(2, (Gate("ry", (1,), theta),)))
    np.testing.assert_allclose(u, np.kron(np.eye(2), [[c, -s], [s, c]]), atol=1e-14)


def test_circuit_validation():
    with pytest.raises(ValueError, match="outside"):
        Circuit(1, (Gate("cnot", (0, 1)),))
    with pytest.raises(ValueError, match="distinct"):
        Gate("cnot", (0, 0))
    with pytest.raises(ValueError, match="unknown gate"):
        Gate("toffoli", (0, 1, 2))
    for kind, qubits in (("rz", (0,)), ("controlled-ry", (0, 1)), ("multi-controlled-x", (0, 1, 2))):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate(kind, qubits, 0.1)
