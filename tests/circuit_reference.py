"""FABLE block-encodings and the gate compiler that builds their unitaries.

``fable_encoding`` is the FABLE construction of Camps & Van Beeumen,
"FABLE: Fast Approximate Quantum Circuits for Block-Encodings"
(arXiv:2205.00081): a compressed uniformly-controlled-rotation circuit on
n + 1 ancillas whose top-left block is ``A / 2^n``, with its gate list for
gate-count reporting. ``compile_circuit`` turns a ``Circuit`` of ``Gate``s
into its dense real unitary.

No solver path applies a FABLE encoding; the tests keep it as a second,
independent construction of the library's ``BlockEncoding``: a real,
multi-ancilla encoding with alpha > 1 for the block sweep, and the
block-encoding fidelity and compression checks of the paper's claims.

Qubit convention, as in ``qsvt_refine.blockenc``: qubit 0 is the most
significant tensor factor and the ancilla qubits come first, so the
encoded block is literally the top-left submatrix.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qsvt_refine.blockenc import BlockEncoding
from qsvt_refine.numerics import as_matrix, check_unitary, require_power_of_two

_GATE_ARITY = {"ry": 1, "h": 1, "cnot": 2, "swap": 2}


@dataclass(frozen=True)
class Gate:
    """One circuit element; ``qubits`` lists controls before targets."""

    kind: str
    qubits: tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} gate expects {_GATE_ARITY[self.kind]} qubits")
        if (self.kind == "ry") != (self.angle is not None):
            raise ValueError(f"gate {self.kind} angle mismatch")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubit indices must be distinct")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first gate acts first on states."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} addresses a qubit outside 0..{self.num_qubits - 1}")

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _walsh_gray_angles(theta: np.ndarray) -> np.ndarray:
    """theta_hat[k] = 2^-m sum_c (-1)^{popcount(gray(k) & c)} theta[c]."""
    hat = theta.astype(float).copy()
    step = 1
    while step < hat.size:
        for start in range(0, hat.size, 2 * step):
            lo = hat[start : start + step].copy()
            hi = hat[start + step : start + 2 * step].copy()
            hat[start : start + step] = lo + hi
            hat[start + step : start + 2 * step] = lo - hi
        step *= 2
    hat /= hat.size
    order = np.fromiter((_gray(k) for k in range(hat.size)), dtype=int)
    return hat[order]


def fable_encoding(a, threshold: float = 0.0) -> tuple[BlockEncoding, Circuit, float]:
    """FABLE-style block-encoding of a real matrix with |entries| <= 1.

    Rotation angles arccos(a_ij) are Gray-code sequenced through a
    uniformly controlled Ry on one ancilla; Walsh-Hadamard-transformed
    angles below ``threshold`` are dropped together with the controls
    they would have carried, and the dropped coefficient mass is
    reported as the block error bound. alpha = 2^n.

    Returns ``(encoding, circuit, bound)``, ``bound`` on
    ||block - A / alpha||: half the dropped mass, at least 1e-10.
    """
    a = as_matrix(a)
    if np.iscomplexobj(a) and np.any(a.imag != 0.0):
        raise ValueError("fable_encoding requires a real-valued matrix")
    a = a.real.astype(float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("fable_encoding requires a square matrix")
    n = require_power_of_two(a.shape[0], "matrix dimension")
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise ValueError("entries must lie in [-1, 1]")
    if not threshold >= 0.0:
        raise ValueError("threshold must be >= 0")

    m = 2 * n  # control bits: data index j (low), row index i (high)
    theta = 2.0 * np.arccos(np.clip(a, -1.0, 1.0)).reshape(-1)
    hat = _walsh_gray_angles(theta)

    num_qubits = 2 * n + 1
    gates: list[Gate] = [Gate("h", (q,)) for q in range(1, n + 1)]

    def cnots(pending: int) -> list[Gate]:
        # the CNOTs of the set bits, least significant first; control value
        # bit b (0 = least significant) lives on qubit 2n - b
        return [Gate("cnot", (2 * n - bit, 0)) for bit in range(pending.bit_length())
                if pending >> bit & 1]

    pending = 0
    dropped_mass = 0.0
    for k in range(2**m):
        if abs(hat[k]) < threshold:
            dropped_mass += abs(hat[k])
        else:
            gates += cnots(pending)
            pending = 0
            gates.append(Gate("ry", (0,), float(hat[k])))
        pending ^= _gray(k) ^ _gray((k + 1) % 2**m)
    gates += cnots(pending)

    for t in range(n):
        gates.append(Gate("swap", (1 + t, n + 1 + t)))
    gates.extend(Gate("h", (q,)) for q in range(1, n + 1))

    circuit = Circuit(num_qubits, tuple(gates))
    unitary = compile_circuit(circuit)
    encoding = BlockEncoding(
        unitary=unitary,
        data_qubits=n,
        ancilla_qubits=n + 1,
        alpha=float(2**n),
    )
    return encoding, circuit, max(dropped_mass / 2.0, 1e-10)


def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return np.array([[c, -s], [s, c]])
    if gate.kind == "h":
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    if gate.kind == "cnot":
        return np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    if gate.kind == "swap":
        return np.array([[1.0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply ``gate`` to every column of ``state`` (dim x batch)."""
    batch = state.shape[1]
    k = len(gate.qubits)
    tensor = state.reshape((2,) * num_qubits + (batch,))
    moved = np.moveaxis(tensor, gate.qubits, range(k))
    shaped = moved.reshape(2**k, -1)
    shaped = _gate_matrix(gate) @ shaped
    moved = shaped.reshape((2,) * k + moved.shape[k:])
    tensor = np.moveaxis(moved, range(k), gate.qubits)
    return tensor.reshape(2**num_qubits, batch)


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """Dense real unitary of the circuit (gates applied in list order)."""
    dim = 2**circuit.num_qubits
    state = np.eye(dim)
    for gate in circuit.gates:
        state = _apply_gate(state, gate, circuit.num_qubits)
    check_unitary(state, 1e-11)
    return state
