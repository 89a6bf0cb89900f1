"""Block-encodings of arbitrary matrices.

Two constructions behind one interface: an exact one-ancilla unitary
dilation for accuracy experiments, and a FABLE-style compressed
uniformly-controlled-rotation circuit for gate-count reporting. Both
satisfy the contract that the top-left (all ancillas |0>) block of the
unitary equals ``A / alpha``. The dilation is assembled in one step,
``dilation_from_svd``, from a matrix and an SVD of it: ``dilation_encoding``
takes that SVD itself, and a caller that already holds one (the
``qsvt_full`` factory) passes it in, so no matrix is factored twice. A real matrix gets a real (float64)
dilation and FABLE's gates are all real, so both unitaries stay real
for real input; the sequence sweep then runs in real arithmetic.

Qubit convention: qubit 0 is the most significant tensor factor, ancilla
qubits come first, so basis index = ancilla_bits * 2^n + data_bits and
the encoded block is literally the top-left submatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import as_matrix, check_unitary, svd

__all__ = [
    "BlockEncoding",
    "Circuit",
    "Gate",
    "dilation_encoding",
    "dilation_from_svd",
    "fable_encoding",
    "compile_circuit",
]

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


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary U with contract ``block(U) = A / alpha``.

    The block is taken on the ancilla-zero subspace on both sides; with
    the ancillas as the most significant qubits that subspace is the
    leading 2^n basis states. ``unitary`` is checked once, at
    construction, and stored, in the dtype it was given, as a read-only
    view of a private copy.
    """

    unitary: np.ndarray
    data_qubits: int
    ancilla_qubits: int
    alpha: float
    tolerance: float = 1e-11  # bound on ||block - A/alpha||

    def __post_init__(self):
        u = as_matrix(self.unitary)
        dim = 2 ** (self.data_qubits + self.ancilla_qubits)
        if u.shape != (dim, dim):
            raise ValueError(f"unitary shape {u.shape} inconsistent with qubit counts")
        if not self.alpha >= 1.0 - 1e-12:
            raise ValueError("alpha must be >= 1")
        # a read-only view of a private copy: numpy refuses to make a view of
        # a locked base writeable again, so the array checked here is the one
        # every later use sees and no consumer has to check it again
        owner = u.copy()
        check_unitary(owner, 1e-11)
        owner.flags.writeable = False
        object.__setattr__(self, "unitary", owner.view())

    @property
    def block_dim(self) -> int:
        return 2**self.data_qubits

    def block(self) -> np.ndarray:
        """Top-left data block, equal to the encoded matrix over alpha."""
        n = self.block_dim
        return self.unitary[:n, :n]


def _require_power_of_two(n: int, what: str) -> int:
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def dilation_encoding(a) -> BlockEncoding:
    """Exact one-ancilla dilation of a square matrix with norm <= 1, from
    its own SVD (``dilation_from_svd``). A real matrix gets a real
    (float64) dilation, a complex one a complex dilation; alpha = 1.
    Callers holding a matrix with norm > 1 pre-scale it.
    """
    a = as_matrix(a)
    return dilation_from_svd(a, svd(a))


def dilation_from_svd(a, factors) -> BlockEncoding:
    """The dilation of ``dilation_encoding`` built from ``factors``, an SVD
    ``(u, s, vh)`` of ``a`` that the caller already holds.

    U = [[A, sqrt(I - A A^H)], [sqrt(I - A^H A), -A^H]], with the matrix
    square roots taken through the factors and 1 - sigma^2 clamped at zero
    when it dips within 1e-14 below; the four blocks are written into one
    2N x 2N array.
    """
    a = as_matrix(a).astype(complex if np.iscomplexobj(a) else float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("dilation_encoding requires a square matrix")
    n_qubits = _require_power_of_two(a.shape[0], "matrix dimension")
    u, s, vh = factors
    if s[0] > 1.0 + 1e-9:
        raise ValueError(f"pre-scale required: spectral norm {s[0]} exceeds 1")
    gap = 1.0 - s**2
    if np.any(gap < -1e-14):
        raise ValueError("singular values exceed 1 beyond the clamping guard")
    root = np.sqrt(np.maximum(gap, 0.0))
    n = a.shape[0]
    unitary = np.empty((2 * n, 2 * n), dtype=a.dtype)
    unitary[:n, :n] = a
    unitary[:n, n:] = (u * root) @ u.conj().T
    unitary[n:, :n] = (vh.conj().T * root) @ vh
    unitary[n:, n:] = -a.conj().T
    return BlockEncoding(unitary=unitary, data_qubits=n_qubits, ancilla_qubits=1, alpha=1.0)


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


def fable_encoding(a, threshold: float = 0.0) -> tuple[BlockEncoding, Circuit]:
    """FABLE-style block-encoding of a real matrix with |entries| <= 1.

    Rotation angles arccos(a_ij) are Gray-code sequenced through a
    uniformly controlled Ry on one ancilla; Walsh-Hadamard-transformed
    angles below ``threshold`` are dropped together with the controls
    they would have carried, and the dropped coefficient mass is
    reported as the block error bound. alpha = 2^n.

    Returns ``(encoding, circuit)``.
    """
    a = as_matrix(a)
    if np.iscomplexobj(a) and np.any(a.imag != 0.0):
        raise ValueError("fable_encoding requires a real-valued matrix")
    a = a.real.astype(float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("fable_encoding requires a square matrix")
    n = _require_power_of_two(a.shape[0], "matrix dimension")
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
    eps_thresh = dropped_mass / 2.0
    encoding = BlockEncoding(
        unitary=unitary,
        data_qubits=n,
        ancilla_qubits=n + 1,
        alpha=float(2**n),
        tolerance=max(eps_thresh, 1e-10),
    )
    return encoding, circuit


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

