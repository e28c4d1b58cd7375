"""Dense statevector and density-matrix simulation primitives.

States live on ``n`` qubits with qubit 0 as the most significant bit of the
flat array index, matching the printed bitstring convention used by the
rest of the package.  Every gate is defined once, in ``GATES``.  A gate on
a statevector reshapes it into a rank-n tensor and contracts the small gate
matrix against the target axes, which is cheap for the desk-scale systems
handled here.  A density matrix is held as its 4^n real Pauli coefficients,
so a gate is its real Pauli transfer matrix (PTM), depolarization a
coefficient mask and the read-out a matmul with a cached 2^n x 2^n matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Sequence, Union

import numpy as np

from .encode import CostOperator
from .instance import check_positive, check_real, check_whole, index_bitstring

SQRT2_INV = 1.0 / math.sqrt(2.0)

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@lru_cache(maxsize=None)
def _pauli(string: str) -> np.ndarray:
    """Matrix of a Pauli string such as ``"XZ"``, qubit 0 the leftmost factor
    (shared, read-only)."""
    matrix = reduce(np.kron, [_PAULIS["IXYZ".index(ch)] for ch in string])
    matrix.flags.writeable = False
    return matrix


#: Gate name -> (qubit count, carries depolarizing noise when a NoiseModel
#: is active, definition).  The definition is a fixed unitary, or the Pauli
#: string P of the rotation exp(-i angle P / 2).  Plain X and CNOT (state
#: preparation only) stay noiseless.
GATES = {
    "h": (1, True, np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV),
    "x": (1, False, _pauli("X")),
    "rx": (1, True, "X"),
    "rz": (1, True, "Z"),
    "cnot": (2, False, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex)),
    "rzz": (2, True, "ZZ"),
    "rxx": (2, True, "XX"),
    "ryy": (2, True, "YY"),
}


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """Unitary matrix of a named gate (2x2 or 4x4): its fixed unitary, or
    cos(angle/2) I - i sin(angle/2) P for a rotation about the Pauli string P."""
    if name not in GATES:
        raise ValueError(f"unknown gate {name!r}")
    definition = GATES[name][2]
    if not isinstance(definition, str):
        return definition
    if angle is None:
        raise ValueError(f"gate {name!r} needs an angle")
    pauli = _pauli(definition)
    return math.cos(angle / 2.0) * np.eye(len(pauli)) - 1j * math.sin(angle / 2.0) * pauli


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction: gate name, target qubits, optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


class StateVector:
    """Pure state as a flat complex amplitude array of length 2^n."""

    def __init__(self, n: int, amplitudes: np.ndarray | None = None):
        self.n = n
        if amplitudes is None:
            amplitudes = np.zeros(1 << n, dtype=complex)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=complex)
            if amplitudes.shape != (1 << n,):
                raise ValueError("amplitude array has wrong length")
        self.amplitudes = amplitudes

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        return cls(n, np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())


@lru_cache(maxsize=64)
def _kron_power(n: int, *entries: float) -> np.ndarray:
    """The n-fold Kronecker power of the 2x2 matrix with the given row-major
    entries: one qubit-wise map on a 2^n vector as a single matmul (shared, read-only)."""
    matrix = reduce(np.kron, [np.reshape(entries, (2, 2))] * n, np.ones((1, 1)))
    matrix.flags.writeable = False
    return matrix


class DensityMatrix:
    """Mixed state as its 4^n real Pauli coefficients ``c_P = Tr(P rho)``, qubit 0
    the most significant base-4 digit, so ``rho = sum_P c_P P / 2^n``.  It starts at
    |0...0><0...0| = prod_q (I + Z_q) / 2: 1 on every string of only I and Z."""

    def __init__(self, n: int):
        self.n = n
        self.pauli = reduce(np.kron, [np.array([1.0, 0.0, 0.0, 1.0])] * n, np.ones(1))

    def probabilities(self) -> np.ndarray:
        """Walsh-Hadamard transform of the I/Z coefficients (digits 0 and 3), clipped
        at 0: rounding can leave a zero probability slightly negative."""
        z_type = self.pauli.reshape([4] * self.n)[(slice(None, None, 3),) * self.n]
        return np.clip(_kron_power(self.n, 0.5, 0.5, 0.5, -0.5) @ z_type.reshape(-1), 0.0, None)

    def purity(self) -> float:
        return float(self.pauli @ self.pauli) / (1 << self.n)

    def copy(self) -> "DensityMatrix":
        clone = object.__new__(DensityMatrix)
        clone.n, clone.pauli = self.n, self.pauli.copy()
        return clone


State = Union[StateVector, DensityMatrix]


@lru_cache(maxsize=None)
def _axis_orders(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation that brings ``axes`` to the front, and its inverse."""
    front = axes + tuple(a for a in range(ndim) if a not in axes)
    back = tuple(sorted(range(ndim), key=front.__getitem__))
    return front, back


def _contract(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a d^k x d^k matrix to k axes of a [d] * ndim tensor (d = 2 for
    amplitudes, 4 for Pauli coefficients): the calls of ``np.tensordot``
    plus ``np.moveaxis``, with cached axis orders."""
    front, back = _axis_orders(tensor.ndim, axes)
    moved = tensor.transpose(front).reshape(mat.shape[1], -1)
    return np.dot(mat, moved).reshape(tensor.shape).transpose(back)


def _check_targets(n: int, qubits: Sequence[int]) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    if len(set(qubits)) != len(qubits):
        raise ValueError("gate targets must be distinct qubits")


def _check_rate(name: str, value: float, top: float) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a real number in [0, top]."""
    check_real(name, value)
    if not 0.0 <= value <= top:
        raise ValueError(f"{name} must lie in [0, {top:g}], got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing gate noise plus a symmetric readout confusion matrix.

    ``p1`` follows H, RX and RZ, ``p2`` RZZ, RXX and RYY (``channel_rate``).  The
    derived averages r1_bar = p1/2 and r2_bar = 3*p2/4 are the per-gate
    infidelities of the corresponding channels.
    """

    p1: float = 0.0
    p2: float = 0.0
    p01: float = 0.0
    p10: float = 0.0

    def __post_init__(self) -> None:
        for name, top in (("p1", 1.0), ("p2", 1.0), ("p01", 0.5), ("p10", 0.5)):
            _check_rate(name, getattr(self, name), top)

    @property
    def r1_bar(self) -> float:
        return self.p1 / 2.0

    @property
    def r2_bar(self) -> float:
        return 3.0 * self.p2 / 4.0

    @property
    def has_gate_noise(self) -> bool:
        return self.p1 > 0 or self.p2 > 0

    @property
    def has_readout_error(self) -> bool:
        return self.p01 != 0.0 or self.p10 != 0.0

    def channel_rate(self, gate: str) -> float:
        """The depolarizing rate after ``gate`` by its ``GATES`` entry: p1 or p2, 0 if noiseless."""
        arity, noisy, _ = GATES[gate]
        return (self.p1 if arity == 1 else self.p2) if noisy else 0.0


def average_infidelity(lam: float, qubits: int) -> float:
    """Average gate infidelity of a depolarizing channel on `qubits` qubits."""
    return (1.0 - 2.0 ** (-qubits)) * lam


@lru_cache(maxsize=64)
def _depolarizing_mask(n: int, qubits: tuple[int, ...], lam: float) -> np.ndarray:
    """1 - lam on every Pauli coefficient with support on ``qubits``, 1 elsewhere."""
    index = np.arange(4**n)
    support = sum((index >> (2 * (n - 1 - q))) & 3 for q in qubits) > 0
    return np.where(support, 1.0 - lam, 1.0)


def depolarize(state: DensityMatrix, qubits: Sequence[int], lam: float) -> DensityMatrix:
    """Mix the target subsystem toward maximally mixed with weight ``lam``."""
    if not isinstance(state, DensityMatrix):
        raise TypeError("depolarizing channel requires a density matrix")
    k = len(qubits)
    if k not in (1, 2):
        raise ValueError("depolarize expects 1 or 2 target qubits")
    _check_rate("channel parameter", lam, 4.0**k / (4.0**k - 1.0))
    _check_targets(state.n, qubits)
    state.pauli *= _depolarizing_mask(state.n, tuple(qubits), lam)
    return state


def _ptm(unitary: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix R_PQ = Tr(P U Q U^dag) / 2^k of a k-qubit unitary."""
    k = len(unitary).bit_length() - 1
    strings = np.array([_pauli("".join(p)) for p in product("IXYZ", repeat=k)])
    conjugated = (unitary @ strings @ unitary.conj().T).reshape(len(strings), -1)
    return (strings.reshape(len(strings), -1).conj() @ conjugated.T).real / len(unitary)


@lru_cache(maxsize=None)
def _ptm_terms(name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) with the gate's PTM A + cos(angle) B + sin(angle) C: exact for a
    rotation exp(-i angle P / 2); B and C are zero for h, x and cnot."""
    at_zero, at_half, at_pi = (_ptm(gate_matrix(name, t)) for t in (0.0, math.pi / 2, math.pi))
    const = (at_zero + at_pi) / 2.0
    return const, (at_zero - at_pi) / 2.0, at_half - const


def apply_gate(state: State, op: GateOp, noise: NoiseModel | None = None) -> State:
    """Apply one instruction, attaching the depolarizing channel if requested."""
    if op.name not in GATES:
        raise ValueError(f"unknown gate {op.name!r}")
    arity, _, definition = GATES[op.name]
    if len(op.qubits) != arity:
        raise ValueError(f"{op.name!r} acts on {arity} qubit(s), got {len(op.qubits)}")
    n, qubits = state.n, tuple(op.qubits)
    _check_targets(n, qubits)
    if op.angle is None and isinstance(definition, str):
        raise ValueError(f"gate {op.name!r} needs an angle")
    if isinstance(state, DensityMatrix):
        const, cos_term, sin_term = _ptm_terms(op.name)
        angle = op.angle or 0.0
        ptm = const + math.cos(angle) * cos_term + math.sin(angle) * sin_term
        state.pauli = _contract(state.pauli.reshape([4] * n), ptm, qubits).reshape(-1)
    else:
        amps = _contract(state.amplitudes.reshape([2] * n), gate_matrix(op.name, op.angle), qubits)
        state.amplitudes = amps.reshape(-1)
    if noise is not None and noise.has_gate_noise:
        if not isinstance(state, DensityMatrix):
            raise TypeError("gate noise requires the density-matrix engine")
        p = noise.channel_rate(op.name)
        if p > 0:
            depolarize(state, op.qubits, p)
    return state


def apply_diagonal_phase(state: State, diag: CostOperator, gamma: float, scale: float) -> State:
    """Multiply each basis amplitude by exp(-i*gamma*C(x)/scale)."""
    check_positive("scale", scale)
    if diag.n != state.n:
        raise ValueError("cost diagonal does not match the state size")
    if not isinstance(state, StateVector):
        raise TypeError("a diagonal phase needs the statevector engine")
    state.amplitudes = state.amplitudes * np.exp(-1j * gamma * diag.diagonal / scale)
    return state


def measure_distribution(state: State | np.ndarray) -> np.ndarray:
    """Exact computational-basis probabilities of the state, or of each row of a
    (..., 2^n) stack of amplitudes, each normalized on its own."""
    probs = np.abs(state) ** 2 if isinstance(state, np.ndarray) else state.probabilities()
    total = probs.sum(-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("state has no probability mass")
    return probs / total


def _qubit_count(probs: np.ndarray) -> int:
    """The n of a distribution over 2^n outcomes."""
    if len(probs) < 1 or len(probs) & (len(probs) - 1):
        raise ValueError("probability vector length must be a power of two")
    return len(probs).bit_length() - 1


def apply_readout_confusion(probs: np.ndarray, p01: float, p10: float) -> np.ndarray:
    """Push a distribution through independent per-qubit bit-flip confusion."""
    probs = np.asarray(probs, dtype=float)
    n = _qubit_count(probs)
    if p01 == 0.0 and p10 == 0.0:
        return probs.copy()
    _check_rate("p01", p01, 0.5)
    _check_rate("p10", p10, 0.5)
    out = _kron_power(n, 1.0 - p01, p10, p01, 1.0 - p10) @ probs
    return out / out.sum()


@dataclass
class ShotHistogram:
    """Counts per observed bitstring from a fixed number of shots."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


def sample(probs: np.ndarray, shots: int, rng: int | np.random.Generator) -> ShotHistogram:
    """Multinomial draw from an exact distribution; deterministic per seed."""
    check_whole("shots", shots, 1)
    probs = np.asarray(probs, dtype=float)
    n = _qubit_count(probs)
    probs = probs / probs.sum()
    drawn = np.random.default_rng(rng).multinomial(shots, probs)  # a Generator is used as is
    counts = {index_bitstring(i, n): int(c) for i, c in enumerate(drawn) if c}
    return ShotHistogram(counts=counts, shots=shots)


def same_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True if two normalized amplitude vectors differ only by a global phase."""
    overlap = abs(np.vdot(a, b))
    return bool(abs(overlap - 1.0) <= tol)
