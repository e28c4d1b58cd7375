"""Dense statevector and density-matrix simulation primitives.

States live on ``n`` qubits with qubit 0 as the most significant bit of the
flat array index, matching the printed bitstring convention used by the
rest of the package.  Gate application works by reshaping the state into a
rank-n (or rank-2n) tensor and contracting the small gate matrix against
the target axes, which is cheap for the desk-scale systems handled here.
"""
from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .encode import CostOperator
from .instance import _bit_column, index_bitstring

SQRT2_INV = 1.0 / math.sqrt(2.0)

#: Gate name -> (qubit count, carries depolarizing noise when a NoiseModel
#: is active).  Plain X and CNOT (state preparation only) stay noiseless.
GATES = {
    "h": (1, True),
    "x": (1, False),
    "rx": (1, True),
    "rz": (1, True),
    "cnot": (2, False),
    "rzz": (2, True),
    "rxx": (2, True),
    "ryy": (2, True),
}

_H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """Unitary matrix of a named gate (2x2 or 4x4)."""
    if name == "h":
        return _H
    if name == "x":
        return _X
    if name == "cnot":
        return _CNOT
    if angle is None:
        raise ValueError(f"gate {name!r} needs an angle")
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "rz":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)
    if name == "rzz":
        lo, hi = np.exp(-1j * half), np.exp(1j * half)
        return np.diag([lo, hi, hi, lo]).astype(complex)
    if name == "rxx":
        return np.array(
            [[c, 0, 0, -1j * s], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [-1j * s, 0, 0, c]],
            dtype=complex,
        )
    if name == "ryy":
        return np.array(
            [[c, 0, 0, 1j * s], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [1j * s, 0, 0, c]],
            dtype=complex,
        )
    raise ValueError(f"unknown gate {name!r}")


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction: gate name, target qubits, optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def as_dict(self) -> dict:
        record: dict = {"name": self.name, "qubits": list(self.qubits)}
        if self.angle is not None:
            record["angle"] = self.angle
        return record


def _z_phase_vector(n: int, qubits: Sequence[int], angle: float) -> np.ndarray:
    """Diagonal of RZ / RZZ expanded over the full basis."""
    parity = _bit_column(n, qubits[0])
    if len(qubits) == 2:
        parity = parity ^ _bit_column(n, qubits[1])
    half = angle / 2.0
    return np.where(parity == 0, np.exp(-1j * half), np.exp(1j * half))


def _apply_phase_diagonal(state: "State", phases: np.ndarray) -> None:
    if isinstance(state, StateVector):
        state.amplitudes = state.amplitudes * phases
    else:
        rho = state.rho * phases[:, None]
        rho *= phases.conj()[None, :]
        state.rho = rho


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

    @classmethod
    def from_support(cls, n: int, bitstrings: Sequence[str]) -> "StateVector":
        """Equal-amplitude superposition over the given basis states."""
        if not bitstrings:
            raise ValueError("support must be nonempty")
        amps = np.zeros(1 << n, dtype=complex)
        amp = 1.0 / math.sqrt(len(bitstrings))
        for bits in bitstrings:
            amps[int(bits, 2)] = amp
        return cls(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())


class DensityMatrix:
    """Mixed state as a 2^n x 2^n complex matrix."""

    def __init__(self, n: int, rho: np.ndarray | None = None):
        self.n = n
        dim = 1 << n
        if rho is None:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
        else:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (dim, dim):
                raise ValueError("density matrix has wrong shape")
        self.rho = rho

    @classmethod
    def from_statevector(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.n, np.outer(state.amplitudes, state.amplitudes.conj()))

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n, self.rho.copy())


State = Union[StateVector, DensityMatrix]


def _apply_matrix_sv(amps: np.ndarray, n: int, mat: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    k = len(qubits)
    tensor = amps.reshape([2] * n)
    small = mat.reshape([2] * (2 * k))
    out = np.tensordot(small, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    out = np.moveaxis(out, list(range(k)), list(qubits))
    return out.reshape(-1)


def _apply_matrix_dm(rho: np.ndarray, n: int, mat: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    k = len(qubits)
    tensor = rho.reshape([2] * (2 * n))
    small = mat.reshape([2] * (2 * k))
    out = np.tensordot(small, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    out = np.moveaxis(out, list(range(k)), list(qubits))
    bra_axes = [n + q for q in qubits]
    out = np.tensordot(small.conj(), out, axes=(list(range(k, 2 * k)), bra_axes))
    out = np.moveaxis(out, list(range(k)), bra_axes)
    return out.reshape(rho.shape)


def _check_targets(n: int, qubits: Sequence[int]) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    if len(set(qubits)) != len(qubits):
        raise ValueError("gate targets must be distinct qubits")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing gate noise plus a symmetric readout confusion matrix.

    ``p1`` follows H, RX, and RZ; ``p2`` follows RZZ, RXX, and RYY.  The
    derived averages r1_bar = p1/2 and r2_bar = 3*p2/4 are the per-gate
    infidelities of the corresponding channels.
    """

    p1: float = 0.0
    p2: float = 0.0
    p01: float = 0.0
    p10: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError("depolarizing parameters must lie in [0, 1]")
        if not (0.0 <= self.p01 <= 0.5 and 0.0 <= self.p10 <= 0.5):
            raise ValueError("readout confusion probabilities must lie in [0, 0.5]")

    @property
    def r1_bar(self) -> float:
        return self.p1 / 2.0

    @property
    def r2_bar(self) -> float:
        return 3.0 * self.p2 / 4.0

    @property
    def is_zero(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p01 == 0.0 and self.p10 == 0.0

    @property
    def has_readout_error(self) -> bool:
        return self.p01 != 0.0 or self.p10 != 0.0


def average_infidelity(lam: float, qubits: int) -> float:
    """Average gate infidelity of a depolarizing channel on `qubits` qubits."""
    return (1.0 - 2.0 ** (-qubits)) * lam


_TRACE_RECIPE: dict[tuple[int, tuple[int, ...]], tuple[str, tuple[tuple, ...]]] = {}


def _trace_recipe(n: int, qubits: tuple[int, ...]) -> tuple[str, tuple[tuple, ...]]:
    """Cached einsum spec for the partial trace plus the re-embedding slices."""
    key = (n, qubits)
    cached = _TRACE_RECIPE.get(key)
    if cached is not None:
        return cached
    letters = string.ascii_letters
    ket = [letters[i] for i in range(n)]
    bra = [letters[n + i] for i in range(n)]
    for q in qubits:
        bra[q] = ket[q]
    keep = [ket[i] for i in range(n) if i not in qubits] + [
        letters[n + i] for i in range(n) if i not in qubits
    ]
    spec = "".join(ket + bra) + "->" + "".join(keep)
    slices = []
    for pattern in itertools.product((0, 1), repeat=len(qubits)):
        sl: list = [slice(None)] * (2 * n)
        for q, b in zip(qubits, pattern):
            sl[q] = b
            sl[n + q] = b
        slices.append(tuple(sl))
    cached = (spec, tuple(slices))
    _TRACE_RECIPE[key] = cached
    return cached


def depolarize(state: DensityMatrix, qubits: Sequence[int], lam: float) -> DensityMatrix:
    """Mix the target subsystem toward maximally mixed with weight ``lam``."""
    if not isinstance(state, DensityMatrix):
        raise TypeError("depolarizing channel requires a density matrix")
    k = len(qubits)
    if k not in (1, 2):
        raise ValueError("depolarize expects 1 or 2 target qubits")
    limit = 4.0**k / (4.0**k - 1.0)
    if not 0.0 <= lam <= limit:
        raise ValueError(f"channel parameter {lam} outside [0, {limit}]")
    if lam == 0.0:
        return state
    n = state.n
    _check_targets(n, qubits)
    if not state.rho.flags["C_CONTIGUOUS"]:
        state.rho = np.ascontiguousarray(state.rho)
    tensor = state.rho.reshape([2] * (2 * n))  # view: updates land in state.rho
    spec, slices = _trace_recipe(n, tuple(qubits))
    traced = np.einsum(spec, tensor)
    traced *= lam / (1 << k)
    tensor *= 1.0 - lam
    for sl in slices:
        tensor[sl] += traced
    return state


def apply_gate(state: State, op: GateOp, noise: NoiseModel | None = None) -> State:
    """Apply one instruction, attaching the depolarizing channel if requested."""
    if op.name not in GATES:
        raise ValueError(f"unknown gate {op.name!r}")
    arity, noisy = GATES[op.name]
    if len(op.qubits) != arity:
        raise ValueError(f"{op.name!r} acts on {arity} qubit(s), got {len(op.qubits)}")
    _check_targets(state.n, op.qubits)
    if op.name in ("rz", "rzz"):
        if op.angle is None:
            raise ValueError(f"gate {op.name!r} needs an angle")
        _apply_phase_diagonal(state, _z_phase_vector(state.n, op.qubits, op.angle))
    elif isinstance(state, StateVector):
        state.amplitudes = _apply_matrix_sv(
            state.amplitudes, state.n, gate_matrix(op.name, op.angle), op.qubits
        )
    else:
        state.rho = _apply_matrix_dm(state.rho, state.n, gate_matrix(op.name, op.angle), op.qubits)
    if noise is not None and (noise.p1 > 0 or noise.p2 > 0):
        if not isinstance(state, DensityMatrix):
            raise TypeError("gate noise requires the density-matrix engine")
        p = noise.p1 if arity == 1 else noise.p2
        if noisy and p > 0:
            depolarize(state, op.qubits, p)
    return state


def apply_diagonal_phase(state: State, diag: CostOperator, gamma: float, scale: float = 1.0) -> State:
    """Multiply each basis amplitude by exp(-i*gamma*C(x)/scale)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if diag.n != state.n:
        raise ValueError("cost diagonal does not match the state size")
    _apply_phase_diagonal(state, np.exp(-1j * gamma * diag.diagonal / scale))
    return state


def measure_distribution(state: State) -> np.ndarray:
    """Exact computational-basis probabilities of the state."""
    probs = state.probabilities()
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("state has no probability mass")
    return probs / total


def apply_readout_confusion(probs: np.ndarray, p01: float, p10: float) -> np.ndarray:
    """Push a distribution through independent per-qubit bit-flip confusion."""
    probs = np.asarray(probs, dtype=float)
    n = int(round(math.log2(len(probs))))
    if 1 << n != len(probs):
        raise ValueError("probability vector length must be a power of two")
    if p01 == 0.0 and p10 == 0.0:
        return probs.copy()
    confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    tensor = probs.reshape([2] * n)
    for q in range(n):
        tensor = np.tensordot(confusion, tensor, axes=([1], [q]))
        tensor = np.moveaxis(tensor, 0, q)
    out = tensor.reshape(-1)
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
    if shots < 1:
        raise ValueError("need at least one shot")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    probs = np.asarray(probs, dtype=float)
    probs = probs / probs.sum()
    n = int(round(math.log2(len(probs))))
    drawn = gen.multinomial(shots, probs)
    counts = {index_bitstring(i, n): int(c) for i, c in enumerate(drawn) if c}
    return ShotHistogram(counts=counts, shots=shots)


def same_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True if two normalized amplitude vectors differ only by a global phase."""
    overlap = abs(np.vdot(a, b))
    return bool(abs(overlap - 1.0) <= tol)
