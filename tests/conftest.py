import functools
import itertools
import math

import numpy as np
import pytest

from vrpqaoa.ansatz import circuit_gates
from vrpqaoa.cli import build_problem, load_instance, toy_instance_path
from vrpqaoa.instance import EQUAL, VrpInstance
from vrpqaoa.optimize import NM_SPREAD_TOL, NM_STEP
from vrpqaoa.simcore import GateOp, StateVector, apply_diagonal_phase, apply_gate, gate_matrix

# Variable order for the three-node instance:
#   0: x(0,1)  1: x(0,2)  2: x(1,0)  3: x(1,2)  4: x(2,0)  5: x(2,1)
X01, X02, X10, X12, X20, X21 = range(6)

FEASIBLE = "111010"
FEASIBLE_COST = 132.0
PENALTY = 435.6

#: The 1-vehicle instance ``perfbench.sweep.generate_instance(1)``, whose XY pairs are not
#: adjacent qubits.
GEN1 = VrpInstance(distances=((0.0, 43.3, 29.7), (44.5, 0.0, 57.4), (74.3, 50.8, 0.0)), vehicles=1)

ONE_VEHICLE = {"distances": [[0, 40, 60], [55, 0, 45], [50, 70, 0]], "vehicles": 1}


class _BudgetSpent(Exception):
    """Raised by :func:`reference_nelder_mead` once its budget is used."""


def reference_nelder_mead(f, x0, lower, upper, max_evals):
    """Nelder-Mead with box clamping on one simplex, one trial point at a time: the
    reference of ``optimize.simplex_rounds``.  Returns the best point evaluated
    within the budget, its value and the full evaluation history.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.  The
    initial simplex offsets each coordinate by ``NM_STEP`` (flipped to ``-NM_STEP``
    where that would leave the box); the simplex is sorted best first.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def clamp(x):
        return np.minimum(np.maximum(x, lower), upper)

    x0 = clamp(np.asarray(x0, dtype=float))
    dim = len(x0)
    history = []
    best = [x0.copy(), math.inf]

    def evaluate(x):
        if len(history) >= max_evals:
            raise _BudgetSpent
        fx = float(f(x))
        history.append(fx)
        if fx < best[1]:
            best[:] = x.copy(), fx
        return fx

    simplex = np.array([x0] * (dim + 1))
    for i in range(dim):
        simplex[i + 1, i] += NM_STEP if x0[i] + NM_STEP <= upper[i] else -NM_STEP
    simplex = clamp(simplex)
    values = np.full(dim + 1, math.inf)

    def along(coef):  # on the line from the worst vertex via the centroid
        return clamp(centroid + coef * (centroid - simplex[-1]))

    try:
        for i in range(dim + 1):
            values[i] = evaluate(simplex[i])
        while True:
            order = np.argsort(values)
            simplex, values = simplex[order], values[order]
            if values[-1] - values[0] < NM_SPREAD_TOL and np.abs(
                simplex - simplex[0]
            ).max(initial=0.0) < NM_SPREAD_TOL:
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / dim
            reflected = along(1.0)
            fr = evaluate(reflected)
            if fr < values[0]:
                expanded = along(2.0)
                fe = evaluate(expanded)
                simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
            elif fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
            else:
                outside = fr < values[-1]
                contracted = along(0.5 if outside else -0.5)
                fc = evaluate(contracted)
                if fc < (fr if outside else values[-1]):
                    simplex[-1], values[-1] = contracted, fc
                else:
                    for i in range(1, dim + 1):
                        simplex[i] = clamp(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                        values[i] = evaluate(simplex[i])
    except _BudgetSpent:
        pass
    return best[0], best[1], history


@pytest.fixture(scope="session")
def toy_instance() -> VrpInstance:
    return load_instance(toy_instance_path())


@pytest.fixture(scope="session")
def toy():
    """Instance, constraints, QUBO, compiled cost, and oracle in one bundle."""
    return build_problem(load_instance(toy_instance_path()))


def all_bitstrings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1 << n)]


def textbook_support(spec) -> list[str]:
    """The initial superposition of ``spec`` written out string by string: every
    n-bit string whose substring on each component's qubits is its pattern or the
    pattern's complement, in index order."""
    flip = str.maketrans("01", "10")
    admitted = [(c.qubits, (c.pattern, c.pattern.translate(flip))) for c in spec.components]
    return [bits for bits in all_bitstrings(spec.n)
            if all("".join(bits[q] for q in qubits) in either for qubits, either in admitted)]


def penalty_sum_value(bits: str, inst: VrpInstance, constraints, penalty: float) -> float:
    """Term-by-term penalty objective, evaluated straight from the constraint
    semantics rather than any expanded polynomial; the independent oracle for
    the collected QUBO."""
    from vrpqaoa.instance import route_cost

    values = [int(ch) for ch in bits]
    total = route_cost(bits, inst)
    for c in constraints:
        s = sum(values[q] for q in c.variables)
        if c.relation == EQUAL:
            total += penalty * (s - c.rhs) ** 2
        else:
            a, b = c.variables
            total += penalty * (1 - values[a]) * (1 - values[b])
    return total


def textbook_qaoa(cost, params) -> StateVector:
    """Standard QAOA written out gate by gate, independently of ``AnsatzSpec``:
    H on every qubit, then per layer the cost phase and RX(2*beta) on every qubit."""
    n = cost.phase_diagonal.n
    state = StateVector(n)
    for q in range(n):
        apply_gate(state, GateOp("h", (q,)))
    for gamma, beta in zip(params.gamma, params.beta):
        apply_diagonal_phase(state, cost.phase_diagonal, gamma, cost.scale)
        for q in range(n):
            apply_gate(state, GateOp("rx", (q,), 2.0 * beta))
    return state


PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1, -1]).astype(complex),
)

#: Gates followed by a depolarizing channel: p1 after H, RX and RZ, p2 after
#: RZZ, RXX and RYY; X and CNOT (state preparation) stay noiseless.
DEPOLARIZED_1Q = ("h", "rx", "rz")
DEPOLARIZED_2Q = ("rzz", "rxx", "ryy")


def embed(n: int, factors: dict) -> np.ndarray:
    """Kronecker product over n qubits, qubit 0 first: ``factors[q]`` on qubit q,
    the identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, PAULI_MATRICES[0]))
    return out


def pauli_strings(k: int):
    """The 4^k Pauli strings on k qubits as 2^k x 2^k matrices, one at a time, in
    base-4 digit order (I, X, Y, Z = 0..3) with qubit 0 the most significant digit."""
    combos = itertools.product(PAULI_MATRICES, repeat=k)
    return (functools.reduce(np.kron, combo) for combo in combos)


@functools.lru_cache(maxsize=None)
def pauli_strings_on(n: int, qubits: tuple) -> tuple[list, list]:
    """The 4^k Pauli strings on the k target qubits, as 2^k x 2^k matrices and
    embedded in the 2^n x 2^n space."""
    combos = list(itertools.product(PAULI_MATRICES, repeat=len(qubits)))
    return (
        list(pauli_strings(len(qubits))),
        [embed(n, dict(zip(qubits, combo))) for combo in combos],
    )


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Textbook c_P = Tr(P rho) of a 2^n x 2^n matrix over every Pauli string P on its
    n qubits, in the order of :func:`pauli_strings`: the form ``DensityMatrix.pauli``
    holds.  The strings are made one at a time (on 6 qubits all 4096 take 268 MB)."""
    n = len(rho).bit_length() - 1
    return np.array([np.einsum("ij,ji->", p, rho).real for p in pauli_strings(n)])


def density_from_pauli(pauli: np.ndarray) -> np.ndarray:
    """Textbook rho = sum_P c_P P / 2^n from the coefficients of :func:`pauli_coefficients`."""
    n = (len(pauli).bit_length() - 1) // 2
    return sum(c * p for c, p in zip(pauli, pauli_strings(n))) / (1 << n)


def full_unitary(n: int, u: np.ndarray, qubits) -> np.ndarray:
    """A gate on the full space through its Pauli expansion u = sum_P Tr(P u) / 2^k P."""
    small, full = pauli_strings_on(n, tuple(qubits))
    return sum(np.trace(p.conj().T @ u) / len(u) * f for p, f in zip(small, full))


def textbook_noisy_distribution(spec, ising, params, scale, noise) -> np.ndarray:
    """Regime III written out on an explicit 2^n x 2^n density matrix: every gate
    of the circuit (initial state included) as a full-space unitary, each
    depolarizing channel in Kraus form (1 - lam) rho + lam / 4^k sum_P P rho P
    over the Pauli strings P on the gate's k targets, then readout confusion."""
    n = spec.n
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for op in circuit_gates(spec, ising, params, scale):
        u = full_unitary(n, gate_matrix(op.name, op.angle), op.qubits)
        rho = u @ rho @ u.conj().T
        lam = noise.p1 if op.name in DEPOLARIZED_1Q else noise.p2 if op.name in DEPOLARIZED_2Q else 0
        if lam:
            strings = pauli_strings_on(n, tuple(op.qubits))[1]
            rho = (1 - lam) * rho + lam / len(strings) * sum(p @ rho @ p for p in strings)
    confusion = np.array([[1 - noise.p01, noise.p10], [noise.p01, 1 - noise.p10]])
    return (embed(n, dict.fromkeys(range(n), confusion)) @ np.diag(rho)).real
