"""Initial-state and mixer synthesis for standard and constraint-aware QAOA.

The constraint-aware ansatz restricts the initial superposition to
assignments satisfying the two-variable exactly-one constraints and mixes
with XY blocks on a matched subset of those constraints plus weighted X
rotations elsewhere, so the protected one-hot structure survives the
evolution while the remaining qubits stay free to change Hamming weight.
Standard QAOA is the same family with no constraints and full-weight X.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .encode import CostOperator, IsingCoefficients
from .instance import (EQUAL, ConstraintSet, _bit_column, check_positive, check_real,
                       check_whole, index_bitstring)
from .simcore import (
    SQRT2_INV,
    DensityMatrix,
    GateOp,
    NoiseModel,
    State,
    StateVector,
    _contract,
    _depolarizing_mask,
    _ptm_terms,
    apply_gate,
)

#: Run-model labels of the two ansaetze compared in a sweep.
STANDARD = "standard"
CONSTRAINT_AWARE = "constraint_aware"

GAMMA_BOUNDS = (-math.pi, math.pi)
BETA_BOUNDS = (0.0, math.pi / 2.0)


class InfeasibleStructureError(ValueError):
    """A constraint component admits no assignment at all."""


@dataclass(frozen=True)
class ConstraintComponent:
    """Connected group of one-hot constraints with its admissible patterns."""

    qubits: tuple[int, ...]
    patterns: tuple[str, ...]


@dataclass(frozen=True)
class ConstraintGroups:
    components: tuple[ConstraintComponent, ...]
    xy_pairs: tuple[tuple[int, int], ...]


def _complement(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def derive_constraint_groups(cs: ConstraintSet) -> ConstraintGroups:
    """Pick the two-variable exactly-one constraints apart into mixer structure.

    Each constraint x_a + x_b = 1 fixes x_b = 1 - x_a, so a connected group
    of them is solved by 2-colouring its graph from its lowest qubit (set to
    0): the admissible patterns are that colouring and its complement, or
    none if the group holds an odd cycle.  XY pairs come from a greedy
    matching over the selected constraints in their appearance order.
    """
    selected = [
        c
        for c in cs
        if c.relation == EQUAL and c.rhs == 1 and len(c.variables) == 2
    ]
    neighbours: dict[int, list[int]] = {}
    for c in selected:
        a, b = c.variables
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)

    colour: dict[int, int] = {}
    components: list[ConstraintComponent] = []
    for root in sorted(neighbours):
        if root in colour:
            continue
        colour[root] = 0
        members = [root]
        for q in members:  # breadth first: the list grows as the walk reaches qubits
            for r in neighbours[q]:
                if r not in colour:
                    colour[r] = 1 - colour[q]
                    members.append(r)
        own = [c for c in selected if c.variables[0] in members]
        if any(colour[c.variables[0]] == colour[c.variables[1]] for c in own):
            labels = ", ".join(c.label or str(c.variables) for c in own)
            raise InfeasibleStructureError(f"constraints {labels} admit no assignment")
        qubits = tuple(sorted(members))
        pattern = "".join(str(colour[q]) for q in qubits)
        components.append(ConstraintComponent(qubits, (pattern, _complement(pattern))))

    matched: set[int] = set()
    xy_pairs: list[tuple[int, int]] = []
    for c in selected:
        a, b = c.variables
        if a not in matched and b not in matched:
            xy_pairs.append((a, b))
            matched.update((a, b))
    return ConstraintGroups(components=tuple(components), xy_pairs=tuple(xy_pairs))


@dataclass(frozen=True)
class AnsatzSpec:
    """One member of the hybrid XY-X ansatz family.

    The initial state is the equal superposition over every assignment that
    matches one pattern of each component (free qubits uniform); each mixer
    layer is an XY block per pair plus an X rotation of weight ``lam`` on
    every other qubit.  Standard QAOA is the member with no components, no
    pairs and ``lam`` = 1.
    """

    n: int
    depth: int
    lam: float = 1.0
    xy_pairs: tuple[tuple[int, int], ...] = ()
    components: tuple[ConstraintComponent, ...] = ()

    def __post_init__(self) -> None:
        check_whole("n", self.n, 1)
        check_whole("depth", self.depth, 0)
        check_real("lam", self.lam, 0)
        paired = [q for pair in self.xy_pairs for q in pair]
        if len(set(paired)) != len(paired):
            raise ValueError("xy pairs must be pairwise disjoint")
        if not all(0 <= q < self.n for q in paired):
            raise ValueError(f"xy_pairs {self.xy_pairs} name a qubit outside 0..{self.n - 1}")

    def check_cost_size(self, n: int) -> None:
        """Raise a ValueError naming both qubit counts unless a cost on ``n`` qubits fits."""
        if n != self.n:
            raise ValueError(f"cost diagonal does not match the state size: "
                             f"the ansatz has {self.n} qubits but the cost has {n}")

    @classmethod
    def standard(cls, n: int, depth: int) -> "AnsatzSpec":
        return cls(n=n, depth=depth)

    @classmethod
    def constraint_aware(cls, cs: ConstraintSet, depth: int, lam: float) -> "AnsatzSpec":
        groups = derive_constraint_groups(cs)
        return cls(
            n=cs.n, depth=depth, lam=lam, xy_pairs=groups.xy_pairs, components=groups.components
        )

    @cached_property
    def x_qubits(self) -> tuple[int, ...]:
        """Qubits outside every XY pair, in ascending order."""
        paired = {q for pair in self.xy_pairs for q in pair}
        return tuple(q for q in range(self.n) if q not in paired)

    def support_bitstrings(self) -> tuple[str, ...]:
        """Basis states of the initial superposition, in index order."""
        bitstrings = (index_bitstring(i, self.n) for i in range(1 << self.n))
        return tuple(
            bits
            for bits in bitstrings
            if all("".join(bits[q] for q in c.qubits) in c.patterns for c in self.components)
        )

    @cached_property
    def _loaded_state(self) -> StateVector:
        # once per spec: enumerating the support costs about 100 us, an
        # exact evaluation about 1 ms, and every evaluation loads the state
        return StateVector.from_support(self.n, self.support_bitstrings())

    @cached_property
    def _mixer_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and real eigenbasis V of the mixer generator, once per spec.

        XX+YY on each pair and lam*X on each other qubit act on disjoint qubits
        and commute, so one layer is V exp(-i beta Lambda) V^T with V the
        product of the block eigenbases: a Hadamard per X qubit (eigenvalues
        +-lam) and {|00>, |01>+|10>, |01>-|10>, |11>} (over sqrt 2) per pair
        (eigenvalues 0, 2, -2, 0).  Every block is symmetric, so V = V^T.
        """
        s, n, dim = SQRT2_INV, self.n, 1 << self.n
        xy_block = np.array([[1, 0, 0, 0], [0, s, s, 0], [0, s, -s, 0], [0, 0, 0, 1]])
        hadamard = np.array([[s, s], [s, -s]])
        basis = np.eye(dim).reshape([2] * n + [dim])
        eigen = np.zeros(dim)
        for a, b in self.xy_pairs:
            basis = _contract(basis, xy_block, (a, b))
            eigen += 2.0 * (_bit_column(n, b) - _bit_column(n, a))
        for q in self.x_qubits:
            basis = _contract(basis, hadamard, (q,))
            eigen += self.lam * (1 - 2 * _bit_column(n, q))
        return eigen, np.ascontiguousarray(basis.reshape(dim, dim))


@dataclass(frozen=True)
class ParameterPoint:
    """One (gamma, beta) angle assignment for a depth-p circuit."""

    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.beta):
            raise ValueError("gamma and beta must have equal length")
        for name in ("gamma", "beta"):
            for angle in getattr(self, name):
                check_real(name, angle)

    @property
    def depth(self) -> int:
        return len(self.gamma)

    def as_vector(self) -> np.ndarray:
        return np.array(self.gamma + self.beta, dtype=float)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "ParameterPoint":
        if len(vec) % 2 != 0:
            raise ValueError("parameter vector length must be even")
        p = len(vec) // 2
        return cls(gamma=tuple(float(v) for v in vec[:p]), beta=tuple(float(v) for v in vec[p:]))

    @classmethod
    def random(cls, depth: int, rng: np.random.Generator) -> "ParameterPoint":
        gamma = tuple(rng.uniform(*GAMMA_BOUNDS) for _ in range(depth))
        beta = tuple(rng.uniform(*BETA_BOUNDS) for _ in range(depth))
        return cls(gamma=gamma, beta=beta)


def init_circuit(spec: AnsatzSpec) -> list[GateOp]:
    """Gate recipe preparing the ansatz's initial state from |0...0>.

    Each component, a pattern plus its complement, is prepared as a
    GHZ-style pair via H plus a CNOT chain from its first qubit, then X
    gates map the all-zeros branch onto the pattern whose first bit is 0
    (its complement rides along on the other branch).  Unconstrained
    qubits get a plain H.
    """
    gates: list[GateOp] = []
    covered: set[int] = set()
    for comp in spec.components:
        if len(comp.patterns) != 2 or comp.patterns[1] != _complement(comp.patterns[0]):
            raise ValueError(f"gate recipe needs a pattern and its complement, got {comp}")
        ref = min(comp.patterns)
        first = comp.qubits[0]
        gates.append(GateOp("h", (first,)))
        for q in comp.qubits[1:]:
            gates.append(GateOp("cnot", (first, q)))
        for pos, q in enumerate(comp.qubits):
            if ref[pos] == "1":
                gates.append(GateOp("x", (q,)))
        covered.update(comp.qubits)
    for q in range(spec.n):
        if q not in covered:
            gates.append(GateOp("h", (q,)))
    return gates


def mixer_circuit(spec: AnsatzSpec, beta: float) -> list[GateOp]:
    """One mixer layer: RXX and RYY per XY pair, then RX(2*lam*beta) on the other qubits."""
    gates: list[GateOp] = []
    for a, b in spec.xy_pairs:
        gates.append(GateOp("rxx", (a, b), 2.0 * beta))
        gates.append(GateOp("ryy", (a, b), 2.0 * beta))
    for q in spec.x_qubits:
        gates.append(GateOp("rx", (q,), 2.0 * spec.lam * beta))
    return gates


def cost_circuit(ising: IsingCoefficients, gamma: float, scale: float) -> list[GateOp]:
    """Gate-level cost evolution from convention-B Ising coefficients."""
    gates: list[GateOp] = []
    for (a, b), coeff in sorted(ising.couplings.items()):
        if coeff:
            gates.append(GateOp("rzz", (a, b), 2.0 * gamma * coeff / scale))
    for q, coeff in enumerate(ising.fields):
        if coeff:
            gates.append(GateOp("rz", (q,), 2.0 * gamma * coeff / scale))
    return gates


def circuit_gates(
    spec: AnsatzSpec,
    ising: IsingCoefficients,
    params: ParameterPoint,
    scale: float,
) -> list[GateOp]:
    """Full gate list of the parameterized circuit, dumpable as JSON records."""
    gates = init_circuit(spec)
    for gamma, beta in zip(params.gamma, params.beta):
        gates.extend(cost_circuit(ising, gamma, scale))
        gates.extend(mixer_circuit(spec, beta))
    return gates


def prepare_initial_state(spec: AnsatzSpec, *, via_gates: bool = False) -> StateVector:
    """Initial state by direct amplitude load or by running the gate recipe."""
    return (_recipe_state(spec, None, True) if via_gates else spec._loaded_state).copy()


def apply_mixer_layer(state: State, spec: AnsatzSpec, beta: float) -> State:
    """Apply one noiseless mixer layer in place."""
    for op in mixer_circuit(spec, beta):
        apply_gate(state, op)
    return state


@lru_cache(maxsize=64)
def _recipe_state(spec: AnsatzSpec, noise: NoiseModel | None, noisy_init: bool) -> State:
    """The gate recipe run once per spec: on a density matrix under gate noise
    (noisy gates too if ``noisy_init``), otherwise on a statevector."""
    noisy = noise is not None and noise.has_gate_noise
    state: State = DensityMatrix(spec.n) if noisy else StateVector(spec.n)
    for op in init_circuit(spec):
        apply_gate(state, op, noise if noisy and noisy_init else None)
    return state


def exact_layers(
    spec: AnsatzSpec, cost: CostOperator, scale: float, gammas: Sequence[float],
    betas: Sequence[float],
) -> StateVector:
    """The exact engine's p-layer loop: each layer is the cost phase, then the
    mixer in closed form through the spec's real eigenbasis, with no gate list."""
    eigen, basis = spec._mixer_basis
    state = prepare_initial_state(spec)
    for gamma, beta in zip(gammas, betas):
        # real matmuls on the (2^n, 2) float view: a complex product goes to
        # OpenBLAS zgemv, whose threads stall when processes share the cores
        amps = state.amplitudes * np.exp(-1j * gamma * cost.diagonal / scale)
        amps = (basis @ amps.view(float).reshape(-1, 2)).view(complex).ravel()
        amps *= np.exp(-1j * beta * eigen)
        state.amplitudes = (basis @ amps.view(float).reshape(-1, 2)).view(complex).ravel()
    return state


def _combine(trig: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """A + cos B + sin C, batched: ``trig`` (..., 3) is (1, cos, sin), ``terms`` (3, d, d)."""
    d = terms.shape[-1]
    return (trig @ terms.reshape(3, d * d)).reshape(*trig.shape[:-1], d, d)


def compile_noisy_layers(
    spec: AnsatzSpec, ising: IsingCoefficients, scale: float, noise: NoiseModel, noisy_init: bool
) -> Callable[[Sequence[float], Sequence[float]], DensityMatrix]:
    """The gate engine's noisy p-layer loop, compiled once into fixed Pauli-transfer
    terms: (gammas, betas) -> DensityMatrix, for ``spec.depth`` layers.
    ``layers.plan`` holds one axis permutation per contraction of an evaluation.

    A depolarizing channel commutes with any unitary on its own support, so each
    mask is folded into the rows of its gate's terms.  Every RZ follows the last
    RZZ and meets only gates on other qubits before the mixer on its qubit, so
    RZ(q) and its channel join that mixer block: a 16x16 block D RYY D RXX
    (RZ x RZ) per XY pair and a 4x4 block D RX D RZ per X qubit.  Each block then
    joins the last RZZ (in ``cost_circuit``'s order) on its support, as (B x B') G
    or XY G, since every gate in between acts on other qubits.  An X block with
    no RZZ on its qubit, or an XY block whose qubits are last touched by
    different RZZs, stays a contraction of its own.  A zero coupling or field has
    no gate and no channel.  Nothing is transposed back: each contraction brings
    its targets to the front of the current axis order and leaves them there,
    and one final permutation restores qubit order.
    """
    d1, d2 = _depolarizing_mask(1, (0,), noise.p1), _depolarizing_mask(2, (0, 1), noise.p2)
    rzz, ryy, rxx, rx = (d[:, None] * np.array(_ptm_terms(g)) for g, d in
                         (("rzz", d2), ("ryy", d2), ("rxx", d2), ("rx", d1)))
    rz = np.array(_ptm_terms("rz"))  # each qubit's mask multiplies it per evaluation
    z_masks = np.array([np.where(h, d1, 1.0)[:, None] for h in ising.fields])
    couplings = [(pair, c / scale) for pair, c in sorted(ising.couplings.items()) if c]
    rates = [c for _, c in couplings] + [h / scale for h in ising.fields]
    x_qubits, k, n, p = list(spec.x_qubits), len(couplings), spec.n, spec.depth

    # The 16x16 steps are the RZZs, then (from the identity) the XY pairs no RZZ
    # hosts.  Step j is multiplied by singles[sides[0, j]] x singles[sides[1, j]],
    # the blocks of the qubits it hosts (index n is the identity), then by
    # D RYY D RXX if it holds a pair.  The X blocks no RZZ hosts follow.
    last = {q: j for j, (pair, _) in enumerate(couplings) for q in pair}
    steps, xy_steps = [pair for pair, _ in couplings], []
    for a, b in spec.xy_pairs:
        j = last[a] if a in last and last[a] == last.get(b) else len(steps)
        steps[j:j + 1] = [(a, b)]  # a host takes the pair's order (RZZ is symmetric), or append
        xy_steps.append(j)
    sides = np.full((2, len(steps)), n)
    for j in xy_steps:
        sides[:, j] = steps[j]
    for q in x_qubits:
        if q in last:
            sides[steps[last[q]].index(q), last[q]] = q
    x_alone = [q for q in x_qubits if q not in last]
    order, plan = list(range(n)), []
    for axes in (steps + [(q,) for q in x_alone]) * p:
        plan.append(tuple(order.index(q) for q in axes) + tuple(
            i for i, q in enumerate(order) if q not in axes))
        order = [order[i] for i in plan[-1]]
    restore = tuple(order.index(q) for q in range(n))
    start, shape = _recipe_state(spec, noise, noisy_init), [4] * n
    eyes = np.broadcast_to(np.eye(4), (p, 1, 4, 4))
    units = np.broadcast_to(np.eye(16), (p, len(steps) - k, 16, 16))

    def layers(gammas: Sequence[float], betas: Sequence[float]) -> DensityMatrix:
        angles = 2 * np.concatenate([np.outer(gammas, rates), np.outer(betas, [1.0, spec.lam])], 1)
        trig = np.stack([np.ones_like(angles), np.cos(angles), np.sin(angles)], -1)
        singles = np.concatenate([_combine(trig[:, k:-2], rz) * z_masks, eyes], 1)  # D RZ, I
        singles[:, x_qubits] = _combine(trig[:, -1], rx)[:, None] @ singles[:, x_qubits]
        base = np.concatenate([_combine(trig[:, :k], rzz), units], 1).reshape(p, -1, 4, 64)
        half = (singles[:, sides[0]] @ base).reshape(p, -1, 4, 4, 16)  # (B x I) G, then (I x B')
        blocks = (singles[:, sides[1], None] @ half).reshape(p, -1, 16, 16)
        if xy_steps:
            mix = _combine(trig[:, -2], ryy) @ _combine(trig[:, -2], rxx)
            blocks[:, xy_steps] = mix[:, None] @ blocks[:, xy_steps]
        state = start.copy()
        pauli = state.pauli
        for block, perm in zip([m for layer in zip(blocks, singles[:, x_alone]) for group in layer
                                for m in group], plan):
            pauli = block @ pauli.reshape(shape).transpose(perm).reshape(len(block), -1)
        state.pauli = pauli.reshape(shape).transpose(restore).reshape(-1)
        return state

    layers.plan = tuple(plan)
    return layers


def evolve(
    spec: AnsatzSpec,
    cost: CostOperator | IsingCoefficients,
    params: ParameterPoint,
    engine: str = "exact",
    *,
    scale: float,
    noise: NoiseModel | None = None,
    noisy_init: bool = True,
) -> State:
    """Run the p-layer alternation of cost and mixer from the initial state.

    The exact engine (regimes I and II) consumes a diagonal CostOperator and
    evolves a pure statevector through :func:`exact_layers`.  The gate
    engine is its reference: it consumes Ising coefficients, runs the RZZ/RZ
    cost gates and the mixer gates one by one, and switches to the
    density-matrix representation whenever gate noise is present.
    """
    if params.depth != spec.depth:
        raise ValueError(f"expected {spec.depth} layers of parameters, got {params.depth}")
    spec.check_cost_size(cost.n)
    check_positive("scale", scale)
    if engine == "exact":
        if not isinstance(cost, CostOperator):
            raise TypeError("exact engine needs a CostOperator diagonal")
        if noise is not None:
            raise ValueError("the exact engine is noiseless; use engine='gate'")
        return exact_layers(spec, cost, scale, params.gamma, params.beta)
    if engine != "gate":
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(cost, IsingCoefficients):
        raise TypeError("gate engine needs IsingCoefficients")
    state = _recipe_state(spec, noise, noisy_init).copy()
    for gamma, beta in zip(params.gamma, params.beta):
        for op in cost_circuit(cost, gamma, scale):
            apply_gate(state, op, noise)
        for op in mixer_circuit(spec, beta):
            apply_gate(state, op, noise)
    return state
