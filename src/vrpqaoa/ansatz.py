"""Initial-state and mixer synthesis for standard and constraint-aware QAOA.

The constraint-aware ansatz restricts the initial superposition to
assignments satisfying the two-variable exactly-one constraints and mixes
with XY blocks on a matched subset of those constraints plus weighted X
rotations elsewhere, so the protected one-hot structure survives the
evolution while the remaining qubits stay free to change Hamming weight.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .encode import CostOperator, IsingCoefficients
from .instance import EQUAL, ConstraintSet, LinearConstraint
from .simcore import (
    DensityMatrix,
    GateOp,
    NoiseModel,
    State,
    StateVector,
    apply_diagonal_phase,
    apply_gate,
)

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
    x_qubits: tuple[int, ...]


def derive_constraint_groups(cs: ConstraintSet) -> ConstraintGroups:
    """Pick the two-variable exactly-one constraints apart into mixer structure.

    Constraints sharing variables are merged into connected components and
    each component's admissible local assignments are enumerated by brute
    force.  XY pairs come from a greedy matching over the selected
    constraints in their appearance order; every qubit left unmatched
    (including those inside components) receives a plain X term.
    """
    selected = [
        c
        for c in cs
        if c.relation == EQUAL and c.rhs == 1 and len(c.variables) == 2
    ]

    parent: dict[int, int] = {}

    def find(q: int) -> int:
        parent.setdefault(q, q)
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for c in selected:
        union(c.variables[0], c.variables[1])

    groups: dict[int, list[LinearConstraint]] = {}
    for c in selected:
        groups.setdefault(find(c.variables[0]), []).append(c)

    components: list[ConstraintComponent] = []
    for root in sorted(groups, key=lambda r: min(q for c in groups[r] for q in c.variables)):
        member_constraints = groups[root]
        qubits = tuple(sorted({q for c in member_constraints for q in c.variables}))
        local = {q: pos for pos, q in enumerate(qubits)}
        patterns = []
        for assignment in itertools.product((0, 1), repeat=len(qubits)):
            ok = all(
                assignment[local[c.variables[0]]] + assignment[local[c.variables[1]]] == 1
                for c in member_constraints
            )
            if ok:
                patterns.append("".join(str(b) for b in assignment))
        if not patterns:
            labels = ", ".join(c.label or str(c.variables) for c in member_constraints)
            raise InfeasibleStructureError(f"constraints {labels} admit no assignment")
        components.append(ConstraintComponent(qubits=qubits, patterns=tuple(patterns)))

    matched: set[int] = set()
    xy_pairs: list[tuple[int, int]] = []
    for c in selected:
        a, b = c.variables
        if a not in matched and b not in matched:
            xy_pairs.append((a, b))
            matched.update((a, b))
    x_qubits = tuple(q for q in range(cs.n) if q not in matched)
    return ConstraintGroups(
        components=tuple(components), xy_pairs=tuple(xy_pairs), x_qubits=x_qubits
    )


@dataclass(frozen=True)
class AnsatzSpec:
    """Everything that determines circuit synthesis for one QAOA variant."""

    kind: str
    n: int
    depth: int
    lam: float = 1.0
    xy_pairs: tuple[tuple[int, int], ...] = ()
    x_qubits: tuple[int, ...] = ()
    components: tuple[ConstraintComponent, ...] = ()
    init_support: tuple[str, ...] | None = None  # None means the full basis

    def __post_init__(self) -> None:
        if self.kind not in (STANDARD, CONSTRAINT_AWARE):
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        seen: set[int] = set()
        for a, b in self.xy_pairs:
            if a == b or a in seen or b in seen:
                raise ValueError("xy pairs must be pairwise disjoint")
            seen.update((a, b))
        if seen & set(self.x_qubits):
            raise ValueError("x qubits must not overlap xy pairs")
        if self.init_support is not None:
            for bits in self.init_support:
                if len(bits) != self.n:
                    raise ValueError("support bitstring length mismatch")
                for a, b in self.xy_pairs:
                    if int(bits[a]) + int(bits[b]) != 1:
                        raise ValueError(
                            f"support string {bits} violates one-hot on pair ({a},{b})"
                        )

    @classmethod
    def standard(cls, n: int, depth: int) -> "AnsatzSpec":
        return cls(kind=STANDARD, n=n, depth=depth, lam=1.0, x_qubits=tuple(range(n)))

    @classmethod
    def constraint_aware(cls, cs: ConstraintSet, depth: int, lam: float) -> "AnsatzSpec":
        groups = derive_constraint_groups(cs)
        if not groups.components:
            return cls(
                kind=CONSTRAINT_AWARE,
                n=cs.n,
                depth=depth,
                lam=lam,
                x_qubits=tuple(range(cs.n)),
            )
        covered = {q for comp in groups.components for q in comp.qubits}
        free = [q for q in range(cs.n) if q not in covered]
        support = []
        pattern_choices = [comp.patterns for comp in groups.components]
        for picks in itertools.product(*pattern_choices):
            base = ["0"] * cs.n
            for comp, pattern in zip(groups.components, picks):
                for q, bit in zip(comp.qubits, pattern):
                    base[q] = bit
            for free_bits in itertools.product("01", repeat=len(free)):
                for q, bit in zip(free, free_bits):
                    base[q] = bit
                support.append("".join(base))
        return cls(
            kind=CONSTRAINT_AWARE,
            n=cs.n,
            depth=depth,
            lam=lam,
            xy_pairs=groups.xy_pairs,
            x_qubits=groups.x_qubits,
            components=groups.components,
            init_support=tuple(sorted(support)),
        )

    def support_bitstrings(self) -> tuple[str, ...]:
        if self.init_support is not None:
            return self.init_support
        return tuple(format(i, f"0{self.n}b") for i in range(1 << self.n))


@dataclass(frozen=True)
class ParameterPoint:
    """One (gamma, beta) angle assignment for a depth-p circuit."""

    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.beta):
            raise ValueError("gamma and beta must have equal length")

    @property
    def depth(self) -> int:
        return len(self.gamma)

    def clamped(self) -> "ParameterPoint":
        g = tuple(min(max(v, GAMMA_BOUNDS[0]), GAMMA_BOUNDS[1]) for v in self.gamma)
        b = tuple(min(max(v, BETA_BOUNDS[0]), BETA_BOUNDS[1]) for v in self.beta)
        return ParameterPoint(gamma=g, beta=b)

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

    Each two-pattern component is prepared as a GHZ-style pair via H plus a
    CNOT chain from its first qubit, then X gates map the all-zeros branch
    onto the pattern whose first bit is 0 (its complement rides along on
    the other branch).  Unconstrained qubits get a plain H.
    """
    if spec.kind == STANDARD or not spec.components:
        return [GateOp("h", (q,)) for q in range(spec.n)]
    gates: list[GateOp] = []
    covered: set[int] = set()
    for comp in spec.components:
        if len(comp.patterns) != 2:
            raise ValueError("gate recipe requires exactly two admissible patterns")
        ref = next(p for p in comp.patterns if p[0] == "0")
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
    """One mixer layer: RX(2*beta) everywhere, or XY blocks plus weighted X."""
    if spec.kind == STANDARD:
        return [GateOp("rx", (q,), 2.0 * beta) for q in range(spec.n)]
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


def prepare_initial_state(
    spec: AnsatzSpec,
    engine: str = "statevector",
    via_gates: bool = False,
    noise: NoiseModel | None = None,
    noisy_init: bool = True,
) -> State:
    """Initial state by direct amplitude load or by running the gate recipe."""
    if engine not in ("statevector", "density"):
        raise ValueError(f"unsupported engine {engine!r}")
    if via_gates:
        state: State = DensityMatrix(spec.n) if engine == "density" else StateVector(spec.n)
        gate_noise = noise if noisy_init else None
        for op in init_circuit(spec):
            apply_gate(state, op, gate_noise)
        return state
    if noise is not None:
        raise ValueError("gate noise requires via_gates=True")
    if spec.init_support is None:
        sv = StateVector.uniform(spec.n)
    else:
        sv = StateVector.from_support(spec.n, spec.init_support)
    return DensityMatrix.from_statevector(sv) if engine == "density" else sv


def apply_mixer_layer(state: State, spec: AnsatzSpec, beta: float) -> State:
    """Apply one noiseless mixer layer in place."""
    for op in mixer_circuit(spec, beta):
        apply_gate(state, op)
    return state


@lru_cache(maxsize=64)
def _cached_gate_init(
    spec: AnsatzSpec, engine: str, noise: NoiseModel | None, noisy_init: bool
) -> State:
    """The gate-recipe initial state is parameter-free, so build it once."""
    return prepare_initial_state(spec, engine, via_gates=True, noise=noise, noisy_init=noisy_init)


def evolve(
    spec: AnsatzSpec,
    cost: CostOperator | IsingCoefficients,
    params: ParameterPoint,
    engine: str = "exact",
    scale: float = 1.0,
    noise: NoiseModel | None = None,
    noisy_init: bool = True,
) -> State:
    """Run the p-layer alternation of cost and mixer from the initial state.

    The exact engine consumes a diagonal CostOperator and evolves a pure
    statevector; the gate engine consumes Ising coefficients, synthesizes
    RZZ/RZ phase gates, and switches to the density-matrix representation
    whenever gate noise is present.
    """
    if params.depth != spec.depth:
        raise ValueError(f"expected {spec.depth} layers of parameters, got {params.depth}")
    if engine == "exact":
        if not isinstance(cost, CostOperator):
            raise TypeError("exact engine needs a CostOperator diagonal")
        if noise is not None:
            raise ValueError("the exact engine is noiseless; use engine='gate'")
        state = prepare_initial_state(spec, "statevector")
        for gamma, beta in zip(params.gamma, params.beta):
            apply_diagonal_phase(state, cost, gamma, scale)
            apply_mixer_layer(state, spec, beta)
        return state
    if engine != "gate":
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(cost, IsingCoefficients):
        raise TypeError("gate engine needs IsingCoefficients")
    noisy = noise is not None and (noise.p1 > 0 or noise.p2 > 0)
    state = _cached_gate_init(
        spec, "density" if noisy else "statevector", noise if noisy else None, noisy_init
    ).copy()
    for gamma, beta in zip(params.gamma, params.beta):
        for op in cost_circuit(cost, gamma, scale):
            apply_gate(state, op, noise)
        for op in mixer_circuit(spec, beta):
            apply_gate(state, op, noise)
    return state
