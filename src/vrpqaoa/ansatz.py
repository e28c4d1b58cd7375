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
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .encode import CostOperator, IsingCoefficients
from .instance import EQUAL, ConstraintSet, _bit_column, check_positive, check_real, check_whole
from .simcore import (
    GATES,
    SQRT2_INV,
    DensityMatrix,
    GateOp,
    NoiseModel,
    State,
    StateVector,
    _contract,
    _depolarizing_mask,
    _kron_power,
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
    """Connected one-hot constraints: their qubits and one pattern, its complement admitted too."""

    qubits: tuple[int, ...]
    pattern: str

    def __post_init__(self) -> None:
        if not isinstance(self.qubits, (list, tuple)):
            raise ValueError(f"component qubits {self.qubits!r} must be a list or tuple")
        bits, size = self.pattern, len(self.qubits)
        if not isinstance(bits, str) or bits.strip("01") or not 0 < len(bits) == size:
            raise ValueError(
                f"pattern {bits!r} must be {size or 'one or more'} binary digits, one per qubit")
        object.__setattr__(self, "qubits", tuple(self.qubits))


@dataclass(frozen=True)
class ConstraintGroups:
    components: tuple[ConstraintComponent, ...]
    xy_pairs: tuple[tuple[int, int], ...]


def derive_constraint_groups(cs: ConstraintSet) -> ConstraintGroups:
    """Pick the two-variable exactly-one constraints apart into mixer structure.

    Each constraint x_a + x_b = 1 fixes x_b = 1 - x_a, so a connected group
    of them is solved by 2-colouring its graph from its lowest qubit (set to
    0): the component's pattern is that colouring (its complement is the
    other solution), and a group holding an odd cycle has none.  XY pairs
    come from a greedy matching over the selected constraints in their
    appearance order.
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
        components.append(ConstraintComponent(qubits, pattern))

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
    matches each component's pattern or its complement (free qubits
    uniform); each mixer layer is an XY block per pair plus an X rotation of
    weight ``lam`` on every other qubit.  Standard QAOA is the member with no
    components, no pairs and ``lam`` = 1.
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
        if not isinstance(self.xy_pairs, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in self.xy_pairs):
            raise ValueError(f"xy_pairs {self.xy_pairs} must be pairs of qubits")
        if not isinstance(self.components, (list, tuple)) or not all(
                isinstance(c, ConstraintComponent) for c in self.components):
            raise ValueError(f"components {self.components} must be ConstraintComponents")
        # stored as tuples: hashable (a cache key), and equal whatever sequences they came as
        object.__setattr__(self, "xy_pairs", tuple(map(tuple, self.xy_pairs)))
        object.__setattr__(self, "components", tuple(self.components))
        for name, groups in (("xy_pairs", self.xy_pairs),
                             ("components", tuple(c.qubits for c in self.components))):
            qubits = [q for group in groups for q in group]
            for q in qubits:  # first: True == 1 would pass the range check
                check_whole(f"{name} {groups} qubit", q)
            if not all(0 <= q < self.n for q in qubits) or len(set(qubits)) != len(qubits):
                raise ValueError(f"{name} {groups} name a qubit outside 0..{self.n - 1} or twice")

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

    @cached_property
    def support(self) -> np.ndarray:
        """The initial superposition as a mask over the 2^n basis indices, qubit 0 the
        most significant bit (shared, read-only): True where every component reads its
        pattern or its complement, that is where its columns x_q ^ pattern bit agree."""
        mask = np.ones(1 << self.n, dtype=bool)
        for c in self.components:
            flipped = [_bit_column(self.n, q) ^ int(bit) for q, bit in zip(c.qubits, c.pattern)]
            for column in flipped[1:]:
                mask &= column == flipped[0]
        mask.flags.writeable = False
        return mask

    @cached_property
    def _loaded_state(self) -> StateVector:
        """1/sqrt(|support|) on the support: never empty, as each component admits two strings."""
        return StateVector(self.n, self.support / math.sqrt(np.count_nonzero(self.support)))

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
        for name in ("gamma", "beta"):
            angles = getattr(self, name)
            if not isinstance(angles, (list, tuple)) and np.ndim(angles) != 1:
                raise ValueError(f"{name} must be a sequence of angles, got {angles!r}")
            for angle in angles:
                check_real(name, angle)
            # stored as float tuples: hashable, and equal whatever sequence they came as
            object.__setattr__(self, name, tuple(map(float, angles)))
        if len(self.gamma) != len(self.beta):
            raise ValueError("gamma and beta must have equal length")

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

    Each component is prepared as a GHZ-style pair via H plus a CNOT chain
    from its first qubit, then an X wherever its pattern has a 1 maps the
    all-zeros branch onto the pattern and the all-ones branch onto its
    complement.  Unconstrained qubits get a plain H.
    """
    gates: list[GateOp] = []
    covered: set[int] = set()
    for comp in spec.components:
        first = comp.qubits[0]
        gates.append(GateOp("h", (first,)))
        for q in comp.qubits[1:]:
            gates.append(GateOp("cnot", (first, q)))
        for q, bit in zip(comp.qubits, comp.pattern):
            if bit == "1":
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


def compile_exact_layers(
    spec: AnsatzSpec, cost: CostOperator, scale: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The exact engine's p-layer loop, compiled once per run: (gammas, betas),
    float arrays of shape (rows, p), -> amplitudes of shape (rows, 2^n), one
    state per row.  Each layer is the cost phase, then the mixer in closed form
    through the spec's real eigenbasis, with no gate list.

    The phases of all layers and rows come from two ``exp`` calls per call; the
    mixer's only over the generator's few distinct eigenvalues (7 of 64 for
    standard QAOA on 6 qubits), gathered back to 2^n.
    """
    eigen, basis = spec._mixer_basis
    values, index = np.unique(eigen, return_inverse=True)
    start, p, dim = spec._loaded_state.amplitudes[:, None], spec.depth, 1 << spec.n

    def layers(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        # (p, rows) angles, (p, rows, 2^n) phases; (-1j * gamma) * diag, then / scale:
        # dividing diag by scale first changes last bits
        cost_phases = np.exp(np.multiply.outer(-1j * gammas.T, cost.diagonal) / scale)
        mixer_phases = np.exp(np.multiply.outer(-1j * betas.T, values)).take(index, -1)
        # The states are a (rows, 2^n, 1) complex stack, and each matmul takes its
        # (k, 2^n, 2) float view.  np.matmul runs one (2^n x 2^n)(2^n x 2) dgemm
        # per row, so every row has the bits of a single-state call; one wide
        # (2^n, 2k) product would not.  A complex product goes to OpenBLAS
        # zgemv, whose threads stall when processes share the cores.
        state = start  # the first cost phase broadcasts it over the rows
        for cost_phase, mixer_phase in zip(cost_phases[..., None], mixer_phases[..., None]):
            state = (basis @ (state * cost_phase).view(float)).view(complex)
            state = (basis @ (state * mixer_phase).view(float)).view(complex)
        return (state if p else np.tile(start, (len(gammas), 1, 1))).reshape(-1, dim)

    return layers


def _combine(trig: np.ndarray, terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_t trig[..., t] terms[t], batched: ``trig`` (..., T) holds the weights, such as
    (1, cos, sin) of A + cos B + sin C, and ``terms`` is (T, d, d).  A contiguous ``out``
    of shape (..., d, d) receives the sum."""
    t, d = terms.shape[0], terms.shape[-1]
    flat = None if out is None else out.reshape(*trig.shape[:-1], d * d)
    return np.matmul(trig, terms.reshape(t, d * d), out=flat).reshape(*trig.shape[:-1], d, d)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 9 weights a_s b_t of two (..., 3) weight triples, as (..., 9): those of the 9
    terms of a product or Kronecker product of two gates."""
    return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], 9)


#: The Pauli strings an XY pair (a, b) shares with Z_a Z_b, as digits (a, b) with I, X, Y, Z =
#: 0..3: II, IZ, ZI, ZZ, XX, XY, YX and YY.
_PAIR_KEPT = np.array([[0, 0], [0, 3], [3, 0], [3, 3], [1, 1], [1, 2], [2, 1], [2, 2]])

#: An XY pair's 6 kept coordinates, as rows over those strings: II, IZ, ZI, ZZ, XX+YY and XY-YX.
#: Coordinate c leads with string c, and its other string (XX+YY, XY-YX) is of the same type.
_PAIR_BASIS = np.eye(6, 8)
_PAIR_BASIS[4, 7], _PAIR_BASIS[5, 6] = 1.0, -1.0

#: Per axis length (1 for a qubit, 2 for an XY pair): the Pauli strings its coordinates
#: combine, and the coordinates as rows over them.
_AXIS_BASES = {1: (np.arange(4)[:, None], np.eye(4)), 2: (_PAIR_KEPT, _PAIR_BASIS)}


def _coordinates(axes: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Pauli digits of the strings the coordinates of ``axes`` combine (first axis slowest), by
    qubit."""
    rows = np.zeros((1, 0), dtype=int)
    for axis in axes:
        table = _AXIS_BASES[len(axis)][0]
        rows = np.hstack([np.repeat(rows, len(table), 0), np.tile(table, (len(rows), 1))])
    return rows


def _axis_terms(terms: np.ndarray, axes: Sequence[tuple[int, ...]], u: int, v: int) -> np.ndarray:
    """A two-qubit gate's ``terms`` over the 16 strings of its qubits (u, v), embedded on the
    strings of ``axes`` (first axis slowest), which hold u and v, and restricted to their
    coordinates, the rows of V: V M V^+, where V^+ = V^T scaled by 1 / |row|^2 (1 or 1/2:
    exact) maps the coordinates back."""
    qubits = [q for axis in axes for q in axis]
    rows = _coordinates(axes)
    gate = 4 * rows[:, qubits.index(u)] + rows[:, qubits.index(v)]
    rest = np.delete(rows, [qubits.index(u), qubits.index(v)], 1)  # digits the gate leaves alone
    embedded = terms[:, gate[:, None], gate] * (rest[:, None] == rest).all(-1)
    basis = reduce(np.kron, [_AXIS_BASES[len(axis)][1] for axis in axes])
    return basis @ embedded @ (basis.T / (basis**2).sum(1))


def compile_noisy_layers(
    spec: AnsatzSpec, ising: IsingCoefficients, scale: float, noise: NoiseModel, noisy_init: bool
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The gate engine's noisy p-layer loop and read-out, compiled once into fixed
    Pauli-transfer terms: (gammas, betas), finite float arrays of shape (rows, p), ->
    measured distributions of shape (rows, 2^n), one per row.  ``layers.plan`` holds, per
    contraction, the state's axis sizes, the permutation bringing the contraction's
    axes first, and their sizes after it.

    The state lives on axes: each XY pair (a, b) is one axis of the 6 coordinates of
    ``_PAIR_BASIS``, every other qubit one of 4.  Every gate of a layer (RZ, RZZ and
    the pair's RYY RXX = exp(-i beta (XX + YY))) and each depolarizing channel, which
    is covariant under unitaries on its support, commutes with exp(-i phi (Z_a + Z_b)).
    So a layer keeps the pair's Pauli strings apart by their charge under it: the 8
    that anticommute with Z_a Z_b (charge +-1), XX-YY and XY+YX (charge +-2), and the
    6 kept ones (charge 0), and the read-out sees only charge-0 Z-type strings:
    dropping the others is exact whatever the start.  Each term is restricted to the
    kept coordinates once (``_axis_terms``); RXX alone does not conserve charge, so the
    pair's mixer is restricted as the product D RYY D RXX.

    Each channel commutes with unitaries on its support, so it folds into the rows
    of its gate's terms.  There is one step per nonzero RZZ across two axes, on
    them.  An XY pair's own RZZ commutes with all 6 of the pair's coordinates, so
    only its channel acts, the constant mask diag(1, 1 - p2, ...), and it is no
    step: the mask folds into the next operation on the pair's axis, the next RZZ
    step's terms (on the right, on the pair's factor) or else the pair's mixer
    block, whose D RZ x D RZ it commutes with.  RZ(q) follows the last RZZ, so it
    joins the mixer block of q's axis (D RYY D RXX (D RZ x D RZ) per pair, D RX D RZ
    per qubit), and each block joins the last step on its axis, since every gate in
    between acts on other axes; an axis no step touches is a step of its own.  A
    zero coupling or field has no gate and no channel.  Before its first step an
    axis carries only the coordinates that are nonzero in the start state (I and X
    per qubit for standard QAOA), and after its last step only its Z-type ones.  Each
    step leaves its axes first, and the read-out matrix (the confusion Kronecker power
    times Walsh-Hadamard) has a column per final coordinate.

    Every row's blocks are built in one pass, with the rows as the outer stack axis,
    and each contraction is one stacked matmul over them: numpy runs one product per
    row, of the shape a one-row call has, so every row has a one-row call's bits.

    The returned function keeps its work arrays from call to call, since fresh ones of
    their size (100-200 KB at 5 rows) go back to the kernel when freed and page-fault in
    again: each RZZ step's block, a spare for the hosting products, and two state
    buffers, rows outermost and grown to the largest row count yet, with the views a
    row count needs built once.  Each contraction copies the transposed state into the
    second state buffer, in order, and writes its product back into the first.  It
    returns a fresh array, and takes one call at a time: each ``minimize`` call
    compiles its own.

    Each lever's worth is the time per row without it at 20 rows (toy3, depth 4, paper
    noise, one BLAS thread), standard then constraint-aware QAOA: trims 1.7x and 1.1x,
    pair fold 1.1x, one call for all rows 2.2x and 3.4x, kept work arrays 1.5x and 2.2x.
    """
    mask = {g: _depolarizing_mask(GATES[g][0], (0, 1)[:GATES[g][0]], noise.channel_rate(g))
            for g in ("rzz", "ryy", "rxx", "rx", "rz")}  # each gate's channel, on its own qubits
    rzz, ryy, rxx, rx = (mask[g][:, None] * np.array(_ptm_terms(g)) for g in list(mask)[:4])
    rz = np.array(_ptm_terms("rz"))  # each qubit's mask multiplies it per evaluation
    z_masks = np.array([np.where(h, mask["rz"], 1.0)[:, None] for h in ising.fields])
    x_qubits, n, p = list(spec.x_qubits), spec.n, spec.depth
    axes = [*spec.xy_pairs, *((q,) for q in x_qubits)]
    bases = [_AXIS_BASES[len(axis)][1] for axis in axes]
    sizes = [len(basis) for basis in bases]
    axis_of = {q: i for i, axis in enumerate(axes) for q in axis}
    lead16 = 4 * _PAIR_KEPT[:6, 0] + _PAIR_KEPT[:6, 1]  # coordinates' leading strings, of the 16

    steps, terms, rates = [], [], []  # per step: its axes, its (A, B, C) and its angle's rate
    owed = {}  # per pair axis: its own RZZ's channel, until the next operation on the axis
    for (u, v), c in sorted(ising.couplings.items()):
        if not c:
            continue
        step = tuple(dict.fromkeys((axis_of[u], axis_of[v])))
        if len(step) == 1:  # a pair's own RZZ: ZZ commutes with its 6 coordinates, so B = C = 0
            owed[step[0]] = mask["rzz"][lead16]  # and A is its channel's mask, diag(1, 1 - p2, ...)
            continue
        masks = [owed.pop(i, np.ones(sizes[i])) for i in step]  # the owed channels act first
        terms.append(_axis_terms(rzz, [axes[i] for i in step], u, v) * reduce(np.kron, masks))
        steps.append(step)
        rates.append(c / scale)
    k = len(steps)
    rates = np.array(rates + [h / scale for h in ising.fields])
    touched = {i for step in steps for i in step}
    steps += [(i,) for i in range(len(axes)) if i not in touched]
    last = {i: j for j, step in enumerate(steps) for i in step}
    hosts = []  # per RZZ step: (axis, the step's rows split around the axis) of each block it hosts
    for j, step in enumerate(steps[:k]):
        dim = math.prod(sizes[i] for i in step)
        hosts.append([(i, (before, sizes[i], dim // before // sizes[i] * dim))
                      for i, before in zip(step, (1, sizes[step[0]])) if last[i] == j])

    digits = _coordinates(axes) @ 4 ** (n - 1 - np.array([q for axis in axes for q in axis]))
    start = _recipe_state(spec, noise, noisy_init).pauli[digits]
    start = start.reshape([len(_AXIS_BASES[len(axis)][0]) for axis in axes])
    for i, basis in enumerate(bases):
        start = np.moveaxis(np.tensordot(basis, start, (1, i)), 0, i)
    kept = [np.flatnonzero(np.moveaxis(start, i, 0).reshape(sizes[i], -1).any(1))
            for i in range(len(axes))]  # the coordinates an axis carries, until its first step
    start = start[np.ix_(*kept)].reshape(-1)
    weights = 1 << (n - 1 - np.arange(n))  # each qubit's bit in an outcome's index
    z_bits = []  # per axis and coordinate: its Z qubits' bits, NaN unless it is Z-type
    for axis, size in zip(axes, sizes):
        lead = _AXIS_BASES[len(axis)][0][:size]  # each coordinate's leading string
        z_bits.append(np.where((lead % 3 == 0).all(1), (lead == 3) @ weights[list(axis)], np.nan))

    def flat(step: tuple[int, ...]) -> np.ndarray:
        """The kept coordinates of the step's axes, as positions in its block."""
        grid = np.ix_(*[kept[i] for i in step])
        return np.ravel_multi_index(grid, [sizes[i] for i in step]).reshape(-1)

    order, plan, picks, width = list(range(len(axes))), [], [], len(start)
    for layer in range(p):
        for j, step in enumerate(steps):
            perm = step + tuple(i for i in order if i not in step)
            shape, into = tuple(len(kept[i]) for i in order), flat(step)
            for i in step:  # after its last step, an axis carries only what the read-out sees
                final = layer == p - 1 and last[i] == j
                kept[i] = np.flatnonzero(~np.isnan(z_bits[i])) if final else np.arange(sizes[i])
            out = flat(step)
            full = len(out) == len(into) == math.prod(sizes[i] for i in step)
            moved = tuple(order.index(i) for i in perm)
            pick = (slice(None), layer) if full else (slice(None), layer, out[:, None], into)
            picks.append((j, pick, shape, (0, *(1 + m for m in moved)), len(out), len(into)))
            size = math.prod(shape)  # the state's, and after the step
            width = max(width, size, size // len(into) * len(out))
            plan.append((shape, moved, tuple(len(kept[i]) for i in step)))
            order = list(perm)
    bits = sum(np.ix_(*[z_bits[i][kept[i]] for i in order])).reshape(-1)
    seen = ~np.isnan(bits)  # every final coordinate, unless no step ran (depth 0)
    confusion = _kron_power(n, 1.0 - noise.p01, noise.p10, noise.p01, 1.0 - noise.p10)
    readout = np.zeros((1 << n, len(bits)))
    walsh = _kron_power(n, 0.5, 0.5, 0.5, -0.5)
    readout[:, seen] = (confusion @ walsh)[:, bits[seen].astype(int)]

    x_fields, x_masks = k + np.array(x_qubits, dtype=int), z_masks[x_qubits]
    a_fields, b_fields = k + np.array(spec.xy_pairs, dtype=int).reshape(-1, 2).T
    mix, pair_rz = (  # D RYY D RXX, and RZ x RZ, each as 9 terms
        _axis_terms(gates.reshape(9, 16, 16), [(0, 1)], 0, 1)
        for gates in (ryy[:, None] @ rxx, np.einsum("sac,tbd->stabcd", rz, rz)))
    # D_a x D_b is 1 - lam on the strings with support on the qubit, so it takes one value
    # on the strings of each kept coordinate: that on its leading string
    pair_masks = np.array([np.kron(z_masks[a], z_masks[b])[lead16] for a, b in spec.xy_pairs])
    for i, channel in owed.items():  # a pair's own RZZ channel that no step took: on these
        pair_masks[i] *= channel[:, None]  # coordinates it commutes with D RZ x D RZ

    cap, owned, spare, states = -1, None, None, None  # the work arrays, set by the first call

    @lru_cache(maxsize=None)
    def route(rows: int) -> list[tuple]:
        """Per contraction of a ``rows``-row call: its step, pick, the transposed state in the
        first state buffer, its ordered copy in the second (the operand, in both shapes) and
        the product, back in the first."""
        views, state = [], states[0][:rows * len(start)]
        for j, pick, shape, moved, a, b in picks:  # moved: in the (rows, ...) stack
            source = state.reshape(rows, *shape).transpose(moved)
            target = states[1][:source.size].reshape(source.shape)
            operand = target.reshape(rows, b, -1)
            state = states[0][:rows * a * operand.shape[-1]].reshape(rows, a, -1)
            views.append((j, pick, target, source, operand, state))
        return views

    def layers(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        nonlocal cap, owned, spare, states
        rows = len(gammas)
        if rows > cap:
            cap, owned = rows, [np.empty((rows, p, *t.shape[1:])) for t in terms]
            spare = np.empty(rows * p * max((t[0].size for t in terms), default=0))
            states = np.empty((2, rows * width))
            route.cache_clear()
        gammas, betas = gammas[..., None], betas[..., None]  # (rows, p, 1)
        angles = 2 * np.concatenate([gammas * rates, betas * [1.0, spec.lam]], -1)
        trig = np.ones((*angles.shape, 3))  # (1, cos, sin) per row, layer and angle
        np.cos(angles, out=trig[..., 1])
        np.sin(angles, out=trig[..., 2])
        singles = _combine(trig[..., x_fields, :], rz) * x_masks  # D RZ per X qubit
        x_blocks = _combine(trig[..., -1, :], rx)[..., None, :, :] @ singles
        blocks = [x_blocks[:, :, q] for q in range(len(x_qubits))]  # per axis: (rows, p, d, d)
        if spec.xy_pairs:
            zz = _combine(_products(trig[..., a_fields, :], trig[..., b_fields, :]), pair_rz)
            zz *= pair_masks  # D RZ x D RZ per pair
            beta = trig[..., -2, :]
            pair_blocks = _combine(_products(beta, beta), mix)[..., None, :, :] @ zz
            blocks[:0] = [pair_blocks[:, :, q] for q in range(len(spec.xy_pairs))]
        step_blocks = []
        for j, host in enumerate(hosts):
            own = owned[j][:rows]
            free = spare[:own.size].reshape(own.shape)  # each hosting product goes to the other
            block, free = (free, own) if len(host) % 2 else (own, free)  # so the last, to own
            _combine(trig[..., j, :], terms[j], out=block)
            for i, split in host:  # (I x B x I) G: the axis's mixer block on its own factor
                np.matmul(blocks[i][..., None, :, :], block.reshape(rows, p, *split),
                          out=free.reshape(rows, p, *split))
                block, free = free, block
            step_blocks.append(block)
        step_blocks += [blocks[i] for (i,) in steps[k:]]
        state = states[0][:rows * len(start)].reshape(rows, -1)
        state[:] = start  # the first contraction reads it; at depth 0 it is the state
        for j, pick, target, source, operand, out in route(rows):
            np.copyto(target, source)
            state = np.matmul(step_blocks[j][pick], operand, out=out)
        probs = np.clip(readout @ state.reshape(rows, -1, 1), 0.0, None)[..., 0]
        return probs / probs.sum(-1, keepdims=True)  # finite angles keep the trace 1

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
    evolves a pure statevector through :func:`compile_exact_layers`.  The gate
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
        if noise is not None and noise.has_gate_noise:
            raise ValueError("the exact engine runs no gate noise; use engine='gate'")
        layers = compile_exact_layers(spec, cost, scale)
        return StateVector(spec.n, layers(np.array([params.gamma]), np.array([params.beta]))[0])
    if engine != "gate":
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(cost, IsingCoefficients):
        raise TypeError("gate engine needs IsingCoefficients")
    state = _recipe_state(spec, noise, noisy_init).copy()
    for gamma, beta in zip(params.gamma, params.beta):
        for op in cost_circuit(cost, gamma, scale) + mixer_circuit(spec, beta):
            apply_gate(state, op, noise)
    return state
