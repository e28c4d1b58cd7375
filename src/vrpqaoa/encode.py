"""Penalty-QUBO construction and its Ising / diagonal-operator exports.

Two spin conventions are carried side by side because both are in active
use for QUBO work:

* convention ``A``: x = (z + 1) / 2, so x = 1 maps to spin +1;
* convention ``B``: x = (1 - z) / 2, so x = 1 maps to spin -1.

Convention B is the one that matches quantum measurement (|1> is the -1
eigenstate of Pauli-Z), so circuit synthesis always uses B; A is kept for
coefficient regression against hand-derived tables.  The two differ only
by the sign of the linear field h.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instance import (
    BRUTE_FORCE_LIMIT,
    EQUAL,
    ConstraintSet,
    InstanceTooLargeError,
    LinearConstraint,
    LinkVariableIndex,
    VrpInstance,
    _as_values,
    _bit_column,
    check_positive,
)

CONVENTION_A = "A"
CONVENTION_B = "B"


@dataclass(frozen=True)
class QuboProblem:
    """c + sum_i q_i x_i + sum_{i<j} Q_ij x_i x_j over binary variables."""

    n: int
    constant: float
    linear: tuple[float, ...]
    quadratic: dict[tuple[int, int], float]
    penalty: float

    def __post_init__(self) -> None:
        if len(self.linear) != self.n:
            raise ValueError("linear coefficient count must equal n")
        for i, j in self.quadratic:
            if not (0 <= i < j < self.n):
                raise ValueError("quadratic keys must be upper-triangular (i < j)")
        check_positive("penalty", self.penalty)


def default_penalty(inst: VrpInstance) -> float:
    """Twice the total absolute link cost."""
    m = inst.node_count
    total = sum(abs(inst.distance(i, j)) for i in range(m) for j in range(m) if i != j)
    if total == 0:
        raise ValueError(
            "every link costs 0, so the default penalty (twice the total link cost) is 0"
        )
    return 2.0 * total


def penalty_terms(
    c: LinearConstraint, weight: float = 1
) -> tuple[float, dict[int, float], dict[tuple[int, int], float]]:
    """Expansion of ``weight`` times one constraint's penalty.

    Equalities sum(x) = r expand to (sum(x) - r)^2 with x^2 = x applied;
    two-variable at-least-1 constraints expand to (1-x)*(1-y).  At-least
    constraints over more than two variables have no quadratic product
    form and are rejected.  Returns (constant, {q: linear}, {(a, b):
    quadratic}) with pairs in variable order; an integer weight keeps the
    coefficients integer for printing.
    """
    if c.relation == EQUAL:
        return (
            weight * c.rhs * c.rhs,
            {q: weight * (1 - 2 * c.rhs) for q in c.variables},
            {pair: 2 * weight for pair in itertools.combinations(c.variables, 2)},
        )
    if len(c.variables) != 2 or c.rhs != 1:
        raise ValueError(
            f"at-least constraint {c.label!r} is not in the supported "
            "two-variable >= 1 form"
        )
    a, b = c.variables
    return weight, {a: -weight, b: -weight}, {(a, b): weight}


def penalize(
    inst: VrpInstance,
    cs: ConstraintSet,
    penalty: float | None = None,
) -> QuboProblem:
    """Fold the constraints into the link-cost objective as quadratic penalties.

    Each constraint contributes P times its :func:`penalty_terms`.
    """
    m = inst.node_count
    idx = LinkVariableIndex.for_nodes(m)
    if cs.n != idx.n:
        raise ValueError("constraint set does not match the instance's variable count")
    p = default_penalty(inst) if penalty is None else float(penalty)
    check_positive("penalty", p)

    constant = 0.0
    linear = [0.0] * idx.n
    quadratic: dict[tuple[int, int], float] = {}

    for q, (i, j) in enumerate(idx.links):
        linear[q] += inst.distance(i, j)

    for c in cs:
        term_constant, term_linear, term_quadratic = penalty_terms(c, p)
        constant += term_constant
        for q, coeff in term_linear.items():
            linear[q] += coeff
        for (a, b), coeff in term_quadratic.items():
            key = (a, b) if a < b else (b, a)
            quadratic[key] = quadratic.get(key, 0.0) + coeff

    quadratic = {k: v for k, v in quadratic.items() if v != 0.0}
    return QuboProblem(
        n=idx.n, constant=constant, linear=tuple(linear), quadratic=quadratic, penalty=p
    )


def qubo_value(qubo: QuboProblem, bits: str | Sequence[int]) -> float:
    values = _as_values(bits, qubo.n)
    total = qubo.constant
    for q, coeff in enumerate(qubo.linear):
        total += coeff * values[q]
    for (i, j), coeff in qubo.quadratic.items():
        total += coeff * values[i] * values[j]
    return float(total)


@dataclass(frozen=True)
class IsingCoefficients:
    """c0 + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j over spins z in {-1,+1}."""

    n: int
    constant: float
    fields: tuple[float, ...]
    couplings: dict[tuple[int, int], float]
    convention: str

    def spin(self, bit: int) -> int:
        """Spin image of a bit value under this object's convention."""
        if self.convention == CONVENTION_A:
            return 2 * bit - 1
        return 1 - 2 * bit


def to_ising(qubo: QuboProblem, convention: str) -> IsingCoefficients:
    """Rewrite the QUBO over spins; A and B share J and c0 and differ in h's sign."""
    if convention not in (CONVENTION_A, CONVENTION_B):
        raise ValueError(f"unknown spin convention {convention!r}")
    h = [0.0] * qubo.n
    j: dict[tuple[int, int], float] = {}
    c0 = qubo.constant
    for (a, b), coeff in qubo.quadratic.items():
        j[(a, b)] = j.get((a, b), 0.0) + coeff / 4.0
        h[a] += coeff / 4.0
        h[b] += coeff / 4.0
        c0 += coeff / 4.0
    for q, coeff in enumerate(qubo.linear):
        h[q] += coeff / 2.0
        c0 += coeff / 2.0
    if convention == CONVENTION_B:
        h = [-v for v in h]
    return IsingCoefficients(
        n=qubo.n,
        constant=c0,
        fields=tuple(h),
        couplings={k: v for k, v in j.items() if v != 0.0},
        convention=convention,
    )


def ising_value(ising: IsingCoefficients, bits: str | Sequence[int]) -> float:
    values = _as_values(bits, ising.n)
    spins = [ising.spin(v) for v in values]
    total = ising.constant
    for q, coeff in enumerate(ising.fields):
        total += coeff * spins[q]
    for (a, b), coeff in ising.couplings.items():
        total += coeff * spins[a] * spins[b]
    return float(total)


def default_energy_scale(ising: IsingCoefficients) -> float:
    """Largest |coefficient|; dividing by it puts every h, J inside [-1, 1]."""
    magnitudes = [abs(v) for v in ising.fields] + [abs(v) for v in ising.couplings.values()]
    top = max(magnitudes, default=0.0)
    if top > 0 and math.isinf(1.0 / top):
        raise ValueError(f"link costs are too small: energy scale {top:g} has no finite reciprocal")
    return top if top > 0 else 1.0


@dataclass(frozen=True)
class CostOperator:
    """Diagonal of a cost function: entry int(bits, 2) holds its value at bits."""

    n: int
    diagonal: np.ndarray

    def value(self, bits: str) -> float:
        return float(self.diagonal[int(bits, 2)])


def to_cost_operator(qubo: QuboProblem) -> CostOperator:
    """Expand the QUBO into a dense diagonal over all 2^n basis states."""
    if qubo.n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(f"{qubo.n} variables exceeds the enumeration limit")
    cols = [_bit_column(qubo.n, q).astype(float) for q in range(qubo.n)]
    diag = np.full(1 << qubo.n, qubo.constant)
    for q, coeff in enumerate(qubo.linear):
        if coeff:
            diag += coeff * cols[q]
    for (i, j), coeff in qubo.quadratic.items():
        if coeff:
            diag += coeff * cols[i] * cols[j]
    return CostOperator(n=qubo.n, diagonal=diag)


@dataclass(frozen=True)
class CompiledCost:
    """Everything circuit synthesis and objectives need, derived once."""

    qubo: QuboProblem
    ising: IsingCoefficients  # convention B: aligned with measured bitstrings
    full_diagonal: CostOperator  # C(x) including the constant
    phase_diagonal: CostOperator  # C(x) - c0: the phase of a cost circuit built from h and J
    scale: float

    @classmethod
    def from_qubo(cls, qubo: QuboProblem) -> "CompiledCost":
        ising = to_ising(qubo, CONVENTION_B)
        full = to_cost_operator(qubo)
        return cls(
            qubo=qubo,
            ising=ising,
            full_diagonal=full,
            phase_diagonal=CostOperator(n=qubo.n, diagonal=full.diagonal - ising.constant),
            scale=default_energy_scale(ising),
        )


def qubo_as_dict(qubo: QuboProblem) -> dict:
    return {
        "n": qubo.n,
        "constant": qubo.constant,
        "linear": list(qubo.linear),
        "quadratic": {f"{i},{j}": v for (i, j), v in sorted(qubo.quadratic.items())},
        "penalty": qubo.penalty,
    }


def ising_as_dict(ising: IsingCoefficients) -> dict:
    return {
        "n": ising.n,
        "convention": ising.convention,
        "constant": ising.constant,
        "fields": list(ising.fields),
        "couplings": {f"{i},{j}": v for (i, j), v in sorted(ising.couplings.items())},
    }
