"""Link-based VRP instances, their constraint sets, and a brute-force oracle.

Conventions used across the package:

* Directed links are ordered lexicographically, e.g. for three nodes
  ``[(0,1), (0,2), (1,0), (1,2), (2,0), (2,1)]``.  Variable q of this list
  is qubit/bit q.
* Bitstrings are printed with variable 0 leftmost, so the string maps to
  an integer index via ``int(bits, 2)`` (bit 0 is the most significant).
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

EQUAL = "equal"
AT_LEAST = "at-least"

#: Largest supported node count.  From four nodes on, subtour constraints
#: span more than two variables and have no quadratic penalty form.
MAX_NODES = 3

#: Largest variable count accepted by exhaustive enumeration.
BRUTE_FORCE_LIMIT = 24

#: A value ties for the minimum when it exceeds it by at most this fraction of
#: the largest magnitude compared, so ties do not depend on the cost unit.
TIE_TOL = 1e-9


class InstanceTooLargeError(ValueError):
    """Instance exceeds the supported size."""


def check_whole(name: str, value, minimum: int | None = None) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a non-bool integer,
    and at least ``minimum`` if one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value, minimum: float | None = None) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite non-bool real
    number, and at least ``minimum`` if one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_positive(name: str, value: float) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite non-bool real
    number > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def index_bitstring(index: int, n: int) -> str:
    """Printed bitstring of an integer index (leftmost character = bit 0 = MSB)."""
    return format(index, f"0{n}b")


def tied_minima(values: np.ndarray) -> np.ndarray:
    """Indices of the values tied for the minimum, in ascending order."""
    return np.flatnonzero(values <= values.min() + TIE_TOL * np.abs(values).max())


@lru_cache(maxsize=64)
def _bit_column(n: int, q: int) -> np.ndarray:
    """Value of variable q across all 2^n assignment indices (shared, read-only)."""
    idx = np.arange(1 << n, dtype=np.int64)
    column = (idx >> (n - 1 - q)) & 1
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class VrpInstance:
    """A link-based VRP instance; node 0 is the depot."""

    distances: tuple[tuple[float, ...], ...]
    vehicles: int

    def __post_init__(self) -> None:
        rows = self.distances
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise ValueError(f"distances must be a list of rows of numbers, got {rows!r}")
        m = len(rows)
        if m < 2:
            raise ValueError("need at least a depot and one customer")
        if m > MAX_NODES:
            raise InstanceTooLargeError(
                f"{m} nodes exceeds the supported limit of {MAX_NODES} nodes"
            )
        if any(len(row) != m for row in self.distances):
            raise ValueError("distance matrix must be square")
        for i, row in enumerate(self.distances):
            for j, w in enumerate(row):
                check_real(f"distance [{i}][{j}]", w, 0)
        # stored as floats, so Python callers and JSON files get the same instance
        object.__setattr__(self, "distances", tuple(tuple(map(float, r)) for r in self.distances))
        if any(self.distances[i][i] != 0 for i in range(m)):
            raise ValueError("diagonal of the distance matrix must be zero")
        check_whole("vehicles", self.vehicles, 1)
        if self.vehicles > m - 1:
            raise ValueError(
                f"{self.vehicles} vehicles exceed the {m - 1} customers; "
                "every vehicle must visit at least one customer"
            )

    @property
    def node_count(self) -> int:
        return len(self.distances)

    @property
    def customers(self) -> range:
        return range(1, self.node_count)

    def distance(self, i: int, j: int) -> float:
        return self.distances[i][j]

    @classmethod
    def from_dict(cls, payload: dict) -> "VrpInstance":
        if not isinstance(payload, dict):
            raise ValueError(f"an instance must be a JSON object, got {payload!r}")
        for key in payload:
            if key not in ("distances", "vehicles"):
                raise ValueError(f"unknown instance key {key!r}")
        for key in ("distances", "vehicles"):
            if key not in payload:
                raise ValueError(f"instance key {key!r} is missing")
        vehicles = payload["vehicles"]
        if isinstance(vehicles, float) and vehicles.is_integer():  # JSON's 2.0
            vehicles = int(vehicles)
        return cls(distances=payload["distances"], vehicles=vehicles)

    def to_dict(self) -> dict:
        return {"distances": [list(row) for row in self.distances], "vehicles": self.vehicles}


@dataclass(frozen=True)
class LinkVariableIndex:
    """Bijection between directed links (i, j) and bit/qubit positions."""

    links: tuple[tuple[int, int], ...]

    @classmethod
    def for_nodes(cls, node_count: int) -> "LinkVariableIndex":
        links = tuple((i, j) for i in range(node_count) for j in range(node_count) if i != j)
        return cls(links=links)

    @property
    def n(self) -> int:
        return len(self.links)

    def position(self, i: int, j: int) -> int:
        return self.links.index((i, j))

    def name(self, q: int) -> str:
        i, j = self.links[q]
        return f"x({i},{j})"


@dataclass(frozen=True)
class LinearConstraint:
    """Sum of unit-coefficient link variables compared against an integer."""

    variables: tuple[int, ...]
    rhs: int
    relation: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.relation not in (EQUAL, AT_LEAST):
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("repeated variable in constraint")

    def holds(self, values: Sequence[int]) -> bool:
        total = sum(values[q] for q in self.variables)
        return total == self.rhs if self.relation == EQUAL else total >= self.rhs


@dataclass(frozen=True)
class ConstraintSet:
    n: int
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        for c in self.constraints:
            if any(q >= self.n or q < 0 for q in c.variables):
                raise ValueError(f"constraint {c.label!r} references variable out of range")

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)


def build_constraints(inst: VrpInstance) -> ConstraintSet:
    """Degree, visit, and subtour-elimination constraints of an instance.

    Emission order: depot in-degree, depot out-degree, per-customer
    out-degree, per-customer in-degree, then one at-least-1 constraint per
    customer subset of size >= 2.  Exact duplicates (possible for the
    two-node instance) are dropped, keeping the first occurrence.  The
    out-degree-before-in-degree order makes the greedy XY-pair matching
    downstream pick out-degree pairs, which sit on adjacent qubits under
    the lexicographic link order.
    """
    m = inst.node_count
    idx = LinkVariableIndex.for_nodes(m)
    k = inst.vehicles
    constraints: list[LinearConstraint] = []

    def out_links(i: int) -> tuple[int, ...]:
        return tuple(idx.position(i, j) for j in range(m) if j != i)

    def in_links(i: int) -> tuple[int, ...]:
        return tuple(idx.position(j, i) for j in range(m) if j != i)

    constraints.append(LinearConstraint(in_links(0), k, EQUAL, "depot in-degree"))
    constraints.append(LinearConstraint(out_links(0), k, EQUAL, "depot out-degree"))
    for i in inst.customers:
        constraints.append(LinearConstraint(out_links(i), 1, EQUAL, f"node {i} out-degree"))
    for i in inst.customers:
        constraints.append(LinearConstraint(in_links(i), 1, EQUAL, f"node {i} in-degree"))
    for size in range(2, m):
        for subset in itertools.combinations(inst.customers, size):
            inside = set(subset)
            leaving = tuple(
                idx.position(i, j) for i in subset for j in range(m) if j not in inside
            )
            label = "subtour S={" + ",".join(str(i) for i in subset) + "}"
            constraints.append(LinearConstraint(leaving, 1, AT_LEAST, label))

    seen: set[tuple] = set()
    unique: list[LinearConstraint] = []
    for c in constraints:
        key = (tuple(sorted(c.variables)), c.rhs, c.relation)
        if key not in seen:
            seen.add(key)
            unique.append(c)
    return ConstraintSet(n=idx.n, constraints=tuple(unique))


def _as_values(bits: str, n: int) -> list[int]:
    """The 0/1 values of a string of ``n`` binary digits, variable 0 first."""
    if not isinstance(bits, str) or len(bits) != n or bits.strip("01"):
        raise ValueError(f"bitstring {bits!r} is not {n} binary digits")
    return [int(ch) for ch in bits]


def is_feasible(bits: str, cs: ConstraintSet) -> bool:
    """True iff the assignment satisfies every constraint."""
    values = _as_values(bits, cs.n)
    return all(c.holds(values) for c in cs)


def route_cost(bits: str, inst: VrpInstance) -> float:
    """Total distance of the active links, ignoring feasibility."""
    idx = LinkVariableIndex.for_nodes(inst.node_count)
    values = _as_values(bits, idx.n)
    return float(sum(inst.distance(i, j) * values[q] for q, (i, j) in enumerate(idx.links)))


def feasibility_mask(cs: ConstraintSet, n: int) -> np.ndarray:
    """Boolean feasibility of all 2^n assignments, vectorized."""
    mask = np.ones(1 << n, dtype=bool)
    for c in cs:
        total = np.zeros(1 << n, dtype=np.int64)
        for q in c.variables:
            total += _bit_column(n, q)
        mask &= (total == c.rhs) if c.relation == EQUAL else (total >= c.rhs)
    return mask


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive-scan optima, both unconstrained (QUBO) and feasibility-filtered."""

    qubo_argmin: tuple[str, ...]
    qubo_min: float
    feasible_optima: tuple[str, ...]
    feasible_cost: float
    feasible_count: int


def brute_force_optimum(
    inst: VrpInstance, cs: ConstraintSet, qubo_values: np.ndarray
) -> BruteForceResult:
    """Scan all 2^n assignments for the QUBO minimum and the feasible cost minimum.

    ``qubo_values[int(bits, 2)]`` is the QUBO's value at ``bits``.  The
    feasible side is computed from the raw constraints and link costs,
    independently of the penalty encoding, so it doubles as an oracle for it.
    """
    n = cs.n
    qubo_min = float(qubo_values.min())
    qubo_argmin = tuple(index_bitstring(int(i), n) for i in tied_minima(qubo_values))

    idx = LinkVariableIndex.for_nodes(inst.node_count)
    costs = np.zeros(1 << n)
    for q, (i, j) in enumerate(idx.links):
        w = inst.distance(i, j)
        if w:
            costs += w * _bit_column(n, q)
    feasible = feasibility_mask(cs, n)
    count = int(feasible.sum())
    if count == 0:
        return BruteForceResult(qubo_argmin, qubo_min, (), math.inf, 0)
    best = float(costs[feasible].min())
    winners = np.flatnonzero(feasible)[tied_minima(costs[feasible])]
    optima = tuple(index_bitstring(int(i), n) for i in winners)
    return BruteForceResult(qubo_argmin, qubo_min, optima, best, count)
