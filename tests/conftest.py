import pytest

from vrpqaoa.cli import build_problem, load_instance, toy_instance_path
from vrpqaoa.instance import EQUAL, VrpInstance
from vrpqaoa.simcore import GateOp, StateVector, apply_diagonal_phase, apply_gate

# Variable order for the three-node instance:
#   0: x(0,1)  1: x(0,2)  2: x(1,0)  3: x(1,2)  4: x(2,0)  5: x(2,1)
X01, X02, X10, X12, X20, X21 = range(6)

FEASIBLE = "111010"
FEASIBLE_COST = 132.0
PENALTY = 435.6


@pytest.fixture(scope="session")
def toy_instance() -> VrpInstance:
    return load_instance(toy_instance_path())


@pytest.fixture(scope="session")
def toy():
    """Instance, constraints, QUBO, compiled cost, and oracle in one bundle."""
    return build_problem(load_instance(toy_instance_path()))


def all_bitstrings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1 << n)]


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
