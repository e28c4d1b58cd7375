"""Constraint-aware QAOA for small vehicle routing instances."""

from .ansatz import (
    AnsatzSpec,
    CONSTRAINT_AWARE,
    ParameterPoint,
    STANDARD,
    derive_constraint_groups,
    evolve,
)
from .encode import (
    CompiledCost,
    CostOperator,
    IsingCoefficients,
    QuboProblem,
    penalize,
    qubo_value,
    to_cost_operator,
    to_ising,
)
from .instance import (
    ConstraintSet,
    LinkVariableIndex,
    VrpInstance,
    brute_force_optimum,
    build_constraints,
    is_feasible,
    route_cost,
)
from .metrics import (
    AggregateStats,
    RunMetrics,
    aggregate,
    expected_energy_gap,
    optimal_state_probability,
    sampling_rank,
)
from .optimize import ObjectiveKind, OptimizerConfig, final_distribution, minimize, objective
from .simcore import DensityMatrix, NoiseModel, ShotHistogram, StateVector, sample

__version__ = "0.1.0"
