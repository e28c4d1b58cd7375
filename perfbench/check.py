"""Output check: every run record against an independent recomputation.

Nothing here runs inside a timed region.  A record passes when

* its stored distribution matches the gate-level reference engine
  (``ansatz.evolve(engine="gate")``, plus readout confusion in regime III)
  at the record's own angles to within ``DIST_TOL``;
* its histogram is well formed and its optimal-state frequency is
  consistent with the reference distribution;
* its metrics equal ``metrics.run_metrics`` re-derived from its histogram;
* in regime I, its objective equals the reference expectation.

The oracle the metrics rest on is confirmed separately by enumerating every
bitstring with ``instance.is_feasible`` and ``instance.route_cost``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from vrpqaoa import cli
from vrpqaoa.ansatz import (
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    STANDARD,
    AnsatzSpec,
    ParameterPoint,
    evolve,
)
from vrpqaoa.instance import is_feasible, route_cost
from vrpqaoa.metrics import run_metrics
from vrpqaoa.optimize import ObjectiveKind
from vrpqaoa.simcore import ShotHistogram, apply_readout_confusion, measure_distribution

#: Largest deviation allowed between a stored and a recomputed distribution
#: (the tolerance of the package's engine-equivalence acceptance criterion).
DIST_TOL = 1e-9
#: Metrics are re-derived from the same histogram, so only rounding differs.
METRIC_TOL = 1e-9
#: Standard errors allowed between histogram and distribution optimal mass.
SAMPLING_SIGMAS = 6.0


def oracle_errors(problem: cli.Problem) -> list[str]:
    """Confirm the oracle's optimum by enumerating all 2^n bitstrings."""
    n = problem.qubo.n
    costs = {}
    for bits in ("".join(b) for b in itertools.product("01", repeat=n)):
        if is_feasible(bits, problem.constraints):
            costs[bits] = route_cost(bits, problem.instance)
    if not costs:
        return ["instance has no feasible assignment"]
    best = min(costs.values())
    optima = tuple(sorted(b for b, c in costs.items() if c <= best + 1e-9))
    errors = []
    if optima != tuple(sorted(problem.oracle.feasible_optima)):
        errors.append(f"oracle optima {problem.oracle.feasible_optima} != enumerated {optima}")
    if abs(best - problem.oracle.feasible_cost) > 1e-9:
        errors.append(f"oracle cost {problem.oracle.feasible_cost} != enumerated {best}")
    return errors


def reference_distribution(
    problem: cli.Problem, kind: ObjectiveKind, model: str, lam: float | None,
    params: ParameterPoint,
) -> np.ndarray:
    if model == STANDARD:
        spec = AnsatzSpec.standard(problem.qubo.n, params.depth)
    else:
        spec = AnsatzSpec.constraint_aware(problem.constraints, params.depth, lam)
    state = evolve(
        spec, problem.cost.ising, params, engine="gate", scale=problem.cost.scale,
        noise=kind.noise, noisy_init=kind.noisy_init,
    )
    probs = measure_distribution(state)
    if kind.noise is not None and kind.noise.has_readout_error:
        probs = apply_readout_confusion(probs, kind.noise.p01, kind.noise.p10)
    return probs


def record_errors(
    record: dict, problem: cli.Problem, kind: ObjectiveKind, shots: int
) -> list[str]:
    """Every way one run record (``RunRecord.as_dict`` layout) is wrong."""
    try:
        return _record_errors(record, problem, kind, shots)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed record: {exc!r}"]


def _record_errors(record: dict, problem: cli.Problem, kind: ObjectiveKind, shots: int) -> list[str]:
    errors = []
    n = problem.qubo.n
    params = ParameterPoint(tuple(record["gamma"]), tuple(record["beta"]))
    if not all(GAMMA_BOUNDS[0] <= g <= GAMMA_BOUNDS[1] for g in params.gamma) or not all(
        BETA_BOUNDS[0] <= b <= BETA_BOUNDS[1] for b in params.beta
    ):
        errors.append("angles outside the parameter box")

    reference = reference_distribution(problem, kind, record["model"], record["lambda"], params)
    stored = np.asarray(record["distribution"], dtype=float)
    if stored.shape != reference.shape:
        return errors + [f"distribution has {stored.size} entries, expected {reference.size}"]
    deviation = float(np.max(np.abs(stored - reference)))
    if not deviation <= DIST_TOL:
        errors.append(f"distribution deviates from the gate-level reference by {deviation:.3e}")

    counts = {str(k): int(v) for k, v in record["histogram"].items()}
    if record["shots"] != shots or sum(counts.values()) != shots:
        errors.append(f"histogram holds {sum(counts.values())} of {shots} shots")
        return errors
    if any(len(k) != n or set(k) - {"0", "1"} or v <= 0 for k, v in counts.items()):
        errors.append("histogram has a malformed bitstring or count")
        return errors
    hist = ShotHistogram(counts=counts, shots=shots)
    optima = problem.oracle.feasible_optima
    p_ref = float(sum(reference[int(b, 2)] for b in optima))
    p_hist = sum(counts.get(b, 0) for b in optima) / shots
    sigma = math.sqrt(max(p_ref * (1.0 - p_ref), 0.0) / shots)
    if abs(p_hist - p_ref) > SAMPLING_SIGMAS * sigma + 1.0 / shots:
        errors.append(f"histogram optimal mass {p_hist:.4f} inconsistent with {p_ref:.4f}")

    derived = run_metrics(hist, optima, problem.qubo, problem.oracle.feasible_cost)
    stored_metrics = record["metrics"]
    if not math.isclose(stored_metrics["optimal_probability"], derived.optimal_probability,
                        rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
        errors.append("optimal_probability does not match the histogram")
    if not math.isclose(stored_metrics["energy_gap"], derived.energy_gap,
                        rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
        errors.append("energy_gap does not match the histogram")
    if stored_metrics["sampling_rank"] != derived.sampling_rank:
        errors.append("sampling_rank does not match the histogram")

    if not kind.stochastic:
        expected = float(reference @ problem.cost.full_diagonal.diagonal) / problem.cost.scale
        if not math.isclose(record["objective"], expected, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
            errors.append(f"objective {record['objective']} != reference {expected}")
    return errors


def failed_records(
    records: list[dict], problem: cli.Problem, kind: ObjectiveKind, shots: int
) -> list[tuple[int, list[str]]]:
    """(index, errors) of every failing record; all fail if the oracle is wrong."""
    oracle = oracle_errors(problem)
    failures = []
    for i, record in enumerate(records):
        errors = oracle + record_errors(record, problem, kind, shots)
        if errors:
            failures.append((i, errors))
    return failures
