"""Derivative-free outer loop over the three objective evaluators.

The objective comes in three flavors matching the evaluation regimes:
exact statevector expectation, finite-shot estimation, and noisy
finite-shot estimation on the density-matrix engine.  All three return
energies divided by the configured scale, so optimizer behavior is
comparable across regimes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ansatz import (
    AnsatzSpec,
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    ParameterPoint,
    compile_exact_layers,
    compile_noisy_layers,
    evolve,
)
from .encode import CompiledCost
from .instance import check_whole
from .simcore import NoiseModel, apply_readout_confusion, measure_distribution

#: Evaluation regimes: exact statevector (I), finite shots (II) and noisy
#: finite shots on the density-matrix engine (III).
REGIMES = ("I", "II", "III")

#: The measurement distribution at Nelder-Mead's raw vector, as compile_evaluator builds it.
Evaluator = Callable[[Sequence[float]], np.ndarray]

#: Offset of each coordinate of the initial Nelder-Mead simplex.
NM_STEP = 0.25
#: The simplex stops once both its values and its vertices lie this close.
NM_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 5
    max_evals: int = 150
    shots_objective: int = 1024
    batches: int = 3
    shots_final: int = 4096

    def __post_init__(self) -> None:
        for name in ("restarts", "max_evals", "shots_objective", "batches", "shots_final"):
            check_whole(name, getattr(self, name), 1)


@dataclass(frozen=True)
class ObjectiveKind:
    """The evaluation regime, and the noise model of regime III."""

    regime: str
    noise: NoiseModel | None = None
    noisy_init: bool = True

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; regimes are {', '.join(REGIMES)}")
        if not isinstance(self.noise, (NoiseModel, type(None))):
            raise ValueError(f"noise must be a NoiseModel or None, got {self.noise!r}")
        if self.regime == "III" and self.noise is None:
            raise ValueError("regime III needs a noise model")
        if self.regime != "III" and self.noise not in (None, NoiseModel()):
            raise ValueError(f"regime {self.regime} is noiseless; noise applies to regime III only")

    @classmethod
    def exact(cls) -> "ObjectiveKind":
        return cls("I")

    @classmethod
    def shots(cls) -> "ObjectiveKind":
        return cls("II")

    @classmethod
    def noisy(cls, noise: NoiseModel) -> "ObjectiveKind":
        return cls("III", noise)

    @property
    def stochastic(self) -> bool:
        return self.regime != "I"


def compile_evaluator(spec: AnsatzSpec, cost: CompiledCost, kind: ObjectiveKind) -> Evaluator:
    """``probs(vec)``: the measurement distribution at Nelder-Mead's raw vector
    (the gammas, then the betas), compiled once per run.  It runs the exact
    engine's loop, or under gate noise the compiled noisy layer, whose
    reference is :func:`final_distribution`'s gate engine."""
    spec.check_cost_size(cost.full_diagonal.n)
    noise, p = kind.noise, spec.depth  # None or all zero outside regime III
    if noise is not None and noise.has_gate_noise:
        layers = compile_noisy_layers(spec, cost.ising, cost.scale, noise, kind.noisy_init)
    else:
        layers = compile_exact_layers(spec, cost.phase_diagonal, cost.scale)

    def probs(vec: Sequence[float]) -> np.ndarray:
        if len(vec) != 2 * p:
            raise ValueError(f"expected {2 * p} angles, got {len(vec)}")
        angles = np.asarray(vec, dtype=float)
        out = measure_distribution(layers(angles[:p], angles[p:]))
        return out if noise is None else apply_readout_confusion(out, noise.p01, noise.p10)

    return probs


def final_distribution(
    spec: AnsatzSpec,
    cost: CompiledCost,
    params: ParameterPoint,
    kind: ObjectiveKind,
) -> np.ndarray:
    """Measurement distribution at the given angles.

    Under gate noise it runs the density-matrix gate engine, the reference of
    the compiled noisy layer, then the readout confusion; every other case is
    :func:`compile_evaluator`'s.
    """
    if kind.noise is None or not kind.noise.has_gate_noise:
        return compile_evaluator(spec, cost, kind)(params.as_vector())
    state = evolve(spec, cost.ising, params, engine="gate", scale=cost.scale, noise=kind.noise,
                   noisy_init=kind.noisy_init)
    return apply_readout_confusion(measure_distribution(state), kind.noise.p01, kind.noise.p10)


def objective(
    params: ParameterPoint | np.ndarray,
    spec: AnsatzSpec,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
    evaluator: Evaluator | None = None,
) -> float:
    """Scaled energy at the given angles (a point, or Nelder-Mead's raw vector)
    under ``evaluator``, by default ``compile_evaluator(spec, cost, kind)``."""
    vec = params.as_vector() if isinstance(params, ParameterPoint) else params
    probs = (evaluator or compile_evaluator(spec, cost, kind))(vec)
    diag = cost.full_diagonal.diagonal
    if not kind.stochastic:
        return float(probs @ diag) / cost.scale
    if rng is None:
        raise ValueError("shot-based objectives need a random generator")
    # one draw of every batch, the same as one call per batch; the batch means
    # are summed left to right, as np.mean does for a few values
    total = 0.0
    for counts in rng.multinomial(cfg.shots_objective, probs, size=cfg.batches):
        total += float(counts @ diag) / cfg.shots_objective
    return total / cfg.batches / cost.scale


class _BudgetSpent(Exception):
    """Raised by :func:`nelder_mead`'s ``evaluate`` once the budget is used."""


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_evals: int,
) -> tuple[np.ndarray, float, list[float]]:
    """Nelder-Mead simplex with box clamping on every trial point.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    The initial simplex offsets each coordinate by ``NM_STEP`` (flipped to
    ``-NM_STEP`` where that would leave the box).  Returns the best point
    evaluated within the budget together with the full evaluation history.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def clamp(x: np.ndarray) -> np.ndarray:  # np.clip's arithmetic without its wrapper
        return np.minimum(np.maximum(x, lower), upper)

    x0 = clamp(np.asarray(x0, dtype=float))
    dim = len(x0)
    history: list[float] = []
    best_x, best_f = x0.copy(), math.inf

    def evaluate(x: np.ndarray) -> float:
        nonlocal best_x, best_f
        if len(history) >= max_evals:
            raise _BudgetSpent
        fx = float(f(x))
        history.append(fx)
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        return fx

    simplex = [x0.copy()]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] = vertex[i] + NM_STEP if vertex[i] + NM_STEP <= upper[i] else vertex[i] - NM_STEP
        simplex.append(clamp(vertex))

    def along(coef: float) -> np.ndarray:  # on the line from the worst vertex via the centroid
        return clamp(centroid + coef * (centroid - simplex[-1]))

    alpha, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    try:
        values = [evaluate(vertex) for vertex in simplex]
        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < NM_SPREAD_TOL and max(
                float(np.max(np.abs(v - simplex[0]))) for v in simplex
            ) < NM_SPREAD_TOL:
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / dim
            reflected = along(alpha)
            fr = evaluate(reflected)
            if fr < values[0]:
                expanded = along(chi)
                fe = evaluate(expanded)
                simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
            elif fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
            else:
                outside = fr < values[-1]
                contracted = along(psi if outside else -psi)
                fc = evaluate(contracted)
                if fc < (fr if outside else values[-1]):
                    simplex[-1], values[-1] = contracted, fc
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = clamp(simplex[0] + sigma * (simplex[i] - simplex[0]))
                        values[i] = evaluate(simplex[i])
    except _BudgetSpent:
        pass
    return best_x, best_f, history


@dataclass
class OptimizeResult:
    params: ParameterPoint
    objective: float
    trace: list[tuple[int, int, float]]


def _parameter_bounds(depth: int) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([GAMMA_BOUNDS[0]] * depth + [BETA_BOUNDS[0]] * depth)
    upper = np.array([GAMMA_BOUNDS[1]] * depth + [BETA_BOUNDS[1]] * depth)
    return lower, upper


def minimize(
    spec: AnsatzSpec,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    seed: int,
) -> OptimizeResult:
    """Multi-restart Nelder-Mead over the angle box, seeded by ``seed``.

    Each restart draws its own start point and (for stochastic kinds) its
    own sampling stream.  Restart winners of stochastic objectives are
    compared by re-evaluating every candidate with one shared, fixed
    evaluation stream so the selection is reproducible and unbiased by
    per-restart sampling luck.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(cfg.restarts + 1)
    eval_key = children[-1]
    lower, upper = _parameter_bounds(spec.depth)
    evaluator = compile_evaluator(spec, cost, kind)

    trace: list[tuple[int, int, float]] = []
    candidates: list[tuple[ParameterPoint, float]] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(children[r])
        start = ParameterPoint.random(spec.depth, rng).as_vector()

        def f(vec: np.ndarray) -> float:
            return objective(vec, spec, cost, kind, cfg, rng, evaluator)

        best_x, best_f, history = nelder_mead(f, start, lower, upper, cfg.max_evals)
        trace.extend((r, i, v) for i, v in enumerate(history))
        candidates.append((ParameterPoint.from_vector(best_x), best_f))

    if kind.stochastic:
        scores = [
            objective(point, spec, cost, kind, cfg, np.random.default_rng(eval_key), evaluator)
            for point, _ in candidates
        ]
    else:
        scores = [value for _, value in candidates]
    winner = int(np.argmin(scores))
    return OptimizeResult(
        params=candidates[winner][0],
        objective=float(scores[winner]),
        trace=trace,
    )


def write_trace_csv(trace: Sequence[tuple[int, int, float]], path: str) -> None:
    """Persist a minimize() trace as (restart, evaluation, objective) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "evaluation", "objective"])
        for restart, index, value in trace:
            writer.writerow([restart, index, f"{value:.12g}"])
