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
    evolve,
)
from .encode import CompiledCost
from .simcore import NoiseModel, apply_readout_confusion, measure_distribution

EXACT_EXPECTATION = "exact_expectation"
SHOT_ESTIMATE = "shot_estimate"
NOISY_SHOT_ESTIMATE = "noisy_shot_estimate"

_KINDS = (EXACT_EXPECTATION, SHOT_ESTIMATE, NOISY_SHOT_ESTIMATE)

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
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_evals", "shots_objective", "batches", "shots_final"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ObjectiveKind:
    """Which evaluator to run, and the noise model for the noisy one."""

    kind: str
    noise: NoiseModel | None = None
    noisy_init: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == NOISY_SHOT_ESTIMATE and self.noise is None:
            raise ValueError("noisy objective needs a NoiseModel")

    @classmethod
    def exact(cls) -> "ObjectiveKind":
        return cls(kind=EXACT_EXPECTATION)

    @classmethod
    def shots(cls) -> "ObjectiveKind":
        return cls(kind=SHOT_ESTIMATE)

    @classmethod
    def noisy(cls, noise: NoiseModel, noisy_init: bool = True) -> "ObjectiveKind":
        return cls(kind=NOISY_SHOT_ESTIMATE, noise=noise, noisy_init=noisy_init)

    @property
    def stochastic(self) -> bool:
        return self.kind != EXACT_EXPECTATION


def final_distribution(
    spec: AnsatzSpec,
    cost: CompiledCost,
    params: ParameterPoint,
    kind: ObjectiveKind,
) -> np.ndarray:
    """Measurement distribution at the given angles under the regime's engine.

    In the noisy regime it includes the noise model's readout confusion.
    """
    if kind.kind == NOISY_SHOT_ESTIMATE:
        state = evolve(
            spec,
            cost.ising,
            params,
            engine="gate",
            scale=cost.scale,
            noise=kind.noise,
            noisy_init=kind.noisy_init,
        )
        probs = measure_distribution(state)
        if kind.noise.has_readout_error:
            probs = apply_readout_confusion(probs, kind.noise.p01, kind.noise.p10)
        return probs
    state = evolve(spec, cost.phase_diagonal, params, engine="exact", scale=cost.scale)
    return measure_distribution(state)


def objective(
    params: ParameterPoint,
    spec: AnsatzSpec,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """Scaled energy at the given angles under the chosen evaluator."""
    probs = final_distribution(spec, cost, params, kind)
    diag = cost.full_diagonal.diagonal
    if kind.kind == EXACT_EXPECTATION:
        return float(probs @ diag) / cost.scale
    if rng is None:
        raise ValueError("shot-based objectives need a random generator")
    batch_means = []
    for _ in range(cfg.batches):
        counts = rng.multinomial(cfg.shots_objective, probs)
        batch_means.append(float(counts @ diag) / cfg.shots_objective)
    return float(np.mean(batch_means)) / cost.scale


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
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    dim = len(x0)
    history: list[float] = []
    best_x, best_f = x0.copy(), math.inf

    def evaluate(x: np.ndarray) -> float:
        nonlocal best_x, best_f
        fx = float(f(x))
        history.append(fx)
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        return fx

    simplex = [x0.copy()]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] = vertex[i] + NM_STEP if vertex[i] + NM_STEP <= upper[i] else vertex[i] - NM_STEP
        simplex.append(np.clip(vertex, lower, upper))
    values = []
    for vertex in simplex:
        if len(history) >= max_evals:
            return best_x, best_f, history
        values.append(evaluate(vertex))

    alpha, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    while len(history) < max_evals:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < NM_SPREAD_TOL and max(
            float(np.max(np.abs(v - simplex[0]))) for v in simplex
        ) < NM_SPREAD_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = np.clip(centroid + alpha * (centroid - simplex[-1]), lower, upper)
        fr = evaluate(reflected)
        if fr < values[0]:
            if len(history) < max_evals:
                expanded = np.clip(centroid + chi * (centroid - simplex[-1]), lower, upper)
                fe = evaluate(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = np.clip(centroid + psi * (centroid - simplex[-1]), lower, upper)
                shrink_anchor = fr
            else:
                contracted = np.clip(centroid - psi * (centroid - simplex[-1]), lower, upper)
                shrink_anchor = values[-1]
            if len(history) >= max_evals:
                break
            fc = evaluate(contracted)
            if fc < shrink_anchor:
                simplex[-1], values[-1] = contracted, fc
            else:
                for i in range(1, len(simplex)):
                    if len(history) >= max_evals:
                        return best_x, best_f, history
                    simplex[i] = np.clip(
                        simplex[0] + sigma * (simplex[i] - simplex[0]), lower, upper
                    )
                    values[i] = evaluate(simplex[i])
    return best_x, best_f, history


@dataclass
class OptimizeResult:
    params: ParameterPoint
    objective: float
    trace: list[tuple[int, int, float]]
    evaluations: int


def _parameter_bounds(depth: int) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([GAMMA_BOUNDS[0]] * depth + [BETA_BOUNDS[0]] * depth)
    upper = np.array([GAMMA_BOUNDS[1]] * depth + [BETA_BOUNDS[1]] * depth)
    return lower, upper


def minimize(
    spec: AnsatzSpec,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
) -> OptimizeResult:
    """Multi-restart Nelder-Mead over the angle box.

    Each restart draws its own start point and (for stochastic kinds) its
    own sampling stream.  Restart winners of stochastic objectives are
    compared by re-evaluating every candidate with one shared, fixed
    evaluation stream so the selection is reproducible and unbiased by
    per-restart sampling luck.
    """
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.restarts + 1)
    eval_key = children[-1]
    lower, upper = _parameter_bounds(spec.depth)

    trace: list[tuple[int, int, float]] = []
    candidates: list[tuple[ParameterPoint, float]] = []
    total_evals = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng(children[r])
        start = ParameterPoint.random(spec.depth, rng).as_vector()

        def f(vec: np.ndarray) -> float:
            point = ParameterPoint.from_vector(vec).clamped()
            return objective(point, spec, cost, kind, cfg, rng=rng if kind.stochastic else None)

        best_x, best_f, history = nelder_mead(f, start, lower, upper, cfg.max_evals)
        trace.extend((r, i, v) for i, v in enumerate(history))
        total_evals += len(history)
        candidates.append((ParameterPoint.from_vector(best_x).clamped(), best_f))

    if kind.stochastic:
        scores = [
            objective(point, spec, cost, kind, cfg, rng=np.random.default_rng(eval_key))
            for point, _ in candidates
        ]
    else:
        scores = [value for _, value in candidates]
    winner = int(np.argmin(scores))
    return OptimizeResult(
        params=candidates[winner][0],
        objective=float(scores[winner]),
        trace=trace,
        evaluations=total_evals,
    )


def write_trace_csv(trace: Sequence[tuple[int, int, float]], path: str) -> None:
    """Persist a minimize() trace as (restart, evaluation, objective) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "evaluation", "objective"])
        for restart, index, value in trace:
            writer.writerow([restart, index, f"{value:.12g}"])
