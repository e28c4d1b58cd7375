"""Derivative-free outer loop over the scaled energy of a QAOA distribution.

:func:`compile_evaluator` maps angle vectors to measurement distributions, on
the statevector engine in regimes I and II and the density-matrix engine under
gate noise; :func:`objective` scores one: its exact expectation in regime I, a
finite-shot estimate in II and III.  Scores are energies divided by the
configured scale, so optimizer behavior is comparable across regimes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

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

#: The measurement distributions at Nelder-Mead's raw vectors, (..., 2p) -> (..., 2^n),
#: as compile_evaluator builds it.
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

    @property
    def stochastic(self) -> bool:
        return self.regime != "I"


def compile_evaluator(spec: AnsatzSpec, cost: CompiledCost, kind: ObjectiveKind) -> Evaluator:
    """``probs(vecs)``: the measurement distributions at Nelder-Mead's raw vectors
    (the gammas, then the betas), (..., 2p) -> (..., 2^n), compiled once per run.

    ``probs`` is the one reader of an angle batch: it checks the width, rejects an
    empty batch and any non-finite angle before an engine runs, hands the engine
    (rows, p) gammas and betas, and shapes the result back.  Both engines evolve every
    row in one call: the exact engine's loop, or under gate noise the compiled noisy
    layers and read-out, whose reference is :func:`final_distribution`'s gate engine.
    ``probs`` returns fresh arrays; under gate noise it reuses its work arrays from
    call to call, so it takes one call at a time, and each :func:`minimize` call
    compiles its own."""
    spec.check_cost_size(cost.full_diagonal.n)
    noise, p = kind.noise, spec.depth  # None or all zero outside regime III
    noisy = noise is not None and noise.has_gate_noise
    if noisy:
        layers = compile_noisy_layers(spec, cost.ising, cost.scale, noise, kind.noisy_init)
    else:
        layers = compile_exact_layers(spec, cost.phase_diagonal, cost.scale)

    def probs(vecs: Sequence[float]) -> np.ndarray:
        angles = np.asarray(vecs, dtype=float)
        width = angles.shape[-1] if angles.ndim else f"the scalar {vecs!r}"
        if width != 2 * p:
            raise ValueError(f"expected {2 * p} angles, got {width}")
        batch = angles.shape[:-1]
        rows = math.prod(batch)  # not reshape(-1, 2p): 2p is 0 at depth 0
        if not rows:
            raise ValueError(f"angle batch of shape {angles.shape} has no rows")
        angles = angles.reshape(rows, 2 * p)
        if not np.isfinite(angles).all():
            raise ValueError(f"angles must be finite, got {angles[~np.isfinite(angles)][0]}")
        out = layers(angles[:, :p], angles[:, p:])
        if not noisy:  # the noisy layers include the read-out
            out = measure_distribution(out)
            if noise is not None:
                out = np.array([apply_readout_confusion(d, noise.p01, noise.p10) for d in out])
        return out.reshape(*batch, out.shape[-1])

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
    probs: np.ndarray,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """Scaled energy of the measurement distribution ``probs``: its expectation in
    regime I, a shot estimate drawn from ``rng`` in regimes II and III."""
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
    """Raised by :func:`nelder_mead_steps`'s ``evaluate`` once the budget is used."""


NelderMeadResult = tuple[np.ndarray, float, list[float]]


def nelder_mead_steps(
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_evals: int,
) -> Generator[np.ndarray, float, NelderMeadResult]:
    """Nelder-Mead simplex with box clamping on every trial point, as a step
    generator: it yields each trial point and is sent its value, and returns
    (through ``StopIteration.value``) the best point evaluated within the budget,
    its value and the full evaluation history.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    The initial simplex offsets each coordinate by ``NM_STEP`` (flipped to
    ``-NM_STEP`` where that would leave the box).  The simplex is a
    (dim + 1, dim) array and its values a float array, sorted best first.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def clamp(x: np.ndarray) -> np.ndarray:  # np.clip's arithmetic without its wrapper
        return np.minimum(np.maximum(x, lower), upper)

    x0 = clamp(np.asarray(x0, dtype=float))
    dim = len(x0)
    history: list[float] = []
    best_x, best_f = x0.copy(), math.inf

    def evaluate(x: np.ndarray) -> Generator[np.ndarray, float, float]:
        nonlocal best_x, best_f
        if len(history) >= max_evals:
            raise _BudgetSpent
        fx = float((yield x))
        history.append(fx)
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        return fx

    simplex = np.array([x0] * (dim + 1))
    for i in range(dim):
        simplex[i + 1, i] += NM_STEP if x0[i] + NM_STEP <= upper[i] else -NM_STEP
    simplex = clamp(simplex)
    values = np.full(dim + 1, math.inf)

    def along(coef: float) -> np.ndarray:  # on the line from the worst vertex via the centroid
        return clamp(centroid + coef * (centroid - simplex[-1]))

    alpha, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    try:
        for i, vertex in enumerate(simplex):  # views of rows no later step writes
            values[i] = yield from evaluate(vertex)
        while True:
            order = np.argsort(values)
            simplex, values = simplex[order], values[order]
            if values[-1] - values[0] < NM_SPREAD_TOL and np.abs(
                simplex - simplex[0]
            ).max(initial=0.0) < NM_SPREAD_TOL:  # a 0-dimensional simplex is one point
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / dim
            reflected = along(alpha)
            fr = yield from evaluate(reflected)
            if fr < values[0]:
                expanded = along(chi)
                fe = yield from evaluate(expanded)
                simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
            elif fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
            else:
                outside = fr < values[-1]
                contracted = along(psi if outside else -psi)
                fc = yield from evaluate(contracted)
                if fc < (fr if outside else values[-1]):
                    simplex[-1], values[-1] = contracted, fc
                else:
                    for i in range(1, dim + 1):
                        simplex[i] = clamp(simplex[0] + sigma * (simplex[i] - simplex[0]))
                        values[i] = yield from evaluate(simplex[i])
    except _BudgetSpent:
        pass
    return best_x, best_f, history


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_evals: int,
) -> NelderMeadResult:
    """:func:`nelder_mead_steps` driven by ``f``, one trial point at a time.
    Returns the best point evaluated within the budget together with its value
    and the full evaluation history."""
    steps = nelder_mead_steps(x0, lower, upper, max_evals)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value


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
    seed: int | Sequence[int],
) -> OptimizeResult | list[OptimizeResult]:
    """Multi-restart Nelder-Mead over the angle box, seeded by ``seed``; given a
    sequence of seeds, one such minimization per seed, returned as a list.

    Each restart draws its own start point and (for stochastic kinds) its
    own sampling stream.  The restarts of every seed advance in lockstep: each
    round evaluates every unfinished restart's pending point in one stacked
    evaluator call, then scores the rows in (seed, restart) order, each with
    its restart's own stream, so every restart draws and steps exactly as it
    would alone.  A restart whose simplex converges leaves the round.
    Restart winners of stochastic objectives are compared by re-evaluating
    every candidate of a seed with that seed's one fixed evaluation stream
    (all seeds' candidates in one call), so the selection is reproducible and
    unbiased by per-restart sampling luck.  Every evaluator row has the bits
    of a one-row call, so a seed's result does not depend on the seeds run
    beside it.
    """
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if not seeds:
        raise ValueError("need at least one seed")
    restarts = cfg.restarts
    lower, upper = _parameter_bounds(spec.depth)
    evaluator = compile_evaluator(spec, cost, kind)

    children = [np.random.SeedSequence(s).spawn(restarts + 1) for s in seeds]
    eval_keys = [kids[-1] for kids in children]
    # one restart per row, in (seed, restart) order: run j is restart j % restarts
    rngs = [np.random.default_rng(child) for kids in children for child in kids[:-1]]
    runs = [
        nelder_mead_steps(ParameterPoint.random(spec.depth, rng).as_vector(), lower, upper,
                          cfg.max_evals)
        for rng in rngs
    ]
    results: dict[int, NelderMeadResult] = {}
    pending = {j: next(run) for j, run in enumerate(runs)}  # trial points, in row order
    while pending:
        rows = evaluator(np.array(list(pending.values())))
        for j, probs in zip(list(pending), rows):
            value = objective(probs, cost, kind, cfg, rngs[j])
            try:
                pending[j] = runs[j].send(value)
            except StopIteration as done:
                results[j] = done.value
                del pending[j]

    candidates = [results[j] for j in range(len(runs))]
    if kind.stochastic:
        rows = evaluator(np.array([x for x, _, _ in candidates]))
        scores = [objective(probs, cost, kind, cfg, np.random.default_rng(eval_keys[j // restarts]))
                  for j, probs in enumerate(rows)]
    else:
        scores = [value for _, value, _ in candidates]
    out = []
    for i in range(len(seeds)):
        first = i * restarts
        winner = first + int(np.argmin(scores[first:first + restarts]))
        out.append(OptimizeResult(
            params=ParameterPoint.from_vector(candidates[winner][0]),
            objective=float(scores[winner]),
            trace=[(r, k, v) for r in range(restarts)
                   for k, v in enumerate(candidates[first + r][2])],
        ))
    return out[0] if np.ndim(seed) == 0 else out


def write_trace_csv(trace: Sequence[tuple[int, int, float]], path: str) -> None:
    """Persist a minimize() trace as (restart, evaluation, objective) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "evaluation", "objective"])
        for restart, index, value in trace:
            writer.writerow([restart, index, f"{value:.12g}"])
